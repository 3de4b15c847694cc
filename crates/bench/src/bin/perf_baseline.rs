//! `perf_baseline` — the simulated-outcome fingerprint gate.
//!
//! Runs every hot surface of the reproduction once and emits
//! `BENCH_perf.json`, one entry per scenario with a *fingerprint* folding
//! its simulated results, so a change to simulated outcomes cannot land
//! silently. Host time is measured by the `perfbench` package, not here.
//!
//! * `kernel_*` — the functional GEMM kernels (`Mmae::gemm_functional`)
//!   at each precision;
//! * `single_node_fig6` — the Fig. 6 single-node timing sweep;
//! * `fig7_16node` — the Fig. 7 16-node timing sweep (the headline number);
//! * `serve_throughput` — the multi-tenant serving co-simulation (16
//!   nodes, 8 tenants, mixed BERT/GPT-3/ResNet trace, all three
//!   policies), fingerprinting every schedule;
//! * `serve_throughput_mt4` — the same trace sharded over 4 OS threads by
//!   the replica runner (per-shard simulated outcomes are bit-identical
//!   to single-thread);
//! * `serve_int8_mixed` — the same trace shape under the
//!   `TraceConfig::quantized` INT8/FP16 tenant ladder, all three policies;
//! * `explore_sweep` — a `maco-explore` design-space sweep (nodes ×
//!   prediction × stash/lock with all four baseline comparators);
//! * `autotune_sweep` — the roofline autotuner validation sweep
//!   (`maco_explore::autotune`): at every (precision, size, CCM
//!   bandwidth) grid point the autotuned tiling is simulated against
//!   every fixed candidate and asserted unbeaten; the sweep fingerprint
//!   pins chosen tilings and every simulated makespan;
//! * `cluster_throughput` — scale-out serving through `maco-cluster`: the
//!   fleet trace on one 16-node machine vs a 4×4-node fleet at the
//!   bandwidth-constrained uncore point, with `speedup_vs_one_machine`
//!   recording the fleet's throughput advantage at equal total nodes;
//! * `cluster_failover` — the failure-storm trace on a 4×4-node fleet
//!   with two machine kills mid-burst (one recovery), pinning the
//!   schedule, the fault timeline and the telemetry trace;
//! * `serve_throughput_100k` — the event-core throughput stressor: 10⁵
//!   all-micro single-layer requests (10⁴ in quick mode) streamed through
//!   a 4×4-node fleet; full mode also runs 10⁴ and asserts near-linear
//!   wall-clock scaling from 10⁴ to 10⁵;
//! * `placement_sfc` — the communication-avoiding placement head-to-head
//!   (`maco_explore::placement`): every tile→node ordering on a partial
//!   4×4 mesh scored by NoC hop·flits, and `Placement::SfcLocality`
//!   against the three classic fleet policies scored by attributed
//!   interconnect bytes per job; the wins are asserted on every run.
//!
//! Fingerprints fold output bits for kernels and makespans, efficiencies
//! and schedule fingerprints for system runs.
//!
//! Flags:
//!
//! * `--quick`  — trimmed sizes for CI smoke runs;
//! * `--out P`  — write the JSON report to `P` (default `BENCH_perf.json`);
//! * `--before P` — compare every scenario with its entry in a previous
//!   report and record `fingerprint_match` per entry;
//! * `--strict` — exit non-zero unless every scenario matched its
//!   `--before` entry: a missing `--before`, a missing entry or a trace
//!   fingerprint on one side only counts as a mismatch (CI runs this
//!   against the committed baselines).

use std::time::Instant;

use maco_cluster::{Cluster, ClusterSpec, FaultSpec, Placement};
use maco_core::system::{MacoSystem, SystemConfig};
use maco_core::TileOrder;
use maco_explore::{autotune_sweep_full, autotune_sweep_quick, Explorer, SweepGrid};
use maco_explore::{placement_sweep, PlacementReport};
use maco_isa::Precision;
use maco_mmae::Mmae;
use maco_serve::{run_replicas, Policy, ServeConfig, Server, Tenant};
use maco_sim::{SimDuration, SimTime};
use maco_telemetry::TraceSink;
use maco_workloads::gemm::fill_random_matrix;
use maco_workloads::trace::{self, TraceConfig};

struct BenchResult {
    name: String,
    detail: String,
    fingerprint: String,
    /// Extra raw JSON fields (`, "k": v` snippets) appended to the entry.
    extra: String,
}

/// Folds a slice of result bits into a stable order-sensitive hash (the
/// serving layer's fingerprint fold — one implementation, shared).
use maco_sim::fold_fingerprint as fold_bits;

fn kernel_bench(precision: Precision, n: usize) -> BenchResult {
    let [mut a, mut b, mut c] = [101, 102, 103].map(|seed| {
        let mut m = Vec::new();
        fill_random_matrix(seed, n, n, &mut m);
        m
    });
    if precision == Precision::Int8 {
        // The random fill draws from [-0.5, 0.5), which quantizes to an
        // all-zero i8 problem; spread it across the full signed range so
        // the integer kernel does representative work.
        for m in [&mut a, &mut b, &mut c] {
            m.iter_mut().for_each(|v| *v *= 254.0);
        }
    }
    let y = Mmae::new(Default::default()).gemm_functional(&a, &b, &c, n, n, n, precision);
    let fp = y.iter().fold(0, |fp, v| fold_bits(fp, v.to_bits()));
    BenchResult {
        name: format!("kernel_{precision}"),
        detail: format!("{n}x{n}x{n} gemm_functional"),
        fingerprint: format!("{fp:016x}"),
        extra: String::new(),
    }
}

fn system_bench(name: &str, nodes: usize, sizes: &[u64]) -> BenchResult {
    let mut fp = 0u64;
    for &n in sizes {
        let mut sys = MacoSystem::new(SystemConfig {
            nodes,
            ..SystemConfig::default()
        });
        let r = sys
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .expect("mapped");
        fp = fold_bits(fp, r.makespan.as_fs());
        for node in &r.nodes {
            fp = fold_bits(fp, node.elapsed.as_fs());
            fp = fold_bits(fp, node.translation.pages);
        }
    }
    BenchResult {
        name: name.to_string(),
        detail: format!("{nodes}-node sizes {sizes:?}"),
        fingerprint: format!("{fp:016x}"),
        extra: String::new(),
    }
}

/// The serving trace both serve benches run: 16 nodes, 8 tenants, mixed
/// models.
fn serve_trace(quick: bool) -> (SystemConfig, Vec<Tenant>, Vec<trace::TraceRequest>) {
    let config = TraceConfig {
        seed: 0xBE7C,
        tenants: 8,
        requests: if quick { 10 } else { 16 },
        layer_cap: if quick { 2 } else { 3 },
        ..TraceConfig::default()
    };
    (
        SystemConfig::default(),
        Tenant::fleet(config.tenants),
        trace::generate(&config),
    )
}

/// Serving co-simulation under all three policies, single-threaded; the
/// fingerprint folds the three schedule fingerprints.
fn serve_bench(quick: bool) -> BenchResult {
    let (system, tenants, trace) = serve_trace(quick);
    let mut fp = 0u64;
    let mut jobs = 0u64;
    for policy in Policy::ALL {
        let mut server = Server::new(
            MacoSystem::new(system.clone()),
            tenants.clone(),
            ServeConfig::with_policy(policy),
        );
        let report = server.run_trace(&trace).expect("trace completes");
        fp = fold_bits(fp, report.fingerprint);
        fp = fold_bits(fp, report.makespan.as_fs());
        jobs += report.jobs_completed;
    }
    BenchResult {
        name: "serve_throughput".to_string(),
        detail: format!(
            "16-node 8-tenant mixed trace, {} requests x 3 policies, {jobs} jobs",
            trace.len()
        ),
        fingerprint: format!("{fp:016x}"),
        extra: String::new(),
    }
}

/// The same trace sharded over OS threads by the replica runner.
fn serve_replica_bench(quick: bool, threads: usize) -> BenchResult {
    let (system, tenants, trace) = serve_trace(quick);
    let config = ServeConfig::default();
    let shards = trace::shard_balanced(&trace, threads);
    let outcome = run_replicas(&system, &tenants, &config, &shards).expect("replicas complete");
    BenchResult {
        name: format!("serve_throughput_mt{threads}"),
        detail: format!(
            "replica runner, {} requests over {threads} threads ({} jobs)",
            trace.len(),
            outcome.jobs_completed()
        ),
        fingerprint: format!("{:016x}", outcome.fingerprint),
        extra: String::new(),
    }
}

/// Quantized serving co-simulation: the serve-bench trace shape under the
/// `TraceConfig::quantized` INT8/FP16 tenant ladder, all three policies.
/// The fingerprint folds the three schedule fingerprints exactly like
/// `serve_throughput`, so the strict gate pins the mixed-precision
/// serving path end to end.
fn serve_int8_bench(quick: bool) -> BenchResult {
    let config = TraceConfig {
        tenants: 8,
        requests: if quick { 10 } else { 16 },
        layer_cap: if quick { 2 } else { 3 },
        ..TraceConfig::quantized(0xBE7C)
    };
    let trace = trace::generate(&config);
    let tenants = Tenant::fleet(config.tenants);
    let mut fp = 0u64;
    let mut jobs = 0u64;
    let mut flops = 0u64;
    for policy in Policy::ALL {
        let mut server = Server::new(
            MacoSystem::new(SystemConfig::default()),
            tenants.clone(),
            ServeConfig::with_policy(policy),
        );
        let report = server.run_trace(&trace).expect("trace completes");
        fp = fold_bits(fp, report.fingerprint);
        fp = fold_bits(fp, report.makespan.as_fs());
        jobs += report.jobs_completed;
        flops = report.total_flops;
    }
    BenchResult {
        name: "serve_int8_mixed".to_string(),
        detail: format!(
            "16-node INT8/FP16 tenant ladder, {} requests x 3 policies, {jobs} jobs",
            trace.len()
        ),
        fingerprint: format!("{fp:016x}"),
        extra: format!(", \"total_flops\": {flops}"),
    }
}

/// Design-space sweep through `maco-explore`: node count × prediction ×
/// stash/lock, every point also running the four baseline comparators. The
/// bench fingerprint is the sweep fingerprint itself, so the strict gate
/// pins every simulated point (and the sharded runner's equivalence to
/// serial is asserted here on every run, not just under `cargo test`).
fn explore_bench(quick: bool) -> BenchResult {
    let grid = SweepGrid {
        nodes: if quick { vec![1, 4] } else { vec![1, 4, 16] },
        sizes: if quick {
            vec![512]
        } else {
            vec![512, 1024, 2048]
        },
        prediction: vec![true, false],
        stash_lock: vec![true, false],
        ..SweepGrid::default()
    };
    let report = Explorer::new().threads(4).run(&grid);
    let serial = Explorer::new().run(&grid);
    assert_eq!(
        report.fingerprint, serial.fingerprint,
        "sharded sweep must match serial bit for bit"
    );
    let frontier = report.pareto_frontier().len();
    BenchResult {
        name: "explore_sweep".to_string(),
        detail: format!(
            "{} points x 5 systems, {frontier}-point Pareto frontier",
            report.points.len()
        ),
        fingerprint: report.fingerprint_hex(),
        extra: format!(", \"pareto_points\": {frontier}"),
    }
}

/// The roofline autotuner validation sweep: every (precision, size, CCM
/// bandwidth) grid point simulates the autotuned tiling against every
/// fixed candidate tiling and asserts the autotuned machine is unbeaten
/// (the tentpole acceptance bar, re-checked on every baseline run, not
/// just under `cargo test`). The bench fingerprint is the sweep
/// fingerprint — chosen tilings and all simulated makespans — so the
/// strict gate pins the model's choices and the machines they drive.
fn autotune_bench(quick: bool) -> BenchResult {
    let sweep = if quick {
        autotune_sweep_quick()
    } else {
        autotune_sweep_full()
    };
    sweep.assert_unbeaten();
    let candidates: usize = sweep.points.iter().map(|p| p.candidates.len()).sum();
    BenchResult {
        name: "autotune_sweep".to_string(),
        detail: format!(
            "{} grid points, {candidates} fixed-candidate sims, autotuned unbeaten everywhere",
            sweep.points.len()
        ),
        fingerprint: format!("{:016x}", sweep.fingerprint),
        extra: format!(", \"grid_points\": {}", sweep.points.len()),
    }
}

/// Scale-out serving through `maco-cluster`: the fleet trace (dense
/// single-layer mixed BERT/GPT-3/ResNet burst) on one 16-node machine vs
/// a 4×4-node fleet of the same per-node hardware, both at the
/// bandwidth-constrained uncore design point (4 GB/s per CCM slice) where
/// the scale-out question is interesting. The fingerprint folds both
/// fleet fingerprints, so the strict gate pins routing, migration
/// charges, k-split reductions and every machine schedule on both sides;
/// `speedup_vs_one_machine` is the fleet-over-single-chip throughput
/// ratio at equal total node count (the ≥2x acceptance figure).
fn cluster_bench(quick: bool) -> BenchResult {
    let trace_config = TraceConfig {
        requests: if quick { 12 } else { 32 },
        ..TraceConfig::fleet(0xF1EE7)
    };
    let trace = trace::generate(&trace_config);
    let tenants = Tenant::fleet(trace_config.tenants);
    let mut one = Cluster::new(ClusterSpec::bandwidth_constrained(1, 16), tenants.clone());
    let r1 = one.run_trace(&trace).expect("one-machine fleet completes");
    let mut four = Cluster::new(ClusterSpec::bandwidth_constrained(4, 4), tenants);
    let r4 = four.run_trace(&trace).expect("4-machine fleet completes");
    let speedup = r4.total_gflops() / r1.total_gflops().max(1e-9);
    let fp = fold_bits(fold_bits(0, r1.fingerprint), r4.fingerprint);
    BenchResult {
        name: "cluster_throughput".to_string(),
        detail: format!(
            "fleet trace {} requests: 1x16 {:.0} GFLOPS vs 4x4 {:.0} GFLOPS ({} splits, {} migrations)",
            trace.len(),
            r1.total_gflops(),
            r4.total_gflops(),
            r4.splits,
            r4.migrations,
        ),
        fingerprint: format!("{fp:016x}"),
        extra: format!(
            ", \"speedup_vs_one_machine\": {speedup:.2}, \"fleet_gflops\": {:.1}",
            r4.total_gflops(),
        ),
    }
}

/// The failover stressor: a 4-machine fleet serves the failure-storm
/// trace while two machines fail-stop mid-burst at fixed instants (one
/// recovers and rejoins, one stays dead). Pins the failover schedule
/// *and* the fault-timeline fingerprint under the strict gate, plus the
/// worst failure-to-re-placement latency — the metric the failure model
/// trades makespan for. Lost jobs are asserted zero: eviction re-places
/// work, never drops it.
fn failover_bench(quick: bool) -> BenchResult {
    let trace_config = TraceConfig {
        requests: if quick { 16 } else { 48 },
        ..TraceConfig::failover(0xFA110)
    };
    let trace = trace::generate(&trace_config);
    let tenants = Tenant::fleet(trace_config.tenants);
    // Kills land mid-burst (arrivals are ~5 µs apart): machine 1 dies for
    // good a quarter through the arrival span, machine 2 dies at half and
    // comes back online after a 100 µs outage.
    let span_us = 5 * trace_config.requests as u64;
    let kill_1 = SimTime::ZERO + SimDuration::from_us(span_us / 4);
    let kill_2 = SimTime::ZERO + SimDuration::from_us(span_us / 2);
    let faults = FaultSpec::none()
        .with_failure(1, kill_1, None)
        .with_failure(2, kill_2, Some(kill_2 + SimDuration::from_us(100)));
    let spec = ClusterSpec::bandwidth_constrained(4, 4).with_faults(faults);
    let mut fleet = Cluster::new(spec.clone(), tenants.clone());
    let report = fleet.run_trace(&trace).expect("failover fleet completes");
    assert_eq!(report.fault.jobs_lost, 0, "failover dropped a job");
    assert_eq!(report.fault.failures, 2);
    assert_eq!(report.fault.recoveries, 1);
    let fp = fold_bits(report.fingerprint, report.fault.fingerprint);

    // The same episode with the telemetry sink attached: tracing must
    // never perturb simulated outcomes (the zero-cost contract's enabled
    // half), and its own fingerprint pins the recorded event stream under
    // the strict gate alongside the schedule and fault fingerprints.
    let sink = TraceSink::on();
    let mut traced = Cluster::new(spec, tenants);
    traced.set_trace_sink(sink.clone());
    let report_traced = traced
        .run_trace(&trace)
        .expect("traced failover fleet completes");
    assert_eq!(
        report.fingerprint, report_traced.fingerprint,
        "tracing perturbed the failover schedule"
    );
    assert_eq!(
        report.fault.fingerprint, report_traced.fault.fingerprint,
        "tracing perturbed the fault timeline"
    );
    let trace_fp = sink.fingerprint().expect("sink is on");
    BenchResult {
        name: "cluster_failover".to_string(),
        detail: format!(
            "4x4 fleet, {} requests, 2 kills (1 recovery): {} re-placed, \
             {:.1}% available, recovery latency {:.1} us",
            trace.len(),
            report.fault.jobs_replaced,
            report.fault.availability * 100.0,
            report.fault.recovery_latency_max.as_us(),
        ),
        fingerprint: format!("{fp:016x}"),
        extra: format!(
            ", \"fault_fingerprint\": \"{:016x}\", \"trace_fingerprint\": \"{trace_fp:016x}\", \
             \"trace_events\": {}, \"recovery_latency_ns\": {:.0}, \
             \"jobs_replaced\": {}, \"availability\": {:.4}",
            report.fault.fingerprint,
            sink.recorded(),
            report.fault.recovery_latency_max.as_ns(),
            report.fault.jobs_replaced,
            report.fault.availability,
        ),
    }
}

/// One micro-fleet streaming run: `requests` all-micro single-layer jobs
/// through a 4×4-node streaming fleet. Returns (wall seconds, fleet
/// fingerprint, jobs completed).
fn micro_fleet_run(requests: usize) -> (f64, u64, u64) {
    let config = TraceConfig::micro(0x100C, requests);
    let trace = trace::generate(&config);
    let tenants = Tenant::fleet(config.tenants);
    let mut cluster = Cluster::new(ClusterSpec::streaming(4, 4, requests), tenants);
    let t0 = Instant::now();
    let report = cluster.run_trace(&trace).expect("micro fleet completes");
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.jobs_completed, requests as u64,
        "every micro request completes"
    );
    (wall, report.fingerprint, report.jobs_completed)
}

/// [`micro_fleet_run`] three times: the least wall clock, with the
/// fingerprint and job count all three runs agree on.
fn micro_fleet_best_of_three(requests: usize) -> (f64, u64, u64) {
    let runs = [(); 3].map(|()| micro_fleet_run(requests));
    let (_, fp, jobs) = runs[0];
    assert!(
        runs.iter().all(|&(_, f, j)| (f, j) == (fp, jobs)),
        "repeated micro fleet runs of {requests} requests disagree"
    );
    let wall = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    (wall, fp, jobs)
}

/// The event-core throughput stressor: stream 10⁵ micro requests (10⁴ in
/// quick mode) through a 4-machine fleet. Full mode also runs the 10⁴
/// reference and asserts near-linear wall-clock scaling in trace length —
/// a 10× trace must cost at most ~2× its proportional share, i.e. the
/// per-event cost of the heap-based engine core must stay flat as queues
/// deepen. Each side of that ratio is the best of three runs, so one
/// descheduled run cannot fail it. The fingerprint pins the (mode-sized)
/// schedule under the strict gate like every other scenario.
fn throughput_100k_bench(quick: bool) -> BenchResult {
    let base = 10_000usize;
    let (requests, fp, jobs) = if quick {
        let (_, fp, jobs) = micro_fleet_run(base);
        (base, fp, jobs)
    } else {
        let (base_wall, _, _) = micro_fleet_best_of_three(base);
        let big = base * 10;
        let (big_wall, big_fp, big_jobs) = micro_fleet_best_of_three(big);
        let scaling = big_wall / base_wall.max(1e-9);
        assert!(
            scaling < 20.0,
            "event core is super-linear: {big} requests cost {scaling:.1}x the wall clock \
             of {base} (near-linear would be ~10x)"
        );
        (big, big_fp, big_jobs)
    };
    BenchResult {
        name: "serve_throughput_100k".to_string(),
        detail: format!("micro fleet 4x4 nodes, {requests} requests ({jobs} jobs)"),
        fingerprint: format!("{fp:016x}"),
        extra: String::new(),
    }
}

/// The communication-avoiding placement head-to-head: the
/// `maco-explore` placement sweep (tile→node orderings on a partial 4×4
/// mesh by NoC hop·flits; `SfcLocality` vs the classic fleet policies by
/// attributed interconnect bytes per job). Both wins are asserted on
/// every baseline run — not just under `cargo test` — and the sweep
/// fingerprint pins every hop·flit count and byte-metric fingerprint
/// under the strict gate.
fn placement_bench(quick: bool) -> BenchResult {
    let trace_config = TraceConfig {
        requests: if quick { 16 } else { 48 },
        ..TraceConfig::fleet(if quick { 7 } else { 0xF1EE7 })
    };
    let report: PlacementReport = placement_sweep(4, &trace_config);
    report.assert_communication_avoiding();
    let row = report.hop_flits_of(TileOrder::Row).expect("row swept");
    let hilbert = report
        .hop_flits_of(TileOrder::Hilbert)
        .expect("hilbert swept");
    let sfc = report
        .bytes_per_job_of(Placement::SfcLocality)
        .expect("sfc swept");
    let worst = report
        .fleet
        .iter()
        .map(|p| p.bytes_per_job)
        .fold(0.0f64, f64::max);
    let sfc_fp = report
        .fleet
        .iter()
        .find(|p| p.placement == Placement::SfcLocality)
        .map(|p| p.interconnect_fingerprint)
        .expect("sfc swept");
    BenchResult {
        name: "placement_sfc".to_string(),
        detail: format!(
            "hilbert {hilbert} vs row {row} hop·flits; sfc-locality {sfc:.0} vs \
             worst classic {worst:.0} bytes/job over {} requests",
            trace_config.requests,
        ),
        fingerprint: format!("{:016x}", report.fingerprint),
        extra: format!(
            ", \"sfc_interconnect_fingerprint\": \"{sfc_fp:016x}\", \
             \"hilbert_hop_flits\": {hilbert}, \"row_hop_flits\": {row}, \
             \"sfc_bytes_per_job\": {sfc:.1}, \"worst_bytes_per_job\": {worst:.1}"
        ),
    }
}

/// Pulls `"field": value` out of the object slice for one bench entry in a
/// previous report (the format is our own, so a scan is enough).
fn json_field<'a>(obj: &'a str, field: &str) -> Option<&'a str> {
    let tag = format!("\"{field}\": ");
    let at = obj.find(&tag)? + tag.len();
    let rest = &obj[at..];
    // The last field of an entry has no trailing delimiter inside the
    // object slice `before_entry` hands us.
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Finds the `{...}` object for `name` in a previous report.
fn before_entry<'a>(report: &'a str, name: &str) -> Option<&'a str> {
    let at = report.find(&format!("\"name\": \"{name}\""))?;
    let end = report[at..].find('}')? + at;
    Some(&report[at..end])
}

/// Compares one scenario with its entry in the `--before` report and
/// returns every mismatch. The fingerprint must be present and equal; a
/// trace fingerprint must be on both sides and equal, or on neither. No
/// report and no entry are mismatches too, so the strict gate cannot pass
/// without comparing.
fn compare(before: Option<&str>, r: &BenchResult) -> Vec<String> {
    let Some(report) = before else {
        return vec![format!("{}: no --before report", r.name)];
    };
    let Some(prev) = before_entry(report, &r.name) else {
        return vec![format!("{}: no entry in --before", r.name)];
    };
    let mut mismatches = Vec::new();
    let prev_fp = json_field(prev, "fingerprint");
    if prev_fp != Some(r.fingerprint.as_str()) {
        mismatches.push(format!(
            "{}: {} != {}",
            r.name,
            r.fingerprint,
            prev_fp.unwrap_or("missing")
        ));
    }
    let prev_t = json_field(prev, "trace_fingerprint");
    let cur_t = json_field(&r.extra, "trace_fingerprint");
    if prev_t != cur_t {
        mismatches.push(format!(
            "{} trace: {} != {}",
            r.name,
            cur_t.unwrap_or("missing"),
            prev_t.unwrap_or("missing")
        ));
    }
    mismatches
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let strict = args.iter().any(|a| a == "--strict");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_perf.json".to_string());
    let before = flag_value("--before").map(|p| {
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read --before {p}: {e}"))
    });

    let kn = if quick { 128 } else { 512 };
    let fig6_sizes: &[u64] = if quick {
        &[256, 1024]
    } else {
        &[256, 512, 1024, 2048, 4096]
    };
    let fig7_sizes: &[u64] = if quick { &[1024] } else { &[2048, 4096, 9216] };

    eprintln!("perf_baseline: kernels ({kn}^3)...");
    let mut results = vec![
        kernel_bench(Precision::Fp64, kn),
        kernel_bench(Precision::Fp32, kn),
        kernel_bench(Precision::Fp16, kn),
        kernel_bench(Precision::Int8, kn),
    ];
    eprintln!("perf_baseline: single-node fig6 sweep {fig6_sizes:?}...");
    results.push(system_bench("single_node_fig6", 1, fig6_sizes));
    eprintln!("perf_baseline: 16-node fig7 sweep {fig7_sizes:?}...");
    results.push(system_bench("fig7_16node", 16, fig7_sizes));
    eprintln!("perf_baseline: multi-tenant serving (3 policies)...");
    results.push(serve_bench(quick));
    eprintln!("perf_baseline: threaded replica serving...");
    results.push(serve_replica_bench(quick, 4));
    eprintln!("perf_baseline: quantized INT8/FP16 serving (3 policies)...");
    results.push(serve_int8_bench(quick));
    eprintln!("perf_baseline: design-space sweep (maco-explore)...");
    results.push(explore_bench(quick));
    eprintln!("perf_baseline: validating the autotuner sweep (maco-explore)...");
    results.push(autotune_bench(quick));
    eprintln!("perf_baseline: scale-out fleet serving (maco-cluster)...");
    results.push(cluster_bench(quick));
    eprintln!("perf_baseline: failover under mid-burst machine kills...");
    results.push(failover_bench(quick));
    eprintln!("perf_baseline: the 100k-request event-core stressor...");
    results.push(throughput_100k_bench(quick));
    eprintln!("perf_baseline: placement head-to-head...");
    results.push(placement_bench(quick));

    let mut mismatches = Vec::new();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"generated_by\": \"perf_baseline\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let mut entry = format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"fingerprint\": \"{}\"{}",
            r.name, r.detail, r.fingerprint, r.extra
        );
        if before.is_some() || strict {
            let found = compare(before.as_deref(), r);
            if before.is_some() {
                entry.push_str(&format!(", \"fingerprint_match\": {}", found.is_empty()));
            }
            mismatches.extend(found);
        }
        entry.push('}');
        if i + 1 < results.len() {
            entry.push(',');
        }
        json.push_str(&entry);
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write report");
    print!("{json}");
    eprintln!("perf_baseline: wrote {out_path}");
    if !mismatches.is_empty() {
        eprintln!("perf_baseline: simulated outcomes not matched against --before:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        if strict {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(fingerprint: &str, extra: &str) -> BenchResult {
        BenchResult {
            name: "s".to_string(),
            detail: String::new(),
            fingerprint: fingerprint.to_string(),
            extra: extra.to_string(),
        }
    }

    const BEFORE: &str = r#"{"benches": [
    {"name": "s", "detail": "", "fingerprint": "aa", "trace_fingerprint": "tt"},
    {"name": "u", "detail": "", "fingerprint": "bb"}
]}"#;

    #[test]
    fn compare_flags_every_way_to_skip_a_check() {
        let traced = ", \"trace_fingerprint\": \"tt\"";
        assert!(compare(Some(BEFORE), &result("aa", traced)).is_empty());
        assert_eq!(compare(Some(BEFORE), &result("ab", traced)).len(), 1);
        // A trace fingerprint on one side only.
        assert_eq!(compare(Some(BEFORE), &result("aa", "")).len(), 1);
        let mut untraced = result("bb", traced);
        untraced.name = "u".to_string();
        assert_eq!(compare(Some(BEFORE), &untraced).len(), 1);
        untraced.extra.clear();
        assert!(compare(Some(BEFORE), &untraced).is_empty());
        // No entry, and no report at all.
        let mut missing = result("aa", traced);
        missing.name = "v".to_string();
        assert_eq!(compare(Some(BEFORE), &missing).len(), 1);
        assert_eq!(compare(None, &result("aa", traced)).len(), 1);
    }
}
