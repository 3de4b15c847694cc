//! Property-based invariants of the fleet layer (128 cases each under the
//! vendored proptest), plus the acceptance-style end-to-end check: a
//! 4-machine cluster serving the mixed BERT/GPT-3/ResNet trace is
//! deterministic, conserves flops against the serial single-machine
//! baseline, and out-throughputs one machine of equal total node count.
//!
//! * **machine exclusivity** — no job is simultaneously resident on two
//!   machines unless it was split data-parallel, and within every machine
//!   gangs hold nodes exclusively;
//! * **flops conservation** — the fleet serves exactly the flops a serial
//!   single-machine run of the same jobs serves;
//! * **fingerprint identity** — same seed, same fleet schedule, byte for
//!   byte, on a reused cluster and on a freshly built one;
//! * **k-split bit-identity** — the data-parallel k-split's functional
//!   result equals the unsplit kernel bit for bit at every precision.

use proptest::prelude::*;

use maco_cluster::{split, Cluster, ClusterSpec, FaultSpec, Placement, SplitKind, SplitSpec};
use maco_core::gemm_plus::{partition_depth, GemmPlusTask};
use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_mmae::kernels::GemmOperands;
use maco_serve::{JobSpec, Policy, ServeConfig, Server, Tenant};
use maco_sim::{SimDuration, SimTime, SplitMix64};
use maco_workloads::trace::{self, TraceConfig};

/// Builds a synthetic job mix from sampled raw values (the serve suite's
/// generator, reused shape for shape so fleet and single-machine episodes
/// see identical inputs).
fn synthetic_jobs(raw: &[(u64, u64, u64, u64, u64)], tenants: usize) -> Vec<JobSpec> {
    let mut arrival = SimTime::ZERO;
    raw.iter()
        .map(|&(tenant, dim, layers, width, gap)| {
            arrival += SimDuration::from_ns(200 + gap);
            let d = 32 * (1 + dim);
            JobSpec {
                tenant: tenant as usize % tenants,
                layers: (0..1 + layers)
                    .map(|i| GemmPlusTask::gemm(d, d + 32 * i, d, Precision::Fp32))
                    .collect(),
                arrival,
                priority: (tenant % 4) as u8,
                deadline: None,
                gang_width: 1 + width as usize,
            }
        })
        .collect()
}

fn placement_of(idx: u64) -> Placement {
    Placement::ALL[idx as usize % Placement::ALL.len()]
}

fn fleet_spec(machines: usize, nodes_each: usize, placement: u64, split: bool) -> ClusterSpec {
    let mut spec =
        ClusterSpec::uniform(machines, nodes_each).with_placement(placement_of(placement));
    if split {
        // Low threshold so sampled single-layer jobs actually split.
        spec = spec.with_split(SplitSpec::new(
            SplitKind::KSplit,
            2 * 64 * 64 * 64,
            machines,
        ));
    }
    spec
}

proptest! {
    /// No job is resident on two machines unless split data-parallel, and
    /// split parts land on pairwise-distinct machines. Within each
    /// machine, gangs hold nodes exclusively (lease intervals never
    /// overlap).
    #[test]
    fn machine_exclusivity(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..6),
        machines in 1usize..4,
        nodes in 2usize..4,
        placement in 0u64..3,
        split in 0u64..2,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let mut fleet = Cluster::new(
            fleet_spec(machines, nodes, placement, split == 1),
            Tenant::fleet(4),
        );
        let report = fleet.run_jobs(specs).expect("fleet episode completes");
        prop_assert_eq!(report.jobs_completed as usize, raw.len());
        prop_assert_eq!(report.diagnostics.outstanding_clamps, 0);
        prop_assert_eq!(report.fault.jobs_lost, 0);
        for job in &report.jobs {
            match job.split {
                None => prop_assert_eq!(job.machines.len(), 1, "unsplit on one machine"),
                Some(_) => {
                    prop_assert!(job.machines.len() >= 2);
                    let mut ms = job.machines.clone();
                    ms.sort_unstable();
                    ms.dedup();
                    prop_assert_eq!(ms.len(), job.machines.len(), "split parts on distinct machines");
                }
            }
            prop_assert!(job.machines.iter().all(|&m| m < machines));
        }
        for m in &report.machines {
            for node in 0..m.nodes {
                let mut spans: Vec<(SimTime, SimTime)> = m
                    .serve
                    .leases
                    .iter()
                    .filter(|l| l.node == node)
                    .map(|l| (l.from, l.until))
                    .collect();
                spans.sort();
                for w in spans.windows(2) {
                    prop_assert!(w[1].0 >= w[0].1, "{}: node {node} double-booked", m.name);
                }
            }
        }
    }

    /// The fleet serves exactly the flops a serial single-machine run of
    /// the same jobs serves — routing, migration delays and data-parallel
    /// splits redistribute work but never create or destroy it.
    #[test]
    fn flops_conserved_vs_serial(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..6),
        machines in 1usize..4,
        nodes in 2usize..4,
        placement in 0u64..3,
        split in 0u64..2,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let mut serial = Server::new(
            MacoSystem::new(SystemConfig { nodes, ..SystemConfig::default() }),
            Tenant::fleet(4),
            ServeConfig::with_policy(Policy::Fifo),
        );
        let serial_flops = serial.run_jobs(specs.clone()).expect("serial completes").total_flops;
        let mut fleet = Cluster::new(
            fleet_spec(machines, nodes, placement, split == 1),
            Tenant::fleet(4),
        );
        let report = fleet.run_jobs(specs.clone()).expect("fleet completes");
        prop_assert_eq!(report.diagnostics.outstanding_clamps, 0);
        prop_assert_eq!(report.total_flops, serial_flops);
        let submitted: u64 = specs.iter().map(JobSpec::flops).sum();
        prop_assert_eq!(report.total_flops, submitted);
        let per_tenant: u64 = report.per_tenant_flops().iter().sum();
        prop_assert_eq!(per_tenant, submitted, "tenant attribution covers everything");
    }

    /// Identical inputs yield byte-identical fleet fingerprints, on a
    /// reused cluster and on a freshly built one.
    #[test]
    fn same_seed_same_fingerprint(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..5),
        machines in 1usize..4,
        nodes in 2usize..4,
        placement in 0u64..3,
        split in 0u64..2,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let spec = fleet_spec(machines, nodes, placement, split == 1);
        let mut fleet = Cluster::new(spec.clone(), Tenant::fleet(4));
        let a = fleet.run_jobs(specs.clone()).expect("fleet completes");
        let b = fleet.run_jobs(specs.clone()).expect("fleet completes");
        prop_assert_eq!(a.fingerprint, b.fingerprint, "reused cluster diverged");
        let mut fresh = Cluster::new(spec, Tenant::fleet(4));
        let c = fresh.run_jobs(specs).expect("fleet completes");
        prop_assert_eq!(a.fingerprint, c.fingerprint, "fresh cluster diverged");
        prop_assert_eq!(a.makespan, c.makespan);
        prop_assert_eq!(a.diagnostics.outstanding_clamps, 0);
        prop_assert_eq!(c.diagnostics.outstanding_clamps, 0);
    }

    /// The data-parallel k-split's functional result is bit-identical to
    /// the unsplit kernel at every precision, for random shapes and split
    /// counts.
    #[test]
    fn ksplit_gemm_bitidentical_to_unsplit(
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..48,
        ways in 1usize..6,
        precision in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let precision = [Precision::Fp64, Precision::Fp32, Precision::Fp16]
            [precision as usize];
        let mut rng = SplitMix64::new(seed);
        let a: Vec<f64> = (0..m * k).map(|_| rng.next_signed_unit()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.next_signed_unit()).collect();
        let c: Vec<f64> = (0..m * n).map(|_| rng.next_signed_unit()).collect();
        let ops = GemmOperands::new(&a, &b, &c, m, n, k);
        let splits = partition_depth(k as u64, ways);
        let whole = split::unsplit_functional(ops, precision);
        let chained = split::ksplit_functional(ops, precision, &splits);
        for (i, (w, s)) in whole.iter().zip(&chained).enumerate() {
            prop_assert_eq!(
                w.to_bits(),
                s.to_bits(),
                "{:?} {}x{}x{} splits {:?} element {}",
                precision, m, n, k, &splits, i
            );
        }
    }
}

/// A one-machine cluster with splits disabled is the standalone server,
/// bit for bit: same schedule fingerprint, same makespan, same tenant
/// stats. The fleet layer adds routing, never different physics.
#[test]
fn one_machine_cluster_matches_standalone_server() {
    let trace = trace::generate(&TraceConfig {
        seed: 0xC1,
        tenants: 4,
        requests: 8,
        layer_cap: 2,
        ..TraceConfig::default()
    });
    let mut server = Server::new(
        MacoSystem::new(SystemConfig {
            nodes: 8,
            ..SystemConfig::default()
        }),
        Tenant::fleet(4),
        ServeConfig::default(),
    );
    let solo = server.run_trace(&trace).expect("server completes");
    let mut fleet = Cluster::new(ClusterSpec::uniform(1, 8), Tenant::fleet(4));
    let fleet_report = fleet.run_trace(&trace).expect("fleet completes");
    let machine = &fleet_report.machines[0].serve;
    assert_eq!(machine.fingerprint, solo.fingerprint);
    assert_eq!(machine.makespan, solo.makespan);
    assert_eq!(machine.total_flops, solo.total_flops);
    assert_eq!(fleet_report.makespan, solo.makespan);
    assert_eq!(
        fleet_report.interconnect_bytes, 0,
        "no cross-machine traffic"
    );
    assert_eq!(fleet_report.diagnostics.outstanding_clamps, 0);
    assert_eq!(fleet_report.fault.jobs_lost, 0);
    assert!(
        (fleet_report.fault.availability - 1.0).abs() < f64::EPSILON,
        "healthy fleet is fully available"
    );
    for (a, b) in machine.tenants.iter().zip(&solo.tenants) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.flops, b.flops);
        assert_eq!(a.latency_sum, b.latency_sum);
    }
}

/// The one-machine equivalence holds in the contention corners too:
/// near-simultaneous arrivals and minimal jobs are exactly the regime
/// where a bounded arrival drain could reorder scheduling attempts, so
/// the tie-storm mixes are replayed through both paths under every
/// policy.
#[test]
fn one_machine_cluster_matches_server_under_tie_storms() {
    for (seed, nodes) in [(1u64, 2usize), (2, 3), (3, 4)] {
        let mut arrival = SimTime::ZERO;
        let specs: Vec<JobSpec> = (0..10)
            .map(|i| {
                arrival += SimDuration::from_ns((seed + i) % 2);
                let d = if i % 3 == 0 { 1 } else { 32 * (1 + i % 3) };
                JobSpec {
                    tenant: (i % 4) as usize,
                    layers: vec![GemmPlusTask::gemm(d, d, d, Precision::Fp32)],
                    arrival,
                    priority: (i % 3) as u8,
                    deadline: None,
                    gang_width: 1 + (i % 5) as usize,
                }
            })
            .collect();
        for policy in Policy::ALL {
            let mut server = Server::new(
                MacoSystem::new(SystemConfig {
                    nodes,
                    ..SystemConfig::default()
                }),
                Tenant::fleet(4),
                ServeConfig::with_policy(policy),
            );
            let solo = server.run_jobs(specs.clone()).expect("server completes");
            let mut spec = ClusterSpec::uniform(1, nodes);
            spec.machines[0].serve = ServeConfig::with_policy(policy);
            let mut fleet = Cluster::new(spec, Tenant::fleet(4));
            let fleet_report = fleet.run_jobs(specs.clone()).expect("fleet completes");
            let machine = &fleet_report.machines[0].serve;
            assert_eq!(
                machine.fingerprint, solo.fingerprint,
                "{policy:?} seed {seed}"
            );
            assert_eq!(machine.makespan, solo.makespan, "{policy:?} seed {seed}");
            assert_eq!(fleet_report.diagnostics.outstanding_clamps, 0);
        }
    }
}

/// The acceptance configuration — the `cluster_throughput` benchmark
/// scenario: the mixed BERT/GPT-3/ResNet fleet trace served by a 4×4-node
/// bandwidth-constrained fleet vs one 16-node machine of the same
/// hardware. The fleet must be deterministic, conserve flops against the
/// serial single-machine baseline, and deliver ≥2x throughput at equal
/// total node count (four private uncores plus the k-split fanning heavy
/// layers across machines vs one shared uncore).
#[test]
fn four_machine_fleet_beats_one_machine_at_equal_nodes() {
    let trace = trace::generate(&TraceConfig::fleet(0xF1EE7));
    let tenants = Tenant::fleet(8);

    let mut one = Cluster::new(ClusterSpec::bandwidth_constrained(1, 16), tenants.clone());
    let r1 = one.run_trace(&trace).expect("one-machine fleet completes");

    let mut four = Cluster::new(ClusterSpec::bandwidth_constrained(4, 4), tenants.clone());
    let r4 = four.run_trace(&trace).expect("4-machine fleet completes");
    let r4b = four.run_trace(&trace).expect("repeat completes");

    // Deterministic: same seed, same fleet schedule.
    assert_eq!(r4.fingerprint, r4b.fingerprint);
    assert_eq!(r4.makespan, r4b.makespan);
    assert!(r4.splits > 0, "heavy layers split data-parallel");

    // Conserves flops vs the serial single-machine baseline.
    let mut serial = Server::new(
        MacoSystem::new(SystemConfig {
            ccm_gbps: 4.0,
            ..SystemConfig::default()
        }),
        tenants,
        ServeConfig::default(),
    );
    let baseline = serial.run_trace(&trace).expect("serial completes");
    assert_eq!(r4.total_flops, baseline.total_flops);
    assert_eq!(r1.total_flops, baseline.total_flops);
    assert_eq!(r4.jobs_completed, trace.len() as u64);

    // ≥2x fleet throughput at equal total node count.
    let speedup = r4.total_gflops() / r1.total_gflops();
    assert!(
        speedup >= 2.0,
        "4x4 fleet speedup over 1x16: {speedup:.2} ({:.1} vs {:.1} GFLOPS)",
        r4.total_gflops(),
        r1.total_gflops()
    );

    // Fairness and reporting stay sane.
    assert!(r4.fairness() > 0.0 && r4.fairness() <= 1.0);
    assert!(r4.mean_latency() > SimDuration::ZERO);
    assert!(r4.interconnect_bytes > 0, "splits paid the interconnect");
    assert_eq!(r1.diagnostics.outstanding_clamps, 0);
    assert_eq!(r4.diagnostics.outstanding_clamps, 0);
    assert_eq!(r4.fault.jobs_lost, 0);
    assert_eq!(r4.fault.fingerprint, 0, "healthy fleet has no fault events");
}

/// Regression for the mid-episode overflow panic: an undersized machine
/// admission queue used to surface as an opaque slot-desync assert deep
/// inside `FleetEpisode::complete`; it must now fail *before* the episode
/// starts, with the offending machine named.
#[test]
#[should_panic(expected = "machine 1 (m1) queue_capacity 2")]
fn undersized_machine_queue_fails_preflight_naming_the_machine() {
    let mut spec = ClusterSpec::uniform(2, 2);
    spec.machines[1].serve.queue_capacity = 2;
    let mut cluster = Cluster::new(spec, Tenant::fleet(2));
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| {
            JobSpec::single(
                0,
                GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(i),
            )
        })
        .collect();
    let _ = cluster.run_jobs(jobs);
}

/// Two one-node machines k-splitting every job two ways, each machine
/// queue holding `capacity` jobs, with machine 1 fail-stopping in the
/// first tenth of the healthy makespan — so its split parts are re-placed
/// onto machine 0, which already holds their siblings.
fn split_failover(capacity: usize) -> (ClusterSpec, Vec<JobSpec>) {
    let mut spec = ClusterSpec::uniform(2, 1).with_split(SplitSpec::new(SplitKind::KSplit, 1, 2));
    for m in &mut spec.machines {
        m.serve.queue_capacity = capacity;
    }
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| {
            JobSpec::single(
                0,
                GemmPlusTask::gemm(256, 256, 256, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(i),
            )
        })
        .collect();
    let healthy = Cluster::new(spec.clone(), Tenant::fleet(1))
        .run_jobs(jobs.clone())
        .expect("healthy episode completes");
    assert_eq!(healthy.splits, 3, "every job splits");
    let kill_at = SimTime::ZERO + healthy.makespan / 10;
    let spec = spec.with_faults(FaultSpec::none().with_failure(1, kill_at, None));
    (spec, jobs)
}

/// Regression: the pre-flight bound used to count one queue slot per
/// job, but failover piles a dead machine's split parts onto survivors
/// holding their siblings — machine 0 overflowed mid-episode and a job
/// was lost. Under a fail-stop schedule a split-eligible job now counts
/// one slot per part, so the undersized fleet fails before it starts.
#[test]
#[should_panic(expected = "machine 0 (m0) queue_capacity 3")]
fn split_failover_counts_every_part_in_the_preflight_bound() {
    let (spec, jobs) = split_failover(3);
    let _ = Cluster::new(spec, Tenant::fleet(1)).run_jobs(jobs);
}

/// The same split failover on queues sized by the new bound (two parts
/// per job) loses nothing.
#[test]
fn split_failover_within_the_preflight_bound_loses_no_job() {
    let (spec, jobs) = split_failover(6);
    let report = Cluster::new(spec, Tenant::fleet(1))
        .run_jobs(jobs)
        .expect("episode completes");
    assert_eq!(report.fault.failures, 1);
    assert!(
        report.fault.jobs_replaced > 0,
        "the fail-stop evicted parts"
    );
    assert_eq!(report.jobs_completed, 3);
    assert_eq!(report.jobs_rejected, 0);
    assert_eq!(report.fault.jobs_lost, 0);
    assert_eq!(report.diagnostics.outstanding_clamps, 0);
}

/// The pre-flight bound counts only admissible jobs: invalid specs are
/// rejected at routing and never occupy a machine queue slot, so a trace
/// of mostly-degenerate jobs still runs on small queues.
#[test]
fn preflight_ignores_inadmissible_jobs() {
    let mut spec = ClusterSpec::uniform(2, 2);
    for m in &mut spec.machines {
        m.serve.queue_capacity = 2;
    }
    let mut cluster = Cluster::new(spec, Tenant::fleet(2));
    let mut jobs: Vec<JobSpec> = (0..4)
        .map(|i| {
            // Degenerate (zero-extent) layers are inadmissible.
            JobSpec::single(
                0,
                GemmPlusTask::gemm(0, 32, 32, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(i),
            )
        })
        .collect();
    jobs.push(JobSpec::single(
        1,
        GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
        SimTime::ZERO + SimDuration::from_ns(9),
    ));
    let report = cluster.run_jobs(jobs).expect("episode completes");
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.jobs_rejected, 4);
    assert_eq!(report.diagnostics.outstanding_clamps, 0);
    assert_eq!(report.fault.jobs_lost, 0);
}
