//! The golden fingerprint matrix of the fleet and engine event layers.
//!
//! Seeded episodes that between them reach every fleet event (route,
//! migrate, reject, defer, re-defer, m- and k-split, SFC placement,
//! completion, fail, recover, degrade, scale, evict, re-place) and every
//! engine event (arrive, admit, queue-full and invalid-spec reject,
//! dispatch, layer, lease, eviction of running, queued and not yet
//! admitted jobs, complete), each pinned to literal values: the schedule,
//! fault and interconnect fingerprints (equal with the trace sink off
//! and on), the trace fingerprint and the number of records. The fault
//! schedules include fails of dead machines and a recovery of a live
//! one, which fold into the fault fingerprint and record nothing.
//!
//! Any change to the words an event folds, their order, or the record
//! it writes moves a pinned value. `the_matrix_reaches_every_event_kind`
//! checks the coverage claim, so an edited episode cannot silently drop
//! an event kind from the matrix.

use std::collections::BTreeSet;

use maco_cluster::{
    AutoscalerSpec, Cluster, ClusterReport, ClusterSpec, DegradationWindow, FaultSpec, Placement,
    SplitKind, SplitSpec, TraceSink,
};
use maco_core::gemm_plus::GemmPlusTask;
use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{Engine, JobSpec, Policy, ServeConfig, Tenant};
use maco_sim::{SimDuration, SimTime, SplitMix64};

fn ns(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ns(t)
}

/// A job of `layers` FP32 `d × d × d` GEMMs.
fn job(tenant: usize, d: u64, layers: usize, at: u64, width: usize) -> JobSpec {
    JobSpec {
        tenant,
        layers: vec![GemmPlusTask::gemm(d, d, d, Precision::Fp32); layers],
        arrival: ns(at),
        priority: (tenant % 3) as u8,
        deadline: None,
        gang_width: width,
    }
}

/// A seeded mix of `count` jobs about `gap_ns` apart: every fourth is a
/// single split-eligible 256³ layer, the rest are 64³ or 128³ streams of
/// one or two layers.
fn mixed_jobs(seed: u64, count: usize, tenants: usize, gap_ns: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    (0..count as u64)
        .map(|i| {
            let at = gap_ns * (i + 1) + rng.next_below(gap_ns);
            let tenant = rng.next_below(tenants as u64) as usize;
            if i % 4 == 0 {
                return job(tenant, 256, 1, at, 2);
            }
            let d = 64 << rng.next_below(2);
            let layers = 1 + rng.next_below(2) as usize;
            job(tenant, d, layers, at, 1 + rng.next_below(2) as usize)
        })
        .collect()
}

/// The pinned values as one line: the schedule, fault, interconnect and
/// trace fingerprints in hex, then the record count.
fn pins(simulated: (u64, u64, u64), trace: u64, recorded: u64) -> String {
    let (schedule, fault, interconnect) = simulated;
    format!("{schedule:016x} {fault:016x} {interconnect:016x} {trace:016x} {recorded}")
}

/// A fleet episode: the fleet, its tenant count and its jobs.
type Episode = (ClusterSpec, usize, Vec<JobSpec>);

/// Runs `episode` on fresh fleets with the sink off and on, checks that
/// the sink changes no simulated fingerprint and that no job is lost,
/// and returns the traced run's pins, report and record names.
fn run_fleet(episode: fn() -> Episode) -> (String, ClusterReport, BTreeSet<&'static str>) {
    let (spec, tenants, specs) = episode();
    let run = |sink: &TraceSink| {
        let mut fleet = Cluster::new(spec.clone(), Tenant::fleet(tenants));
        fleet.set_trace_sink(sink.clone());
        let r = fleet.run_jobs(specs.clone()).expect("the episode runs");
        assert_eq!(r.fault.jobs_lost, 0);
        r
    };
    let simulated = |r: &ClusterReport| {
        (
            r.fingerprint,
            r.fault.fingerprint,
            r.interconnect_fingerprint,
        )
    };
    let quiet = run(&TraceSink::off());
    let sink = TraceSink::on();
    let report = run(&sink);
    assert_eq!(
        simulated(&quiet),
        simulated(&report),
        "the sink perturbed a fingerprint"
    );
    let trace = sink.drain().expect("the sink is on");
    let names = trace.records.iter().map(|r| r.name).collect();
    let pins = pins(simulated(&report), trace.fingerprint, trace.recorded);
    (pins, report, names)
}

/// Four 2-node machines on Hilbert-curve placement with k-splits of the
/// 256³ jobs; machine 1 fails mid-burst with split parts in flight and
/// recovers later, so its parts are re-placed along the curve and their
/// reductions resume.
fn ksplit_sfc_failover() -> Episode {
    let spec = ClusterSpec::uniform(4, 2)
        .with_placement(Placement::SfcLocality)
        .with_split(SplitSpec::new(SplitKind::KSplit, 2 * 200 * 200 * 200, 3))
        .with_faults(FaultSpec::none().with_failure(1, ns(9_000), Some(ns(60_000))));
    (spec, 5, mixed_jobs(0x51, 28, 5, 900))
}

/// Three 2-node machines under round-robin with m-splits: tenants
/// migrate between machines, a degradation window stretches the
/// transfers charged inside it, an unknown tenant is rejected at the
/// router, and machine 2 fails for good mid-burst.
fn msplit_round_robin_degraded() -> Episode {
    let window = DegradationWindow {
        from: ns(3_000),
        until: ns(14_000),
        latency_mult: 3,
        bandwidth_div: 2,
    };
    let faults = FaultSpec::none()
        .with_degradation(window)
        .with_failure(2, ns(11_000), None);
    let spec = ClusterSpec::uniform(3, 2)
        .with_placement(Placement::RoundRobin)
        .with_split(SplitSpec::new(SplitKind::MSplit, 2 * 200 * 200 * 200, 2))
        .with_faults(faults);
    let mut specs = mixed_jobs(0x52, 20, 2, 1_000);
    specs.push(job(7, 64, 1, 4_500, 1));
    (spec, 2, specs)
}

/// Two 2-node machines and a fault schedule that takes the whole fleet
/// down: machine 0 fails at 2 µs (recovering at 10 µs) and again at
/// 10 µs (recovering at 30 µs), machine 1 fails at 3 µs for good. So
/// arrivals during the outage defer to the 10 µs recovery, find the
/// fleet dead again there and re-defer to 30 µs. Machine 1's second
/// fail at 4 µs and machine 0's at 5 µs hit dead machines, and its
/// recovery at 40 µs hits a live one. An empty layer is rejected.
fn total_outage_with_duplicates() -> Episode {
    let faults = FaultSpec::none()
        .with_failure(0, ns(2_000), Some(ns(10_000)))
        .with_failure(0, ns(10_000), Some(ns(30_000)))
        .with_failure(1, ns(3_000), None)
        .with_failure(1, ns(4_000), None)
        .with_failure(0, ns(5_000), Some(ns(40_000)));
    let spec = ClusterSpec::uniform(2, 2)
        .with_placement(Placement::LeastLoaded)
        .with_faults(faults);
    let mut specs = vec![
        job(0, 128, 2, 100, 2),
        job(1, 128, 1, 200, 2),
        job(0, 64, 1, 300, 1),
        job(1, 128, 2, 400, 2),
        job(2, 64, 2, 1_500, 1),
        job(0, 64, 1, 6_000, 1),
        job(2, 128, 1, 7_000, 2),
        job(1, 0, 1, 8_000, 1),
        job(1, 64, 2, 45_000, 1),
    ];
    for mut s in mixed_jobs(0x53, 6, 3, 1_200) {
        s.arrival += SimDuration::from_ns(50_000);
        specs.push(s);
    }
    (spec, 3, specs)
}

/// Three 2-node machines behind the conservative autoscaler: a dense
/// burst grows the active set, the active machine 0 fails inside it (a
/// repair activation) and recovers as a standby, and a sparse tail
/// shrinks the set again.
fn autoscaler_grow_shrink() -> Episode {
    let spec = ClusterSpec::uniform(3, 2)
        .with_placement(Placement::TenantAffinity { spill: 2 })
        .with_autoscaler(AutoscalerSpec::conservative(1))
        .with_faults(FaultSpec::none().with_failure(0, ns(6_000), Some(ns(600_000))));
    let mut specs: Vec<JobSpec> = (0..24)
        .map(|i| job(i % 4, 64, 1 + i % 2, 500 * (i as u64 + 1), 1))
        .collect();
    specs.extend((0..4).map(|i| job(i, 64, 1, 2_000_000 * (i as u64 + 1), 1)));
    (spec, 4, specs)
}

#[test]
fn ksplit_sfc_failover_pins() {
    let want = "cda53c89743abae8 cdcc0da540841f71 114c0cf969c91f6a f7c9b6710201b4f5 416";
    assert_eq!(run_fleet(ksplit_sfc_failover).0, want);
}

#[test]
fn msplit_round_robin_degraded_pins() {
    let want = "32318f3456f84a5d 2f161d54c31f6389 1bcdc3a07e33b4ac fafbcada9a7bb473 252";
    assert_eq!(run_fleet(msplit_round_robin_degraded).0, want);
}

#[test]
fn total_outage_with_duplicates_pins() {
    let (pins, report, _) = run_fleet(total_outage_with_duplicates);
    // Five scheduled fails and three recoveries, of which two fails and
    // one recovery find the machine already in that state.
    assert_eq!((report.fault.failures, report.fault.recoveries), (3, 2));
    // The 6 µs arrival deferred to 10 µs and re-deferred to 30 µs.
    assert_eq!(report.jobs[5].effective_arrival, ns(30_000));
    let want = "2dfbc63aca7143a3 5d0c671ebf5b6267 3d04a95454a5adbf 5bb417e84fb96813 174";
    assert_eq!(pins, want);
}

#[test]
fn autoscaler_grow_shrink_pins() {
    let want = "3b6782dae2bd3722 e9848bad906faafc 1df7d8eeb285c0fc c0f0fec011fe8bd4 271";
    assert_eq!(run_fleet(autoscaler_grow_shrink).0, want);
}

/// One 2-node machine's serving episode with a 3-deep FIFO queue, driven
/// through the `Engine` a `Server` runs (a `Server` has no eviction
/// entry point): a burst overflows the queue, an unknown tenant is
/// rejected, and at 40 µs every unfinished job is evicted. Returns the
/// pins (no fault or interconnect layer: those read 0), the rejects, the
/// evictions' `(running, admitted)` flags and the record names.
fn engine_episode(sink: TraceSink) -> (String, u64, Vec<(bool, bool)>, BTreeSet<&'static str>) {
    let mut system = MacoSystem::new(SystemConfig {
        nodes: 2,
        ..SystemConfig::default()
    });
    system.reset_shared_resources();
    let config = ServeConfig {
        policy: Policy::Fifo,
        queue_capacity: 3,
        max_gang: 2,
    };
    let mut engine = Engine::new(2, &Tenant::fleet(3), &config);
    engine.set_trace(sink.clone(), 0);
    for i in 0..8 {
        engine.push(job(i % 3, 128, 1 + i % 2, 100 + i as u64, 1));
    }
    engine.push(job(5, 64, 1, 150, 1));
    engine.push(job(1, 64, 1, 2_000, 2));
    engine.push(job(2, 64, 1, 60_000, 1));
    while engine.next_event().is_some_and(|t| t < ns(40_000)) {
        engine.advance(&mut system, None).expect("the engine steps");
    }
    let evicted = engine.evict_all(ns(40_000));
    let flags = evicted
        .iter()
        .map(|e| (e.was_running, e.admitted))
        .collect();
    let report = engine.finish(&system);
    let (pins, names) = match sink.drain() {
        Some(t) => (
            pins((report.fingerprint, 0, 0), t.fingerprint, t.recorded),
            t.records.iter().map(|r| r.name).collect(),
        ),
        None => (pins((report.fingerprint, 0, 0), 0, 0), BTreeSet::new()),
    };
    (pins, report.jobs_rejected, flags, names)
}

#[test]
fn engine_queue_full_and_eviction_pins() {
    let (pins, rejected, flags, _) = engine_episode(TraceSink::on());
    let (untraced, _, untraced_flags, _) = engine_episode(TraceSink::off());
    assert_eq!(
        untraced[..16],
        pins[..16],
        "the sink perturbed the schedule"
    );
    assert_eq!(untraced_flags, flags);
    // Three queue-full rejects in the burst, one at 2 µs, and the
    // unknown tenant.
    assert_eq!(rejected, 5);
    for kind in [(true, true), (false, true), (false, false)] {
        assert!(flags.contains(&kind), "no eviction of a {kind:?} job");
    }
    let want = "07409caea55b24b0 0000000000000000 0000000000000000 f8cdba378cdb2e34 34";
    assert_eq!(pins, want);
}

/// The matrix's coverage claim: its episodes between them write every
/// fleet and engine record kind, and reach the fleet events that have no
/// record kind of their own (k- and m-splits, migrations, re-placements,
/// grows and shrinks).
#[test]
fn the_matrix_reaches_every_event_kind() {
    let mut names = engine_episode(TraceSink::on()).3;
    let mut kinds = BTreeSet::new();
    for episode in [
        ksplit_sfc_failover,
        msplit_round_robin_degraded,
        total_outage_with_duplicates,
        autoscaler_grow_shrink,
    ] {
        let (_, report, seen) = run_fleet(episode);
        names.extend(seen);
        for j in &report.jobs {
            kinds.extend(j.split.map(|k| format!("{k:?}")));
            kinds.extend(j.migrated.then(|| "migrated".to_string()));
            kinds.extend((j.requeues > 0 && j.machines.len() > 1).then(|| "replaced".to_string()));
        }
        for e in &report.fault.scale_events {
            kinds.insert(if e.grew { "grow" } else { "shrink" }.to_string());
        }
    }
    let want = "degrade/end degrade/start fault/fail fault/recover job/admit job/arrive \
                job/complete job/dispatch job/done job/evict job/reject layer lease place/sfc \
                replace route route/defer route/migrate route/reject route/split scale/grow \
                scale/shrink";
    assert_eq!(names.into_iter().collect::<Vec<_>>().join(" "), want);
    let kinds: Vec<_> = kinds.into_iter().collect();
    assert_eq!(
        kinds,
        ["KSplit", "MSplit", "grow", "migrated", "replaced", "shrink"]
    );
}
