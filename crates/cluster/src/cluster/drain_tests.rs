//! Differential test of the parallel drain phase against the serial
//! cursor-heap merge it replaced: twin fleets run the same episode, one
//! through [`drain`] and one through [`serial_drain`], and must agree on
//! every fingerprint, every job record and, with the sink on, every trace
//! record.

use proptest::prelude::*;

use super::*;
use crate::spec::{FaultSpec, SplitKind, SplitSpec};
use maco_core::gemm_plus::GemmPlusTask;
use maco_isa::Precision;

/// The reference drain: the global merge loop as it ran before the drain
/// phase went parallel, with no fleet event left. It pops the episode's
/// machine cursors, advances the minimal machine with no horizon, folds
/// its completion and re-keys it.
fn serial_drain(
    ep: &mut FleetEpisode,
    engines: &mut [Engine],
    systems: &mut [MacoSystem],
) -> Result<(), ClusterError> {
    while let Some(Reverse((t, i))) = ep.cursors.pop() {
        if engines[i].next_event() != Some(t) {
            continue;
        }
        if let Some(outcome) = engines[i].advance(&mut systems[i], None)? {
            ep.complete(i, outcome);
        }
        ep.rekey(&engines[i], i);
    }
    Ok(())
}

/// Jobs from sampled raw values: one-layer jobs (split-eligible above the
/// fleet's threshold) and two-layer streams, some with deadlines tight
/// enough to miss, so the autoscaler's miss window fills while draining.
fn jobs(raw: &[(u64, u64, u64, u64, u64, u64)]) -> Vec<JobSpec> {
    let mut arrival = SimTime::ZERO;
    raw.iter()
        .map(|&(tenant, dim, layers, width, gap, deadline)| {
            arrival += SimDuration::from_ns(100 + gap);
            let d = 32 * (1 + dim);
            JobSpec {
                tenant: tenant as usize,
                layers: (0..1 + layers)
                    .map(|i| GemmPlusTask::gemm(d, d + 32 * i, d, Precision::Fp32))
                    .collect(),
                arrival,
                priority: (tenant % 4) as u8,
                deadline: (deadline > 0).then(|| SimDuration::from_ns(4_000 * deadline)),
                gang_width: 1 + width as usize,
            }
        })
        .collect()
}

/// A fleet with a low k-split threshold, so one-layer jobs split and
/// their all-reduces clear on the interconnect while the machines drain.
/// `faults` bit 0 fail-stops the last machine at the middle arrival (bit
/// 1 brings it back `outage` later), bit 2 opens a degradation window
/// over the second half of the burst.
fn fleet(
    machines: usize,
    nodes: usize,
    placement: u64,
    faults: u64,
    outage: u64,
    autoscale: bool,
    jobs: &[JobSpec],
) -> ClusterSpec {
    let placements = [
        Placement::RoundRobin,
        Placement::LeastLoaded,
        Placement::TenantAffinity { spill: 2 },
        Placement::SfcLocality,
    ];
    let mut spec = ClusterSpec::uniform(machines, nodes)
        .with_placement(placements[placement as usize])
        .with_split(SplitSpec::new(
            SplitKind::KSplit,
            2 * 64 * 64 * 64,
            machines,
        ));
    let mid = jobs[jobs.len() / 2].arrival;
    let mut fault_spec = FaultSpec::none();
    if faults & 1 == 1 && machines >= 2 {
        let recover = (faults & 2 == 2).then(|| mid + SimDuration::from_ns(500 + outage));
        fault_spec = fault_spec.with_failure(machines - 1, mid, recover);
    }
    if faults & 4 == 4 {
        fault_spec = fault_spec.with_degradation(DegradationWindow {
            from: mid,
            until: mid + SimDuration::from_ns(1_000 + outage),
            latency_mult: 3,
            bandwidth_div: 2,
        });
    }
    spec = spec.with_faults(fault_spec);
    if autoscale {
        spec = spec.with_autoscaler(AutoscalerSpec::conservative(1));
    }
    spec
}

proptest! {
    /// The parallel drain reproduces the serial merge: equal schedule,
    /// fault and interconnect fingerprints, equal job records and, with
    /// the sink on, the same trace fingerprint and record stream (names,
    /// tracks, times and `seq` values).
    #[test]
    fn parallel_drain_matches_the_serial_merge(
        raw in proptest::collection::vec((0u64..4, 0u64..3, 0u64..2, 0u64..3, 0u64..1500, 0u64..3), 1..9),
        machines in 1usize..7,
        nodes in 1usize..4,
        placement in 0u64..4,
        faults in 0u64..8,
        outage in 0u64..3000,
        autoscale in 0u64..2,
        traced in 0u64..2,
    ) {
        let jobs = jobs(&raw);
        let spec = fleet(machines, nodes, placement, faults, outage, autoscale == 1, &jobs);
        let run = |drain: DrainFn| {
            let sink = if traced == 1 { TraceSink::on() } else { TraceSink::off() };
            let mut cluster = Cluster::new(spec.clone(), Tenant::fleet(4));
            cluster.set_trace_sink(sink.clone());
            let report = cluster
                .run_episode(jobs.clone(), drain)
                .expect("episode completes");
            (report, sink.drain())
        };
        let (parallel, parallel_trace) = run(drain);
        let (serial, serial_trace) = run(serial_drain);

        prop_assert_eq!(parallel.jobs_completed as usize, jobs.len());
        prop_assert_eq!(parallel.fingerprint, serial.fingerprint);
        prop_assert_eq!(parallel.fault.fingerprint, serial.fault.fingerprint);
        prop_assert_eq!(
            parallel.interconnect_fingerprint,
            serial.interconnect_fingerprint
        );
        prop_assert_eq!(&parallel.jobs, &serial.jobs);
        prop_assert_eq!(parallel.interconnect_busy, serial.interconnect_busy);
        prop_assert_eq!(parallel.fault.deadline_misses, serial.fault.deadline_misses);
        match (parallel_trace, serial_trace) {
            (Some(p), Some(s)) => {
                prop_assert!(s.recorded > 0);
                prop_assert_eq!(p.fingerprint, s.fingerprint);
                prop_assert_eq!(p.recorded, s.recorded);
                prop_assert_eq!(p.records, s.records);
            }
            (None, None) => prop_assert_eq!(traced, 0),
            _ => prop_assert!(false, "one run traced, the other not"),
        }
    }
}
