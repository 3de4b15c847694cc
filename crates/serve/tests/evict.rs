//! Drain-vs-evict contract of [`Engine::evict_all`].
//!
//! The eviction path is the foundation of the cluster crate's failure
//! model, so its contract is checked differentially against a *stepped
//! reference*: an identically-configured engine advanced to the same
//! instant `T` whose introspection (`running_jobs`, `queued_jobs`,
//! `flops_served`) defines what eviction must report. A third engine
//! then re-serves the evicted remainders from scratch and the split run
//! must conserve the full run's totals exactly — committed layer
//! completions stand, interrupted layers restart, nothing is lost and
//! nothing is double-credited.

use proptest::prelude::*;

use maco_core::gemm_plus::GemmPlusTask;
use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{Engine, EvictedJob, JobSpec, Policy, ServeConfig, Tenant};
use maco_sim::{SimDuration, SimTime};

fn small_system(nodes: usize) -> MacoSystem {
    let mut system = MacoSystem::new(SystemConfig {
        nodes,
        ..SystemConfig::default()
    });
    system.reset_shared_resources();
    system
}

/// Job mix from sampled raw tuples, dims in multiples of 16 so the
/// proptest stays cheap; multi-layer streams make the layer checkpoint
/// (completed layers excluded from the evicted remainder) load-bearing.
fn jobs_of(raw: &[(u64, u64, u64, u64, u64)], tenants: usize) -> Vec<JobSpec> {
    let mut arrival = SimTime::ZERO;
    raw.iter()
        .map(|&(tenant, dim, layers, width, gap)| {
            arrival += SimDuration::from_ns(100 + gap);
            let d = 16 * (1 + dim);
            JobSpec {
                tenant: tenant as usize % tenants,
                layers: (0..1 + layers)
                    .map(|i| GemmPlusTask::gemm(d, d + 16 * i, d, Precision::Fp32))
                    .collect(),
                arrival,
                priority: (tenant % 4) as u8,
                deadline: None,
                gang_width: 1 + width as usize % 2,
            }
        })
        .collect()
}

/// Runs a fresh engine over `specs` to completion; returns
/// `(jobs_completed, total_flops)`.
fn run_to_completion(nodes: usize, tenants: &[Tenant], specs: &[JobSpec]) -> (u64, u64) {
    let config = ServeConfig::default();
    let mut system = small_system(nodes);
    let mut engine = Engine::new(nodes, tenants, &config);
    for spec in specs {
        engine.push(spec.clone());
    }
    while engine.next_event().is_some() {
        engine
            .advance(&mut system, None)
            .expect("episode completes");
    }
    let report = engine.finish(&system);
    (report.jobs_completed, report.total_flops)
}

/// Steps a fresh engine strictly up to (not through) instant `cut`,
/// returning it with its system, mid-episode.
fn step_to(
    nodes: usize,
    tenants: &[Tenant],
    config: &ServeConfig,
    specs: &[JobSpec],
    cut: SimTime,
) -> (Engine, MacoSystem) {
    let mut system = small_system(nodes);
    let mut engine = Engine::new(nodes, tenants, config);
    for spec in specs {
        engine.push(spec.clone());
    }
    while engine.next_event().is_some_and(|t| t < cut) {
        engine
            .advance(&mut system, Some(cut))
            .expect("prefix serves");
    }
    (engine, system)
}

/// Field-wise identity key for an evicted job (`JobSpec` is not `Eq`;
/// flops + layer count + arrival pin the remainder spec exactly).
fn key_of(e: &EvictedJob) -> (u64, usize, bool, bool, u64, usize, SimTime) {
    (
        e.id.0,
        e.completed_layers,
        e.was_running,
        e.admitted,
        e.spec.flops(),
        e.spec.layers.len(),
        e.spec.arrival,
    )
}

proptest! {
    /// The full drain-vs-evict contract at a randomized cut instant.
    #[test]
    fn evict_matches_stepped_reference_and_conserves_totals(
        raw in proptest::collection::vec(
            (0u64..4, 0u64..4, 0u64..3, 0u64..2, 0u64..400), 3..10),
        cut_num in 1u64..8,
    ) {
        let nodes = 3;
        let tenants = Tenant::fleet(4);
        let config = ServeConfig::default();
        let specs = jobs_of(&raw, tenants.len());
        let (full_completed, full_flops) = run_to_completion(nodes, &tenants, &specs);
        let makespan = specs
            .iter()
            .map(|s| s.arrival)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);
        // Any cut works; spread them over the arrival span so some land
        // mid-queue and some after the last arrival.
        let cut = SimTime::ZERO + makespan * cut_num / 4 + SimDuration::from_ns(50);

        // Reference: stepped to `cut`, introspected without evicting.
        let (reference, _ref_system) = step_to(nodes, &tenants, &config, &specs, cut);
        let running = reference.running_jobs();
        let queued: Vec<_> = reference.queued_jobs().collect();
        let served_at_cut = reference.flops_served();

        // Subject: stepped identically, then evicted.
        let (mut subject, subject_system) = step_to(nodes, &tenants, &config, &specs, cut);
        prop_assert_eq!(subject.flops_served(), served_at_cut);
        let evicted = subject.evict_all(cut);
        prop_assert_eq!(subject.next_event(), None, "evicted engine is drained");

        // Eviction reports exactly the reference's in-flight and queued
        // sets, in ascending id order, then pending arrivals.
        let evicted_running: Vec<_> =
            evicted.iter().filter(|e| e.was_running).map(|e| e.id).collect();
        prop_assert_eq!(&evicted_running, &running);
        let evicted_queued: Vec<_> = evicted
            .iter()
            .filter(|e| e.admitted && !e.was_running)
            .map(|e| e.id)
            .collect();
        prop_assert_eq!(&evicted_queued, &queued);
        for e in evicted.iter().filter(|e| !e.admitted) {
            prop_assert_eq!(e.completed_layers, 0, "pending arrivals served nothing");
            prop_assert!(e.spec.arrival >= cut || queued.len() + running.len() > 0);
        }
        prop_assert!(
            evicted.windows(2).all(|w| w[0].id.0 < w[1].id.0),
            "evicted ids are dense and ascending"
        );

        // Eviction closes every running job's lease exactly at the cut.
        // (A *completed* job's lease may end past the cut — a committed
        // completion stands even when its finish time lies past the
        // eviction instant; those jobs are not in the evicted set.)
        let report = subject.finish(&subject_system);
        for lease in &report.leases {
            if evicted_running.contains(&maco_serve::JobId(lease.job)) {
                prop_assert_eq!(lease.until, cut, "running lease not closed at eviction");
            }
        }
        prop_assert_eq!(report.total_flops, served_at_cut);

        // Re-serving the remainders from scratch conserves the full
        // run's totals exactly: committed completions stand, interrupted
        // layers restart, nothing lost, nothing double-credited.
        let remainders: Vec<JobSpec> = evicted.iter().map(|e| e.spec.clone()).collect();
        let (tail_completed, tail_flops) = run_to_completion(nodes, &tenants, &remainders);
        prop_assert_eq!(tail_completed, evicted.len() as u64);
        prop_assert_eq!(
            report.jobs_completed + tail_completed,
            full_completed,
            "every job completes exactly once across the two incarnations"
        );
        prop_assert_eq!(
            report.total_flops + tail_flops,
            full_flops,
            "flops conserved across eviction"
        );

        // Eviction is deterministic: a third identically-stepped engine
        // evicts a field-identical vector.
        let (mut again, _sys) = step_to(nodes, &tenants, &config, &specs, cut);
        let evicted_again = again.evict_all(cut);
        let lhs: Vec<_> = evicted.iter().map(key_of).collect();
        let rhs: Vec<_> = evicted_again.iter().map(key_of).collect();
        prop_assert_eq!(lhs, rhs);
    }
}

/// A deep backlog — thousands of queued jobs — evicts in one drain, and
/// the evicted queued set comes out in exactly the stepped reference's
/// `queued_jobs()` order under every policy.
#[test]
fn deep_queue_evicts_in_reference_order() {
    let nodes = 2;
    let jobs = 3_000;
    let tenants = Tenant::fleet(4);
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| JobSpec {
            priority: (i % 3) as u8,
            gang_width: 1 + i % 2,
            ..JobSpec::single(
                i % tenants.len(),
                GemmPlusTask::gemm(16, 16 * (1 + i as u64 % 3), 16, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(i as u64),
            )
        })
        .collect();
    let cut = SimTime::ZERO + SimDuration::from_ns(jobs as u64);
    for policy in Policy::ALL {
        let config = ServeConfig {
            queue_capacity: jobs,
            ..ServeConfig::with_policy(policy)
        };
        let (reference, _) = step_to(nodes, &tenants, &config, &specs, cut);
        let queued: Vec<_> = reference.queued_jobs().collect();
        assert!(queued.len() >= jobs - 100, "{policy:?}: backlog is deep");
        let (mut subject, _) = step_to(nodes, &tenants, &config, &specs, cut);
        let evicted = subject.evict_all(cut);
        assert_eq!(subject.next_event(), None, "evicted engine is drained");
        assert_eq!(subject.queued_jobs().len(), 0);
        let evicted_queued: Vec<_> = evicted
            .iter()
            .filter(|e| e.admitted && !e.was_running)
            .map(|e| e.id)
            .collect();
        assert_eq!(evicted_queued, queued, "{policy:?}");
    }
}

/// Evicting a fully drained engine is a no-op: nothing to report.
#[test]
fn evicting_a_drained_engine_returns_nothing() {
    let tenants = Tenant::fleet(2);
    let config = ServeConfig::default();
    let mut system = small_system(2);
    let mut engine = Engine::new(2, &tenants, &config);
    engine.push(JobSpec::single(
        0,
        GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
        SimTime::ZERO,
    ));
    while engine.next_event().is_some() {
        engine.advance(&mut system, None).expect("job completes");
    }
    let evicted = engine.evict_all(SimTime::ZERO + SimDuration::from_us(1));
    assert!(evicted.is_empty(), "drained engine has nothing to evict");
    let report = engine.finish(&system);
    assert_eq!(report.jobs_completed, 1);
}

/// Evicting before *any* event is processed returns every push as a
/// pending (unadmitted) arrival with the whole spec intact, in
/// `(arrival, push order)` order — here pushed out of arrival order with
/// an equal-arrival tie — each carrying the ticket its push returned.
#[test]
fn evicting_before_first_event_returns_pending_arrivals_whole() {
    let tenants = Tenant::fleet(2);
    let config = ServeConfig::default();
    let mut engine = Engine::new(2, &tenants, &config);
    let specs: Vec<JobSpec> = [20u64, 0, 20, 10]
        .iter()
        .enumerate()
        .map(|(i, &ns)| {
            JobSpec::single(
                i % 2,
                GemmPlusTask::gemm(32, 32 + 16 * i as u64, 32, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(ns),
            )
        })
        .collect();
    let tickets: Vec<u64> = specs.iter().map(|s| engine.push(s.clone())).collect();
    assert_eq!(tickets, [0, 1, 2, 3], "tickets are push indices");
    let evicted = engine.evict_all(SimTime::ZERO);
    assert_eq!(evicted.len(), specs.len());
    let pop_order = [1, 3, 0, 2];
    for (i, (e, &p)) in evicted.iter().zip(&pop_order).enumerate() {
        let spec = &specs[p];
        assert_eq!(e.id.0, i as u64, "pop order is admission order");
        assert_eq!(
            e.ticket, tickets[p],
            "evicted job {i} carries its push ticket"
        );
        assert!(!e.admitted);
        assert!(!e.was_running);
        assert_eq!(e.completed_layers, 0);
        assert_eq!(e.spec.flops(), spec.flops());
        assert_eq!(e.spec.arrival, spec.arrival);
    }
}

/// Jobs pushed out of arrival order (with equal-arrival ties) are
/// admitted in `(arrival, push order)` order, so their machine-local ids
/// differ from their push order — yet every outcome and every evicted
/// job, admitted or still pending, echoes the ticket its push returned.
#[test]
fn outcomes_and_evictions_echo_push_tickets() {
    let tenants = Tenant::fleet(2);
    let config = ServeConfig::default();
    let arrivals_ns = [30u64, 10, 10, 0, 20, 10, 0, 30];
    // Distinct flops per push identify each job's spec.
    let specs: Vec<JobSpec> = arrivals_ns
        .iter()
        .enumerate()
        .map(|(i, &ns)| {
            JobSpec::single(
                i % 2,
                GemmPlusTask::gemm(64, 16 * (1 + i as u64), 64, Precision::Fp32),
                SimTime::ZERO + SimDuration::from_ns(ns),
            )
        })
        .collect();
    let ticket_of = |flops: u64| specs.iter().position(|s| s.flops() == flops).unwrap() as u64;

    let mut system = small_system(1);
    let mut engine = Engine::new(1, &tenants, &config);
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(engine.push(spec.clone()), i as u64);
    }
    let mut outcomes = Vec::new();
    while engine.next_event().is_some() {
        outcomes.extend(engine.advance(&mut system, None).expect("job completes"));
    }
    assert_eq!(outcomes.len(), specs.len());
    for o in &outcomes {
        assert_eq!(o.ticket, ticket_of(o.flops), "job {} outcome", o.job.0);
    }
    assert!(
        outcomes.iter().any(|o| o.ticket != o.job.0),
        "admission order differs from push order"
    );

    // Mid-episode: the 0/10/20 ns arrivals are admitted, the 30 ns ones
    // still pending.
    let cut = SimTime::ZERO + SimDuration::from_ns(25);
    let (mut subject, _system) = step_to(1, &tenants, &config, &specs, cut);
    let evicted = subject.evict_all(cut);
    assert_eq!(evicted.len(), specs.len(), "nothing completes by the cut");
    assert!(evicted.iter().any(|e| e.admitted) && evicted.iter().any(|e| !e.admitted));
    for e in &evicted {
        assert_eq!(
            e.ticket,
            ticket_of(e.spec.flops()),
            "evicted job {}",
            e.id.0
        );
    }
}
