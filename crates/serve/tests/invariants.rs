//! Property-based invariants of the serving subsystem.
//!
//! Three properties over randomized tenant/job mixes, plus the
//! acceptance-style end-to-end check: a 16-node, 8-tenant mixed
//! BERT/GPT-3/ResNet trace completes under every policy with
//! byte-identical schedule fingerprints across repeated same-seed runs.

use proptest::prelude::*;

use maco_core::gemm_plus::GemmPlusTask;
use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{Engine, JobSpec, Policy, ServeConfig, ServeReport, Server, Tenant};
use maco_sim::{SimDuration, SimTime};
use maco_workloads::trace::{self, TraceConfig};

fn small_system(nodes: usize) -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes,
        ..SystemConfig::default()
    })
}

/// Builds a synthetic job mix from sampled raw values: `raw` yields one
/// job per `(tenant, dim, layers, width, gap)` tuple, with GEMM dims in
/// multiples of 32 so episodes stay cheap at 128 cases.
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

fn policy_of(idx: u64) -> Policy {
    Policy::ALL[idx as usize % Policy::ALL.len()]
}

/// Leases on one node must never overlap: gangs hold nodes exclusively.
fn assert_exclusive_leases(report: &ServeReport, nodes: usize) {
    for node in 0..nodes {
        let mut spans: Vec<(SimTime, SimTime, u64)> = report
            .leases
            .iter()
            .filter(|l| l.node == node)
            .map(|l| (l.from, l.until, l.job))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "node {node}: job {} ({:?}..{:?}) overlaps job {} ({:?}..{:?})",
                w[0].2,
                w[0].0,
                w[0].1,
                w[1].2,
                w[1].0,
                w[1].1,
            );
        }
    }
}

proptest! {
    /// No two concurrent jobs ever share a compute node.
    #[test]
    fn no_two_jobs_share_a_node(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..6),
        nodes in 2usize..6,
        policy in 0u64..3,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let mut server = Server::new(
            small_system(nodes),
            Tenant::fleet(4),
            ServeConfig::with_policy(policy_of(policy)),
        );
        let report = server.run_jobs(specs).expect("episode completes");
        prop_assert_eq!(report.jobs_completed as usize, raw.len());
        assert_exclusive_leases(&report, nodes);
    }

    /// Gang partitioning and layer chaining conserve FLOPs exactly: the
    /// served total equals the serial sum over every submitted job.
    #[test]
    fn flops_conserved_vs_serial(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..6),
        nodes in 2usize..6,
        policy in 0u64..3,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let serial: u64 = specs.iter().map(JobSpec::flops).sum();
        let mut server = Server::new(
            small_system(nodes),
            Tenant::fleet(4),
            ServeConfig::with_policy(policy_of(policy)),
        );
        let report = server.run_jobs(specs).expect("episode completes");
        prop_assert_eq!(report.total_flops, serial);
        let per_tenant: u64 = report.tenants.iter().map(|t| t.flops).sum();
        prop_assert_eq!(per_tenant, serial, "tenant attribution covers everything");
    }

    /// Identical inputs yield byte-identical schedule fingerprints, on a
    /// reused server and on a freshly built one.
    #[test]
    fn same_seed_same_fingerprint(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..2, 0u64..4, 0u64..2000), 2..5),
        nodes in 2usize..6,
        policy in 0u64..3,
    ) {
        let specs = synthetic_jobs(&raw, 4);
        let config = ServeConfig::with_policy(policy_of(policy));
        let mut server = Server::new(small_system(nodes), Tenant::fleet(4), config.clone());
        let a = server.run_jobs(specs.clone()).expect("episode completes");
        let b = server.run_jobs(specs.clone()).expect("episode completes");
        prop_assert_eq!(a.fingerprint, b.fingerprint, "reused server diverged");
        let mut fresh = Server::new(small_system(nodes), Tenant::fleet(4), config);
        let c = fresh.run_jobs(specs).expect("episode completes");
        prop_assert_eq!(a.fingerprint, c.fingerprint, "fresh server diverged");
        prop_assert_eq!(a.makespan, c.makespan);
    }
}

/// Builds an adversarial tie-storm job mix: arrival gaps of 0–2 ns (far
/// below any service time, so arrivals, wakes and completions constantly
/// collide on the simulated clock) and minimal 1×1×1 "zero-duration"
/// layers mixed with real ones. This is the regime that caught the two
/// PR 3 scheduler bugs — completions processed in event order leaping
/// past same-instant arrivals, and freed nodes serving dispatches
/// timestamped in their busy past.
fn tie_storm_jobs(raw: &[(u64, u64, u64, u64)], tenants: usize) -> Vec<JobSpec> {
    let mut arrival = SimTime::ZERO;
    raw.iter()
        .map(|&(tenant, dim, width, gap)| {
            // gap ∈ {0, 1, 2} ns: most consecutive jobs share a timestamp.
            arrival += SimDuration::from_ns(gap % 3);
            let d = if dim == 0 { 1 } else { 32 * dim };
            JobSpec {
                tenant: tenant as usize % tenants,
                layers: vec![GemmPlusTask::gemm(d, d, d, Precision::Fp32)],
                arrival,
                priority: (tenant % 4) as u8,
                deadline: Some(SimDuration::from_ns(1)),
                gang_width: 1 + width as usize,
            }
        })
        .collect()
}

proptest! {
    /// Under timestamp tie storms and zero-duration jobs, every policy
    /// still completes everything with exclusive leases, exact flops
    /// accounting and a reproducible schedule — the event-order vs
    /// timestamp-order fixes (arrival draining, time-aware `NodePool`)
    /// hold at the boundaries they were written for.
    #[test]
    fn tie_storms_preserve_scheduler_invariants(
        raw in proptest::collection::vec((0u64..6, 0u64..3, 0u64..5, 0u64..3), 3..9),
        nodes in 1usize..5,
        policy in 0u64..3,
    ) {
        let specs = tie_storm_jobs(&raw, 4);
        let serial: u64 = specs.iter().map(JobSpec::flops).sum();
        let config = ServeConfig::with_policy(policy_of(policy));
        let mut server = Server::new(small_system(nodes), Tenant::fleet(4), config.clone());
        let a = server.run_jobs(specs.clone()).expect("episode completes");
        prop_assert_eq!(a.jobs_completed as usize, raw.len());
        prop_assert_eq!(a.total_flops, serial);
        assert_exclusive_leases(&a, nodes);
        // Every lease interval is well-formed even when jobs are
        // effectively instantaneous.
        for lease in &a.leases {
            prop_assert!(lease.until >= lease.from);
        }
        let mut fresh = Server::new(small_system(nodes), Tenant::fleet(4), config);
        let b = fresh.run_jobs(specs).expect("episode completes");
        prop_assert_eq!(a.fingerprint, b.fingerprint, "tie-break order must be total");
        prop_assert_eq!(a.makespan, b.makespan);
    }
}

/// The sharpest tie: every job arrives at exactly t=0, widths spanning
/// 1..=2×nodes (clamped), minimal and heavy layers interleaved. All three
/// policies must drain the queue with exclusive leases and identical
/// repeat fingerprints.
#[test]
fn simultaneous_arrivals_drain_under_every_policy() {
    let nodes = 3;
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            let d = if i % 2 == 0 { 1 } else { 64 };
            JobSpec {
                tenant: i % 4,
                layers: vec![GemmPlusTask::gemm(d, d, d, Precision::Fp32)],
                arrival: SimTime::ZERO,
                priority: (i % 3) as u8,
                deadline: None,
                gang_width: 1 + i % (2 * nodes),
            }
        })
        .collect();
    for policy in Policy::ALL {
        let run = |specs: Vec<JobSpec>| {
            let mut server = Server::new(
                small_system(nodes),
                Tenant::fleet(4),
                ServeConfig::with_policy(policy),
            );
            server.run_jobs(specs).expect("episode completes")
        };
        let a = run(specs.clone());
        let b = run(specs.clone());
        assert_eq!(a.jobs_completed, 8, "{policy:?}");
        assert_exclusive_leases(&a, nodes);
        assert_eq!(a.fingerprint, b.fingerprint, "{policy:?}");
    }
}

/// Empty shards flow through the replica runner end to end: sharding an
/// empty trace (or more shards than requests) produces zero-job episodes
/// whose reports and fingerprint contributions are well-defined — the
/// documented `shard_by_tenant`/`shard_balanced` empty-shard behaviour.
#[test]
fn empty_and_sparse_shards_serve_cleanly_through_run_replicas() {
    let system = SystemConfig {
        nodes: 4,
        ..SystemConfig::default()
    };
    let tenants = Tenant::fleet(4);
    let config = ServeConfig::default();

    // Entirely empty trace → every shard empty.
    let empty = trace::shard_by_tenant(&[], 3);
    assert_eq!(empty.len(), 3);
    let outcome = maco_serve::run_replicas(&system, &tenants, &config, &empty)
        .expect("empty replicas complete");
    assert_eq!(outcome.jobs_completed(), 0);
    assert_eq!(outcome.total_flops(), 0);
    for report in &outcome.reports {
        assert_eq!(report.jobs_completed, 0);
        assert_eq!(report.fingerprint, 0, "no schedule events, zero fold");
        assert!(report.makespan.is_zero());
    }
    // The combined fingerprint of all-empty shards is the zero fold —
    // stable, so a baseline comparison cannot be tripped by an empty day.
    assert_eq!(outcome.fingerprint, 0);

    // More shards than requests: the occupied shards match their solo
    // runs, the empty ones serve zero jobs.
    let trace = trace::generate(&TraceConfig {
        tenants: 2,
        requests: 2,
        ..TraceConfig::quick(77)
    });
    let shards = trace::shard_by_tenant(&trace, 6);
    assert!(shards.iter().filter(|s| s.is_empty()).count() >= 4);
    let outcome =
        maco_serve::run_replicas(&system, &tenants, &config, &shards).expect("replicas complete");
    assert_eq!(outcome.jobs_completed(), trace.len() as u64);
    for (shard, report) in shards.iter().zip(&outcome.reports) {
        assert_eq!(report.jobs_completed, shard.len() as u64);
        if shard.is_empty() {
            assert_eq!(report.fingerprint, 0);
        } else {
            assert_ne!(report.fingerprint, 0);
        }
    }

    // Single tenant, many shards: all work lands on one replica; the
    // rest idle. End-to-end totals still add up.
    let solo_trace = trace::generate(&TraceConfig {
        tenants: 1,
        requests: 3,
        ..TraceConfig::quick(78)
    });
    let solo_shards = trace::shard_by_tenant(&solo_trace, 4);
    let outcome = maco_serve::run_replicas(&system, &tenants, &config, &solo_shards)
        .expect("replicas complete");
    assert_eq!(outcome.jobs_completed(), 3);
    assert_eq!(outcome.reports[0].jobs_completed, 3);
    assert!(outcome.reports[1..].iter().all(|r| r.jobs_completed == 0));
}

/// The acceptance configuration: 16 nodes, 8 tenants, mixed models.
fn acceptance_trace() -> Vec<trace::TraceRequest> {
    trace::generate(&TraceConfig {
        seed: 0xACCE,
        tenants: 8,
        requests: 12,
        layer_cap: 2,
        ..TraceConfig::default()
    })
}

#[test]
fn mixed_trace_completes_under_every_policy_deterministically() {
    let trace = acceptance_trace();
    assert!(
        {
            let mut tenants: Vec<usize> = trace.iter().map(|r| r.tenant).collect();
            tenants.sort_unstable();
            tenants.dedup();
            tenants.len() >= 5
        },
        "trace exercises a real tenant mix"
    );
    for policy in Policy::ALL {
        let run = |t: &[trace::TraceRequest]| {
            let mut server = Server::new(
                small_system(16),
                Tenant::fleet(8),
                ServeConfig::with_policy(policy),
            );
            server.run_trace(t).expect("trace completes")
        };
        let a = run(&trace);
        let b = run(&trace);
        assert_eq!(a.jobs_completed, trace.len() as u64, "{policy:?} completes");
        assert_eq!(a.jobs_rejected, 0);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{policy:?} schedule must be byte-identical across same-seed runs"
        );
        assert_eq!(a.makespan, b.makespan);
        assert_exclusive_leases(&a, 16);
        assert!(a.fairness() > 0.0 && a.fairness() <= 1.0);
        assert!(a.total_gflops() > 0.0);
        // Occupancy flowed through the MPAIS queues, per tenant and via
        // the queues' own high-water counters.
        assert!(a.tenants.iter().any(|t| t.peak_mtq > 0));
        assert!(a.tenants.iter().any(|t| t.peak_stq > 0));
        assert!(a.machine_peak_mtq > 0);
        assert!(a.machine_peak_stq > 0);
    }
}

#[test]
fn replica_shards_match_single_threaded_runs_exactly() {
    let trace = acceptance_trace();
    let shards = trace::shard_by_tenant(&trace, 3);
    let system = SystemConfig {
        nodes: 8,
        ..SystemConfig::default()
    };
    let tenants = Tenant::fleet(8);
    let config = ServeConfig::with_policy(Policy::Fifo);
    let outcome =
        maco_serve::run_replicas(&system, &tenants, &config, &shards).expect("replicas complete");
    assert_eq!(outcome.jobs_completed(), trace.len() as u64);
    // Every shard's report is bit-identical to serving that shard alone
    // on one thread: the threads only buy wall-clock, never outcomes.
    for (shard, threaded) in shards.iter().zip(&outcome.reports) {
        let mut solo = Server::new(
            MacoSystem::new(system.clone()),
            tenants.clone(),
            config.clone(),
        );
        let report = solo.run_trace(shard).expect("shard completes");
        assert_eq!(report.fingerprint, threaded.fingerprint);
        assert_eq!(report.makespan, threaded.makespan);
        assert_eq!(report.total_flops, threaded.total_flops);
    }
}

proptest! {
    /// The heap-based pending stream admits jobs in exactly the order the
    /// old sorted-insert `VecDeque` did: a stable sort of the push stream
    /// by arrival time (equal arrivals keep push order). Jobs carry
    /// unique flops as identity tags; the engine's admission index (the
    /// `JobOutcome::job` id) must rank them identically to the reference
    /// stable sort, even when most arrivals collide on the same instant.
    #[test]
    fn tie_storm_admission_order_matches_sorted_insert(
        gaps in proptest::collection::vec(0u64..3, 2..10),
    ) {
        let tenants = Tenant::fleet(2);
        let config = ServeConfig::default();
        let mut system = small_system(2);
        system.reset_shared_resources();
        let mut engine = Engine::new(system.node_count(), &tenants, &config);
        // Unique dims → unique flops → each outcome names its spec.
        let mut arrival = SimTime::ZERO;
        let specs: Vec<JobSpec> = gaps
            .iter()
            .enumerate()
            .map(|(i, &gap)| {
                arrival += SimDuration::from_ns(gap);
                let d = 8 * (1 + i as u64);
                JobSpec::single(0, GemmPlusTask::gemm(d, d, d, Precision::Fp32), arrival)
            })
            .collect();
        for spec in &specs {
            engine.push(spec.clone());
        }
        // Reference: the old sorted-insert order is a stable sort of the
        // push stream by arrival.
        let mut expected: Vec<u64> = specs.iter().map(JobSpec::flops).collect();
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| specs[i].arrival);
        expected = order.into_iter().map(|i| expected[i]).collect();

        let mut by_admission: Vec<Option<u64>> = vec![None; specs.len()];
        while engine.next_event().is_some() {
            if let Some(outcome) = engine.advance(&mut system, None).expect("episode completes") {
                by_admission[outcome.job.0 as usize] = Some(outcome.flops);
            }
        }
        let actual: Vec<u64> = by_admission
            .into_iter()
            .map(|f| f.expect("every admitted job completes"))
            .collect();
        prop_assert_eq!(actual, expected, "heap order != stable sorted-insert order");
    }
}

proptest! {
    /// The pending arrival stream pops in `(arrival, ticket)` order when
    /// pushes interleave with `advance`, as the cluster drives an engine:
    /// each round pushes arrivals at or after the current horizon in
    /// shuffled time order (a migration-delayed job lands behind later
    /// ones, never before the arrival floor), then advances every event
    /// before the next horizon, bounded by it. An `evict_all` may cut
    /// the episode at a round's horizon. Every job's admission rank (its
    /// outcome's or eviction's id) and the order in which evicted pending
    /// jobs come back both match a sort of the pushes by
    /// `(arrival, ticket)`.
    #[test]
    fn interleaved_pushes_admit_and_evict_in_arrival_ticket_order(
        // Per round: the step to the next horizon, then the pushes as
        // `(offset / 250 ns, dim, tenant, width)`.
        rounds in proptest::collection::vec(
            (0u64..1_500, proptest::collection::vec((0u64..8, 0u64..3, 0u64..3, 1u64..3), 0..6)),
            1..8,
        ),
        evict_round in 0usize..12,
        nodes in 1usize..4,
        policy in 0u64..3,
    ) {
        let tenants = Tenant::fleet(3);
        let config = ServeConfig {
            queue_capacity: 64,
            ..ServeConfig::with_policy(policy_of(policy))
        };
        let mut system = small_system(nodes);
        system.reset_shared_resources();
        let mut engine = Engine::new(nodes, &tenants, &config);
        // `(arrival, ticket)` of every push, and each ticket's admission
        // rank once known.
        let mut pushed: Vec<(SimTime, u64)> = Vec::new();
        let mut rank: Vec<Option<u64>> = Vec::new();
        let mut evicted_pending: Vec<u64> = Vec::new();
        let mut horizon = SimTime::ZERO;
        for (r, (step, pushes)) in rounds.iter().enumerate() {
            for &(offset, dim, tenant, width) in pushes {
                let d = 16 * (1 + dim);
                // A coarse offset grid: tied arrivals fall to the ticket.
                let arrival = horizon + SimDuration::from_ns(250 * offset);
                let spec = JobSpec {
                    gang_width: width as usize,
                    ..JobSpec::single(
                        tenant as usize,
                        GemmPlusTask::gemm(d, d, d, Precision::Fp32),
                        arrival,
                    )
                };
                let ticket = engine.push(spec);
                prop_assert_eq!(ticket, pushed.len() as u64);
                pushed.push((arrival, ticket));
                rank.push(None);
            }
            if r == evict_round {
                for job in engine.evict_all(horizon) {
                    rank[job.ticket as usize] = Some(job.id.0);
                    if !job.admitted {
                        evicted_pending.push(job.ticket);
                    }
                }
                prop_assert_eq!(engine.next_event(), None, "eviction drains the engine");
                break;
            }
            horizon += SimDuration::from_ns(*step);
            while engine.next_event().is_some_and(|t| t < horizon) {
                let outcome = engine.advance(&mut system, Some(horizon)).expect("episode serves");
                if let Some(o) = outcome {
                    rank[o.ticket as usize] = Some(o.job.0);
                }
            }
        }
        if evict_round >= rounds.len() {
            while engine.next_event().is_some() {
                if let Some(o) = engine.advance(&mut system, None).expect("episode serves") {
                    rank[o.ticket as usize] = Some(o.job.0);
                }
            }
        }
        let mut order = pushed.clone();
        order.sort();
        let want: Vec<u64> = order.iter().map(|&(_, ticket)| ticket).collect();
        let mut got: Vec<(u64, u64)> = rank
            .iter()
            .enumerate()
            .map(|(ticket, id)| (id.expect("every push completes or is evicted"), ticket as u64))
            .collect();
        got.sort();
        prop_assert_eq!(got.iter().map(|&(_, t)| t).collect::<Vec<_>>(), want.clone());
        let pending_want: Vec<u64> =
            want.into_iter().filter(|t| evicted_pending.contains(t)).collect();
        prop_assert_eq!(evicted_pending, pending_want, "evicted pending order");
    }
}

/// A drained engine reports no next event, and `finish` closes the
/// episode cleanly — the composition layer's termination condition.
#[test]
fn drained_engine_has_no_next_event() {
    let tenants = Tenant::fleet(1);
    let config = ServeConfig::default();
    let mut system = small_system(2);
    system.reset_shared_resources();
    let mut engine = Engine::new(system.node_count(), &tenants, &config);
    assert_eq!(engine.next_event(), None, "idle engine has no events");
    engine.push(JobSpec::single(
        0,
        GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
        SimTime::ZERO,
    ));
    assert_eq!(engine.next_event(), Some(SimTime::ZERO));
    while engine.next_event().is_some() {
        engine
            .advance(&mut system, None)
            .expect("episode completes");
    }
    assert_eq!(engine.next_event(), None, "drained engine has no events");
    let report = engine.finish(&system);
    assert_eq!(report.jobs_completed, 1);
}

/// Advancing past the drain is a caller bug and panics loudly instead of
/// spinning or fabricating events.
#[test]
#[should_panic(expected = "drained engine")]
fn advancing_a_drained_engine_panics() {
    let tenants = Tenant::fleet(1);
    let config = ServeConfig::default();
    let mut system = small_system(1);
    system.reset_shared_resources();
    let mut engine = Engine::new(system.node_count(), &tenants, &config);
    let _ = engine.advance(&mut system, None);
}

/// The `Engine::push` contract — no pushed arrival predates an arrival
/// already processed — is enforced in debug builds: a violating push
/// would silently corrupt admission order and desync the cluster's slot
/// mapping, so it must fail at the push, not downstream.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "push contract violated")]
fn push_predating_a_processed_arrival_panics_in_debug() {
    let tenants = Tenant::fleet(1);
    let config = ServeConfig::default();
    let mut system = small_system(2);
    system.reset_shared_resources();
    let mut engine = Engine::new(system.node_count(), &tenants, &config);
    let late = SimTime::ZERO + SimDuration::from_ns(100);
    engine.push(JobSpec::single(
        0,
        GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
        late,
    ));
    // Process the 100 ns arrival...
    engine.advance(&mut system, None).expect("arrival admits");
    // ...then push one timestamped before it: the contract violation.
    engine.push(JobSpec::single(
        0,
        GemmPlusTask::gemm(16, 16, 16, Precision::Fp32),
        SimTime::ZERO + SimDuration::from_ns(10),
    ));
}

/// A tenant that completes nothing reports a zero mean latency (the
/// `checked_div` path), not a panic or a poisoned value.
#[test]
fn zero_completed_jobs_mean_latency_is_zero() {
    let mut server = Server::new(small_system(2), Tenant::fleet(2), ServeConfig::default());
    // Only tenant 0 submits; tenant 1 completes nothing.
    let report = server
        .run_jobs(vec![JobSpec::single(
            0,
            GemmPlusTask::gemm(32, 32, 32, Precision::Fp32),
            SimTime::ZERO,
        )])
        .expect("episode completes");
    assert_eq!(report.tenants[1].completed, 0);
    assert_eq!(report.tenants[1].mean_latency(), SimDuration::ZERO);
    assert!(report.tenants[0].mean_latency() > SimDuration::ZERO);
}

#[test]
fn deadlines_and_priorities_are_observed() {
    // An impossible deadline is reported missed, not dropped.
    let mut server = Server::new(small_system(2), Tenant::fleet(2), ServeConfig::default());
    let mut spec = JobSpec::single(
        0,
        GemmPlusTask::gemm(512, 512, 512, Precision::Fp32),
        SimTime::ZERO,
    );
    spec.deadline = Some(SimDuration::from_ns(1));
    let report = server.run_jobs(vec![spec]).expect("completes");
    assert_eq!(report.tenants[0].deadline_misses, 1);
    assert_eq!(report.tenants[0].completed, 1);
}

/// MTQ occupancy is per process (ASID), so tenants that share one count
/// each other's in-flight members. Four single-node jobs start at once on
/// four nodes, alternating between two tenants of one ASID, so the last
/// of them starts with four entries held; a third tenant's job, of
/// another ASID, waits for a node and starts with its own entry alone.
#[test]
fn tenants_sharing_an_asid_share_its_mtq_occupancy() {
    let shared = maco_isa::Asid::new(9);
    let tenants = vec![
        Tenant::new("a", shared),
        Tenant::new("b", shared),
        Tenant::new("c", maco_isa::Asid::new(10)),
    ];
    let specs = [0, 1, 0, 1, 2]
        .into_iter()
        .map(|tenant| cube_job(tenant, 64, 1, 0, 0, 1))
        .collect();
    let mut server = Server::new(small_system(4), tenants, ServeConfig::default());
    let report = server.run_jobs(specs).expect("episode completes");
    assert_eq!(report.jobs_completed, 5);
    let peaks: Vec<usize> = report.tenants.iter().map(|t| t.peak_mtq).collect();
    assert_eq!(peaks, [3, 4, 1]);
}

/// One FP32 job of `layers` `d`³ GEMMs, with no deadline.
fn cube_job(
    tenant: usize,
    d: u64,
    layers: u64,
    arrival_ns: u64,
    priority: u8,
    gang: usize,
) -> JobSpec {
    JobSpec {
        tenant,
        layers: vec![GemmPlusTask::gemm(d, d, d, Precision::Fp32); layers as usize],
        arrival: SimTime::ZERO + SimDuration::from_ns(arrival_ns),
        priority,
        deadline: None,
        gang_width: gang,
    }
}

/// Serves `specs` with the trace sink on and asserts that every
/// `job/dispatch` record is at or after its job's arrival, read from the
/// job's `job/admit` record (stamped at the arrival instant and, unlike
/// `job/arrive`, only carrying ids of admitted jobs).
fn serve_asserting_no_early_dispatch(
    nodes: usize,
    config: ServeConfig,
    specs: Vec<JobSpec>,
) -> ServeReport {
    let sink = maco_telemetry::TraceSink::on();
    let mut server = Server::new(small_system(nodes), Tenant::fleet(4), config);
    server.set_trace_sink(sink.clone());
    let report = server.run_jobs(specs).expect("episode completes");
    let records = sink.drain().expect("sink is on").records;
    let arrivals: std::collections::HashMap<u64, SimTime> = records
        .iter()
        .filter(|r| r.name == "job/admit")
        .map(|r| (r.job, r.start))
        .collect();
    for r in records.iter().filter(|r| r.name == "job/dispatch") {
        let arrival = arrivals[&r.job];
        assert!(
            r.start >= arrival,
            "job {} dispatched at {:?}, before its arrival at {arrival:?}",
            r.job,
            r.start
        );
    }
    report
}

/// A completion whose final step leaps far ahead admits the arrivals it
/// leapt; an earlier completion must not then start one of them before it
/// arrives. Here job 0's last step leaps 41.598 → 48.158 µs and admits the
/// 1³ job arriving at 47.856 µs, while job 3 still completes at 45.570 µs
/// with a node to hand out.
#[test]
fn an_admitted_job_never_starts_before_it_arrives() {
    let specs = vec![
        cube_job(0, 128, 1, 18_716, 1, 1),
        cube_job(1, 1, 1, 29_600, 1, 2),
        cube_job(0, 128, 1, 29_600, 0, 2),
        cube_job(0, 96, 1, 29_602, 0, 1),
        cube_job(0, 1, 1, 47_856, 0, 1),
        cube_job(1, 8, 1, 47_857, 0, 2),
        cube_job(2, 64, 2, 47_858, 2, 1),
    ];
    let config = ServeConfig {
        queue_capacity: 7,
        ..ServeConfig::with_policy(Policy::FairShare)
    };
    let report = serve_asserting_no_early_dispatch(4, config, specs);
    assert_eq!(report.jobs_completed, 7);
}

proptest! {
    /// No policy starts a job before it arrives, over traces whose
    /// arrivals are microseconds apart so long final steps leap several of
    /// them, with small queues, 1³ jobs and multi-layer jobs mixed in.
    #[test]
    fn no_job_is_dispatched_before_its_arrival(
        raw in proptest::collection::vec(
            (0usize..4, 0u64..5, 1u64..3, 1usize..4, 0u64..8_000, 0u8..3),
            4..12,
        ),
        nodes in 1usize..5,
        queue_capacity in 2usize..8,
        policy in 0u64..3,
    ) {
        let mut arrival_ns = 0;
        let specs = raw
            .iter()
            .map(|&(tenant, dim, layers, gang, gap_ns, priority)| {
                arrival_ns += gap_ns;
                let d = if dim == 0 { 1 } else { 32 * dim };
                cube_job(tenant, d, layers, arrival_ns, priority, gang)
            })
            .collect();
        let config = ServeConfig {
            queue_capacity,
            ..ServeConfig::with_policy(policy_of(policy))
        };
        serve_asserting_no_early_dispatch(nodes, config, specs);
    }
}
