//! Differential tests of the policy-ordered ready queue ([`JobQueue`])
//! against the linear scan it replaced.
//!
//! The reference below is the scheduler's original `select`: build one
//! candidate per queued job and take the policy-minimal one that fits the
//! free nodes and has arrived by the pick's instant. Random
//! admit/pick/remove sequences drive the queue and the reference side by
//! side, under every policy, and every pick must agree. The draws are tie
//! storms on purpose — a handful of arrival instants, flop counts and
//! priorities, and `served` kept on a lattice of the weights so
//! fair-share ratios collide — so the `(arrival, id)` tie-breaks decide
//! most picks. Those sequences admit in random arrival order; a second
//! test replays the engine's own order (ascending `(arrival, id)`, picks
//! removed) on queues thousands deep.

use proptest::prelude::*;

use maco_serve::{JobId, JobQueue, Policy, QueuedJob};
use maco_sim::{SimDuration, SimTime, SplitMix64};

/// The reference: the policy-minimal candidate whose gang width fits
/// `free` (backfill) and that has arrived by `now`, by a full scan.
fn select(
    policy: Policy,
    candidates: &[QueuedJob],
    free: usize,
    now: SimTime,
    served: &[u64],
    weights: &[u32],
) -> Option<JobId> {
    candidates
        .iter()
        .filter(|c| c.width <= free && c.arrival <= now)
        .min_by(|a, b| match policy {
            Policy::Fifo => b
                .priority
                .cmp(&a.priority)
                .then(a.arrival.cmp(&b.arrival))
                .then(a.id.cmp(&b.id)),
            Policy::Sjf => a
                .flops
                .cmp(&b.flops)
                .then(a.arrival.cmp(&b.arrival))
                .then(a.id.cmp(&b.id)),
            Policy::FairShare => {
                let lhs = served[a.tenant] as u128 * weights[b.tenant] as u128;
                let rhs = served[b.tenant] as u128 * weights[a.tenant] as u128;
                lhs.cmp(&rhs)
                    .then(a.arrival.cmp(&b.arrival))
                    .then(a.id.cmp(&b.id))
            }
        })
        .map(|c| c.id)
}

/// One step of a random sequence: `(kind, a, b, c, d, width)`.
type Op = (u64, u64, u64, u64, u64, usize);

/// Replays `ops` on a queue and on the reference under `policy`,
/// asserting every pick and the admission-order view agree.
fn replay(policy: Policy, ops: &[Op], weights: &[u32]) {
    let tenants = weights.len();
    let mut queue = JobQueue::new(policy, 64);
    let mut reference: Vec<QueuedJob> = Vec::new();
    let mut served = vec![0u64; tenants];
    let mut next_id = 0;
    for &(kind, a, b, c, d, width) in ops {
        match kind {
            // Admit: few distinct arrivals, priorities and flop counts.
            0..=4 => {
                let job = QueuedJob {
                    id: JobId(next_id),
                    tenant: a as usize % tenants,
                    arrival: SimTime::ZERO + SimDuration::from_ns(10 * b),
                    priority: c as u8,
                    flops: 1000 * (1 + d),
                    width,
                };
                let admitted = queue.admit(job);
                assert_eq!(admitted.is_ok(), reference.len() < 64);
                if admitted.is_ok() {
                    reference.push(job);
                    next_id += 1;
                }
            }
            // Pick on `a` free nodes (0..=16) at an instant that some
            // arrivals may follow; two in three dispatch it.
            5..=7 => {
                let free = a as usize;
                let now = SimTime::ZERO + SimDuration::from_ns(10 * (b + c));
                let (got, early) = queue.pick(free, now, &served, weights);
                let want = select(policy, &reference, free, now, &served, weights);
                assert_eq!(got, want, "{policy:?} pick on {free} free nodes");
                if got.is_none() {
                    let want = first_unarrived(&reference, free, now);
                    assert_eq!(early, want, "{policy:?} retry instant");
                }
                if let Some(id) = got.filter(|_| kind != 7) {
                    assert_eq!(queue.remove(id).map(|j| j.id), Some(id));
                    reference.retain(|j| j.id != id);
                }
            }
            // Cancel an arbitrary queued job.
            8 => {
                if !reference.is_empty() {
                    let victim = reference.remove(a as usize % reference.len());
                    assert_eq!(queue.remove(victim.id), Some(victim));
                }
            }
            // Credit service: usually on the weight lattice (ratio ties),
            // sometimes off it.
            _ => {
                let t = a as usize % tenants;
                served[t] += match c {
                    0 => b + d,
                    _ => u64::from(weights[t]) * b * 100,
                };
            }
        }
        assert_eq!(queue.len(), reference.len());
        assert!(queue.pending().eq(reference.iter().map(|j| j.id)));
    }
}

proptest! {
    /// Every pick equals the reference scan, for all three policies.
    #[test]
    fn picks_match_the_linear_reference_under_tie_storms(
        ops in proptest::collection::vec(
            (0u64..10, 0u64..17, 0u64..4, 0u64..3, 0u64..3, 1usize..17), 1..200),
        weights in proptest::collection::vec(1u32..4, 1..5),
    ) {
        for policy in Policy::ALL {
            replay(policy, &ops, &weights);
        }
    }
}

/// A deep queue drained pick by pick comes out in exactly the reference
/// order, for every policy and free-node count.
#[test]
fn deep_drain_matches_the_reference_order() {
    let weights = [1, 2, 3];
    for policy in Policy::ALL {
        for free in 1..=4 {
            let mut queue = JobQueue::new(policy, 1_000);
            let mut reference = Vec::new();
            for i in 0..1_000u64 {
                let job = QueuedJob {
                    id: JobId(i),
                    tenant: (i % 3) as usize,
                    arrival: SimTime::ZERO + SimDuration::from_ns(i / 7),
                    priority: (i % 5 == 0) as u8,
                    flops: 64 * (1 + i % 4),
                    width: 1 + (i % 4) as usize,
                };
                queue.admit(job).unwrap();
                reference.push(job);
            }
            let mut served = [0u64; 3];
            while let (Some(id), _) = queue.pick(free, SimTime::MAX, &served, &weights) {
                let want = select(policy, &reference, free, SimTime::MAX, &served, &weights);
                assert_eq!(Some(id), want, "{policy:?} on {free} free nodes");
                let job = queue.remove(id).unwrap();
                reference.retain(|j| j.id != id);
                served[job.tenant] += job.flops;
            }
            assert!(
                reference.iter().all(|j| j.width > free),
                "{policy:?}: a fitting job was left behind"
            );
            assert_eq!(queue.len(), reference.len());
        }
    }
}

/// The earliest arrival after `now` among the jobs fitting `free` nodes:
/// the retry instant a pick that finds nothing must report.
fn first_unarrived(candidates: &[QueuedJob], free: usize, now: SimTime) -> Option<SimTime> {
    candidates
        .iter()
        .filter(|j| j.width <= free && j.arrival > now)
        .map(|j| j.arrival)
        .min()
}

/// The engine's order on a deep queue: jobs admitted in ascending
/// `(arrival, id)` with tied arrivals, mixed priorities, flops, widths and
/// tenants; picks at an instant up to 40 ns behind the newest arrival, so
/// many FIFO fronts have not arrived yet, and one in eight behind most of
/// the backlog; every pick removed from the queue. Each pick and, when
/// nothing fits, its retry instant match the reference, while the queue
/// stays at least 2,000 deep for most of the run.
#[test]
fn engine_order_picks_match_the_reference_on_deep_queues() {
    const JOBS: u64 = 2_600;
    let weights = [1, 3, 2, 1];
    for policy in Policy::ALL {
        for seed in 0..2 {
            let mut rng = SplitMix64::new(seed);
            let mut queue = JobQueue::new(policy, JOBS as usize);
            let mut reference: Vec<QueuedJob> = Vec::new();
            let mut served = [0u64; 4];
            let mut arrival = SimTime::ZERO;
            let (mut next_id, mut deepest, mut early_checks) = (0, 0, 0);
            while next_id < JOBS || !reference.is_empty() {
                // Fill to 2,000 deep first, then admit 0–2 jobs per pick.
                let admits = if next_id < 2_000 {
                    2_000
                } else {
                    rng.next_below(3)
                };
                for _ in 0..admits.min(JOBS - next_id) {
                    arrival += SimDuration::from_ns(rng.next_below(3));
                    let job = QueuedJob {
                        id: JobId(next_id),
                        tenant: rng.next_below(4) as usize,
                        arrival,
                        priority: rng.next_below(3) as u8,
                        flops: 64 * (1 + rng.next_below(4)),
                        width: 1 + rng.next_below(4) as usize,
                    };
                    queue.admit(job).unwrap();
                    reference.push(job);
                    next_id += 1;
                }
                deepest = deepest.max(reference.len());
                // One pick in eight lags the whole backlog.
                let lag = match rng.next_below(8) {
                    _ if next_id == JOBS => 0,
                    0 => rng.next_below(4_000),
                    _ => rng.next_below(40),
                };
                let behind = arrival.since(SimTime::ZERO);
                let now = SimTime::ZERO + behind.saturating_sub(SimDuration::from_ns(lag));
                let free = rng.next_below(5) as usize;
                let (got, early) = queue.pick(free, now, &served, &weights);
                let want = select(policy, &reference, free, now, &served, &weights);
                assert_eq!(
                    got, want,
                    "{policy:?} seed {seed}: pick on {free} free nodes"
                );
                match got {
                    Some(id) => {
                        let job = queue.remove(id).expect("picked jobs are queued");
                        reference.retain(|j| j.id != id);
                        served[job.tenant] += job.flops;
                    }
                    None => {
                        let want = first_unarrived(&reference, free, now);
                        assert_eq!(early, want, "{policy:?} seed {seed}: retry instant");
                        early_checks += usize::from(want.is_some());
                    }
                }
                assert_eq!(queue.len(), reference.len());
            }
            assert!(deepest >= 2_000, "{policy:?}: only {deepest} deep");
            assert!(
                early_checks > 0,
                "{policy:?}: no pick found only unarrived jobs"
            );
            assert!(queue.is_empty() && queue.pending().len() == 0);
        }
    }
}

/// Ids must ascend at admission: the queue indexes jobs by id, and the
/// engine numbers them in admission order.
#[test]
#[should_panic(expected = "ids must ascend")]
fn a_descending_id_admission_panics() {
    let job = |id| QueuedJob {
        id: JobId(id),
        tenant: 0,
        arrival: SimTime::ZERO,
        priority: 0,
        flops: 1,
        width: 1,
    };
    let mut queue = JobQueue::new(Policy::Fifo, 4);
    queue.admit(job(5)).unwrap();
    let _ = queue.admit(job(3));
}
