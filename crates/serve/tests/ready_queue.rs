//! Differential test of the policy-ordered ready queue ([`JobQueue`])
//! against the linear scan it replaced.
//!
//! The reference below is the scheduler's original `select`: build one
//! candidate per queued job and take the policy-minimal one that fits the
//! free nodes. Random admit/pick/remove sequences drive the queue and the
//! reference side by side, under every policy, and every pick must agree.
//! The draws are tie storms on purpose — a handful of arrival instants,
//! flop counts and priorities, and `served` kept on a lattice of the
//! weights so fair-share ratios collide — so the `(arrival, id)` tie-breaks
//! decide most picks.

use proptest::prelude::*;

use maco_serve::{JobId, JobQueue, Policy, QueuedJob};
use maco_sim::{SimDuration, SimTime};

/// The reference: the policy-minimal candidate whose gang width fits
/// `free` (backfill), by a full scan.
fn select(
    policy: Policy,
    candidates: &[QueuedJob],
    free: usize,
    served: &[u64],
    weights: &[u32],
) -> Option<JobId> {
    candidates
        .iter()
        .filter(|c| c.width <= free)
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
            // Pick on `a` free nodes (0..=16); two in three dispatch it.
            5..=7 => {
                let free = a as usize;
                let got = queue.pick(free, &served, weights);
                let want = select(policy, &reference, free, &served, weights);
                assert_eq!(got, want, "{policy:?} pick on {free} free nodes");
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
            while let Some(id) = queue.pick(free, &served, &weights) {
                let want = select(policy, &reference, free, &served, &weights);
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
