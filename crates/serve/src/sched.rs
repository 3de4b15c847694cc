//! Gang-scheduling policies and the order they impose on the ready queue.
//!
//! The scheduler space-shares the machine: each runnable job gets a
//! disjoint node group and holds it for its whole layer stream (gang
//! semantics — all members co-scheduled, all released together). What the
//! policy decides is *order*: which pending job is next offered the free
//! nodes. Selection backfills — a job that does not fit is skipped in
//! favour of the best one that does — and every comparison ends in a
//! `(arrival, id)` tie-break, so schedules are total-ordered and
//! fingerprint-stable.
//!
//! # The ready queue
//!
//! Pending jobs wait in the policy-ordered [`JobQueue`]: one ordered set
//! per gang-width class, so a pick never scans the backlog. Each policy
//! keys its sets as follows (every key ends in the unique job id):
//!
//! * [`Policy::Fifo`] — one set per width keyed `(−priority, arrival, id)`;
//! * [`Policy::Sjf`] — one set per width keyed `(flops, arrival, id)`;
//! * [`Policy::FairShare`] — one set per `(width, tenant)` keyed
//!   `(arrival, id)`.
//!
//! A pick compares the heads of the width classes that fit the free node
//! count. A set's head is its first job that has arrived by the pick's
//! instant: a completion that leaps ahead on the simulated clock admits
//! the arrivals it passed, and those wait until their own arrival. FairShare first orders those heads by their tenant's
//! `served / weight` (cross-multiplied, so the comparison stays in
//! integers), then by `(arrival, id)`; that is O(tenants × widths) per
//! pick. Admission and removal are O(log n) in queue depth. The pick is
//! exactly the minimum of the policy's comparator over every fitting
//! queued job — the linear scan the queue replaced, which the test tree
//! keeps as the differential reference.
//!
//! [`JobQueue`]: crate::JobQueue

use std::cmp::Ordering;

use maco_sim::SimTime;

use crate::job::{JobId, QueuedJob};

/// The scheduling policy ordering pending jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Arrival order within descending priority class.
    Fifo,
    /// Shortest job first, by total remaining GEMM flops.
    Sjf,
    /// Weighted fair share: the tenant with the least service per unit
    /// weight goes first (max-min style).
    FairShare,
}

/// A queued job's position within its ready-queue set: the policy's
/// primary rank, then `(arrival, id)`. The unique id makes it total.
pub(crate) type ReadyKey = (u64, SimTime, JobId);

impl Policy {
    /// All policies, in a stable order (benchmarks and tests sweep this).
    pub const ALL: [Policy; 3] = [Policy::Fifo, Policy::Sjf, Policy::FairShare];

    /// Display tag.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::FairShare => "fair-share",
        }
    }

    /// `job`'s key within its ready-queue set.
    pub(crate) fn key(self, job: &QueuedJob) -> ReadyKey {
        let rank = match self {
            Policy::Fifo => u64::from(u8::MAX - job.priority),
            Policy::Sjf => job.flops,
            Policy::FairShare => 0,
        };
        (rank, job.arrival, job.id)
    }

    /// The set within a width class that holds `tenant`'s jobs: FairShare
    /// keeps one per tenant, the other policies share one.
    pub(crate) fn lane(self, tenant: usize) -> usize {
        match self {
            Policy::FairShare => tenant,
            Policy::Fifo | Policy::Sjf => 0,
        }
    }

    /// Orders two set heads: FairShare puts the tenant (lane) with less
    /// `served / weight` first; then the keys decide.
    pub(crate) fn cmp_heads(
        self,
        (lane_a, a): (usize, &ReadyKey),
        (lane_b, b): (usize, &ReadyKey),
        served: &[u64],
        weights: &[u32],
    ) -> Ordering {
        let service = match self {
            // served[a]/weight[a] vs served[b]/weight[b], cross-
            // multiplied so the comparison stays in integers.
            Policy::FairShare => {
                let lhs = served[lane_a] as u128 * weights[lane_b] as u128;
                let rhs = served[lane_b] as u128 * weights[lane_a] as u128;
                lhs.cmp(&rhs)
            }
            Policy::Fifo | Policy::Sjf => Ordering::Equal,
        };
        service.then(a.cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobQueue;
    use maco_sim::SimDuration;

    fn job(id: u64, tenant: usize, arrival_ns: u64, priority: u8, flops: u64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            tenant,
            arrival: SimTime::ZERO + SimDuration::from_ns(arrival_ns),
            priority,
            flops,
            width: 2,
        }
    }

    /// The job `policy` starts next from `jobs` on `free` nodes.
    fn pick(
        policy: Policy,
        jobs: &[QueuedJob],
        free: usize,
        served: &[u64],
        weights: &[u32],
    ) -> Option<u64> {
        let mut queue = JobQueue::new(policy, jobs.len().max(1));
        for &j in jobs {
            queue.admit(j).unwrap();
        }
        queue
            .pick(free, SimTime::MAX, served, weights)
            .0
            .map(|id| id.0)
    }

    #[test]
    fn fifo_orders_by_priority_then_arrival() {
        let jobs = [
            job(0, 0, 10, 0, 100),
            job(1, 1, 20, 2, 100),
            job(2, 2, 5, 0, 100),
        ];
        assert_eq!(pick(Policy::Fifo, &jobs, 4, &[0; 3], &[1; 3]), Some(1));
        let low = [jobs[0], jobs[2]];
        assert_eq!(pick(Policy::Fifo, &low, 4, &[0; 3], &[1; 3]), Some(2));
    }

    #[test]
    fn sjf_orders_by_flops() {
        let jobs = [job(0, 0, 1, 3, 500), job(1, 1, 9, 0, 100)];
        assert_eq!(pick(Policy::Sjf, &jobs, 4, &[0; 2], &[1; 2]), Some(1));
    }

    #[test]
    fn fair_share_prefers_underserved_weighted() {
        let jobs = [job(0, 0, 1, 0, 100), job(1, 1, 2, 0, 100)];
        // Tenant 0 has been served twice as much per unit weight.
        assert_eq!(
            pick(Policy::FairShare, &jobs, 4, &[200, 100], &[1, 1]),
            Some(1)
        );
        // …but a weight of 4 restores tenant 0's entitlement.
        assert_eq!(
            pick(Policy::FairShare, &jobs, 4, &[200, 100], &[4, 1]),
            Some(0)
        );
    }

    #[test]
    fn backfill_skips_jobs_that_do_not_fit() {
        let mut wide = job(0, 0, 1, 3, 10);
        wide.width = 8;
        let narrow = job(1, 1, 2, 0, 999);
        assert_eq!(
            pick(Policy::Fifo, &[wide, narrow], 4, &[0; 2], &[1; 2]),
            Some(1),
            "the wide head-of-line job is backfilled around"
        );
        assert_eq!(pick(Policy::Fifo, &[wide], 4, &[0; 2], &[1; 2]), None);
    }
}
