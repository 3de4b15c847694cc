//! Tenants, job specifications and the admission queue.
//!
//! A *tenant* is one process sharing the machine: it owns an [`Asid`]
//! (the identity MPAIS task-queue entries carry, Section III.C) and a
//! fair-share weight. A *job* is one unit of served work — a single
//! GEMM⁺ layer or a whole DNN stream — submitted with a priority, an
//! optional deadline and a requested gang width. The [`JobQueue`] is the
//! admission layer: a bounded, policy-ordered ready queue of pending jobs;
//! when it is full the submission is rejected up front rather than growing
//! latency unboundedly.

use std::collections::VecDeque;
use std::fmt;

use maco_core::gemm_plus::GemmPlusTask;
use maco_cpu::kernels::Kernel;
use maco_isa::Asid;
use maco_sim::{SimDuration, SimTime};
use maco_workloads::dnn::EpilogueClass;
use maco_workloads::trace::TraceRequest;

use crate::sched::Policy;

/// One process sharing the serving machine.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name.
    pub name: String,
    /// The tenant's address-space identifier (tags its MTQ entries).
    pub asid: Asid,
    /// Fair-share weight (relative service entitlement, ≥ 1).
    pub weight: u32,
}

impl Tenant {
    /// Creates a tenant with weight 1.
    pub fn new(name: impl Into<String>, asid: Asid) -> Self {
        Tenant {
            name: name.into(),
            asid,
            weight: 1,
        }
    }

    /// Sets the fair-share weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "weights start at 1");
        self.weight = weight;
        self
    }

    /// A fleet of `n` equal-weight tenants (`tenant0..`) with ASIDs in a
    /// range disjoint from the per-node resident contexts.
    pub fn fleet(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| Tenant::new(format!("tenant{i}"), Asid::new(100 + i as u16)))
            .collect()
    }
}

/// Identifier of a submitted job, unique within a serving episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// One submitted unit of work: a GEMM⁺ layer stream plus its scheduling
/// attributes.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index of the submitting tenant.
    pub tenant: usize,
    /// The layer stream (one entry = one GEMM⁺ layer).
    pub layers: Vec<GemmPlusTask>,
    /// Arrival time on the simulated clock.
    pub arrival: SimTime,
    /// Scheduling priority (higher is more urgent; FIFO orders within
    /// descending priority class).
    pub priority: u8,
    /// Completion deadline relative to arrival.
    pub deadline: Option<SimDuration>,
    /// Requested gang width (co-scheduled nodes; clamped to the machine).
    pub gang_width: usize,
}

impl JobSpec {
    /// A single-layer job with default attributes.
    pub fn single(tenant: usize, layer: GemmPlusTask, arrival: SimTime) -> Self {
        JobSpec {
            tenant,
            layers: vec![layer],
            arrival,
            priority: 0,
            deadline: None,
            gang_width: 1,
        }
    }

    /// Converts a generated [`TraceRequest`] into a job: each GEMM layer
    /// becomes a GEMM⁺ layer at the request's serving precision (FP32 for
    /// every trace family that predates quantized serving) with the
    /// epilogue kernel its class implies.
    pub fn from_request(request: &TraceRequest) -> Self {
        let layers = request
            .layers
            .iter()
            .map(|layer| {
                let mut task = GemmPlusTask::gemm(
                    layer.shape.m,
                    layer.shape.n,
                    layer.shape.k,
                    request.precision,
                );
                if let Some(kernel) = epilogue_kernel(layer.epilogue) {
                    task = task.with_epilogue(kernel);
                }
                task
            })
            .collect();
        JobSpec {
            tenant: request.tenant,
            layers,
            arrival: request.arrival,
            priority: request.priority,
            deadline: request.deadline,
            gang_width: request.gang_width,
        }
    }

    /// Total GEMM flops over all layers.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(GemmPlusTask::flops).sum()
    }
}

/// The epilogue kernel a layer class maps to (Fig. 5(c) non-GEMM work).
pub fn epilogue_kernel(class: EpilogueClass) -> Option<Kernel> {
    match class {
        EpilogueClass::None => None,
        EpilogueClass::Relu => Some(Kernel::relu()),
        EpilogueClass::Gelu => Some(Kernel::gelu()),
        EpilogueClass::Norm => Some(Kernel::layernorm()),
        EpilogueClass::Softmax => Some(Kernel::softmax()),
    }
}

/// Why the admission layer refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The pending queue is at capacity; the tenant retries later.
    QueueFull,
    /// The job has no layers.
    EmptyJob,
    /// The tenant index is not registered with the server.
    UnknownTenant,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull => write!(f, "pending queue is full"),
            AdmissionError::EmptyJob => write!(f, "job has no layers"),
            AdmissionError::UnknownTenant => write!(f, "tenant is not registered"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The admission rules that do not depend on queue state — the single
/// source of truth shared by [`crate::Server::validate`] and the episode
/// submission path.
pub fn validate_spec(tenant_count: usize, spec: &JobSpec) -> Result<(), AdmissionError> {
    if spec.tenant >= tenant_count {
        return Err(AdmissionError::UnknownTenant);
    }
    if spec.layers.is_empty() || spec.layers.iter().any(|l| l.m * l.n * l.k == 0) {
        return Err(AdmissionError::EmptyJob);
    }
    Ok(())
}

/// The scheduling-relevant view of one queued job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// The job's id, unique within the queue.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: usize,
    /// Arrival time on the simulated clock.
    pub arrival: SimTime,
    /// Scheduling priority (higher is more urgent).
    pub priority: u8,
    /// Total GEMM flops (the SJF rank).
    pub flops: u64,
    /// Effective gang width: the free nodes the job needs to start.
    pub width: usize,
}

/// The bounded, policy-ordered ready queue of pending (admitted, not yet
/// scheduled) jobs.
///
/// Each gang-width class (each `(width, tenant)` under
/// [`Policy::FairShare`]) keeps one FIFO of `(arrival, id)` entries per
/// policy rank, as the [`crate::sched`] module docs describe, so
/// [`JobQueue::pick`] reads one front per rank instead of scanning the
/// backlog. Queued jobs sit in a slab indexed by id.
///
/// Ids must ascend at admission: each admitted id is greater than every
/// id admitted before it, over the queue's whole life (the engine numbers
/// jobs in admission order). In engine order, where arrivals are admitted
/// in ascending `(arrival, id)` and picks remove FIFO fronts, admission,
/// pick and removal cost O(1) in queue depth: O(log r) to find a rank's
/// FIFO among the r ranks queued in a class, plus one front per rank per
/// pick. An admission that arrives before a queued job of its rank and
/// class, or a removal behind a FIFO's front, pays a binary-search insert
/// or removal in that FIFO. The slab spans the oldest queued id to the
/// newest, so a job left waiting keeps the slots of later ids that left.
#[derive(Debug, Clone)]
pub struct JobQueue {
    capacity: usize,
    policy: Policy,
    /// `slots[i]` holds the queued job with id `base + i`, or `None` once
    /// it left; trimmed from the front, so `slots[0]` is occupied unless
    /// the queue is empty.
    slots: VecDeque<Option<QueuedJob>>,
    base: u64,
    len: usize,
    /// The smallest id the next admission may carry.
    next_id: u64,
    /// `ready[width - 1][policy.lane(tenant)]`: that class's non-empty
    /// rank FIFOs, in ascending rank.
    ready: Vec<Vec<Vec<RankFifo>>>,
    /// The deques of rank FIFOs that emptied, reopened by the next rank
    /// FIFOs to open, so ranks that drain and refill reuse their storage.
    /// Open FIFOs plus spares never outnumber the most FIFOs ever open at
    /// once.
    spare: Vec<VecDeque<(SimTime, JobId)>>,
}

/// The queued jobs of one policy rank within a class, in ascending
/// `(arrival, id)` order.
#[derive(Debug, Clone)]
struct RankFifo {
    rank: u64,
    entries: VecDeque<(SimTime, JobId)>,
}

impl RankFifo {
    fn insert(&mut self, entry: (SimTime, JobId)) {
        if self.entries.back().is_none_or(|&last| last < entry) {
            self.entries.push_back(entry);
        } else {
            let at = self.entries.partition_point(|&e| e < entry);
            self.entries.insert(at, entry);
        }
    }

    fn remove(&mut self, entry: (SimTime, JobId)) {
        if self.entries.front() == Some(&entry) {
            self.entries.pop_front();
        } else {
            let at = self.entries.partition_point(|&e| e < entry);
            debug_assert_eq!(self.entries.get(at), Some(&entry));
            self.entries.remove(at);
        }
    }
}

impl JobQueue {
    /// A queue ordered by `policy`, admitting at most `capacity` pending
    /// jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: Policy, capacity: usize) -> Self {
        assert!(capacity >= 1, "queue needs capacity");
        JobQueue {
            capacity,
            policy,
            slots: VecDeque::new(),
            base: 0,
            len: 0,
            next_id: 0,
            ready: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Sizes the slab for `n` more admissions: `min(n, capacity)` slots,
    /// since at most `capacity` jobs are queued at once. (A job that waits
    /// while later ids come and go keeps their slots, so the slab can
    /// still grow past that.)
    pub(crate) fn reserve(&mut self, n: usize) {
        self.slots.reserve(n.min(self.capacity));
    }

    /// Admits a job.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::QueueFull`] at capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero gang width or an id not greater than every id
    /// admitted before.
    pub fn admit(&mut self, job: QueuedJob) -> Result<(), AdmissionError> {
        assert!(job.width >= 1, "gangs have at least one member");
        if self.len == self.capacity {
            return Err(AdmissionError::QueueFull);
        }
        assert!(
            job.id.0 >= self.next_id,
            "{} admitted after job{}: ids must ascend",
            job.id,
            self.next_id - 1
        );
        self.next_id = job.id.0 + 1;
        if self.slots.is_empty() {
            self.base = job.id.0;
        }
        // Ids skipped since the last admission leave empty slots.
        self.slots.resize((job.id.0 - self.base) as usize, None);
        self.slots.push_back(Some(job));
        self.len += 1;
        if self.ready.len() < job.width {
            self.ready.resize_with(job.width, Vec::new);
        }
        let lanes = &mut self.ready[job.width - 1];
        let lane = self.policy.lane(job.tenant);
        if lanes.len() <= lane {
            lanes.resize_with(lane + 1, Vec::new);
        }
        let fifos = &mut lanes[lane];
        let rank = self.policy.rank(&job);
        let at = match fifos.binary_search_by_key(&rank, |f| f.rank) {
            Ok(at) => at,
            Err(at) => {
                let entries = self.spare.pop().unwrap_or_default();
                fifos.insert(at, RankFifo { rank, entries });
                at
            }
        };
        fifos[at].insert((job.arrival, job.id));
        Ok(())
    }

    /// The job the policy starts next at `now` on `free` nodes: the best
    /// queued job whose width fits (backfill) and that has arrived by
    /// `now`, or `None` when nothing does.
    ///
    /// A job arriving after `now` is queued only when a completion leapt
    /// past its arrival and admitted it early; it is not eligible yet. The
    /// second value is the earliest arrival skipped that way, the instant
    /// to retry at. It is exact whenever the pick is `None`.
    ///
    /// `served[t]` is tenant `t`'s completed GEMM flops so far; `weights[t]`
    /// its fair-share weight. Both are only read by [`Policy::FairShare`].
    pub fn pick(
        &self,
        free: usize,
        now: SimTime,
        served: &[u64],
        weights: &[u32],
    ) -> (Option<JobId>, Option<SimTime>) {
        let mut early: Option<SimTime> = None;
        let best = self
            .ready
            .iter()
            .take(free)
            .flat_map(|lanes| lanes.iter().enumerate())
            .filter_map(|(lane, fifos)| {
                // A FIFO whose front has not arrived holds nothing that
                // has; the first FIFO whose front has is the class head.
                for fifo in fifos {
                    let (arrival, id) = fifo.entries[0];
                    if arrival <= now {
                        return Some((lane, (fifo.rank, arrival, id)));
                    }
                    early = Some(early.map_or(arrival, |e| e.min(arrival)));
                }
                None
            })
            .min_by(|a, b| {
                self.policy
                    .cmp_heads((a.0, &a.1), (b.0, &b.1), served, weights)
            })
            .map(|(_, key)| key.2);
        (best, early)
    }

    /// Removes a job that was scheduled (or cancelled); returns it, or
    /// `None` when it was not queued.
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let index = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        let job = self.slots.get_mut(index)?.take()?;
        self.len -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        let fifos = &mut self.ready[job.width - 1][self.policy.lane(job.tenant)];
        let rank = self.policy.rank(&job);
        let at = fifos
            .binary_search_by_key(&rank, |f| f.rank)
            .expect("a queued job's rank has a FIFO");
        fifos[at].remove((job.arrival, job.id));
        if fifos[at].entries.is_empty() {
            self.spare.push(fifos.remove(at).entries);
        }
        Some(job)
    }

    /// Removes every queued job at once. Later admissions still need ids
    /// above every id admitted before.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.ready.clear();
    }

    /// Queued job ids in ascending order — admission order, as the engine
    /// numbers jobs when it admits them. `len()` is O(1).
    pub fn pending(&self) -> impl ExactSizeIterator<Item = JobId> + '_ {
        Pending {
            slots: self.slots.iter(),
            left: self.len,
        }
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// [`JobQueue::pending`]: the occupied slots, counted down.
struct Pending<'a> {
    slots: std::collections::vec_deque::Iter<'a, Option<QueuedJob>>,
    left: usize,
}

impl Iterator for Pending<'_> {
    type Item = JobId;

    fn next(&mut self) -> Option<JobId> {
        let id = self
            .slots
            .find_map(|slot| slot.as_ref().map(|job| job.id))?;
        self.left -= 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Pending<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_isa::Precision;

    fn queued(id: u64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            tenant: 0,
            arrival: SimTime::ZERO,
            priority: 0,
            flops: 1,
            width: 1,
        }
    }

    #[test]
    fn queue_bounds_admission() {
        let mut q = JobQueue::new(Policy::Fifo, 2);
        q.admit(queued(0)).unwrap();
        q.admit(queued(1)).unwrap();
        assert_eq!(q.admit(queued(2)), Err(AdmissionError::QueueFull));
        assert_eq!(q.remove(JobId(0)), Some(queued(0)));
        assert_eq!(q.remove(JobId(0)), None);
        assert_eq!(q.len(), 1);
        q.admit(queued(2)).unwrap();
        assert_eq!(q.pending().collect::<Vec<_>>(), [JobId(1), JobId(2)]);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pick(1, SimTime::MAX, &[0], &[1]), (None, None));
    }

    #[test]
    fn spec_flops_sum_layers() {
        let spec = JobSpec {
            tenant: 0,
            layers: vec![
                GemmPlusTask::gemm(8, 8, 8, Precision::Fp32),
                GemmPlusTask::gemm(4, 4, 4, Precision::Fp32),
            ],
            arrival: SimTime::ZERO,
            priority: 0,
            deadline: None,
            gang_width: 2,
        };
        assert_eq!(spec.flops(), 2 * 512 + 2 * 64);
    }

    #[test]
    fn fleet_has_distinct_asids() {
        let fleet = Tenant::fleet(8);
        for (i, t) in fleet.iter().enumerate() {
            assert_eq!(t.asid, Asid::new(100 + i as u16));
            assert_eq!(t.weight, 1);
        }
    }
}
