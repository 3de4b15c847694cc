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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use maco_core::gemm_plus::GemmPlusTask;
use maco_cpu::kernels::Kernel;
use maco_isa::Asid;
use maco_sim::{SimDuration, SimTime};
use maco_workloads::dnn::EpilogueClass;
use maco_workloads::trace::TraceRequest;

use crate::sched::{Policy, ReadyKey};

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
/// Jobs sit in one ordered set per gang-width class (per width and tenant
/// under [`Policy::FairShare`]), keyed as the [`crate::sched`] module docs
/// describe, so [`JobQueue::pick`] returns the policy's best fitting job
/// without scanning the backlog. Admission and removal are O(log n).
#[derive(Debug, Clone)]
pub struct JobQueue {
    capacity: usize,
    policy: Policy,
    /// Every queued job by id: the admission-order view and the index that
    /// finds a job's set entry on removal.
    jobs: BTreeMap<JobId, QueuedJob>,
    /// `ready[width - 1][policy.lane(tenant)]`: the policy-ordered keys of
    /// the queued jobs of that width (and tenant, under FairShare).
    ready: Vec<Vec<BTreeSet<ReadyKey>>>,
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
            jobs: BTreeMap::new(),
            ready: Vec::new(),
        }
    }

    /// Admits a job.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::QueueFull`] at capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero gang width or an id already in the queue.
    pub fn admit(&mut self, job: QueuedJob) -> Result<(), AdmissionError> {
        assert!(job.width >= 1, "gangs have at least one member");
        if self.jobs.len() == self.capacity {
            return Err(AdmissionError::QueueFull);
        }
        assert!(
            self.jobs.insert(job.id, job).is_none(),
            "{} is already queued",
            job.id
        );
        if self.ready.len() < job.width {
            self.ready.resize_with(job.width, Vec::new);
        }
        let lanes = &mut self.ready[job.width - 1];
        let lane = self.policy.lane(job.tenant);
        if lanes.len() <= lane {
            lanes.resize_with(lane + 1, BTreeSet::new);
        }
        lanes[lane].insert(self.policy.key(&job));
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
            .filter_map(|(lane, set)| {
                for key in set {
                    if key.1 <= now {
                        return Some((lane, key));
                    }
                    early = Some(early.map_or(key.1, |e| e.min(key.1)));
                }
                None
            })
            .min_by(|&a, &b| self.policy.cmp_heads(a, b, served, weights))
            .map(|(_, key)| key.2);
        (best, early)
    }

    /// Removes a job that was scheduled (or cancelled); returns it, or
    /// `None` when it was not queued.
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let job = self.jobs.remove(&id)?;
        self.ready[job.width - 1][self.policy.lane(job.tenant)].remove(&self.policy.key(&job));
        Some(job)
    }

    /// Removes every queued job at once.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.ready.clear();
    }

    /// Queued job ids in ascending order — admission order, as the engine
    /// numbers jobs when it admits them. `len()` is O(1).
    pub fn pending(&self) -> impl ExactSizeIterator<Item = JobId> + '_ {
        self.jobs.keys().copied()
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

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
