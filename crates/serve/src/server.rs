//! The serving core: a virtual-time co-simulation loop that interleaves
//! many in-flight jobs on one shared [`MacoSystem`] timeline.
//!
//! The loop is a discrete-event merge of two streams — job arrivals from
//! the trace, and tile-step events of in-flight gang members — always
//! processing the minimum `(time, tiebreak)` event. Gang members advance
//! through [`MacoSystem::step_gemm`], so contention between tenants on the
//! mesh, the CCM slices and DRAM emerges from the same resource queueing
//! that produces Fig. 7; nothing about multi-tenancy is modelled
//! analytically. Every decision (admission, policy pick, placement) is a
//! pure function of prior simulated state, which is what makes the
//! resulting schedule fingerprint byte-identical across same-seed runs.
//!
//! The loop body lives in [`Engine`], a steppable form of the episode
//! state: arrivals are [pushed](Engine::push) incrementally and events are
//! [advanced](Engine::advance) one at a time. [`Server::run_jobs`] drives
//! an engine to completion over one machine; `maco-cluster` holds one
//! engine per machine and merges their [`Engine::next_event`] streams onto
//! a single fleet-wide timeline.
//!
//! # The event core
//!
//! The engine is an O(log n)-per-event priority structure. Its logical
//! event key is `(SimTime, kind, seq)` where `kind` orders
//! arrival < wake < task-step on equal times, realised as three sources
//! merged by an explicit tie-break:
//!
//! * **arrivals** — a binary min-heap keyed `(arrival, push ticket)`, so
//!   equal arrival times pop in push order (exactly the order the old
//!   sorted-insert `VecDeque` produced — which is why schedule
//!   fingerprints survived the rebuild bit for bit);
//! * **wake** — a single armed instant (at most one retry is ever
//!   pending), kept as an `Option<SimTime>`;
//! * **task steps** — a binary min-heap of in-flight gang members keyed
//!   `(task.now(), dispatch seq)`. A task's key only changes while it is
//!   *outside* the heap (pop → step batch → reinsert), so no decrease-key
//!   operation is needed and a plain binary heap suffices.
//!
//! Admitted jobs wait in the **ready queue**, the policy-ordered
//! [`JobQueue`]: ordered sets per gang-width class, keyed
//! `(−priority, arrival, id)` under FIFO and `(flops, arrival, id)` under
//! SJF, and per `(width, tenant)` keyed `(arrival, id)` under FairShare
//! (see the [`crate::sched`] module docs). A scheduling attempt compares
//! the heads of the width classes that fit the free nodes instead of
//! scanning the backlog; admission and dispatch touch one set entry each,
//! and eviction clears the queue in one pass.
//!
//! Per-event cost is therefore O(log n) in the number of pending arrivals,
//! queued jobs and in-flight members (plus O(tenants × widths) per
//! FairShare pick) — flat enough to stream 10⁵-request traces and deep
//! backlogs with near-linear wall clock in trace length.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use maco_core::gemm_plus::partition_shapes_into;
use maco_core::group::NodePool;
use maco_core::system::{InFlightGemm, MacoSystem, TaskAdmitError};
use maco_core::TranslateFault;
use maco_sim::time::FS_PER_NS;
use maco_sim::{SimDuration, SimTime};
use maco_telemetry::{Log2Histogram, TraceSink, SCHED_ROW};

use crate::job::{validate_spec, AdmissionError, JobId, JobQueue, JobSpec, QueuedJob, Tenant};
use crate::report::{fold_fingerprint, NodeLease, ServeReport, TenantReport};
use crate::sched::Policy;

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scheduling policy.
    pub policy: Policy,
    /// Admission-queue capacity (pending jobs beyond this are rejected).
    pub queue_capacity: usize,
    /// Upper bound on any job's gang width.
    pub max_gang: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: Policy::Fifo,
            queue_capacity: 64,
            max_gang: 16,
        }
    }
}

impl ServeConfig {
    /// A configuration running `policy` with the other knobs at default.
    pub fn with_policy(policy: Policy) -> Self {
        ServeConfig {
            policy,
            ..ServeConfig::default()
        }
    }
}

/// Errors the serving loop can surface.
#[derive(Debug)]
pub enum ServeError {
    /// A pass translation faulted (mapping failure).
    Translate(TranslateFault),
    /// A node refused a task dispatch — a scheduler invariant violation,
    /// since gangs hold nodes exclusively.
    Admit(TaskAdmitError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Translate(e) => write!(f, "translation fault: {e:?}"),
            ServeError::Admit(e) => write!(f, "dispatch refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TranslateFault> for ServeError {
    fn from(e: TranslateFault) -> Self {
        ServeError::Translate(e)
    }
}

impl From<TaskAdmitError> for ServeError {
    fn from(e: TaskAdmitError) -> Self {
        ServeError::Admit(e)
    }
}

/// The multi-tenant GEMM server: a [`MacoSystem`] plus a tenant fleet and
/// a scheduling configuration.
pub struct Server {
    system: MacoSystem,
    tenants: Vec<Tenant>,
    config: ServeConfig,
    sink: TraceSink,
}

impl Server {
    /// Builds a server.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant fleet or a zero `max_gang`.
    pub fn new(system: MacoSystem, tenants: Vec<Tenant>, config: ServeConfig) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(config.max_gang >= 1, "gangs have at least one member");
        Server {
            system,
            tenants,
            config,
            sink: TraceSink::off(),
        }
    }

    /// Attaches a trace sink; episodes run after this record job-lifecycle
    /// events on track 0. The default sink is off (zero-cost no-ops), and
    /// an attached sink never perturbs simulated outcomes — schedules are
    /// bit-identical with the sink on or off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The underlying machine.
    pub fn system(&self) -> &MacoSystem {
        &self.system
    }

    /// The registered tenant fleet.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Checks a job against the admission rules that do not depend on
    /// queue state.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmissionError`] the submission would be rejected
    /// with.
    pub fn validate(&self, spec: &JobSpec) -> Result<(), AdmissionError> {
        validate_spec(self.tenants.len(), spec)
    }

    /// Serves a generated trace (see [`maco_workloads::trace`]): converts
    /// each request into a job and runs the episode to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`]s from the co-simulation.
    pub fn run_trace(
        &mut self,
        trace: &[maco_workloads::trace::TraceRequest],
    ) -> Result<ServeReport, ServeError> {
        self.run_jobs(trace.iter().map(JobSpec::from_request).collect())
    }

    /// Runs one serving episode over `specs` (arrival-sorted internally)
    /// until every admitted job has completed.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`]s from the co-simulation.
    pub fn run_jobs(&mut self, mut specs: Vec<JobSpec>) -> Result<ServeReport, ServeError> {
        specs.sort_by_key(|s| s.arrival);
        self.system.reset_shared_resources();
        let mut engine = Engine::new(self.system.node_count(), &self.tenants, &self.config);
        engine.set_trace(self.sink.clone(), 0);
        for spec in specs {
            engine.push(spec);
        }
        while engine.next_event().is_some() {
            engine.advance(&mut self.system, None)?;
        }
        Ok(engine.finish(&self.system))
    }
}

/// One pushed-but-not-admitted arrival in the pending heap, ordered by
/// `(arrival, ticket)` so equal arrival times pop in push order — the
/// same stable order the pre-heap sorted-insert stream produced.
struct PendingArrival {
    at: SimTime,
    /// The push ticket (push sequence number).
    ticket: u64,
    spec: JobSpec,
}

impl PartialEq for PendingArrival {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ticket == other.ticket
    }
}

impl Eq for PendingArrival {}

impl PartialOrd for PendingArrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingArrival {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.ticket).cmp(&(other.at, other.ticket))
    }
}

/// One gang member's task in flight, ordered by `(task.now(), seq)` — the
/// deterministic step order. A member's key is only mutated while it is
/// outside the heap (popped, step-batched, reinserted), so heap order
/// stays consistent without a decrease-key operation.
struct ActiveTask {
    task: InFlightGemm,
    /// Global dispatch sequence number — the deterministic tiebreak for
    /// equal event times.
    seq: u64,
    job: usize,
    layer: usize,
    /// When this layer was dispatched (folded into the fingerprint).
    layer_start: SimTime,
    /// CPU epilogue time extending past the member's GEMM (the Fig. 5(c)
    /// non-overlappable tail, or the whole epilogue without overlap).
    epilogue_tail: SimDuration,
}

impl ActiveTask {
    fn key(&self) -> (SimTime, u64) {
        (self.task.now(), self.seq)
    }
}

impl PartialEq for ActiveTask {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ActiveTask {}

impl PartialOrd for ActiveTask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ActiveTask {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-job episode state.
struct Job {
    spec: JobSpec,
    /// The ticket [`Engine::push`] returned for this job.
    ticket: u64,
    /// Cached total flops (reported in the job's outcome).
    flops_total: u64,
    group: Vec<usize>,
    layer: usize,
    members_left: usize,
    /// Max member end (epilogue tails included) of the current layer.
    layer_end: SimTime,
    /// Index of this job's first lease in the episode lease log.
    lease_start: usize,
    finished: bool,
}

/// One retired job, as reported by [`Engine::advance`]: the external
/// composition layer (the cluster's fleet router) uses these to keep its
/// per-machine load accounting and data-parallel reduction barriers in
/// sync with the simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// The completed job, numbered in admission order within the episode.
    pub job: JobId,
    /// The ticket [`Engine::push`] returned for this job.
    pub ticket: u64,
    /// Submitting tenant.
    pub tenant: usize,
    /// The job's arrival time (as submitted to this engine).
    pub arrival: SimTime,
    /// Completion time on the simulated clock (last layer's last member,
    /// epilogue tails included).
    pub finished_at: SimTime,
    /// Total GEMM flops the job served.
    pub flops: u64,
}

/// One job extracted from a machine by [`Engine::evict_all`] (fail-stop
/// failure injection): the un-served *remainder* of the work plus enough
/// bookkeeping for a composition layer to re-place it elsewhere.
#[derive(Debug, Clone)]
pub struct EvictedJob {
    /// The machine-local job id. Admitted jobs keep their real id; pending
    /// (pushed-but-not-admitted) arrivals get the id they *would have been
    /// admitted as* — they are returned in `(arrival, push order)` pop
    /// order, which is exactly admission order, so ids stay dense. A
    /// composition layer maps the job back to its own bookkeeping through
    /// [`EvictedJob::ticket`], not through this id.
    pub id: JobId,
    /// The ticket [`Engine::push`] returned for this job.
    pub ticket: u64,
    /// The un-served remainder: the spec minus fully completed layers. An
    /// interrupted in-flight layer restarts from its beginning — the layer
    /// barrier is the stream-level checkpoint (k-split spans are the
    /// sub-layer checkpoint, handled by the router's reduction barriers).
    /// The arrival time is the spec's as pushed to this engine.
    pub spec: JobSpec,
    /// Layers whose service was already credited to this engine's flops
    /// before the eviction (they are *not* in `spec.layers`).
    pub completed_layers: usize,
    /// Whether the job held nodes (a dispatched gang) at eviction.
    pub was_running: bool,
    /// Whether the job had been admitted (false = still in the pending
    /// arrival stream).
    pub admitted: bool,
}

/// All scheduler and co-simulation state of one serving episode, in
/// steppable form.
///
/// An engine is fed arrival-ordered job specs through [`Engine::push`] and
/// advanced one discrete event at a time with [`Engine::advance`]; it never
/// owns the machine it drives, so a composition layer can hold many
/// engines, one per [`MacoSystem`], and merge their event streams onto a
/// single global timeline (always advancing the engine with the minimum
/// [`Engine::next_event`]). [`Server::run_jobs`] is exactly that loop over
/// one machine, and produces bit-identical schedules to the pre-engine
/// monolithic loop.
///
/// Internally the engine is the O(log n) event core described in the
/// [module docs](crate::server): a pending-arrival heap, a single armed
/// wake instant and an in-flight member heap, merged in
/// arrival < wake < task-step order on equal times, plus the
/// policy-ordered ready queue of admitted jobs.
///
/// ```
/// use maco_core::system::{MacoSystem, SystemConfig};
/// use maco_serve::{Engine, JobSpec, ServeConfig, Tenant};
/// use maco_core::gemm_plus::GemmPlusTask;
/// use maco_isa::Precision;
/// use maco_sim::SimTime;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut system = MacoSystem::new(SystemConfig { nodes: 2, ..SystemConfig::default() });
/// system.reset_shared_resources();
/// let tenants = Tenant::fleet(1);
/// let mut engine = Engine::new(system.node_count(), &tenants, &ServeConfig::default());
/// engine.push(JobSpec::single(
///     0,
///     GemmPlusTask::gemm(128, 128, 128, Precision::Fp32),
///     SimTime::ZERO,
/// ));
/// while engine.next_event().is_some() {
///     engine.advance(&mut system, None)?;
/// }
/// let report = engine.finish(&system);
/// assert_eq!(report.jobs_completed, 1);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    tenants: Vec<Tenant>,
    config: ServeConfig,
    /// Pending job stream (not yet submitted): min-heap on
    /// `(arrival, push ticket)`.
    arrivals: BinaryHeap<Reverse<PendingArrival>>,
    /// The next push ticket — also the stable tiebreak for equal arrivals.
    next_ticket: u64,
    /// Latest arrival time already admitted from the pending stream; the
    /// floor the [`Engine::push`] contract is checked against.
    arrival_floor: SimTime,
    weights: Vec<u32>,
    pool: NodePool,
    queue: JobQueue,
    jobs: Vec<Job>,
    /// In-flight gang members: min-heap on `(task.now(), dispatch seq)`.
    active: BinaryHeap<Reverse<ActiveTask>>,
    served: Vec<u64>,
    stats: Vec<TenantReport>,
    leases: Vec<NodeLease>,
    /// Armed when a queued job is blocked on nodes whose free time lies in
    /// the simulated future (completions are processed in event order, so
    /// such nodes exist): the scheduler retries at this instant.
    wake: Option<SimTime>,
    /// Reusable gang-partition shape buffer (no per-layer allocation).
    shape_buf: Vec<(u64, u64, u64)>,
    fingerprint: u64,
    seq: u64,
    last_finish: SimTime,
    jobs_completed: u64,
    jobs_rejected: u64,
    total_flops: u64,
    /// Telemetry sink (off by default: every record call is a no-op and
    /// the engine is bit-identical to an uninstrumented one).
    sink: TraceSink,
    /// This engine's trace track (the machine index in a fleet).
    track: u32,
    /// Queue-depth samples, one per successful admission.
    queue_hist: Log2Histogram,
}

impl Engine {
    /// Creates an idle engine for a `nodes`-node machine serving `tenants`
    /// under `config`. The engine only records the machine's shape; the
    /// [`MacoSystem`] itself is passed to every [`Engine::advance`] call
    /// (and should have had its shared resources reset at episode start).
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant fleet, a zero `max_gang` or a zero node
    /// count.
    pub fn new(nodes: usize, tenants: &[Tenant], config: &ServeConfig) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        assert!(config.max_gang >= 1, "gangs have at least one member");
        let stats = tenants
            .iter()
            .map(|t| TenantReport {
                name: t.name.clone(),
                weight: t.weight,
                submitted: 0,
                completed: 0,
                rejected: 0,
                flops: 0,
                latency_sum: SimDuration::ZERO,
                latency_max: SimDuration::ZERO,
                deadline_misses: 0,
                peak_mtq: 0,
                peak_stq: 0,
                latency_hist: Log2Histogram::new(),
            })
            .collect();
        Engine {
            weights: tenants.iter().map(|t| t.weight).collect(),
            tenants: tenants.to_vec(),
            config: config.clone(),
            arrivals: BinaryHeap::new(),
            next_ticket: 0,
            arrival_floor: SimTime::ZERO,
            pool: NodePool::new(nodes),
            queue: JobQueue::new(config.policy, config.queue_capacity),
            jobs: Vec::new(),
            active: BinaryHeap::new(),
            served: vec![0; tenants.len()],
            stats,
            leases: Vec::new(),
            wake: None,
            shape_buf: Vec::new(),
            fingerprint: 0,
            seq: 0,
            last_finish: SimTime::ZERO,
            jobs_completed: 0,
            jobs_rejected: 0,
            total_flops: 0,
            sink: TraceSink::off(),
            track: 0,
            queue_hist: Log2Histogram::new(),
        }
    }

    /// Attaches a trace sink, recording this engine's events on `track`
    /// (the machine index in a fleet; Chrome export maps tracks to
    /// processes). The sink only observes — schedules and fingerprints are
    /// bit-identical whether it is on, off, or replaced mid-episode.
    pub fn set_trace(&mut self, sink: TraceSink, track: u32) {
        self.sink = sink;
        self.track = track;
    }

    /// Feeds one future arrival into the engine and returns its *ticket*:
    /// the push index, dense from 0 within this engine. The job's
    /// [`JobOutcome`] or [`EvictedJob`] echoes the ticket, so a composition
    /// layer can map machine-local results back to its own records
    /// without re-deriving admission order. (A job rejected at admission
    /// reports no outcome, so its ticket never comes back.)
    ///
    /// The pending stream pops in `(arrival, push order)` order — equal
    /// arrival times keep push order — so a composition layer may
    /// interleave pushes with [`Engine::advance`] calls (e.g. to inject a
    /// migration-delayed job) as long as no pushed arrival predates an
    /// arrival already processed. That contract is *enforced* in debug
    /// builds: a violating push would admit a job into the simulated
    /// past, so it debug-panics here instead of corrupting the schedule.
    pub fn push(&mut self, spec: JobSpec) -> u64 {
        debug_assert!(
            spec.arrival >= self.arrival_floor,
            "Engine::push contract violated: pushed arrival at {:?} fs predates an \
             already-processed arrival at {:?} fs — it would be admitted into the past",
            spec.arrival.as_fs(),
            self.arrival_floor.as_fs(),
        );
        let ticket = self.next_ticket;
        self.arrivals.push(Reverse(PendingArrival {
            at: spec.arrival,
            ticket,
            spec,
        }));
        self.next_ticket += 1;
        ticket
    }

    /// The engine's next event time: the earliest of the next pending
    /// arrival, the armed scheduler wake-up and the minimum in-flight task
    /// step. `None` when the episode has fully drained.
    pub fn next_event(&self) -> Option<SimTime> {
        let task = self.active.peek().map(|Reverse(a)| a.task.now());
        let arrival = self.arrivals.peek().map(|Reverse(p)| p.at);
        [task, arrival, self.wake].into_iter().flatten().min()
    }

    /// Completed GEMM flops served so far (monotone over the episode).
    pub fn flops_served(&self) -> u64 {
        self.total_flops
    }

    /// Processes exactly one event on `system`: an arrival (admission and
    /// a scheduling attempt), a scheduler wake-up, or a batch of tile
    /// steps of the minimal in-flight task. Returns the retired job when
    /// the event completed one.
    ///
    /// `bound` is an *external* event horizon: tile-step batching breaks
    /// when the stepped task reaches it, and completion-triggered arrival
    /// draining stops at it, so a composition layer merging several
    /// engines can bound each engine by the next global event it owns
    /// (typically the next unrouted fleet arrival) — a later push then
    /// never predates an already-admitted arrival, which keeps admission
    /// order equal to `(arrival, push order)`. Passing `None` reproduces
    /// the single-machine loop exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`]s from the co-simulation.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no event (see [`Engine::next_event`]).
    pub fn advance(
        &mut self,
        system: &mut MacoSystem,
        bound: Option<SimTime>,
    ) -> Result<Option<JobOutcome>, ServeError> {
        let task_key = self.active.peek().map(|Reverse(a)| a.key());
        let arrival = self.arrivals.peek().map(|Reverse(p)| p.at);
        let wake = self.wake;
        assert!(
            task_key.is_some() || arrival.is_some() || wake.is_some(),
            "advance called on a drained engine"
        );
        let task_time = task_key.map(|(t, _)| t);
        // Tie order is arrival, then wake, then task step, so admission
        // and scheduling state are current before any same-instant
        // stepping decision.
        let arrival_first = arrival
            .is_some_and(|at| task_time.is_none_or(|tt| at <= tt) && wake.is_none_or(|w| at <= w));
        let wake_first = !arrival_first && wake.is_some_and(|w| task_time.is_none_or(|tt| w <= tt));
        if arrival_first {
            let Reverse(pending) = self.arrivals.pop().expect("arrival_first");
            let at = pending.at;
            self.arrival_floor = at;
            self.submit(pending.ticket, pending.spec);
            self.try_schedule(system, at)?;
        } else if wake_first {
            let at = wake.expect("wake_first implies a wake");
            self.wake = None;
            self.try_schedule(system, at)?;
        } else {
            let Reverse(mut entry) = self
                .active
                .pop()
                .expect("no arrival or wake, so a task exists");
            // Batch contiguous steps of the minimal task while it stays at
            // or below every other event — the same exact-equivalence
            // batching the closed-loop runner uses, bounded additionally
            // by the next arrival, the wake and the external horizon. The
            // heap's new minimum is exactly the old linear scan's
            // runner-up.
            let runner_up = self.active.peek().map(|Reverse(a)| a.key());
            let completed = loop {
                if system.step_gemm(&mut entry.task)?.is_some() {
                    break true;
                }
                let key = (entry.task.now(), entry.seq);
                if arrival.is_some_and(|at| key.0 >= at)
                    || wake.is_some_and(|w| key.0 >= w)
                    || bound.is_some_and(|b| key.0 >= b)
                    || runner_up.is_some_and(|r| key > r)
                {
                    break false;
                }
            };
            if completed {
                return self.member_done(system, entry, bound);
            }
            self.active.push(Reverse(entry));
        }
        Ok(None)
    }

    /// Finishes the episode and produces its report.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no work is pending or in flight (the engine was
    /// advanced until [`Engine::next_event`] returned `None`).
    pub fn finish(self, system: &MacoSystem) -> ServeReport {
        debug_assert!(self.queue.is_empty(), "pending jobs at episode end");
        debug_assert!(self.active.is_empty());
        debug_assert!(self.arrivals.is_empty());
        let nodes = system.node_count();
        ServeReport {
            policy: self.config.policy,
            tenants: self.stats,
            jobs_completed: self.jobs_completed,
            jobs_rejected: self.jobs_rejected,
            makespan: self.last_finish.since(SimTime::ZERO),
            total_flops: self.total_flops,
            machine_peak_mtq: (0..nodes)
                .map(|n| system.cpu(n).mtq().peak_in_use())
                .max()
                .unwrap_or(0),
            machine_peak_stq: (0..nodes)
                .map(|n| system.stq(n).peak_len())
                .max()
                .unwrap_or(0),
            leases: self.leases,
            queue_depth_hist: self.queue_hist,
            machine_stats: system.stats_snapshot(),
            fingerprint: self.fingerprint,
        }
    }

    /// Fail-stop eviction at instant `now`: extracts every unfinished
    /// job's un-served remainder *without completing it* and leaves the
    /// engine drained (empty queue, no in-flight gangs, no pending
    /// arrivals, no armed wake), so [`Engine::finish`] can retire the
    /// incarnation immediately.
    ///
    /// Deterministic order: admitted jobs (queued and in-flight) in
    /// ascending machine-local id, then pending arrivals in
    /// `(arrival, push order)` pop order — which is admission order, so
    /// the synthetic ids assigned to pending arrivals stay dense (see
    /// [`EvictedJob::id`]).
    ///
    /// In-flight gangs release their nodes and close their leases at
    /// `now`; service already credited at completed layer barriers stays
    /// credited (the evicted remainder excludes those layers), so a
    /// composition layer re-placing the remainders conserves total flops
    /// exactly. Work already *committed* to the timeline stands: a layer
    /// whose completion event was processed before the eviction counts as
    /// served even if its simulated finish time lies past `now` (the
    /// event core processes completions atomically — same semantics as
    /// completions leaping pending arrivals).
    pub fn evict_all(&mut self, now: SimTime) -> Vec<EvictedJob> {
        self.active.clear();
        self.wake = None;
        self.queue.clear();
        let mut evicted = Vec::new();
        for ji in 0..self.jobs.len() {
            let (lease_range, group) = {
                let job = &mut self.jobs[ji];
                if job.finished {
                    continue;
                }
                job.finished = true;
                let range = job.lease_start..job.lease_start + job.group.len();
                (range, std::mem::take(&mut job.group))
            };
            let was_running = !group.is_empty();
            if was_running {
                for lease in &mut self.leases[lease_range] {
                    lease.until = now;
                    self.sink.span(
                        "lease",
                        self.track,
                        lease.node as u32,
                        lease.from,
                        now,
                        ji as u64,
                        lease.tenant as u32,
                    );
                }
                self.pool.release(&group, now);
            }
            let job = &self.jobs[ji];
            self.sink.instant(
                "job/evict",
                self.track,
                SCHED_ROW,
                now,
                ji as u64,
                job.spec.tenant as u32,
            );
            evicted.push(EvictedJob {
                id: JobId(ji as u64),
                ticket: job.ticket,
                spec: JobSpec {
                    tenant: job.spec.tenant,
                    layers: job.spec.layers[job.layer..].to_vec(),
                    arrival: job.spec.arrival,
                    priority: job.spec.priority,
                    deadline: job.spec.deadline,
                    gang_width: job.spec.gang_width,
                },
                completed_layers: job.layer,
                was_running,
                admitted: true,
            });
        }
        let mut next_id = self.jobs.len() as u64;
        while let Some(Reverse(pending)) = self.arrivals.pop() {
            self.sink.instant(
                "job/evict",
                self.track,
                SCHED_ROW,
                now,
                next_id,
                pending.spec.tenant as u32,
            );
            evicted.push(EvictedJob {
                id: JobId(next_id),
                ticket: pending.ticket,
                spec: pending.spec,
                completed_layers: 0,
                was_running: false,
                admitted: false,
            });
            next_id += 1;
        }
        evicted
    }

    /// Ids of jobs currently holding nodes (dispatched, unfinished), in
    /// ascending machine-local id order — the in-flight set an
    /// [`Engine::evict_all`] at this instant would report as running.
    pub fn running_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.finished && !j.group.is_empty())
            .map(|(i, _)| JobId(i as u64))
            .collect()
    }

    /// Ids of admitted jobs waiting in the queue, in admission order —
    /// which is ascending [`JobId`], since ids are assigned at admission.
    /// The view borrows the queue: `len()` is O(1) and nothing allocates.
    pub fn queued_jobs(&self) -> impl ExactSizeIterator<Item = JobId> + '_ {
        self.queue.pending()
    }

    /// Admission: validates, bounds the queue, registers the job under
    /// its push `ticket`. Takes the spec by value — the hot path never
    /// clones a layer stream.
    fn submit(&mut self, ticket: u64, spec: JobSpec) {
        let would_be = self.jobs.len() as u64;
        self.sink.instant(
            "job/arrive",
            self.track,
            SCHED_ROW,
            spec.arrival,
            would_be,
            spec.tenant as u32,
        );
        if spec.tenant < self.stats.len() {
            self.stats[spec.tenant].submitted += 1;
        }
        if validate_spec(self.tenants.len(), &spec).is_err() {
            self.jobs_rejected += 1;
            if spec.tenant < self.stats.len() {
                self.stats[spec.tenant].rejected += 1;
            }
            self.sink.instant(
                "job/reject",
                self.track,
                SCHED_ROW,
                spec.arrival,
                would_be,
                spec.tenant as u32,
            );
            return;
        }
        let id = JobId(self.jobs.len() as u64);
        let width = spec
            .gang_width
            .clamp(1, self.config.max_gang.min(self.pool.capacity()));
        let flops_total = spec.flops();
        let queued = QueuedJob {
            id,
            tenant: spec.tenant,
            arrival: spec.arrival,
            priority: spec.priority,
            flops: flops_total,
            width,
        };
        match self.queue.admit(queued) {
            Ok(()) => {
                self.sink.instant(
                    "job/admit",
                    self.track,
                    SCHED_ROW,
                    spec.arrival,
                    id.0,
                    spec.tenant as u32,
                );
                self.queue_hist.record(self.queue.len() as u64);
                self.jobs.push(Job {
                    flops_total,
                    spec,
                    ticket,
                    group: Vec::new(),
                    layer: 0,
                    members_left: 0,
                    layer_end: SimTime::ZERO,
                    lease_start: 0,
                    finished: false,
                });
            }
            Err(AdmissionError::QueueFull) => {
                self.jobs_rejected += 1;
                self.stats[spec.tenant].rejected += 1;
                self.sink.instant(
                    "job/reject",
                    self.track,
                    SCHED_ROW,
                    spec.arrival,
                    would_be,
                    spec.tenant as u32,
                );
            }
            Err(_) => unreachable!("validated above"),
        }
    }

    /// Admits (and possibly starts, on nodes already free at their
    /// arrival instants) every pushed job arriving at or before `upto`.
    /// Called when a completing step leaps past pending arrivals on the
    /// simulated clock, so that the completion's rescheduling never hands
    /// freed nodes to a job "in the past" — freed nodes only serve work
    /// dispatched at or after the time they became free.
    ///
    /// The drain also stops at the external `bound`: admitting past the
    /// composition layer's horizon would let a later [`Engine::push`]
    /// (necessarily timestamped at or after that horizon) predate an
    /// already-admitted arrival, breaking the admission-order contract.
    /// Arrivals beyond the bound are admitted later, at their own event
    /// times — the time-aware node pool keeps the schedules identical in
    /// spirit: freed nodes stay invisible before their free instant.
    fn drain_arrivals(
        &mut self,
        system: &mut MacoSystem,
        upto: SimTime,
        bound: Option<SimTime>,
    ) -> Result<(), ServeError> {
        let cut = bound.map_or(upto, |b| upto.min(b));
        while self.arrivals.peek().is_some_and(|Reverse(p)| p.at <= cut) {
            let Reverse(pending) = self.arrivals.pop().expect("peeked above");
            let at = pending.at;
            self.arrival_floor = at;
            self.submit(pending.ticket, pending.spec);
            self.try_schedule(system, at)?;
        }
        Ok(())
    }

    /// Starts pending jobs while the ready queue holds one whose gang fits
    /// the free nodes (backfilling).
    fn try_schedule(&mut self, system: &mut MacoSystem, now: SimTime) -> Result<(), ServeError> {
        loop {
            if self.queue.is_empty() {
                return Ok(());
            }
            let free = self.pool.free_count(now);
            let (pick, early) = self.queue.pick(free, now, &self.served, &self.weights);
            let Some(id) = pick else {
                // Blocked on nodes that free later on the simulated clock
                // (their completions were processed ahead of `now` in
                // event order), or on jobs admitted ahead of their arrival
                // by such a completion: arm the retry wake-up.
                if let Some(t) = [self.pool.next_free_after(now), early]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    self.wake = Some(self.wake.map_or(t, |w| w.min(t)));
                }
                return Ok(());
            };
            let queued = self.queue.remove(id).expect("picked from the queue");
            let group = self
                .pool
                .allocate(queued.width, now)
                .expect("pick checked the fit");
            let (pick, tenant) = (id.0, queued.tenant);
            let ji = pick as usize;
            self.sink.instant(
                "job/dispatch",
                self.track,
                SCHED_ROW,
                now,
                pick,
                tenant as u32,
            );
            self.jobs[ji].lease_start = self.leases.len();
            for &node in &group {
                self.leases.push(NodeLease {
                    node,
                    job: pick,
                    tenant,
                    from: now,
                    until: now,
                });
            }
            self.jobs[ji].group = group;
            self.begin_layer(system, ji, now)?;
        }
    }

    /// Dispatches the current layer of `ji` across its gang at time `at`.
    fn begin_layer(
        &mut self,
        system: &mut MacoSystem,
        ji: usize,
        at: SimTime,
    ) -> Result<(), ServeError> {
        let layer = self.jobs[ji].spec.layers[self.jobs[ji].layer].clone();
        partition_shapes_into(
            layer.m,
            layer.n,
            layer.k,
            self.jobs[ji].group.len(),
            &mut self.shape_buf,
        );
        debug_assert!(
            !self.shape_buf.is_empty(),
            "admission rejects degenerate layers"
        );
        let tenant = self.jobs[ji].spec.tenant;
        let asid = self.tenants[tenant].asid;
        let cpu_cfg = system.config().cpu;
        let tiling = system.config().mmae.tiling;
        let parts = self.shape_buf.len();
        for j in 0..parts {
            let (pm, pn, pk) = self.shape_buf[j];
            let node = self.jobs[ji].group[j];
            let params = system.map_gemm(pm, pn, pk, layer.precision)?;
            let task = system.begin_gemm(node, asid, params, at)?;
            // The epilogue tail that extends a member past its GEMM: with
            // Fig. 5(c) overlap only the final block's epilogue is
            // exposed; without it the whole epilogue serialises.
            let epilogue_tail = match &layer.epilogue {
                Some(kernel) => {
                    let epi = kernel.time_on(&cpu_cfg, pm * pn, layer.precision);
                    if layer.overlap {
                        let blocks = pm.div_ceil(tiling.tr) * pn.div_ceil(tiling.tc);
                        SimDuration::from_fs(epi.as_fs() / blocks.max(1))
                    } else {
                        epi
                    }
                }
                None => SimDuration::ZERO,
            };
            self.active.push(Reverse(ActiveTask {
                task,
                seq: self.seq,
                job: ji,
                layer: self.jobs[ji].layer,
                layer_start: at,
                epilogue_tail,
            }));
            self.seq += 1;
        }
        self.jobs[ji].members_left = parts;
        self.jobs[ji].layer_end = at;
        // Occupancy accounting through the MPAIS queues themselves. The
        // MTQ sum spans every node, not just this gang: a tenant running
        // several concurrent jobs holds entries machine-wide.
        let mut mtq = 0;
        let mut stq = 0;
        for node in 0..system.node_count() {
            mtq += system.cpu(node).mtq().in_use_by(asid);
        }
        for j in 0..parts {
            stq = stq.max(system.stq(self.jobs[ji].group[j]).len());
        }
        self.stats[tenant].peak_mtq = self.stats[tenant].peak_mtq.max(mtq);
        self.stats[tenant].peak_stq = self.stats[tenant].peak_stq.max(stq);
        Ok(())
    }

    /// Handles one gang member finishing its layer slice; returns the
    /// retired job when this was the last member of its last layer.
    fn member_done(
        &mut self,
        system: &mut MacoSystem,
        done: ActiveTask,
        bound: Option<SimTime>,
    ) -> Result<Option<JobOutcome>, ServeError> {
        let member_end = done.task.now() + done.epilogue_tail;
        let ji = done.job;
        self.sink.span(
            "layer",
            self.track,
            done.task.node() as u32,
            done.layer_start,
            member_end,
            ji as u64,
            self.jobs[ji].spec.tenant as u32,
        );
        self.fingerprint = [
            self.jobs[ji].spec.tenant as u64,
            done.layer as u64,
            done.task.node() as u64,
            done.layer_start.as_fs(),
            member_end.as_fs(),
        ]
        .iter()
        .fold(fold_fingerprint(self.fingerprint, ji as u64), |h, &x| {
            fold_fingerprint(h, x)
        });
        let job = &mut self.jobs[ji];
        job.members_left -= 1;
        job.layer_end = job.layer_end.max(member_end);
        if job.members_left > 0 {
            return Ok(None);
        }

        // Layer barrier reached: account service, advance or retire.
        let tenant = job.spec.tenant;
        let layer_flops = job.spec.layers[job.layer].flops();
        let layer_end = job.layer_end;
        self.served[tenant] += layer_flops;
        self.stats[tenant].flops += layer_flops;
        self.total_flops += layer_flops;
        job.layer += 1;
        if job.layer < job.spec.layers.len() {
            self.begin_layer(system, ji, layer_end)?;
            return Ok(None);
        }

        // Job complete. First admit any arrivals the final step leapt
        // past, so the rescheduling below never dispatches into the past;
        // then close leases, free the gang and pull in queued work.
        self.drain_arrivals(system, layer_end, bound)?;
        let job = &mut self.jobs[ji];
        job.finished = true;
        let (arrival, ticket) = (job.spec.arrival, job.ticket);
        let latency = layer_end.since(arrival);
        let flops = job.flops_total;
        let lease_range = job.lease_start..job.lease_start + job.group.len();
        let group = std::mem::take(&mut job.group);
        let deadline_missed = job.spec.deadline.is_some_and(|d| latency > d);
        for lease in &mut self.leases[lease_range] {
            lease.until = layer_end;
            self.sink.span(
                "lease",
                self.track,
                lease.node as u32,
                lease.from,
                layer_end,
                ji as u64,
                tenant as u32,
            );
        }
        self.sink.instant(
            "job/complete",
            self.track,
            SCHED_ROW,
            layer_end,
            ji as u64,
            tenant as u32,
        );
        self.pool.release(&group, layer_end);
        self.jobs_completed += 1;
        self.last_finish = self.last_finish.max(layer_end);
        let st = &mut self.stats[tenant];
        st.completed += 1;
        st.latency_sum += latency;
        st.latency_max = st.latency_max.max(latency);
        st.latency_hist.record(latency.as_fs() / FS_PER_NS);
        if deadline_missed {
            st.deadline_misses += 1;
        }
        self.try_schedule(system, layer_end)?;
        Ok(Some(JobOutcome {
            job: JobId(ji as u64),
            ticket,
            tenant,
            arrival,
            finished_at: layer_end,
            flops,
        }))
    }
}
