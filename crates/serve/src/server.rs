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
//! Each event costs O(log n) in in-flight members and O(1) in pending
//! arrivals and queued jobs (plus one FIFO front per queued rank and
//! width class per pick), so 10⁵-request traces and deep backlogs stream
//! with near-linear wall clock. Three sources merge under the tie order
//! arrival < wake < task step on equal times:
//!
//! * **arrivals** — `(arrival, push ticket)` keys popped in key order, so
//!   equal arrival times pop in push order: pushes in ascending key order
//!   append to a deque, the rest wait in a min-heap (O(log n)); the specs
//!   wait in a ticket-indexed deque;
//! * **wake** — a single armed retry instant;
//! * **task steps** — the [`TaskHeap`] of in-flight gang members, the
//!   same one the closed-loop runners use, stepped in batches bounded by
//!   the next arrival, the wake and the caller's horizon.
//!
//! Admitted jobs wait in the policy-ordered ready queue, [`JobQueue`]
//! (see the [`crate::sched`] module docs): a scheduling attempt compares
//! the FIFO fronts of the gang-width classes that fit the free nodes
//! instead of scanning the backlog. `docs/ARCHITECTURE.md`, "The event
//! core", has the full design.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use maco_core::gemm_plus::partition_shapes_into;
use maco_core::group::NodePool;
use maco_core::system::{InFlightGemm, MacoSystem, TaskAdmitError, TaskHeap};
use maco_core::TranslateFault;
use maco_sim::time::{earliest, FS_PER_NS};
use maco_sim::{SimDuration, SimTime};
use maco_telemetry::{Log2Histogram, TraceSink};

use crate::event::{EngineEvent, EngineLog};
use crate::job::{validate_spec, AdmissionError, JobId, JobQueue, JobSpec, QueuedJob, Tenant};
use crate::report::{NodeLease, ServeReport, TenantReport};
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

    /// Runs one serving episode over `specs` until every admitted job has
    /// completed. Jobs arrive in arrival order, equal arrivals in list
    /// order, so the list need not be sorted: the engine's pending stream
    /// pops `(arrival, push order)` keys, which is a stable sort's order.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`]s from the co-simulation.
    pub fn run_jobs(&mut self, specs: Vec<JobSpec>) -> Result<ServeReport, ServeError> {
        self.system.reset_shared_resources();
        let mut engine = Engine::new(self.system.node_count(), &self.tenants, &self.config);
        engine.reserve(specs.len());
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

/// The engine's tag on a gang member's task in the [`TaskHeap`].
struct Member {
    job: usize,
    layer: usize,
    /// When this layer was dispatched (folded into the fingerprint).
    layer_start: SimTime,
    /// CPU epilogue time extending past the member's GEMM (the Fig. 5(c)
    /// non-overlappable tail, or the whole epilogue without overlap).
    epilogue_tail: SimDuration,
}

/// Per-job episode state.
struct Job {
    spec: JobSpec,
    /// The ticket [`Engine::push`] returned for this job.
    ticket: u64,
    /// Cached total flops (reported in the job's outcome).
    flops_total: u64,
    /// This job's gang: its range in the episode lease log, one lease per
    /// node in gang order. Empty until dispatch and again once the gang
    /// is released.
    leases: Range<usize>,
    layer: usize,
    members_left: usize,
    /// Max member end (epilogue tails included) of the current layer.
    layer_end: SimTime,
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
/// monolithic loop. An engine is `Send` (its [`TraceSink`] included), so
/// engines whose machines no longer interact can be advanced on separate
/// threads, as `maco-cluster` does once no fleet event is left.
///
/// Internally the engine is the event core described in the
/// [module docs](crate::server): the pending-arrival keys, a single armed
/// wake instant and a [`TaskHeap`] of the in-flight members, merged in
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
    /// Pending job stream (not yet submitted) as `(arrival, push ticket)`
    /// keys, popped in key order; the ticket is the stable tiebreak for
    /// equal arrivals. A push at or after the last key of `arrivals`
    /// appends to it (every push, in engine order); the others wait in
    /// the min-heap `late`.
    arrivals: VecDeque<(SimTime, u64)>,
    late: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// The pending specs by ticket: `specs[i]` is ticket `spec_base + i`'s,
    /// `None` once admitted; trimmed from the front, so the next push
    /// ticket is `spec_base + specs.len()`.
    specs: VecDeque<Option<JobSpec>>,
    spec_base: u64,
    /// Latest arrival time already admitted from the pending stream; the
    /// floor the [`Engine::push`] contract is checked against.
    arrival_floor: SimTime,
    weights: Vec<u32>,
    pool: NodePool,
    queue: JobQueue,
    jobs: Vec<Job>,
    /// In-flight gang members, at most one per node.
    tasks: TaskHeap<Member>,
    served: Vec<u64>,
    stats: Vec<TenantReport>,
    /// Per tenant, the index of the first tenant sharing its ASID: the
    /// slot its MTQ occupancy is counted under in `mtq_held`.
    asid_slot: Vec<usize>,
    /// MTQ entries held machine-wide per ASID slot: the in-flight gang
    /// members of that ASID's tenants.
    mtq_held: Vec<usize>,
    leases: Vec<NodeLease>,
    /// Armed when a queued job is blocked on nodes whose free time lies in
    /// the simulated future (completions are processed in event order, so
    /// such nodes exist): the scheduler retries at this instant.
    wake: Option<SimTime>,
    /// Reusable gang-partition shape buffer (no per-layer allocation).
    shape_buf: Vec<(u64, u64, u64)>,
    last_finish: SimTime,
    jobs_completed: u64,
    jobs_rejected: u64,
    total_flops: u64,
    /// The schedule fingerprint and the trace sink: every job-lifecycle
    /// event is folded and recorded through [`EngineLog::emit`].
    log: EngineLog,
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
            arrivals: VecDeque::new(),
            late: BinaryHeap::new(),
            specs: VecDeque::new(),
            spec_base: 0,
            arrival_floor: SimTime::ZERO,
            pool: NodePool::new(nodes),
            queue: JobQueue::new(config.policy, config.queue_capacity),
            jobs: Vec::new(),
            tasks: TaskHeap::new(nodes),
            served: vec![0; tenants.len()],
            stats,
            asid_slot: tenants
                .iter()
                .map(|t| {
                    tenants
                        .iter()
                        .position(|u| u.asid == t.asid)
                        .expect("a tenant shares its own ASID")
                })
                .collect(),
            mtq_held: vec![0; tenants.len()],
            leases: Vec::new(),
            wake: None,
            shape_buf: Vec::new(),
            last_finish: SimTime::ZERO,
            jobs_completed: 0,
            jobs_rejected: 0,
            total_flops: 0,
            log: EngineLog::new(),
            queue_hist: Log2Histogram::new(),
        }
    }

    /// Attaches a trace sink, recording this engine's events on `track`
    /// (the machine index in a fleet; Chrome export maps tracks to
    /// processes). The sink only observes — schedules and fingerprints are
    /// bit-identical whether it is on, off, or replaced mid-episode.
    pub fn set_trace(&mut self, sink: TraceSink, track: u32) {
        self.log.attach(sink, track);
    }

    /// Sizes the episode tables for `n` more pushes in one allocation each
    /// instead of regrowing them push by push: the pending arrival keys
    /// and specs, the job table and the lease log (one lease per job at
    /// gang width 1), and the ready queue's slab (see [`JobQueue::reserve`]).
    pub(crate) fn reserve(&mut self, n: usize) {
        self.arrivals.reserve(n);
        self.specs.reserve(n);
        self.jobs.reserve(n);
        self.leases.reserve(n);
        self.queue.reserve(n);
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
        let ticket = self.spec_base + self.specs.len() as u64;
        let key = (spec.arrival, ticket);
        if self.arrivals.back().is_none_or(|&last| last < key) {
            self.arrivals.push_back(key);
        } else {
            self.late.push(Reverse(key));
        }
        self.specs.push_back(Some(spec));
        ticket
    }

    /// The next pending arrival's key.
    fn next_arrival(&self) -> Option<(SimTime, u64)> {
        let late = self.late.peek().map(|&Reverse(key)| key);
        match (self.arrivals.front(), late) {
            (Some(&key), Some(late)) => Some(key.min(late)),
            (key, late) => key.copied().or(late),
        }
    }

    /// Pops the next pending arrival: its time, ticket and spec.
    fn pop_arrival(&mut self) -> Option<(SimTime, u64, JobSpec)> {
        let (at, ticket) = self.next_arrival()?;
        if self.arrivals.front() == Some(&(at, ticket)) {
            self.arrivals.pop_front();
        } else {
            self.late.pop();
        }
        let spec = self.specs[(ticket - self.spec_base) as usize]
            .take()
            .expect("a ticket pops once");
        while self.specs.front().is_some_and(Option::is_none) {
            self.specs.pop_front();
            self.spec_base += 1;
        }
        Some((at, ticket, spec))
    }

    /// The engine's next event time: the earliest of the next pending
    /// arrival, the armed scheduler wake-up and the minimum in-flight task
    /// step. `None` when the episode has fully drained.
    pub fn next_event(&self) -> Option<SimTime> {
        let arrival = self.next_arrival().map(|(at, _)| at);
        earliest(earliest(self.tasks.next_time(), arrival), self.wake)
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
        let at = self
            .next_event()
            .expect("advance called on a drained engine");
        let arrival = self.next_arrival().map(|(at, _)| at);
        let wake = self.wake;
        // Tie order is arrival, then wake, then task step, so admission
        // and scheduling state are current before any same-instant
        // stepping decision.
        if arrival == Some(at) {
            let (_, ticket, spec) = self.pop_arrival().expect("peeked above");
            self.arrival_floor = at;
            self.submit(ticket, spec);
            self.try_schedule(system, at)?;
        } else if wake == Some(at) {
            self.wake = None;
            self.try_schedule(system, at)?;
        } else {
            // Batch steps of the minimal task up to the next arrival, the
            // wake and the external horizon, so none of them is leapt.
            let horizon = earliest(earliest(arrival, wake), bound);
            if let Some((task, _, member)) = self.tasks.step(system, horizon)? {
                return self.member_done(system, &task, member, bound);
            }
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
        debug_assert!(self.tasks.is_empty());
        debug_assert!(self.arrivals.is_empty() && self.late.is_empty());
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
            fingerprint: self.log.fingerprint(),
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
    ///
    /// The machine this engine stepped must be discarded after an
    /// eviction. In-flight members are dropped without retiring their
    /// MTQ/STQ entries, so the nodes' task queues still hold them: an
    /// engine that steps new work on the same [`MacoSystem`] finds the
    /// stale entry at the head of the STQ (a debug build trips the MAID
    /// check in the step's completion path). [`Engine::finish`] may
    /// still read the old machine's counters. `maco-cluster` follows
    /// this on fail-stop: it finishes the old engine, then replaces both
    /// the engine and its `MacoSystem` with fresh ones.
    pub fn evict_all(&mut self, now: SimTime) -> Vec<EvictedJob> {
        self.tasks.clear();
        self.mtq_held.fill(0);
        self.wake = None;
        self.queue.clear();
        let mut evicted = Vec::new();
        for ji in 0..self.jobs.len() {
            let job = &mut self.jobs[ji];
            if job.finished {
                continue;
            }
            job.finished = true;
            let gang = std::mem::take(&mut job.leases);
            let was_running = !gang.is_empty();
            for lease in &mut self.leases[gang] {
                lease.until = now;
                self.log.emit(EngineEvent::Lease(lease));
                self.pool.release(lease.node, now);
            }
            let job = &self.jobs[ji];
            self.log
                .emit(EngineEvent::Evict(ji as u64, job.spec.tenant, now));
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
        while let Some((_, ticket, spec)) = self.pop_arrival() {
            self.log.emit(EngineEvent::Evict(next_id, spec.tenant, now));
            evicted.push(EvictedJob {
                id: JobId(next_id),
                ticket,
                spec,
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
            .filter(|(_, j)| !j.finished && !j.leases.is_empty())
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
        self.log
            .emit(EngineEvent::Arrive(would_be, spec.tenant, spec.arrival));
        if spec.tenant < self.stats.len() {
            self.stats[spec.tenant].submitted += 1;
        }
        if validate_spec(self.tenants.len(), &spec).is_err() {
            self.jobs_rejected += 1;
            if spec.tenant < self.stats.len() {
                self.stats[spec.tenant].rejected += 1;
            }
            self.log
                .emit(EngineEvent::Reject(would_be, spec.tenant, spec.arrival));
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
                self.log
                    .emit(EngineEvent::Admit(id.0, spec.tenant, spec.arrival));
                self.queue_hist.record(self.queue.len() as u64);
                self.jobs.push(Job {
                    flops_total,
                    spec,
                    ticket,
                    leases: 0..0,
                    layer: 0,
                    members_left: 0,
                    layer_end: SimTime::ZERO,
                    finished: false,
                });
            }
            Err(AdmissionError::QueueFull) => {
                self.jobs_rejected += 1;
                self.stats[spec.tenant].rejected += 1;
                self.log
                    .emit(EngineEvent::Reject(would_be, spec.tenant, spec.arrival));
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
        while self.next_arrival().is_some_and(|(at, _)| at <= cut) {
            let (at, ticket, spec) = self.pop_arrival().expect("peeked above");
            self.arrival_floor = at;
            self.submit(ticket, spec);
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
                let retry = earliest(self.pool.next_free_after(now), early);
                if let Some(retry) = retry {
                    debug_assert!(
                        retry > now,
                        "wake armed at {} fs, not after the scheduling instant {} fs: \
                         the ready queue held back a job that had arrived",
                        retry.as_fs(),
                        now.as_fs(),
                    );
                }
                self.wake = earliest(self.wake, retry);
                return Ok(());
            };
            let queued = self.queue.remove(id).expect("picked from the queue");
            let (pick, tenant) = (id.0, queued.tenant);
            let first = self.leases.len();
            let leases = &mut self.leases;
            let fits = self.pool.allocate(queued.width, now, |node| {
                leases.push(NodeLease {
                    node,
                    job: pick,
                    tenant,
                    from: now,
                    until: now,
                });
            });
            assert!(fits, "pick checked the fit");
            let ji = pick as usize;
            self.log.emit(EngineEvent::Dispatch(pick, tenant, now));
            self.jobs[ji].leases = first..self.leases.len();
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
        let job = &self.jobs[ji];
        let layer = job.spec.layers[job.layer].clone();
        let gang = job.leases.start;
        partition_shapes_into(
            layer.m,
            layer.n,
            layer.k,
            job.leases.len(),
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
            let node = self.leases[gang + j].node;
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
            self.tasks.insert(
                task,
                Member {
                    job: ji,
                    layer: self.jobs[ji].layer,
                    layer_start: at,
                    epilogue_tail,
                },
            );
        }
        self.jobs[ji].members_left = parts;
        self.jobs[ji].layer_end = at;
        // Occupancy accounting. The MTQ count spans every node, not just
        // this gang: a tenant running several concurrent jobs holds
        // entries machine-wide, and every in-flight member holds one.
        let slot = self.asid_slot[tenant];
        self.mtq_held[slot] += parts;
        let mtq = self.mtq_held[slot];
        debug_assert_eq!(
            mtq,
            (0..system.node_count())
                .map(|node| system.cpu(node).mtq().in_use_by(asid))
                .sum::<usize>(),
            "counted MTQ occupancy of {asid:?} disagrees with the MTQs",
        );
        let stq = self.leases[gang..gang + parts]
            .iter()
            .map(|lease| system.stq(lease.node).len())
            .max()
            .unwrap_or(0);
        self.stats[tenant].peak_mtq = self.stats[tenant].peak_mtq.max(mtq);
        self.stats[tenant].peak_stq = self.stats[tenant].peak_stq.max(stq);
        Ok(())
    }

    /// Handles one gang member finishing its layer slice as `task`;
    /// returns the retired job when this was the last member of its last
    /// layer.
    fn member_done(
        &mut self,
        system: &mut MacoSystem,
        task: &InFlightGemm,
        done: Member,
        bound: Option<SimTime>,
    ) -> Result<Option<JobOutcome>, ServeError> {
        let member_end = task.now() + done.epilogue_tail;
        let ji = done.job;
        // The member's MTQ entry was released as its task completed.
        self.mtq_held[self.asid_slot[self.jobs[ji].spec.tenant]] -= 1;
        self.log.emit(EngineEvent::Layer {
            job: ji as u64,
            tenant: self.jobs[ji].spec.tenant,
            layer: done.layer,
            node: task.node(),
            from: done.layer_start,
            until: member_end,
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
        let gang = std::mem::take(&mut job.leases);
        let deadline_missed = job.spec.deadline.is_some_and(|d| latency > d);
        for lease in &mut self.leases[gang] {
            lease.until = layer_end;
            self.log.emit(EngineEvent::Lease(lease));
            self.pool.release(lease.node, layer_end);
        }
        self.log
            .emit(EngineEvent::Complete(ji as u64, tenant, layer_end));
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
