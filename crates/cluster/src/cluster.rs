//! The fleet: a front-end router over many machines, composed onto one
//! global virtual-time timeline.
//!
//! Every machine runs the *same* co-simulation a standalone
//! [`maco_serve::Server`] runs — a [`maco_serve::Engine`] driving that
//! machine's [`MacoSystem`] through the reentrant
//! `begin_gemm`/`step_gemm` core API — and the cluster merges the
//! machines' event streams: the global loop always processes the minimum
//! of (next fault event, next unrouted fleet arrival, next re-placement,
//! every machine's next event), breaking ties in exactly that order (so
//! fault and routing state are current before any same-instant machine
//! step). The machine minimum comes from a lazy-deletion min-heap of
//! machine cursors `(time, machine)` re-keyed only for machines whose
//! event stream actually changed (the one just advanced, the ones just
//! routed to); a popped cursor is valid iff it still equals its machine's
//! [`Engine::next_event`], so stale entries cost one O(log n) discard
//! instead of a per-step fleet scan. Once no fleet event is left, the
//! machines drain on parallel threads and their completions are folded
//! in the order the cursor heap would have produced (see
//! [`Cluster::run_jobs`]). Machines
//! share no simulated hardware, so advancing one machine never perturbs
//! another; all cross-machine coupling flows through the interconnect
//! cost model (migration transfers delay arrivals, k-split all-reduces
//! delay completions) and through the router's load accounting, both of
//! which are pure functions of previously processed events. That is what
//! makes the fleet fingerprint byte-identical across same-seed runs.
//!
//! Multi-machine engines admit work at the *router's horizon*: a
//! completion whose simulated time leaps past the next unrouted fleet
//! arrival (or fault event, or pending re-placement) stops its
//! queued-arrival drain there (see [`Engine::advance`]'s `bound`), so
//! machine-local admission order always equals `(arrival, push order)`;
//! arrivals beyond the horizon are admitted later at their own event
//! times, with the time-aware node pool keeping freed nodes invisible
//! before their free instants. A one-machine fault-free cluster skips the
//! horizon entirely — with no placement freedom the router routes eagerly
//! — and is therefore bit-identical to a standalone
//! [`maco_serve::Server`] (tested, including under timestamp tie storms).
//!
//! # Failure model
//!
//! A [`crate::spec::FaultSpec`] schedules deterministic fail-stops,
//! recoveries and interconnect degradation windows as first-class events
//! on the global timeline, processed *before* same-instant arrivals. A
//! fail-stop evicts the machine's in-flight and queued jobs (an
//! [`maco_serve::EvictedJob`] carries the un-served remainder: a DNN
//! stream restarts from its last completed layer, a split part from its
//! layer start), retires the engine incarnation, and re-places each
//! remainder on a surviving machine after charging the state transfer
//! (migration context + remaining weight bytes) through the
//! interconnect. Completions the event core already committed stand even
//! when timestamped past the fail instant — the core processes a gang's
//! completion batch atomically, exactly as it leaps past routing
//! horizons. The fail-stop contract is that **no admitted job is ever
//! lost**: [`crate::report::FaultReport::jobs_lost`] is always 0, and
//! the fault layer folds every event into its own fingerprint (separate
//! from the schedule fingerprint, which stays bit-identical for
//! fault-free runs). An optional [`AutoscalerSpec`] grows/shrinks the
//! *active* placement set against sliding arrival-rate and deadline-miss
//! windows; draining a machine only stops new placements — queued work
//! finishes where it is.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::thread;

use maco_core::system::MacoSystem;
use maco_noc::sfc::hilbert_order;
use maco_noc::topology::MeshShape;
use maco_serve::{validate_spec, Engine, JobOutcome, JobSpec, ServeReport, Tenant};
use maco_sim::time::earliest;
use maco_sim::{FxHashMap, LatencyBandwidthResource, SimDuration, SimTime};
use maco_telemetry::{Log2Histogram, TraceRecord, TraceSink, ROUTER_TRACK};
use maco_workloads::trace::TraceRequest;

use crate::event::{FaultEventKind, FleetEvent, FleetLog};
use crate::report::{
    interconnect_fingerprint, merge_serve_reports, ClusterDiagnostics, ClusterReport, FaultReport,
    JobRecord, MachineReport, ScaleEvent,
};
use crate::spec::{AutoscalerSpec, ClusterSpec, DegradationWindow, Placement};
use crate::split::split_job;

/// Errors a fleet episode can surface (the per-machine co-simulation's).
pub type ClusterError = maco_serve::ServeError;

/// The fleet: a [`ClusterSpec`] instantiated into real machines plus the
/// fleet-wide tenant registry (every tenant is registered on every
/// machine; placement decides where its jobs actually run).
pub struct Cluster {
    spec: ClusterSpec,
    tenants: Vec<Tenant>,
    systems: Vec<MacoSystem>,
    sink: TraceSink,
}

impl Cluster {
    /// Instantiates the fleet.
    ///
    /// # Panics
    ///
    /// Panics on an empty machine list or tenant fleet (and propagates the
    /// machine configurations' own validation).
    pub fn new(spec: ClusterSpec, tenants: Vec<Tenant>) -> Self {
        assert!(!spec.machines.is_empty(), "need at least one machine");
        assert!(!tenants.is_empty(), "need at least one tenant");
        let systems = spec
            .machines
            .iter()
            .map(|m| MacoSystem::new(m.system.clone()))
            .collect();
        Cluster {
            spec,
            tenants,
            systems,
            sink: TraceSink::off(),
        }
    }

    /// Attaches a telemetry sink recording fleet events (routing,
    /// migrations, faults, evictions, re-placements, autoscaling) and
    /// every machine engine's job-lifecycle events onto one shared,
    /// globally-ordered record stream. [`TraceSink::off`] (the default)
    /// records nothing; tracing never perturbs simulated outcomes — the
    /// schedule and fault fingerprints are bit-identical either way.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The `(track id, display name)` pairs for Chrome-trace export
    /// ([`maco_telemetry::Trace::to_chrome_json`]): one track per machine
    /// (by fleet index, named from the spec) plus the router track.
    pub fn track_labels(&self) -> Vec<(u32, String)> {
        let mut tracks: Vec<(u32, String)> = self
            .spec
            .machines
            .iter()
            .enumerate()
            .map(|(i, m)| (i as u32, m.name.clone()))
            .collect();
        tracks.push((ROUTER_TRACK, "router".to_string()));
        tracks
    }

    /// The fleet declaration.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The fleet-wide tenant registry.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.systems.len()
    }

    /// Total compute nodes across the fleet.
    pub fn total_nodes(&self) -> usize {
        self.spec.total_nodes()
    }

    /// Serves a generated trace (see [`maco_workloads::trace`]) across the
    /// fleet: converts each request into a job and runs the episode to
    /// completion.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`]s from the per-machine co-simulations.
    pub fn run_trace(&mut self, trace: &[TraceRequest]) -> Result<ClusterReport, ClusterError> {
        self.run_jobs(trace.iter().map(JobSpec::from_request).collect())
    }

    /// Runs one fleet episode over `specs` (arrival-sorted internally)
    /// until every routed job has completed on its machine(s), every
    /// pending reduction has drained, every scheduled fault event has
    /// been processed and every evicted remainder has been re-placed and
    /// finished.
    ///
    /// Each machine's [`maco_serve::ServeConfig::queue_capacity`] must
    /// accommodate its routed backlog: a machine-level admission overflow
    /// would reject a routed job the fleet has already accepted, so
    /// capacities are validated *before* the episode starts (see
    /// `validate_capacity` for the bound), and an undersized machine is a
    /// clear, early panic naming the machine — never a lost job.
    ///
    /// The episode runs in two phases. While a fault event, an unrouted
    /// arrival or a re-placement is pending, one thread merges them with
    /// every machine's events in global time order. Once none is left,
    /// no machine can affect another, so each machine that still has an
    /// event drains on its own scoped thread (the calling thread takes
    /// one; a single busy machine spawns nothing). Completions and trace
    /// records are then folded into the fleet state in the order the
    /// serial merge would have processed them, so every fingerprint, job
    /// record and trace record is the same as a one-thread run's.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterError`]s from the per-machine co-simulations.
    /// When several machines fail while draining, the error returned is
    /// the one the serial merge would have reached first.
    ///
    /// # Panics
    ///
    /// Panics when a machine's queue capacity cannot hold the worst-case
    /// routed backlog (naming the offending machine), when the
    /// [`crate::spec::FaultSpec`] or [`AutoscalerSpec`] is invalid for
    /// this fleet, or when every machine is dead with no scheduled
    /// recovery while work is still pending. A panic on a draining
    /// machine's thread is re-raised on the calling thread.
    pub fn run_jobs(&mut self, specs: Vec<JobSpec>) -> Result<ClusterReport, ClusterError> {
        self.run_episode(specs, drain)
    }

    /// [`Cluster::run_jobs`] with the drain phase passed in: [`drain`]
    /// outside tests, the serial cursor-heap merge it replaced in the
    /// differential tests.
    fn run_episode(
        &mut self,
        mut specs: Vec<JobSpec>,
        drain: DrainFn,
    ) -> Result<ClusterReport, ClusterError> {
        specs.sort_by_key(|s| s.arrival);
        self.validate_capacity(&specs);
        self.spec.faults.validate(self.spec.machines.len());
        if let Some(a) = self.spec.autoscaler {
            a.validate(self.spec.machines.len());
        }
        let machines = self.systems.len();
        for sys in &mut self.systems {
            sys.reset_shared_resources();
        }
        let mut engines: Vec<Engine> = self
            .spec
            .machines
            .iter()
            .map(|m| Engine::new(m.system.nodes, &self.tenants, &m.serve))
            .collect();
        let mut ep = FleetEpisode::new(&self.spec, self.tenants.len(), self.sink.clone());
        for (i, engine) in engines.iter_mut().enumerate() {
            ep.log.attach(engine, i);
        }

        // A fault-free fleet of one has no routing freedom: every job
        // lands on machine 0, nothing migrates, nothing splits, nothing
        // is ever evicted. Routing eagerly lets its engine run with no
        // external horizon, as a standalone `Server` does, and that is
        // what keeps the two bit-identical. A horizon does reorder
        // decisions: when a completion's step leaps past the next fleet
        // arrival, `Server` admits and places that arrival in the
        // completion's drain, while a bounded drain stops short of it, so
        // an earlier completion on another node is processed first and
        // the arrival lands on the node it freed. The last case of
        // `one_machine_cluster_matches_server_under_tie_storms`
        // (tests/properties.rs) pins that corner under every policy.
        let mut cursor = 0usize;
        let mut pending = VecDeque::from(specs);
        if machines == 1 && self.spec.faults.is_empty() && self.spec.autoscaler.is_none() {
            while let Some(spec) = pending.pop_front() {
                ep.route(&self.spec, &self.tenants, &mut engines, spec, cursor);
                cursor += 1;
            }
        }

        // The global event merge: process the minimum of (next fault
        // event, next fleet arrival, next re-placement, every machine's
        // next event), ties broken fault < arrival < re-placement <
        // machine step so router state is current before any same-instant
        // step — and so a recovery scheduled at the instant a deferred
        // re-placement wakes is processed first (the deferral's
        // termination argument). With no faults and no re-placements this
        // reduces exactly to the fault-free arrival-vs-machine merge. The
        // merge ends when no fleet event is left; the machines then drain
        // independently (see `drain`).
        loop {
            let fault = ep.faults.front().map(|f| f.at);
            let arrival = pending.front().map(|s| s.arrival);
            let reroute = ep.reroutes.peek().map(|Reverse(r)| r.at);
            let Some(horizon) = earliest(earliest(fault, arrival), reroute) else {
                break;
            };
            let machine = loop {
                match ep.cursors.peek() {
                    None => break None,
                    Some(&Reverse(cur @ (t, m))) => {
                        if engines[m].next_event() == Some(t) {
                            break Some(cur);
                        }
                        ep.cursors.pop();
                    }
                }
            };
            if let Some((_, i)) = machine.filter(|&(t, _)| t < horizon) {
                ep.cursors.pop();
                if let Some(outcome) = engines[i].advance(&mut self.systems[i], Some(horizon))? {
                    ep.complete(i, outcome);
                }
                ep.rekey(&engines[i], i);
            } else if fault == Some(horizon) {
                let FaultEvent { at, kind } = ep.faults.pop_front().expect("peeked above");
                // A fail of a dead machine or a recovery of a live one
                // (`FaultSpec::validate` allows both) folds and does
                // nothing else.
                let live = match kind {
                    FaultEventKind::Fail(i) => ep.alive[i],
                    FaultEventKind::Recover(i) => !ep.alive[i],
                    FaultEventKind::DegradeStart(_) | FaultEventKind::DegradeEnd(_) => true,
                };
                ep.log.emit(FleetEvent::Fault(kind, at, live));
                match kind {
                    _ if !live => {}
                    FaultEventKind::Fail(i) => ep.fail(
                        &self.spec,
                        &self.tenants,
                        &mut engines,
                        &mut self.systems,
                        i,
                        at,
                    ),
                    FaultEventKind::Recover(i) => ep.recover(i, at),
                    FaultEventKind::DegradeStart(d) => ep.degrade(d, true),
                    FaultEventKind::DegradeEnd(d) => ep.degrade(d, false),
                }
            } else if arrival == Some(horizon) {
                let spec = pending.pop_front().expect("peeked above");
                let index = cursor;
                cursor += 1;
                ep.route(&self.spec, &self.tenants, &mut engines, spec, index);
            } else {
                let Reverse(r) = ep.reroutes.pop().expect("the horizon is a re-placement");
                ep.replace(&self.spec, &mut engines, r);
            }
        }
        drain(&mut ep, &mut engines, &mut self.systems)?;
        debug_assert!(ep.reductions.is_empty(), "unfinished reductions");
        debug_assert!(ep.reroutes.is_empty(), "unplaced re-routes");

        let mut retired = std::mem::take(&mut ep.retired);
        let machine_reports: Vec<MachineReport> = engines
            .into_iter()
            .enumerate()
            .zip(&self.systems)
            .zip(&self.spec.machines)
            .map(|(((i, engine), system), mspec)| {
                let mut incs = std::mem::take(&mut retired[i]);
                incs.push(engine.finish(system));
                MachineReport {
                    name: mspec.name.clone(),
                    nodes: mspec.system.nodes,
                    incarnations: incs.len() as u32,
                    serve: merge_serve_reports(incs),
                }
            })
            .collect();
        let makespan = machine_reports
            .iter()
            .map(|m| SimTime::ZERO + m.serve.makespan)
            .fold(ep.last_finish, SimTime::max);
        let (fp, fault_fp) = ep.log.finish(&machine_reports, makespan);

        // Availability: alive machine-time over makespan × fleet size,
        // open downtime intervals (no recovery) clipped at the makespan.
        let span = makespan.since(SimTime::ZERO);
        let mut down_total: u128 = 0;
        for md in &ep.downs {
            for &(start, end) in md {
                let e = end.map_or(makespan, |t| t.max(SimTime::ZERO).min(makespan));
                let s = start.min(makespan);
                down_total += u128::from(e.saturating_since(s).as_fs());
            }
        }
        let availability = if span.is_zero() {
            1.0
        } else {
            let capacity = u128::from(span.as_fs()) * machines as u128;
            (1.0 - down_total as f64 / capacity as f64).clamp(0.0, 1.0)
        };
        let (rl_max, rl_mean) = if ep.recovery_latencies.is_empty() {
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let max = ep
                .recovery_latencies
                .iter()
                .copied()
                .fold(SimDuration::ZERO, SimDuration::max);
            let sum: u64 = ep.recovery_latencies.iter().map(|d| d.as_fs()).sum();
            (
                max,
                SimDuration::from_fs(sum / ep.recovery_latencies.len() as u64),
            )
        };
        let jobs_lost = ep.records.len() as u64 - ep.jobs_completed - ep.jobs_rejected;
        let mut latency_hist = Log2Histogram::new();
        for rec in &ep.records {
            if let Some(lat) = rec.latency() {
                latency_hist.record(lat.as_fs() / maco_sim::time::FS_PER_NS);
            }
        }
        let fault = FaultReport {
            failures: ep.failures,
            recoveries: ep.recoveries,
            jobs_replaced: ep.jobs_replaced,
            replaced_bytes: ep.replaced_bytes,
            jobs_lost,
            availability,
            recovery_latency_max: rl_max,
            recovery_latency_mean: rl_mean,
            goodput_flops: ep.goodput_flops,
            deadline_misses: ep.deadline_misses,
            scale_events: ep.scale_events,
            peak_active: ep.peak_active,
            fingerprint: fault_fp,
        };
        let icn_fp = interconnect_fingerprint(&ep.records, &ep.machine_bytes);
        Ok(ClusterReport {
            jobs: ep.records,
            jobs_completed: ep.jobs_completed,
            jobs_rejected: ep.jobs_rejected,
            makespan: span,
            total_flops: machine_reports.iter().map(|m| m.serve.total_flops).sum(),
            interconnect_bytes: ep.icn.bandwidth().bytes_transferred(),
            interconnect_busy: ep.icn.bandwidth().busy_time(),
            machine_interconnect_bytes: ep.machine_bytes,
            interconnect_fingerprint: icn_fp,
            migrations: ep.migrations,
            splits: ep.splits,
            machines: machine_reports,
            fault,
            diagnostics: ep.diagnostics,
            latency_hist,
            fingerprint: fp,
        })
    }

    /// Pre-flight admission-capacity check: every machine must be able to
    /// hold the worst-case routed backlog. Placement is load-dependent, so
    /// LeastLoaded and spilling TenantAffinity can in principle send *all*
    /// jobs to one machine; each admissible job therefore counts one
    /// queue slot. A healthy split puts at most one part on each machine,
    /// but a fail-stop re-places a dead machine's parts onto survivors
    /// that may already hold their siblings — so when the fault schedule
    /// has a machine fail-stop, each split-eligible job (one layer, at
    /// least `split.min_flops`) counts `min(split.max_ways, machines)`
    /// slots. (A re-placed remainder otherwise occupies one machine at a
    /// time.) An undersized queue would surface as a machine-level
    /// admission rejection deep inside the episode — a routed job that
    /// never completes — and here it is an early, attributable error
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics naming the first offending machine.
    fn validate_capacity(&self, specs: &[JobSpec]) {
        let split = self.spec.split;
        let part_slots = if self.spec.faults.machine_faults.is_empty() {
            1
        } else {
            split.max_ways.min(self.spec.machines.len())
        };
        let backlog: usize = specs
            .iter()
            .filter(|s| validate_spec(self.tenants.len(), s).is_ok())
            .map(|s| {
                if s.layers.len() == 1 && s.flops() >= split.min_flops {
                    part_slots
                } else {
                    1
                }
            })
            .sum();
        for (i, m) in self.spec.machines.iter().enumerate() {
            assert!(
                m.serve.queue_capacity >= backlog,
                "machine {i} ({}) queue_capacity {} cannot hold the episode's worst-case \
                 routed backlog of {backlog} jobs; raise ServeConfig::queue_capacity on \
                 that machine or shard the trace",
                m.name,
                m.serve.queue_capacity,
            );
        }
    }
}

/// The drain phase of a fleet episode: runs every machine's remaining
/// events to completion once no fleet event is left.
type DrainFn = fn(&mut FleetEpisode, &mut [Engine], &mut [MacoSystem]) -> Result<(), ClusterError>;

/// One advance of a draining machine that the fleet must see: it retired
/// a job, recorded trace records or failed.
struct Logged {
    /// The running maximum of the machine's [`Engine::next_event`] over
    /// its drain so far, this advance included. The serial merge pops
    /// cursors in `(time, machine)` order; a cursor that fell below the
    /// time its machine was last popped at would be the heap minimum and
    /// pop at once, so in both cases the merge orders advances by
    /// `(key, machine, advance)`.
    key: SimTime,
    machine: usize,
    /// The advance's index within the machine's drain.
    advance: u64,
    records: Vec<TraceRecord>,
    outcome: Result<Option<JobOutcome>, ClusterError>,
}

/// Runs machine `machine`'s engine to completion on `system` with no
/// external horizon, taking the records of each advance out of `buffer`
/// (the engine's sink). Stops after the first failing advance.
fn drain_machine(
    machine: usize,
    engine: &mut Engine,
    system: &mut MacoSystem,
    buffer: &TraceSink,
) -> Vec<Logged> {
    let mut log = Vec::new();
    let mut key = SimTime::ZERO;
    let mut advance = 0;
    while let Some(t) = engine.next_event() {
        key = key.max(t);
        let outcome = engine.advance(system, None);
        let records = buffer.drain().map_or_else(Vec::new, |trace| trace.records);
        let failed = outcome.is_err();
        if !records.is_empty() || !matches!(outcome, Ok(None)) {
            log.push(Logged {
                key,
                machine,
                advance,
                records,
                outcome,
            });
        }
        if failed {
            break;
        }
        advance += 1;
    }
    log
}

/// The drain phase: with no fault event, arrival or re-placement left,
/// [`FleetEpisode::complete`] only folds outcomes into router state and
/// never pushes into an engine, so the machines are independent. Each
/// busy machine drains on its own scoped thread into a private trace
/// buffer (the calling thread drains the first itself). After the join,
/// the logged advances are replayed in `(key, machine, advance)` order —
/// records into the shared sink, then the completion — which is the
/// order the serial cursor-heap merge processes them in. A failing
/// advance ends the replay with its error; a panicking thread's panic is
/// re-raised here.
fn drain(
    ep: &mut FleetEpisode,
    engines: &mut [Engine],
    systems: &mut [MacoSystem],
) -> Result<(), ClusterError> {
    let mut busy = engines
        .iter_mut()
        .zip(systems.iter_mut())
        .enumerate()
        .filter(|(_, (engine, _))| engine.next_event().is_some())
        .map(|(i, (engine, system))| {
            let buffer = ep.log.buffer();
            engine.set_trace(buffer.clone(), i as u32);
            (i, engine, system, buffer)
        });
    let mut log = thread::scope(|scope| {
        let first = busy.next();
        let spawned: Vec<_> = busy
            .map(|(i, engine, system, buffer)| {
                scope.spawn(move || drain_machine(i, engine, system, &buffer))
            })
            .collect();
        let mut log = first.map_or_else(Vec::new, |(i, engine, system, buffer)| {
            drain_machine(i, engine, system, &buffer)
        });
        for handle in spawned {
            match handle.join() {
                Ok(part) => log.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        log
    });
    for (i, engine) in engines.iter_mut().enumerate() {
        ep.log.attach(engine, i);
    }
    log.sort_unstable_by_key(|l| (l.key, l.machine, l.advance));
    for l in log {
        ep.log.replay(&l.records);
        if let Some(outcome) = l.outcome? {
            ep.complete(l.machine, outcome);
        }
    }
    Ok(())
}

/// An unfinished data-parallel reduction barrier.
struct Reduction {
    parts_left: usize,
    /// Latest part completion so far.
    end: SimTime,
    /// All-reduce bytes charged when the barrier clears (zero = m-split).
    reduce_bytes: u64,
}

/// One scheduled fault event on the global timeline. Built once from the
/// [`crate::spec::FaultSpec`], stably sorted by time (spec order breaks
/// ties) and drained front-to-back by the merge loop.
struct FaultEvent {
    at: SimTime,
    kind: FaultEventKind,
}

/// A pending re-placement: an evicted remainder (or a deferred arrival
/// that found no eligible machine) waiting for its effective re-arrival
/// instant on the global timeline. Ordered by `(at, seq)` so equal-time
/// re-placements keep eviction order.
struct ReRoute {
    at: SimTime,
    seq: u64,
    rec: usize,
    spec: JobSpec,
    /// `(source machine, wire bytes)` of the eviction state transfer
    /// that produced this re-route — attributed (link-weighted) once the
    /// destination is known in `replace()`. `None` for deferred
    /// arrivals, which moved no state.
    xfer: Option<(usize, u64)>,
}

impl PartialEq for ReRoute {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for ReRoute {}
impl PartialOrd for ReRoute {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReRoute {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Wire bytes of moving `job`'s state between machines: the migration
/// context plus every layer's weight operand (`k × n` elements).
fn state_bytes(spec: &ClusterSpec, job: &JobSpec) -> u64 {
    let weights: u64 = job
        .layers
        .iter()
        .map(|l| l.k * l.n * l.precision.bytes())
        .sum();
    spec.interconnect.migration_bytes + weights
}

/// Ranks `machines` fleet positions along a generalized Hilbert curve
/// over the near-square grid `cols × rows` with `cols = ⌈√machines⌉`
/// (machine `m` at grid cell `(m % cols, m / cols)` — rack/row order).
/// Returns `(rank, order, cols)`: `rank[m]` is machine `m`'s curve
/// position, `order[r]` the machine at curve position `r`, and `cols`
/// the grid width (the byte metrics count link crossings on this same
/// grid). Cells past the last machine are skipped, so rank and order
/// are permutations of `0..machines`.
fn fleet_curve(machines: usize) -> (Vec<usize>, Vec<usize>, usize) {
    let mut cols: usize = 1;
    while cols * cols < machines {
        cols += 1;
    }
    let rows = machines.div_ceil(cols.max(1)).max(1);
    let (Ok(c), Ok(r)) = (u8::try_from(cols), u8::try_from(rows)) else {
        // Fleets beyond a 255-wide grid keep identity order.
        let id: Vec<usize> = (0..machines).collect();
        return (id.clone(), id, cols);
    };
    let mut rank = vec![0usize; machines];
    let mut order = Vec::with_capacity(machines);
    for cell in hilbert_order(MeshShape::new(c, r)) {
        let m = usize::from(cell.y) * cols + usize::from(cell.x);
        if m < machines {
            rank[m] = order.len();
            order.push(m);
        }
    }
    (rank, order, cols)
}

/// Mutable router state of one fleet episode.
struct FleetEpisode {
    icn: LatencyBandwidthResource,
    /// Per machine: routed-minus-completed GEMM flops.
    outstanding: Vec<u64>,
    /// Per tenant: the machine its latest job ran on.
    tenant_home: Vec<Option<usize>>,
    /// Round-robin cursor.
    rr: usize,
    /// Per machine: engine push ticket → fleet record (reset on fail-stop
    /// together with the engine incarnation, whose tickets restart at 0).
    routed: Vec<Vec<usize>>,
    /// Lazy-deletion min-heap of machine cursors `(next event, machine)`
    /// driving the global merge; see [`FleetEpisode::rekey`].
    cursors: BinaryHeap<Reverse<(SimTime, usize)>>,
    records: Vec<JobRecord>,
    /// Per record: the job's relative deadline (parallel to `records`),
    /// for fleet-level SLO/goodput accounting.
    deadlines: Vec<Option<SimDuration>>,
    /// Record index → pending reduction barrier, for split jobs.
    reductions: FxHashMap<usize, Reduction>,
    jobs_completed: u64,
    jobs_rejected: u64,
    migrations: u64,
    splits: u64,
    /// Per machine: attributed interconnect traffic in byte·link
    /// crossings over the fleet grid, charged to the transfer's hub —
    /// the old home for a migration, the scatter / all-reduce anchor,
    /// the failed machine for an eviction. Sums to the per-job totals
    /// in `records`.
    machine_bytes: Vec<u64>,
    /// Per machine: its rank along the fleet space-filling curve (a
    /// generalized Hilbert walk of the near-square machine grid). Pure
    /// precomputed data, consulted only by [`Placement::SfcLocality`].
    sfc_rank: Vec<usize>,
    /// Curve position → machine (inverse permutation of `sfc_rank`).
    sfc_order: Vec<usize>,
    /// Width of the near-square machine grid behind `sfc_rank` — also
    /// the topology the byte metrics count link crossings on.
    grid_cols: usize,
    last_finish: SimTime,
    /// The schedule and fault fingerprints and the trace sink: every
    /// fleet event is folded and recorded through [`FleetLog::emit`].
    log: FleetLog,

    // ---- failure / elasticity state ----
    /// Scheduled fault events, time-sorted, drained front-to-back.
    faults: VecDeque<FaultEvent>,
    /// The spec's degradation windows (by index).
    degradations: Vec<DegradationWindow>,
    /// Which degradation windows are currently open.
    win_active: Vec<bool>,
    /// Product of open windows' latency multipliers (1 = pristine).
    lat_mult: u64,
    /// Product of open windows' bandwidth divisors (1 = pristine).
    bw_div: u64,
    /// Per machine: not currently failed.
    alive: Vec<bool>,
    /// Per machine: in the autoscaler's active placement set (all true
    /// without an autoscaler).
    active: Vec<bool>,
    /// Per machine: serve reports of retired (failed) incarnations.
    retired: Vec<Vec<ServeReport>>,
    /// Pending re-placements, ordered `(effective re-arrival, seq)`.
    reroutes: BinaryHeap<Reverse<ReRoute>>,
    reroute_seq: u64,
    /// Per machine: downtime intervals `(failed_at, recovered_at)`;
    /// `None` end = still down at episode end (clipped to makespan).
    downs: Vec<Vec<(SimTime, Option<SimTime>)>>,
    failures: u64,
    recoveries: u64,
    jobs_replaced: u64,
    replaced_bytes: u64,
    /// Per processed fail-stop: fail instant → last evicted remainder's
    /// effective re-arrival (zero when nothing was evicted).
    recovery_latencies: Vec<SimDuration>,
    goodput_flops: u64,
    deadline_misses: u64,
    scaler: Option<AutoscalerSpec>,
    /// Sliding window of routed-arrival instants (autoscaler only).
    win_arrivals: VecDeque<SimTime>,
    /// Sliding window of fleet-level deadline-miss instants.
    win_misses: VecDeque<SimTime>,
    /// Last autoscaler action (cooldown gate; capacity replacement after
    /// a failure bypasses it).
    last_scale: Option<SimTime>,
    scale_events: Vec<ScaleEvent>,
    peak_active: usize,
    diagnostics: ClusterDiagnostics,
}

impl FleetEpisode {
    /// Fresh episode state for one `run_jobs` call: compiles the fault
    /// schedule into a time-sorted event queue and initialises the
    /// autoscaler's active set (`min_machines` actives; the rest standby).
    /// Fleet events are recorded on `sink`.
    fn new(spec: &ClusterSpec, tenants: usize, sink: TraceSink) -> Self {
        let machines = spec.machines.len();
        let mut events: Vec<FaultEvent> = Vec::new();
        for f in &spec.faults.machine_faults {
            events.push(FaultEvent {
                at: f.at,
                kind: FaultEventKind::Fail(f.machine),
            });
            if let Some(r) = f.recover_at {
                events.push(FaultEvent {
                    at: r,
                    kind: FaultEventKind::Recover(f.machine),
                });
            }
        }
        for (d, w) in spec.faults.degradations.iter().enumerate() {
            events.push(FaultEvent {
                at: w.from,
                kind: FaultEventKind::DegradeStart(d),
            });
            events.push(FaultEvent {
                at: w.until,
                kind: FaultEventKind::DegradeEnd(d),
            });
        }
        events.sort_by_key(|e| e.at);
        let (sfc_rank, sfc_order, grid_cols) = fleet_curve(machines);
        let scaler = spec.autoscaler;
        let active: Vec<bool> = (0..machines)
            .map(|m| scaler.is_none_or(|a| m < a.min_machines))
            .collect();
        let active_n = active.iter().filter(|&&a| a).count();
        FleetEpisode {
            icn: LatencyBandwidthResource::new(spec.interconnect.latency, spec.interconnect.gbps),
            outstanding: vec![0; machines],
            tenant_home: vec![None; tenants],
            rr: 0,
            routed: vec![Vec::new(); machines],
            cursors: BinaryHeap::new(),
            records: Vec::new(),
            deadlines: Vec::new(),
            reductions: FxHashMap::default(),
            jobs_completed: 0,
            jobs_rejected: 0,
            migrations: 0,
            splits: 0,
            machine_bytes: vec![0; machines],
            sfc_rank,
            sfc_order,
            grid_cols,
            last_finish: SimTime::ZERO,
            log: FleetLog::new(sink),
            faults: VecDeque::from(events),
            degradations: spec.faults.degradations.clone(),
            win_active: vec![false; spec.faults.degradations.len()],
            lat_mult: 1,
            bw_div: 1,
            alive: vec![true; machines],
            active,
            retired: vec![Vec::new(); machines],
            reroutes: BinaryHeap::new(),
            reroute_seq: 0,
            downs: vec![Vec::new(); machines],
            failures: 0,
            recoveries: 0,
            jobs_replaced: 0,
            replaced_bytes: 0,
            recovery_latencies: Vec::new(),
            goodput_flops: 0,
            deadline_misses: 0,
            scaler,
            win_arrivals: VecDeque::new(),
            win_misses: VecDeque::new(),
            last_scale: None,
            scale_events: Vec::new(),
            peak_active: active_n,
            diagnostics: ClusterDiagnostics::default(),
        }
    }

    /// A machine can receive new placements iff it is alive and in the
    /// active set.
    fn eligible(&self, m: usize) -> bool {
        self.alive[m] && self.active[m]
    }

    fn eligible_count(&self) -> usize {
        (0..self.alive.len()).filter(|&m| self.eligible(m)).count()
    }

    /// Earliest still-scheduled recovery — the wake instant for work that
    /// finds every machine dead.
    fn next_recovery(&self) -> Option<SimTime> {
        self.faults.iter().find_map(|e| match e.kind {
            FaultEventKind::Recover(_) => Some(e.at),
            _ => None,
        })
    }

    /// Appends a record and its (parallel) deadline entry.
    fn push_record(&mut self, record: JobRecord, deadline: Option<SimDuration>) {
        self.records.push(record);
        self.deadlines.push(deadline);
    }

    /// One interconnect transfer under the current degradation state:
    /// pristine fabric takes the exact pre-fault path; open windows
    /// stretch serialisation by the bandwidth divisor and add the extra
    /// latency multiples on top of the pipelined base latency.
    fn icn_access(&mut self, at: SimTime, bytes: u64) -> SimTime {
        if self.lat_mult == 1 && self.bw_div == 1 {
            self.icn.access(at, bytes)
        } else {
            let service = self.icn.service_time(bytes) * self.bw_div;
            self.icn.access_train(at, service, bytes) + self.icn.latency() * (self.lat_mult - 1)
        }
    }

    /// Fleet links a transfer between machines `a` and `b` crosses: the
    /// Manhattan distance on the near-square machine grid (`grid_cols`
    /// wide, machine `m` at `(m % cols, m / cols)`) — the same grid the
    /// SFC walks. The byte *metrics* weight every transfer by this
    /// factor; the shared-bus *timing* model ([`FleetEpisode::icn_access`])
    /// stays distance-free, so attribution never moves an event.
    fn fleet_hops(&self, a: usize, b: usize) -> u64 {
        let c = self.grid_cols;
        ((a % c).abs_diff(b % c) + (a / c).abs_diff(b / c)) as u64
    }

    /// Attributes `link_bytes` byte·link-crossings to job record `rec`
    /// and its hub machine. Pure bookkeeping: no event moves, so every
    /// pre-existing fingerprint is unchanged.
    fn attribute(&mut self, rec: usize, hub: usize, link_bytes: u64) {
        self.records[rec].interconnect_bytes += link_bytes;
        self.machine_bytes[hub] += link_bytes;
    }

    /// Link-crossing bytes of a `total`-byte fan (split scatter or
    /// all-reduce) between `machines[0]` — the hub — and the remotes:
    /// the payload is an even per-remote share (remainder spread over
    /// the first remotes), each share weighted by the links between the
    /// hub and that remote. Compact fan-outs therefore cross fewer
    /// links for the same wire bytes.
    fn fan_link_bytes(&self, total: u64, machines: &[usize]) -> u64 {
        let Some((&hub, remotes)) = machines.split_first() else {
            return 0;
        };
        if remotes.is_empty() {
            return 0;
        }
        let n = remotes.len() as u64;
        let (base, rem) = (total / n, total % n);
        remotes
            .iter()
            .enumerate()
            .map(|(j, &m)| (base + u64::from((j as u64) < rem)) * self.fleet_hops(hub, m))
            .sum()
    }

    /// Distance between two machines along the fleet curve (consulted by
    /// [`Placement::SfcLocality`] only).
    fn curve_dist(&self, a: usize, b: usize) -> usize {
        self.sfc_rank[a].abs_diff(self.sfc_rank[b])
    }

    /// The SFC policy's home machine for `tenant`: its current home if
    /// that machine can still take work — the home *follows* the weights,
    /// so a spilled tenant is not dragged back just to migrate out again —
    /// else the tenant's static curve slot.
    fn sfc_home(&self, tenant: usize, machines: usize) -> usize {
        match self.tenant_home[tenant] {
            Some(h) if self.eligible(h) => h,
            _ => self.sfc_order[tenant % machines],
        }
    }

    /// Opens/closes degradation window `d` and recomputes the combined
    /// multipliers (products over open windows, saturating).
    fn degrade(&mut self, d: usize, start: bool) {
        self.win_active[d] = start;
        let mut lat: u64 = 1;
        let mut bw: u64 = 1;
        for (w, &on) in self.degradations.iter().zip(&self.win_active) {
            if on {
                lat = lat.saturating_mul(u64::from(w.latency_mult));
                bw = bw.saturating_mul(u64::from(w.bandwidth_div));
            }
        }
        self.lat_mult = lat;
        self.bw_div = bw;
    }

    /// Fail-stop of live machine `i` at `at`: evict everything un-finished,
    /// retire the engine incarnation (its report is merged into the
    /// machine's final view), cold-restart system and ticket map, and queue
    /// every evicted remainder for re-placement after charging its state
    /// transfer through the interconnect. Completions the engine already
    /// committed (even ones timestamped past `at`) stand.
    fn fail(
        &mut self,
        cspec: &ClusterSpec,
        tenants: &[Tenant],
        engines: &mut [Engine],
        systems: &mut [MacoSystem],
        i: usize,
        at: SimTime,
    ) {
        self.alive[i] = false;
        self.downs[i].push((at, None));
        self.failures += 1;
        let was_active = self.active[i];

        let evicted = engines[i].evict_all(at);
        let mspec = &cspec.machines[i];
        let old = std::mem::replace(
            &mut engines[i],
            Engine::new(mspec.system.nodes, tenants, &mspec.serve),
        );
        // The fresh incarnation records onto the same shared sink/track as
        // the retired one — trace coverage survives the fail-stop.
        self.log.attach(&mut engines[i], i);
        self.retired[i].push(old.finish(&systems[i]));
        systems[i] = MacoSystem::new(mspec.system.clone());
        systems[i].reset_shared_resources();
        // Every evicted job (never-admitted arrivals included) echoes its
        // push ticket; the fresh incarnation's tickets restart at 0.
        let routed = std::mem::take(&mut self.routed[i]);
        self.outstanding[i] = 0;

        let mut latest = at;
        for ej in evicted {
            let rec = routed[ej.ticket as usize];
            let bytes = state_bytes(cspec, &ej.spec);
            // State transfer is charged exactly once, *here* at eviction;
            // `replace()` only *attributes* it (the link weight needs the
            // destination) and adds no wire bytes — deferral costs
            // waiting, not bytes (differential-tested against a
            // hand-computed total in `two_kill_storm_bytes_match_the_
            // hand_computed_total`).
            let effective = self.icn_access(at, bytes);
            self.replaced_bytes += bytes;
            self.jobs_replaced += 1;
            self.records[rec].requeues += 1;
            self.log.emit(FleetEvent::Evict {
                rec,
                completed_layers: ej.completed_layers,
                effective,
            });
            self.reroutes.push(Reverse(ReRoute {
                at: effective,
                seq: self.reroute_seq,
                rec,
                spec: ej.spec,
                xfer: Some((i, bytes)),
            }));
            self.reroute_seq += 1;
            latest = latest.max(effective);
        }
        self.recovery_latencies.push(latest.since(at));

        // An autoscaled fleet replaces lost *capacity* immediately: the
        // failed active machine's slot goes to the lowest-index alive
        // standby, bypassing the cooldown (this is repair, not demand).
        if self.scaler.is_some() && was_active {
            self.active[i] = false;
            if let Some(s) = (0..self.alive.len()).find(|&m| self.alive[m] && !self.active[m]) {
                self.active[s] = true;
                self.scale(at, true, s);
            }
        }
    }

    /// Recovery of dead machine `i` at `at`: the machine rejoins the fleet as
    /// a cold, empty incarnation (its fresh engine was installed at the
    /// fail-stop). Under an autoscaler it rejoins as *standby* — unless
    /// the fleet is otherwise empty, in which case it is force-activated
    /// so deferred work can make progress.
    fn recover(&mut self, i: usize, at: SimTime) {
        self.alive[i] = true;
        if let Some(last) = self.downs[i].last_mut() {
            last.1 = Some(at);
        }
        self.recoveries += 1;
        if self.scaler.is_some() {
            if self.eligible_count() == 0 {
                self.active[i] = true;
                self.scale(at, true, i);
            } else {
                self.active[i] = false;
            }
        }
    }

    /// Records one autoscaler action on machine `m` (activation or
    /// drain), folding it into the fault fingerprint.
    fn scale(&mut self, at: SimTime, grew: bool, m: usize) {
        let after = self.eligible_count();
        let event = ScaleEvent {
            at,
            grew,
            active_after: after,
        };
        self.log.emit(FleetEvent::Scale(&event, m));
        self.scale_events.push(event);
        self.peak_active = self.peak_active.max(after);
    }

    /// One autoscaler decision at a routed arrival: slide the windows,
    /// then grow (arrival rate above `grow_per_machine` per active
    /// machine, or misses over budget) or shrink (no misses and rate
    /// comfortably below `shrink_per_machine` per remaining machine),
    /// subject to the cooldown. Draining only removes the machine from
    /// the placement set — its queued work finishes where it is.
    fn autoscale(&mut self, t: SimTime) {
        let Some(a) = self.scaler else { return };
        self.win_arrivals.push_back(t);
        let cutoff = if t.since(SimTime::ZERO) > a.window {
            t - a.window
        } else {
            SimTime::ZERO
        };
        while self.win_arrivals.front().is_some_and(|&x| x < cutoff) {
            self.win_arrivals.pop_front();
        }
        while self.win_misses.front().is_some_and(|&x| x < cutoff) {
            self.win_misses.pop_front();
        }
        if let Some(last) = self.last_scale {
            if t.since(last) < a.cooldown {
                return;
            }
        }
        let active_n = self.eligible_count() as u64;
        let rate = self.win_arrivals.len() as u64;
        let misses = self.win_misses.len() as u64;
        if rate > u64::from(a.grow_per_machine) * active_n || misses > u64::from(a.miss_budget) {
            if let Some(s) = (0..self.alive.len()).find(|&m| self.alive[m] && !self.active[m]) {
                self.active[s] = true;
                self.last_scale = Some(t);
                self.scale(t, true, s);
            }
        } else if active_n > a.min_machines as u64
            && misses == 0
            && rate < u64::from(a.shrink_per_machine) * (active_n - 1)
        {
            if let Some(s) = (0..self.alive.len())
                .rev()
                .find(|&m| self.alive[m] && self.active[m])
            {
                self.active[s] = false;
                self.last_scale = Some(t);
                self.scale(t, false, s);
            }
        }
    }

    /// Routes one arrival: validates, takes the autoscaler decision,
    /// picks machine(s) among the eligible set, charges the
    /// interconnect, pushes the job (or its parts) into the machine
    /// engine(s). With zero eligible machines the arrival is deferred to
    /// the next scheduled recovery.
    fn route(
        &mut self,
        spec: &ClusterSpec,
        tenants: &[Tenant],
        engines: &mut [Engine],
        mut job: JobSpec,
        index: usize,
    ) {
        let machines = engines.len();
        if validate_spec(tenants.len(), &job).is_err() {
            self.jobs_rejected += 1;
            let record = JobRecord::new(index, &job);
            self.log.emit(FleetEvent::Reject(&record));
            self.push_record(record, job.deadline);
            return;
        }
        let flops = job.flops();
        self.autoscale(job.arrival);

        // Every machine dead: defer to the next scheduled recovery (the
        // fault-first tie order guarantees the recovery is processed
        // before the deferred re-route at the same instant).
        let elig_n = self.eligible_count();
        if elig_n == 0 {
            let wake = self
                .next_recovery()
                .expect("every machine is dead with no scheduled recovery: the fleet cannot serve this arrival");
            let rec = self.records.len();
            let record = JobRecord::new(index, &job);
            self.log.emit(FleetEvent::Defer(&record));
            self.push_record(record, job.deadline);
            self.reroutes.push(Reverse(ReRoute {
                at: wake,
                seq: self.reroute_seq,
                rec,
                spec: job,
                xfer: None,
            }));
            self.reroute_seq += 1;
            return;
        }

        // Data-parallel split: single-layer jobs above the threshold fan
        // out across the least-loaded eligible machines; whole DNN
        // streams always stay machine-affine.
        let want_ways = spec.split.max_ways.min(elig_n);
        if job.layers.len() == 1 && flops >= spec.split.min_flops && want_ways >= 2 {
            let split = split_job(&job, spec.split.kind, want_ways);
            if split.parts.len() >= 2 {
                let mut order: Vec<usize> = (0..machines).filter(|&m| self.eligible(m)).collect();
                if spec.placement == Placement::SfcLocality {
                    // Curve-compact fan-out anchored on the tenant's home:
                    // the anchor stays `targets[0]` (so the home does not
                    // churn to the least-loaded machine and pay a
                    // migration on the tenant's next affine job) and the
                    // remaining parts pack along the curve.
                    let anchor = self.sfc_home(job.tenant, machines);
                    order.sort_by_key(|&m| (self.curve_dist(m, anchor), self.outstanding[m], m));
                } else {
                    order.sort_by_key(|&m| (self.outstanding[m], m));
                }
                let targets: Vec<usize> = order[..split.parts.len()].to_vec();
                // Link-weighted scatter traffic, attributed to the job
                // and its anchor machine (the hub the operands fan out
                // from): a curve-compact fan-out crosses fewer links for
                // the same wire bytes.
                let scatter_link = self.fan_link_bytes(split.scatter_bytes, &targets);
                let effective = if split.scatter_bytes > 0 {
                    self.machine_bytes[targets[0]] += scatter_link;
                    self.icn_access(job.arrival, split.scatter_bytes)
                } else {
                    job.arrival
                };
                if spec.placement == Placement::SfcLocality {
                    self.log.emit(FleetEvent::Place {
                        job: index,
                        at: effective,
                        machine: targets[0],
                    });
                }
                for (part, &m) in split.parts.into_iter().zip(&targets) {
                    // Built field by field: the part owns its single
                    // layer, so no clone of the parent layer stream.
                    let part_spec = JobSpec {
                        tenant: job.tenant,
                        layers: vec![part.task],
                        arrival: effective,
                        priority: job.priority,
                        deadline: job.deadline,
                        gang_width: job.gang_width,
                    };
                    self.push_job(engines, m, part_spec, index);
                }
                self.reductions.insert(
                    index,
                    Reduction {
                        parts_left: targets.len(),
                        end: SimTime::ZERO,
                        reduce_bytes: split.reduce_bytes,
                    },
                );
                self.splits += 1;
                // The split's primary machine becomes the tenant's home
                // (the scatter already priced the operand movement, so no
                // separate migration charge).
                self.tenant_home[job.tenant] = Some(targets[0]);
                let record = JobRecord {
                    effective_arrival: effective,
                    machines: targets,
                    split: Some(spec.split.kind),
                    interconnect_bytes: scatter_link,
                    ..JobRecord::new(index, &job)
                };
                self.log.emit(FleetEvent::Route(&record));
                self.push_record(record, job.deadline);
                return;
            }
        }

        // Machine-affine placement.
        let m = self.place(spec.placement, machines, job.tenant);
        if spec.placement == Placement::SfcLocality {
            self.log.emit(FleetEvent::Place {
                job: index,
                at: job.arrival,
                machine: m,
            });
        }
        let home = self.tenant_home[job.tenant];
        let migrated = home.is_some_and(|h| h != m);
        let mut link_bytes = 0;
        let effective = if migrated {
            // The tenant's context and this job's weights move over the
            // interconnect before the job can start on the new machine.
            // Attributed (link-weighted) to the job and the old home —
            // the hub the state streams off.
            self.migrations += 1;
            let bytes = state_bytes(spec, &job);
            let h = home.expect("migrated implies a previous home");
            link_bytes = bytes * self.fleet_hops(h, m);
            self.machine_bytes[h] += link_bytes;
            self.icn_access(job.arrival, bytes)
        } else {
            job.arrival
        };
        self.tenant_home[job.tenant] = Some(m);
        let record = JobRecord {
            effective_arrival: effective,
            machines: vec![m],
            migrated,
            interconnect_bytes: link_bytes,
            ..JobRecord::new(index, &job)
        };
        self.log.emit(FleetEvent::Route(&record));
        self.push_record(record, job.deadline);
        // The routed job moves into the machine engine whole — the layer
        // stream is never cloned on the routing path.
        job.arrival = effective;
        self.push_job(engines, m, job, index);
    }

    /// Re-places one evicted remainder (or deferred arrival) on an
    /// eligible machine. With none eligible it re-defers to the next
    /// scheduled recovery (state transfer was already charged at
    /// eviction — deferral costs waiting, not bytes).
    fn replace(&mut self, spec: &ClusterSpec, engines: &mut [Engine], r: ReRoute) {
        if self.eligible_count() == 0 {
            let wake = self
                .next_recovery()
                .expect("every machine is dead with no scheduled recovery: evicted work cannot be re-placed");
            self.reroutes.push(Reverse(ReRoute {
                at: wake.max(r.at),
                seq: self.reroute_seq,
                rec: r.rec,
                spec: r.spec,
                xfer: r.xfer,
            }));
            self.reroute_seq += 1;
            return;
        }
        let machines = engines.len();
        let m = self.place(spec.placement, machines, r.spec.tenant);
        if spec.placement == Placement::SfcLocality {
            self.log.emit(FleetEvent::Place {
                job: r.rec,
                at: r.at,
                machine: m,
            });
        }
        // The eviction's wire bytes were charged at fail(); now that the
        // destination is known, weight them by the links crossed and
        // attribute them to the job and the failed (hub) machine.
        if let Some((src, bytes)) = r.xfer {
            let link = bytes * self.fleet_hops(src, m);
            self.attribute(r.rec, src, link);
        }
        self.tenant_home[r.spec.tenant] = Some(m);
        let (rec, at, mut job) = (r.rec, r.at, r.spec);
        job.arrival = at;
        self.push_job(engines, m, job, rec);
        self.log.emit(FleetEvent::Replace {
            machine: m,
            rec,
            at,
            tenant: self.records[rec].tenant,
        });
        if self.records[rec].machines.is_empty() {
            // A deferred arrival is only now effectively admitted.
            self.records[rec].effective_arrival = at;
        }
        self.records[rec].machines.push(m);
    }

    /// Re-keys one machine in the global-merge cursor heap: pushes the
    /// machine's *current* next event. Called after every operation that
    /// can change a machine's event stream (an [`Engine::push`] during
    /// routing, an [`Engine::advance`]); superseded entries are left in
    /// the heap and discarded lazily when popped, so every machine with a
    /// pending event always has one current cursor and the heap top's
    /// first valid entry is the true fleet minimum.
    fn rekey(&mut self, engine: &Engine, machine: usize) {
        if let Some(t) = engine.next_event() {
            self.cursors.push(Reverse((t, machine)));
        }
    }

    /// The machine-affine placement decision: each policy runs over the
    /// eligible (alive and active) machines. With every machine eligible
    /// this is the plain fleet-wide policy — round-robin's `rr % n_elig`
    /// indexes the whole fleet, and the eligibility filters pass
    /// everything.
    fn place(&mut self, placement: Placement, machines: usize, tenant: usize) -> usize {
        let n_elig = self.eligible_count();
        debug_assert!(n_elig > 0, "place() with no eligible machines");
        let least_eligible = |ep: &Self| {
            (0..machines)
                .filter(|&m| ep.eligible(m))
                .min_by_key(|&m| (ep.outstanding[m], m))
                .expect("at least one eligible machine")
        };
        match placement {
            Placement::RoundRobin => {
                let k = self.rr % n_elig;
                self.rr += 1;
                (0..machines)
                    .filter(|&m| self.eligible(m))
                    .nth(k)
                    .expect("k < eligible count")
            }
            Placement::LeastLoaded => least_eligible(self),
            Placement::TenantAffinity { spill } => {
                let home = self.tenant_home[tenant].unwrap_or(tenant % machines);
                if !self.eligible(home) {
                    return least_eligible(self);
                }
                let total: u64 = self.outstanding.iter().sum();
                let overloaded = total > 0
                    && (self.outstanding[home] as u128 * machines as u128)
                        > (spill as u128 * total as u128);
                if overloaded {
                    least_eligible(self)
                } else {
                    home
                }
            }
            Placement::SfcLocality => {
                let home = self.sfc_home(tenant, machines);
                if !self.eligible(home) {
                    // The static curve slot is down/drained: snap to the
                    // curve-nearest eligible machine.
                    return (0..machines)
                        .filter(|&m| self.eligible(m))
                        .min_by_key(|&m| (self.curve_dist(m, home), self.outstanding[m], m))
                        .expect("at least one eligible machine");
                }
                if self.sfc_overloaded(home, machines) {
                    (0..machines)
                        .filter(|&m| self.eligible(m) && m != home)
                        .min_by_key(|&m| (self.curve_dist(m, home), self.outstanding[m], m))
                        .unwrap_or(home)
                } else {
                    home
                }
            }
        }
    }

    /// [`Placement::SfcLocality`]'s overload test: the home spills when
    /// its outstanding flops exceed twice the fleet average — the same
    /// cross-multiplied integer comparison `TenantAffinity { spill: 2 }`
    /// uses, so the two policies differ only in *where* they spill.
    fn sfc_overloaded(&self, home: usize, machines: usize) -> bool {
        let total: u64 = self.outstanding.iter().sum();
        total > 0 && (self.outstanding[home] as u128 * machines as u128) > (2 * total as u128)
    }

    /// Pushes one job (or split part) into machine `m`'s engine on behalf
    /// of fleet record `record`: charges it to the machine's outstanding
    /// load, remembers the record under the engine's push ticket and
    /// re-keys the machine's merge cursor.
    fn push_job(&mut self, engines: &mut [Engine], m: usize, job: JobSpec, record: usize) {
        self.outstanding[m] += job.flops();
        let ticket = engines[m].push(job);
        debug_assert_eq!(ticket as usize, self.routed[m].len(), "tickets are dense");
        self.routed[m].push(record);
        self.rekey(&engines[m], m);
    }

    /// Processes one machine-level job completion: load accounting, split
    /// reduction barriers, fleet-level completion records and SLO/goodput
    /// accounting.
    fn complete(&mut self, machine: usize, outcome: JobOutcome) {
        let rec = self.routed[machine][outcome.ticket as usize];
        // Outstanding flops are a strict routed-minus-completed ledger; a
        // completion exceeding what was routed means the accounting is
        // corrupt and every load-aware placement decision after it would
        // be skewed. Debug builds fail loudly; release builds clamp —
        // and *count* the clamp, so the desync is never silent.
        self.outstanding[machine] = match self.outstanding[machine].checked_sub(outcome.flops) {
            Some(rest) => rest,
            None => {
                self.diagnostics.outstanding_clamps += 1;
                if cfg!(debug_assertions) {
                    panic!(
                        "machine {machine} outstanding-flops underflow: completed {} flops \
                         with only {} outstanding — routed/completed accounting desynced",
                        outcome.flops, self.outstanding[machine]
                    );
                }
                0
            }
        };
        let finished = match self.reductions.get_mut(&rec) {
            Some(red) => {
                red.parts_left -= 1;
                red.end = red.end.max(outcome.finished_at);
                if red.parts_left > 0 {
                    self.log
                        .emit(FleetEvent::Complete(machine, outcome.finished_at, None));
                    return;
                }
                // Barrier cleared: the k-split pays its all-reduce on the
                // interconnect; the m-split completes with its last part.
                let red = self.reductions.remove(&rec).expect("present");
                if red.reduce_bytes > 0 {
                    // Link-weighted all-reduce traffic, attributed to
                    // the job and its anchor (first target) machine —
                    // the hub the partial results stream into.
                    let parts = std::mem::take(&mut self.records[rec].machines);
                    let link = self.fan_link_bytes(red.reduce_bytes, &parts);
                    self.records[rec].machines = parts;
                    self.attribute(rec, self.records[rec].machines[0], link);
                    self.icn_access(red.end, red.reduce_bytes)
                } else {
                    red.end
                }
            }
            None => outcome.finished_at,
        };
        self.records[rec].finished_at = Some(finished);
        let done = Some(&self.records[rec]);
        self.log
            .emit(FleetEvent::Complete(machine, outcome.finished_at, done));
        self.jobs_completed += 1;
        self.last_finish = self.last_finish.max(finished);
        // Fleet-level SLO accounting: a job is good throughput iff it
        // finished within its (router-arrival-relative) deadline;
        // deadline-less jobs always count.
        let missed =
            self.deadlines[rec].is_some_and(|d| finished.since(self.records[rec].arrival) > d);
        if missed {
            self.deadline_misses += 1;
            if self.scaler.is_some() {
                self.win_misses.push_back(finished);
            }
        } else {
            self.goodput_flops += self.records[rec].flops;
        }
    }
}

#[cfg(test)]
mod drain_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use maco_core::gemm_plus::GemmPlusTask;
    use maco_isa::Precision;
    use maco_serve::JobId;
    use maco_sim::{SimDuration, SplitMix64};

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn episode(machines: usize) -> FleetEpisode {
        FleetEpisode::new(&ClusterSpec::uniform(machines, 2), 4, TraceSink::off())
    }

    /// One episode whose machine 0 has routed a 100-flop job (record 0,
    /// ticket 0) but only 10 flops outstanding, plus that job's outcome.
    fn underflowing_episode() -> (FleetEpisode, JobOutcome) {
        let mut ep = episode(1);
        ep.outstanding[0] = 10;
        let job = JobSpec::single(0, GemmPlusTask::gemm(4, 4, 4, Precision::Fp32), t(0));
        let record = JobRecord {
            machines: vec![0],
            flops: 100,
            ..JobRecord::new(0, &job)
        };
        ep.push_record(record, None);
        ep.routed[0].push(0);
        let outcome = JobOutcome {
            job: JobId(0),
            ticket: 0,
            tenant: 0,
            arrival: t(0),
            finished_at: t(7),
            flops: 100,
        };
        (ep, outcome)
    }

    /// Regression: a completion reporting more flops than its machine has
    /// outstanding is a corrupted routed-minus-completed ledger and must
    /// fail loudly in debug builds — `saturating_sub` used to mask it and
    /// silently skew every load-aware placement decision afterwards.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outstanding-flops underflow")]
    fn outstanding_underflow_panics_in_debug() {
        let (mut ep, outcome) = underflowing_episode();
        ep.complete(0, outcome);
    }

    /// In release builds the same underflow clamps to zero *and* counts
    /// in the diagnostics, so every healthy-episode test can pin the
    /// counter at 0 and a desync can never pass silently.
    #[cfg(not(debug_assertions))]
    #[test]
    fn outstanding_underflow_clamps_and_counts_in_release() {
        let (mut ep, outcome) = underflowing_episode();
        ep.complete(0, outcome);
        assert_eq!(ep.outstanding[0], 0);
        assert_eq!(ep.diagnostics.outstanding_clamps, 1);
    }

    /// The fleet-wide placement policies as they ran before placement was
    /// restricted to the eligible set — the reference the single path
    /// must reproduce whenever every machine is eligible.
    fn full_fleet_place(
        ep: &mut FleetEpisode,
        placement: Placement,
        machines: usize,
        tenant: usize,
    ) -> usize {
        let least = |ep: &FleetEpisode| {
            (0..machines)
                .min_by_key(|&m| (ep.outstanding[m], m))
                .expect("at least one machine")
        };
        match placement {
            Placement::RoundRobin => {
                let m = ep.rr % machines;
                ep.rr += 1;
                m
            }
            Placement::LeastLoaded => least(ep),
            Placement::TenantAffinity { spill } => {
                let home = ep.tenant_home[tenant].unwrap_or(tenant % machines);
                let total: u64 = ep.outstanding.iter().sum();
                let overloaded = total > 0
                    && (ep.outstanding[home] as u128 * machines as u128)
                        > (spill as u128 * total as u128);
                if overloaded {
                    least(ep)
                } else {
                    home
                }
            }
            Placement::SfcLocality => {
                let home = ep.sfc_home(tenant, machines);
                if ep.sfc_overloaded(home, machines) {
                    (0..machines)
                        .filter(|&m| m != home)
                        .min_by_key(|&m| (ep.curve_dist(m, home), ep.outstanding[m], m))
                        .unwrap_or(home)
                } else {
                    home
                }
            }
        }
    }

    /// With every machine eligible, `place()` picks the same machine and
    /// advances the round-robin cursor exactly as the fleet-wide
    /// reference does, for every policy over random loads, tenant homes
    /// and cursor positions.
    #[test]
    fn single_placement_path_matches_the_full_fleet_reference() {
        let policies = [
            Placement::RoundRobin,
            Placement::LeastLoaded,
            Placement::TenantAffinity { spill: 2 },
            Placement::SfcLocality,
        ];
        let mut rng = SplitMix64::new(0x9E37);
        for case in 0..2_000 {
            let machines = 1 + rng.next_below(9) as usize;
            let mut ep = episode(machines);
            for load in &mut ep.outstanding {
                // Mostly small loads, so ties and zero totals both occur.
                *load = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(4),
                    _ => rng.next_below(1 << 40),
                };
            }
            for home in &mut ep.tenant_home {
                *home = match rng.next_below(machines as u64 + 1) {
                    0 => None,
                    h => Some(h as usize - 1),
                };
            }
            ep.rr = rng.next_below(1 << 20) as usize;
            let tenant = rng.next_below(ep.tenant_home.len() as u64) as usize;
            for placement in policies {
                let mut reference = episode(machines);
                reference.outstanding.clone_from(&ep.outstanding);
                reference.tenant_home.clone_from(&ep.tenant_home);
                reference.rr = ep.rr;
                let want = full_fleet_place(&mut reference, placement, machines, tenant);
                let got = ep.place(placement, machines, tenant);
                assert_eq!(
                    got, want,
                    "case {case}: {placement:?} on {machines} machines"
                );
                assert_eq!(ep.rr, reference.rr, "case {case}: {placement:?} cursor");
            }
        }
    }
}
