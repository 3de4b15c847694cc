//! The engine's events: the one place where each job-lifecycle event's
//! fingerprint words and trace record are defined.
//!
//! [`EngineLog::emit`] folds an event into the schedule fingerprint and
//! writes its [`maco_telemetry::TraceRecord`]. The fingerprint and the
//! sink are private to this module, so no other code can fold or record
//! an engine event by hand.

use maco_sim::{fold_fingerprint, SimTime};
use maco_telemetry::{TraceSink, SCHED_ROW};

use crate::report::NodeLease;

/// One engine event, as [`EngineLog::emit`] folds and records it. A job
/// instant carries `(job, tenant, at)`, `job` being the machine-local id
/// (for an arrival, a reject or an eviction before admission, the id the
/// job would be admitted as).
pub(crate) enum EngineEvent<'a> {
    /// A job arrived at the engine.
    Arrive(u64, usize, SimTime),
    /// An arrival refused at admission (invalid spec or full queue).
    Reject(u64, usize, SimTime),
    /// An arrival admitted into the ready queue.
    Admit(u64, usize, SimTime),
    /// A queued job's gang dispatched.
    Dispatch(u64, usize, SimTime),
    /// A job evicted by a fail-stop.
    Evict(u64, usize, SimTime),
    /// A job's last layer completed.
    Complete(u64, usize, SimTime),
    /// One gang member's slice of layer `layer` ran on `node` from `from`
    /// to `until` (epilogue tail included).
    Layer {
        job: u64,
        tenant: usize,
        layer: usize,
        node: usize,
        from: SimTime,
        until: SimTime,
    },
    /// A gang's node lease closed (its `until` is set).
    Lease(&'a NodeLease),
}

/// The engine's schedule fingerprint and its trace sink and track.
pub(crate) struct EngineLog {
    fingerprint: u64,
    /// Off by default: every record call is a no-op and the engine is
    /// bit-identical to an uninstrumented one.
    sink: TraceSink,
    /// The engine's trace track (the machine index in a fleet).
    track: u32,
}

impl EngineLog {
    pub(crate) fn new() -> Self {
        EngineLog {
            fingerprint: 0,
            sink: TraceSink::off(),
            track: 0,
        }
    }

    /// Records on `sink`, on `track`, from now on.
    pub(crate) fn attach(&mut self, sink: TraceSink, track: u32) {
        self.sink = sink;
        self.track = track;
    }

    /// The schedule fingerprint so far.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Folds `event` into the fingerprint and writes its trace record.
    // Inlined at every call site, where the variant is known and the
    // match folds away: a served job emits six to eight events, and an
    // out-of-line call per event cost `serve_backlog` ~2% of its speed
    // on a 2-core host.
    #[inline(always)]
    pub(crate) fn emit(&mut self, event: EngineEvent<'_>) {
        let (name, job, tenant, at) = match event {
            EngineEvent::Arrive(job, tenant, at) => ("job/arrive", job, tenant, at),
            EngineEvent::Reject(job, tenant, at) => ("job/reject", job, tenant, at),
            EngineEvent::Admit(job, tenant, at) => ("job/admit", job, tenant, at),
            EngineEvent::Dispatch(job, tenant, at) => ("job/dispatch", job, tenant, at),
            EngineEvent::Evict(job, tenant, at) => ("job/evict", job, tenant, at),
            EngineEvent::Complete(job, tenant, at) => ("job/complete", job, tenant, at),
            EngineEvent::Layer {
                job,
                tenant,
                layer,
                node,
                from,
                until,
            } => {
                let words = [
                    job,
                    tenant as u64,
                    layer as u64,
                    node as u64,
                    from.as_fs(),
                    until.as_fs(),
                ];
                self.fingerprint = words.into_iter().fold(self.fingerprint, fold_fingerprint);
                self.sink.span(
                    "layer",
                    self.track,
                    node as u32,
                    from,
                    until,
                    job,
                    tenant as u32,
                );
                return;
            }
            EngineEvent::Lease(l) => {
                self.sink.span(
                    "lease",
                    self.track,
                    l.node as u32,
                    l.from,
                    l.until,
                    l.job,
                    l.tenant as u32,
                );
                return;
            }
        };
        self.sink
            .instant(name, self.track, SCHED_ROW, at, job, tenant as u32);
    }
}
