//! The fleet's events: the one place where each router and fault event's
//! fingerprint words and trace record are defined.
//!
//! [`FleetLog::emit`] folds an event into the schedule or fault
//! fingerprint and writes its [`TraceRecord`]. The accumulators and the
//! sink are private to this module, so no other code can fold or record
//! a fleet event by hand.

use maco_serve::Engine;
use maco_sim::{fold_fingerprint, SimTime};
use maco_telemetry::{TraceRecord, TraceSink, ROUTER_TRACK, SCHED_ROW};

use crate::report::{JobRecord, MachineReport, ScaleEvent};

/// What kind of fault-schedule event fired.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultEventKind {
    /// Machine fail-stop.
    Fail(usize),
    /// Machine recovery (fresh, cold incarnation rejoins the fleet).
    Recover(usize),
    /// Degradation window (by index into the spec) opens.
    DegradeStart(usize),
    /// Degradation window (by index into the spec) closes.
    DegradeEnd(usize),
}

/// One fleet event, as [`FleetLog::emit`] folds and records it.
pub(crate) enum FleetEvent<'a> {
    /// An arrival with an invalid spec, rejected at the router.
    Reject(&'a JobRecord),
    /// An arrival that found no eligible machine, deferred to the next
    /// scheduled recovery.
    Defer(&'a JobRecord),
    /// An arrival routed to its record's machines (one, or a split's
    /// parts), ready there at its effective arrival.
    Route(&'a JobRecord),
    /// A [`crate::Placement::SfcLocality`] decision for an arrival or a
    /// re-placed remainder. Its record keeps the machine in the tenant
    /// slot.
    Place {
        job: usize,
        at: SimTime,
        machine: usize,
    },
    /// A job or split part completed on a machine `(machine, at, job)`;
    /// `job` is the job's record once its last part is in.
    Complete(usize, SimTime, Option<&'a JobRecord>),
    /// A scheduled fault event `(kind, at, live)`. A fail of a dead
    /// machine or a recovery of a live one is not live: it folds and
    /// records nothing.
    Fault(FaultEventKind, SimTime, bool),
    /// The remainder of record `rec` evicted after `completed_layers`
    /// layers, queued for re-placement at `effective`.
    Evict {
        rec: usize,
        completed_layers: usize,
        effective: SimTime,
    },
    /// An autoscaler action on a machine.
    Scale(&'a ScaleEvent, usize),
    /// Record `rec`'s remainder (or deferred arrival) pushed to `machine`.
    Replace {
        machine: usize,
        rec: usize,
        at: SimTime,
        tenant: usize,
    },
}

/// The fleet's schedule and fault fingerprints and its trace sink.
pub(crate) struct FleetLog {
    /// Routing and completion events.
    schedule: u64,
    /// The failure layer's own fold, so a fault-free run's schedule
    /// fingerprint is the healthy one.
    fault: u64,
    /// Purely observational: never consulted for any decision.
    sink: TraceSink,
}

fn fold(acc: &mut u64, words: impl IntoIterator<Item = u64>) {
    *acc = words.into_iter().fold(*acc, fold_fingerprint);
}

impl FleetLog {
    pub(crate) fn new(sink: TraceSink) -> Self {
        FleetLog {
            schedule: 0,
            fault: 0,
            sink,
        }
    }

    /// Folds `event` into its fingerprint and writes its trace record.
    pub(crate) fn emit(&mut self, event: FleetEvent<'_>) {
        let sink = &self.sink;
        let router = |name, at, job: usize, tenant: usize| {
            sink.instant(name, ROUTER_TRACK, 0, at, job as u64, tenant as u32);
        };
        match event {
            FleetEvent::Reject(r) => {
                fold(&mut self.schedule, [r.index as u64]);
                router("route/reject", r.arrival, r.index, r.tenant);
            }
            FleetEvent::Defer(r) => {
                fold(&mut self.schedule, [r.index as u64]);
                router("route/defer", r.arrival, r.index, r.tenant);
            }
            FleetEvent::Route(r) => {
                fold(&mut self.schedule, [r.index as u64]);
                fold(&mut self.schedule, r.machines.iter().map(|&m| m as u64));
                fold(&mut self.schedule, [r.effective_arrival.as_fs()]);
                let name = match (r.split, r.migrated) {
                    (Some(_), _) => "route/split",
                    (None, true) => "route/migrate",
                    (None, false) => "route",
                };
                router(name, r.effective_arrival, r.index, r.tenant);
            }
            FleetEvent::Place { job, at, machine } => router("place/sfc", at, job, machine),
            FleetEvent::Complete(machine, at, job) => {
                fold(&mut self.schedule, [machine as u64, at.as_fs()]);
                if let Some(r) = job {
                    let end = r.finished_at.expect("a completed job has its end");
                    fold(&mut self.schedule, [end.as_fs()]);
                    router("job/done", end, r.index, r.tenant);
                }
            }
            FleetEvent::Fault(kind, at, live) => {
                let (code, i, name, track, row) = match kind {
                    FaultEventKind::Fail(i) => (0xF1, i, "fault/fail", i as u32, SCHED_ROW),
                    FaultEventKind::Recover(i) => (0xF2, i, "fault/recover", i as u32, SCHED_ROW),
                    FaultEventKind::DegradeStart(d) => (0xF3, d, "degrade/start", ROUTER_TRACK, 0),
                    FaultEventKind::DegradeEnd(d) => (0xF4, d, "degrade/end", ROUTER_TRACK, 0),
                };
                fold(&mut self.fault, [code, i as u64, at.as_fs()]);
                if live {
                    sink.instant(name, track, row, at, i as u64, 0);
                }
            }
            FleetEvent::Evict {
                rec,
                completed_layers,
                effective,
            } => {
                fold(
                    &mut self.fault,
                    [0xF7, rec as u64, completed_layers as u64, effective.as_fs()],
                );
            }
            FleetEvent::Scale(s, machine) => {
                fold(
                    &mut self.fault,
                    [
                        0xF5,
                        u64::from(s.grew),
                        machine as u64,
                        s.active_after as u64,
                        s.at.as_fs(),
                    ],
                );
                let name = if s.grew { "scale/grow" } else { "scale/shrink" };
                router(name, s.at, machine, 0);
            }
            FleetEvent::Replace {
                machine,
                rec,
                at,
                tenant,
            } => {
                fold(
                    &mut self.fault,
                    [0xF6, machine as u64, rec as u64, at.as_fs()],
                );
                sink.instant(
                    "replace",
                    machine as u32,
                    SCHED_ROW,
                    at,
                    rec as u64,
                    tenant as u32,
                );
            }
        }
    }

    /// Points `engine`'s job-lifecycle records at the fleet's sink, on
    /// track `machine`.
    pub(crate) fn attach(&self, engine: &mut Engine, machine: usize) {
        engine.set_trace(self.sink.clone(), machine as u32);
    }

    /// A private buffer for a machine drained on its own thread.
    pub(crate) fn buffer(&self) -> TraceSink {
        self.sink.buffer()
    }

    /// Re-records a drained machine's buffered records on the fleet's sink.
    pub(crate) fn replay(&self, records: &[TraceRecord]) {
        self.sink.replay(records);
    }

    /// The episode's schedule and fault fingerprints: the schedule fold
    /// closes over every machine's (incarnation-merged) serve fingerprint
    /// and the fleet makespan.
    pub(crate) fn finish(mut self, machines: &[MachineReport], makespan: SimTime) -> (u64, u64) {
        fold(
            &mut self.schedule,
            machines.iter().map(|m| m.serve.fingerprint),
        );
        fold(&mut self.schedule, [makespan.as_fs()]);
        (self.schedule, self.fault)
    }
}
