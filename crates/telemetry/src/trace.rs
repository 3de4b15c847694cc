//! The virtual-time span/event tracer.
//!
//! Sites record [`TraceRecord`]s through a [`TraceSink`] — a cheap,
//! cloneable handle that is either *off* (a `None`; every call is an
//! inlined no-op, so a disabled sink is zero-cost and the simulation is
//! bit-identical to an uninstrumented build) or *on* (a shared ring-buffer
//! [`Tracer`] behind an `Arc<Mutex<_>>`, so an instrumented engine can be
//! moved to another thread). Records carry static interned names and are
//! keyed by `(start, seq)`: `seq` is a global record counter, so the full
//! stream reproduces the deterministic event-processing order even when
//! several records share a timestamp — the same tie-law discipline as the
//! event core's heaps.
//!
//! The tracer folds every record into an order-sensitive **trace
//! fingerprint** at record time (the same [`fold_fingerprint`] the
//! schedule/fault gates use), so the fingerprint covers all records ever
//! recorded even if the ring has dropped the oldest ones.
//!
//! A site that runs apart from the shared stream (a machine drained on its
//! own thread) records into a private [`TraceSink::buffer`], hands the
//! records over with [`TraceSink::drain`], and the owner of the shared
//! sink [`TraceSink::replay`]s them in the order the serial run
//! would have recorded them: replay re-sequences and re-folds each record,
//! so the shared stream and its fingerprint are the serial run's.

use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use maco_sim::{fold_fingerprint, FxHasher, SimDuration, SimTime};

/// Pseudo-track for fleet-level router events (route/split/migrate/scale)
/// that belong to no single machine.
pub const ROUTER_TRACK: u32 = u32::MAX;

/// Pseudo-row for machine-level events that belong to no single node
/// (arrivals, admission, dispatch decisions).
pub const SCHED_ROW: u32 = u32::MAX;

/// Default ring capacity: enough for every record of the largest committed
/// scenario (`cluster_failover`) with room to spare, ~4 MiB resident.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One traced span or instant, keyed by `(start, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Static interned event name (`"job/admit"`, `"layer"`, `"lease"`, …).
    pub name: &'static str,
    /// Track (machine index; [`ROUTER_TRACK`] for fleet events). Maps to
    /// the Chrome `pid`.
    pub track: u32,
    /// Row within the track (node index; [`SCHED_ROW`] for machine-level
    /// events). Maps to the Chrome `tid`.
    pub row: u32,
    /// Span start (or the instant, for zero-duration records).
    pub start: SimTime,
    /// Span duration; zero means an instant event.
    pub dur: SimDuration,
    /// Global record sequence number — the deterministic tie-break for
    /// records sharing a timestamp.
    pub seq: u64,
    /// The job (engine-local or fleet-level index) this record concerns.
    pub job: u64,
    /// Submitting tenant index.
    pub tenant: u32,
}

impl TraceRecord {
    /// True for zero-duration (instant) records.
    pub fn is_instant(&self) -> bool {
        self.dur.is_zero()
    }
}

/// Hashes a static name into the fingerprint domain.
fn name_code(name: &'static str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

/// The ring-buffered record store behind an enabled [`TraceSink`].
#[derive(Debug)]
pub struct Tracer {
    ring: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest retained record within `ring` (ring is full
    /// once `ring.len() == capacity`).
    head: usize,
    recorded: u64,
    fingerprint: u64,
}

impl Tracer {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs at least one slot");
        Self {
            ring: Vec::new(),
            capacity,
            head: 0,
            recorded: 0,
            fingerprint: 0,
        }
    }

    fn push(&mut self, mut rec: TraceRecord) {
        rec.seq = self.recorded;
        self.recorded += 1;
        self.fingerprint = fold_fingerprint(self.fingerprint, name_code(rec.name));
        self.fingerprint = fold_fingerprint(
            self.fingerprint,
            ((rec.track as u64) << 32) | rec.row as u64,
        );
        self.fingerprint = fold_fingerprint(self.fingerprint, rec.start.as_fs());
        self.fingerprint = fold_fingerprint(self.fingerprint, rec.dur.as_fs());
        self.fingerprint = fold_fingerprint(self.fingerprint, rec.job);
        self.fingerprint = fold_fingerprint(self.fingerprint, rec.tenant as u64);
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            // Overwrite the oldest retained record; the fingerprint above
            // already covered it, so dropping is lossy for export only.
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn into_trace(self) -> Trace {
        let retained = self.ring.len() as u64;
        let mut records = self.ring;
        records.rotate_left(self.head);
        Trace {
            records,
            fingerprint: self.fingerprint,
            recorded: self.recorded,
            dropped: self.recorded - retained,
        }
    }
}

/// A cheap handle through which instrumentation sites record. Clones share
/// one [`Tracer`], so one sink handed to a whole fleet yields a single
/// globally-ordered record stream. The handle is `Send` and `Sync`; the
/// tracer behind it is locked once per record.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    tracer: Option<Arc<Mutex<Tracer>>>,
}

impl TraceSink {
    /// The disabled sink: every record call is a no-op and simulation
    /// outcomes are bit-identical to an uninstrumented run.
    pub fn off() -> Self {
        Self { tracer: None }
    }

    /// An enabled sink with the default ring capacity.
    pub fn on() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled sink retaining at most `capacity` records for export.
    /// The trace fingerprint covers *all* records regardless of capacity,
    /// so the fingerprint is capacity-independent.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tracer: Some(Arc::new(Mutex::new(Tracer::with_capacity(capacity)))),
        }
    }

    /// A private, unbounded sink that is on iff `self` is: a site that
    /// records apart from the shared stream buffers here, then hands its
    /// records to [`TraceSink::replay`] on `self`.
    pub fn buffer(&self) -> Self {
        if self.is_on() {
            Self::with_capacity(usize::MAX)
        } else {
            Self::off()
        }
    }

    /// The tracer, locked. No tracer method panics part-way, so a lock
    /// poisoned by a panicking holder still guards a whole tracer.
    fn lock(tracer: &Mutex<Tracer>) -> MutexGuard<'_, Tracer> {
        tracer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True when records will be retained.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records an instant event (zero duration).
    #[inline]
    pub fn instant(
        &self,
        name: &'static str,
        track: u32,
        row: u32,
        at: SimTime,
        job: u64,
        tenant: u32,
    ) {
        if let Some(tracer) = &self.tracer {
            Self::lock(tracer).push(TraceRecord {
                name,
                track,
                row,
                start: at,
                dur: SimDuration::ZERO,
                seq: 0,
                job,
                tenant,
            });
        }
    }

    /// Records a span from `start` to `end` (clamped to zero if `end`
    /// precedes `start`, which no call site does).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        name: &'static str,
        track: u32,
        row: u32,
        start: SimTime,
        end: SimTime,
        job: u64,
        tenant: u32,
    ) {
        if let Some(tracer) = &self.tracer {
            Self::lock(tracer).push(TraceRecord {
                name,
                track,
                row,
                start,
                dur: end.saturating_since(start),
                seq: 0,
                job,
                tenant,
            });
        }
    }

    /// Re-records `records` in order, as if their sites had recorded them
    /// here: each takes this sink's next `seq` and is folded into its
    /// fingerprint. A no-op when the sink is off.
    pub fn replay(&self, records: &[TraceRecord]) {
        if let Some(tracer) = &self.tracer {
            let mut tracer = Self::lock(tracer);
            for &rec in records {
                tracer.push(rec);
            }
        }
    }

    /// The trace fingerprint so far (`None` when the sink is off).
    pub fn fingerprint(&self) -> Option<u64> {
        self.tracer.as_ref().map(|t| Self::lock(t).fingerprint)
    }

    /// Total records accepted so far (0 when the sink is off).
    pub fn recorded(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| Self::lock(t).recorded)
    }

    /// Takes the accumulated trace out of the sink, leaving this handle
    /// (and every clone) recording into a fresh empty tracer of the same
    /// capacity. Returns `None` for a disabled sink.
    pub fn drain(&self) -> Option<Trace> {
        let mut tracer = Self::lock(self.tracer.as_ref()?);
        let fresh = Tracer::with_capacity(tracer.capacity);
        Some(std::mem::replace(&mut *tracer, fresh).into_trace())
    }
}

/// A finished trace: retained records in recording order, the fingerprint
/// over every record ever accepted, and drop accounting.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Retained records, oldest first (recording order — already sorted by
    /// `(start, seq)` up to the tie law of the recording sites).
    pub records: Vec<TraceRecord>,
    /// Order-sensitive fold over **all** records ever recorded (including
    /// any the ring dropped). This is the trace's own determinism gate —
    /// separate from schedule and fault fingerprints.
    pub fingerprint: u64,
    /// Total records accepted.
    pub recorded: u64,
    /// Records the ring dropped (oldest-first) and could not export.
    pub dropped: u64,
}

impl Trace {
    /// Number of retained (exportable) records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The fingerprint as the 16-hex-digit string reports embed.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn off_sink_is_inert() {
        let sink = TraceSink::off();
        sink.instant("x", 0, 0, t(1), 0, 0);
        sink.span("y", 0, 0, t(1), t(2), 0, 0);
        assert!(!sink.is_on());
        assert_eq!(sink.fingerprint(), None);
        assert_eq!(sink.recorded(), 0);
        assert!(sink.drain().is_none());
    }

    #[test]
    fn clones_share_one_stream() {
        let sink = TraceSink::on();
        let other = sink.clone();
        sink.instant("a", 0, 0, t(1), 1, 0);
        other.instant("b", 1, 2, t(2), 2, 1);
        let trace = sink.drain().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records[0].name, "a");
        assert_eq!(trace.records[1].name, "b");
        assert_eq!(trace.records[0].seq, 0);
        assert_eq!(trace.records[1].seq, 1);
        assert_eq!(trace.dropped, 0);
        // Drain resets the shared tracer for every clone.
        assert_eq!(other.recorded(), 0);
    }

    #[test]
    fn ring_drops_oldest_but_fingerprint_covers_all() {
        let small = TraceSink::with_capacity(2);
        let large = TraceSink::with_capacity(16);
        for i in 0..5u64 {
            small.instant("e", 0, 0, t(i), i, 0);
            large.instant("e", 0, 0, t(i), i, 0);
        }
        let s = small.drain().unwrap();
        let l = large.drain().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.records[0].job, 3);
        assert_eq!(s.records[1].job, 4);
        assert_eq!(l.len(), 5);
        assert_eq!(l.dropped, 0);
        // Capacity never leaks into the fingerprint.
        assert_eq!(s.fingerprint, l.fingerprint);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = TraceSink::on();
        a.instant("x", 0, 0, t(1), 1, 0);
        a.instant("y", 0, 0, t(2), 2, 0);
        let b = TraceSink::on();
        b.instant("y", 0, 0, t(2), 2, 0);
        b.instant("x", 0, 0, t(1), 1, 0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Records buffered in private sinks and replayed into a shared one
    /// carry the `seq` values and fold the fingerprint that recording
    /// them straight into the shared sink gives.
    #[test]
    fn replayed_buffers_match_direct_recording() {
        let direct = TraceSink::on();
        let shared = TraceSink::on();
        let a = shared.buffer();
        let b = shared.buffer();
        assert!(a.is_on() && b.is_on());
        direct.instant("router", ROUTER_TRACK, 0, t(1), 0, 0);
        shared.instant("router", ROUTER_TRACK, 0, t(1), 0, 0);
        for i in 0..3u64 {
            direct.span("layer", 0, 1, t(10 * i), t(10 * i + 5), i, 1);
            a.span("layer", 0, 1, t(10 * i), t(10 * i + 5), i, 1);
        }
        direct.instant("admit", 1, SCHED_ROW, t(2), 9, 2);
        b.instant("admit", 1, SCHED_ROW, t(2), 9, 2);
        // Private sinks number their own records from 0.
        let from_a = a.drain().unwrap().records;
        assert_eq!(from_a.last().map(|r| r.seq), Some(2));
        assert_eq!(a.recorded(), 0, "drain leaves the buffer empty");
        shared.replay(&from_a);
        shared.replay(&b.drain().unwrap().records);
        let want = direct.drain().unwrap();
        let got = shared.drain().unwrap();
        assert_eq!(got.records, want.records);
        assert_eq!(got.fingerprint, want.fingerprint);
        assert_eq!(got.recorded, want.recorded);
        let seqs: Vec<u64> = got.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn buffer_of_an_off_sink_is_off() {
        let buffer = TraceSink::off().buffer();
        buffer.instant("x", 0, 0, t(1), 0, 0);
        assert!(!buffer.is_on());
        assert!(buffer.drain().is_none());
    }

    #[test]
    fn span_duration_and_instant_flag() {
        let sink = TraceSink::on();
        sink.span("s", 0, 3, t(10), t(25), 7, 2);
        sink.instant("i", 0, 3, t(30), 7, 2);
        let trace = sink.drain().unwrap();
        assert_eq!(trace.records[0].dur, SimDuration::from_ns(15));
        assert!(!trace.records[0].is_instant());
        assert!(trace.records[1].is_instant());
        assert_eq!(trace.records[0].row, 3);
        assert_eq!(trace.records[0].tenant, 2);
    }
}
