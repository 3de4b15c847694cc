//! # maco-telemetry — observability for the MACO stack
//!
//! Three layers, all deterministic and all optional:
//!
//! * [`TraceSink`] / [`Trace`] — a virtual-time span/event tracer. Sites in
//!   `maco-serve` and `maco-cluster` record job-lifecycle and fleet events
//!   (arrival → queue → admit → layer steps → complete; faults, evictions,
//!   re-placements, autoscale actions) into an allocation-lean ring buffer.
//!   Records are keyed by `(time, seq)` with static interned names and can
//!   be exported as Chrome `trace_event` JSON (one process track per
//!   machine, one thread row per node) for chrome://tracing or Perfetto.
//!   The trace carries its **own** fingerprint: an order-sensitive fold of
//!   every record, separate from schedule/fault fingerprints.
//! * [`Log2Histogram`] — fixed-bucket log2 histograms for latency and
//!   queue-depth distributions. All-integer bucketing and percentiles,
//!   mergeable across machines and engine incarnations.
//! * [`PhaseProfile`] — wall-clock phase timers for the bench harness
//!   (emitted as flat `"phase_<name>_ms"` fields in BENCH_perf*.json).
//!
//! The contract that keeps the simulator honest: a disabled sink
//! ([`TraceSink::off`]) is a `None` and every record call is a no-op, so
//! simulated outcomes are bit-identical with tracing off; an enabled sink
//! only *observes* (no simulation state is read back from it), so outcomes
//! are bit-identical with tracing on too — only the trace fingerprint is
//! new information.

#![deny(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod profile;
pub mod trace;

pub use chrome::{validate_chrome_json, ChromeSummary};
pub use hist::Log2Histogram;
pub use profile::PhaseProfile;
pub use trace::{Trace, TraceRecord, TraceSink, ROUTER_TRACK, SCHED_ROW};
