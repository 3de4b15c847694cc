//! # maco-cluster — scale-out serving across a fleet of MACO machines
//!
//! The paper evaluates one 16-node chip; a production deployment puts a
//! *fleet* of them behind one front door. This crate is that front door:
//! a declarative [`ClusterSpec`] names the machines (heterogeneous node
//! counts and CCM bandwidths allowed), the inter-machine interconnect
//! cost model, the placement policy and the data-parallel split rule, and
//! [`Cluster`] runs multi-tenant traces across the whole fleet on one
//! global virtual-time timeline.
//!
//! * [`spec`] — [`ClusterSpec`], [`MachineSpec`], [`InterconnectSpec`],
//!   [`Placement`] (round-robin / least-loaded / tenant-affinity with
//!   spill) and [`SplitSpec`].
//! * [`cluster`] — [`Cluster`]: the front-end router and the global event
//!   merge over per-machine [`maco_serve::Engine`]s. Machines share no
//!   simulated hardware; all coupling flows through the interconnect
//!   (migration transfers, scatters, all-reduces) and the router's load
//!   accounting, keeping fleet schedules byte-identical across same-seed
//!   runs.
//! * [`split`] — data-parallel GEMM splitting: `k`-split (modeled
//!   all-reduce, numerically bit-identical to the unsplit kernel) and
//!   `m`-split (no reduction).
//! * [`report`] — [`ClusterReport`]: fleet latency/throughput/fairness,
//!   per-machine serving reports, interconnect traffic and the cluster
//!   fingerprint the CI strict gate pins.
//!
//! The fleet is also where failures live: a [`FaultSpec`] schedules
//! deterministic machine fail-stops (with optional recovery) and
//! interconnect degradation windows as first-class events on the global
//! timeline. A failed machine's in-flight and queued jobs are evicted,
//! checkpointed at their last completed layer, and re-placed on
//! surviving machines after paying the state transfer over the
//! interconnect — no admitted job is ever lost
//! ([`report::FaultReport::jobs_lost`] is always 0). An optional
//! [`AutoscalerSpec`] grows and shrinks the active placement set against
//! sliding arrival-rate/deadline-miss windows. The failure layer keeps
//! its own event fingerprint, so fault-free fleet schedules stay
//! byte-identical to the pre-fault router.
//!
//! # Example
//!
//! ```
//! use maco_cluster::{Cluster, ClusterSpec, Placement};
//! use maco_serve::Tenant;
//! use maco_workloads::trace::{self, TraceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four 4-node machines behind a tenant-affinity router.
//! let spec = ClusterSpec::uniform(4, 4)
//!     .with_placement(Placement::TenantAffinity { spill: 2 });
//! let mut fleet = Cluster::new(spec, Tenant::fleet(4));
//! let trace = trace::generate(&TraceConfig { tenants: 4, requests: 6, ..TraceConfig::quick(3) });
//! let report = fleet.run_trace(&trace)?;
//! assert_eq!(report.jobs_completed, 6);
//! // Same seed, same fleet schedule — byte for byte.
//! let report2 = fleet.run_trace(&trace)?;
//! assert_eq!(report.fingerprint, report2.fingerprint);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod cluster;
mod event;
pub mod report;
pub mod spec;
pub mod split;

pub use cluster::{Cluster, ClusterError};
pub use report::{
    ClusterDiagnostics, ClusterReport, FaultReport, JobRecord, MachineReport, ScaleEvent,
};
pub use spec::{
    AutoscalerSpec, ClusterSpec, DegradationWindow, FaultSpec, InterconnectSpec, MachineFault,
    MachineSpec, Placement, SplitKind, SplitSpec,
};
pub use split::{split_job, SplitJob};

/// Re-exported telemetry handle: attach with [`Cluster::set_trace_sink`]
/// to record fleet events (routing, faults, re-placements, autoscaling)
/// and every machine's job-lifecycle events on one shared timeline.
pub use maco_telemetry::TraceSink;
