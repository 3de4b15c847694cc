//! # maco-serve — multi-tenant GEMM serving on a MACO machine
//!
//! The paper's MPAIS design (the MTQ/STQ split, ASIDs, the Fig. 3
//! exception protocol) exists so *multiple processes* can share the
//! loosely-coupled accelerator. This crate is the layer that exploits it:
//! a deterministic multi-tenant serving subsystem over one simulated
//! [`maco_core::MacoSystem`].
//!
//! * [`job`] — tenants (one [`maco_isa::Asid`] each), job specifications
//!   (single GEMM⁺ layers or whole DNN streams, with priorities and
//!   deadlines) and the bounded, policy-ordered ready [`JobQueue`].
//! * [`sched`] — gang-scheduling policies ([`Policy::Fifo`],
//!   [`Policy::Sjf`], [`Policy::FairShare`]): jobs get disjoint node
//!   groups, large GEMMs are partitioned across their group per
//!   Fig. 5(a), and independent tenants co-run on the remaining nodes.
//! * [`server`] — the virtual-time co-simulation loop interleaving all
//!   in-flight jobs on the shared timeline via the core's reentrant
//!   `begin_gemm`/`step_gemm` stepping API. The loop body is the
//!   steppable [`Engine`] (arrivals pushed incrementally, events advanced
//!   one at a time), which `maco-cluster` composes one-per-machine onto a
//!   fleet-wide timeline.
//! * [`report`] — per-tenant latency/throughput/fairness reports, node
//!   leases, and the schedule fingerprint used by determinism checks.
//! * [`replica`] — a `std::thread` replica runner sharding independent
//!   request streams across OS threads for wall-clock throughput.
//!
//! # Example
//!
//! ```
//! use maco_core::system::{MacoSystem, SystemConfig};
//! use maco_serve::{Policy, ServeConfig, Server, Tenant};
//! use maco_workloads::trace::{self, TraceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 4-node machine serving 2 tenants under shortest-job-first.
//! let system = MacoSystem::new(SystemConfig { nodes: 4, ..SystemConfig::default() });
//! let mut server = Server::new(
//!     system,
//!     Tenant::fleet(2),
//!     ServeConfig::with_policy(Policy::Sjf),
//! );
//! let trace = trace::generate(&TraceConfig { tenants: 2, requests: 3, ..TraceConfig::quick(7) });
//! let report = server.run_trace(&trace)?;
//! assert_eq!(report.jobs_completed, 3);
//! assert!(report.total_gflops() > 0.0);
//! // Same seed, same schedule — byte for byte.
//! let report2 = server.run_trace(&trace)?;
//! assert_eq!(report.fingerprint, report2.fingerprint);
//! # Ok(())
//! # }
//! ```

pub mod job;
pub mod replica;
pub mod report;
pub mod sched;
pub mod server;

pub use job::{validate_spec, AdmissionError, JobId, JobQueue, JobSpec, QueuedJob, Tenant};
pub use replica::{run_replicas, ReplicaOutcome};
pub use report::{NodeLease, ServeReport, TenantReport};
pub use sched::Policy;
pub use server::{Engine, EvictedJob, JobOutcome, ServeConfig, ServeError, Server};

/// Re-exported telemetry handle: attach with [`Server::set_trace_sink`] /
/// [`Engine::set_trace`] to record job-lifecycle events.
pub use maco_telemetry::TraceSink;
