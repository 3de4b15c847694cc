//! # maco — reproduction of "MACO: Exploring GEMM Acceleration on a
//! Loosely-Coupled Multi-core Processor" (DATE 2024)
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the MACO system: compute nodes, NoC, distributed
//!   L3, GEMM⁺ mapping, the high-level [`maco_core::runner::Maco`] builder.
//! * [`mmae`] — the matrix-multiplication acceleration engine.
//! * [`isa`] — the MPAIS instruction set and task queues.
//! * [`vm`] — page tables, TLBs and the mATLB predictor.
//! * [`mem`] — caches, lockable L3, DRAM (CCMs are priced as
//!   latency-bandwidth resources, with no coherence directory).
//! * [`noc`] — the 4×4 mesh network.
//! * [`cpu`] — the general-purpose core model.
//! * [`workloads`] — HPL sweeps, DNN GEMM streams and multi-tenant
//!   arrival traces.
//! * [`serve`] — the multi-tenant serving layer: admission, gang
//!   scheduling, virtual-time co-simulation, replica sharding.
//! * [`cluster`] — scale-out serving across a fleet of machines:
//!   placement policies, the inter-machine interconnect cost model,
//!   data-parallel GEMM splits and the global fleet timeline.
//! * [`baselines`] — the Fig. 8 comparators.
//! * [`explore`] — declarative design-space sweeps: `SweepGrid` →
//!   `Explorer` → Pareto frontiers, roofline gaps and the named
//!   Fig. 6/7/8 experiments.
//! * [`telemetry`] — the observability layer: the deterministic
//!   virtual-time tracer (Chrome `trace_event` export), mergeable log2
//!   latency histograms and wall-clock phase profiles.
//!
//! # Quickstart
//!
//! ```
//! use maco::core::runner::Maco;
//! use maco::isa::Precision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Maco::builder().nodes(4).build();
//! let report = machine.gemm(1024, 1024, 1024, Precision::Fp32)?;
//! println!("{:.1} GFLOPS at {:.1}% efficiency",
//!     report.total_gflops(), report.avg_efficiency() * 100.0);
//! # Ok(())
//! # }
//! ```

pub use maco_baselines as baselines;
pub use maco_cluster as cluster;
pub use maco_core as core;
pub use maco_cpu as cpu;
pub use maco_explore as explore;
pub use maco_isa as isa;
pub use maco_mem as mem;
pub use maco_mmae as mmae;
pub use maco_noc as noc;
pub use maco_serve as serve;
pub use maco_sim as sim;
pub use maco_telemetry as telemetry;
pub use maco_vm as vm;
pub use maco_workloads as workloads;
