//! # maco-core — the MACO loosely-coupled multi-core processor
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! up to 16 compute nodes (CPU core + MMAE) on a 4×4 mesh with a
//! distributed L3 behind CCM slices (Section III.A), programmed
//! through MPAIS, with predictive address translation (Section IV.A) and
//! the GEMM⁺ stash-lock-overlap mapping scheme (Section IV.B).
//!
//! * [`physical`] — the Table IV area/power/peak-performance model.
//! * [`node`] — one compute node driven through the MPAIS task round trip
//!   (`MA_CFG`, `MA_STATE`, `MA_CLEAR`), priced by a 1-node [`system`].
//! * [`system`] — the full-system timing simulator: nodes interleaved over
//!   the shared NoC fabric, CCM slices and DRAM (Figs. 6, 7, 8).
//! * [`gemm_plus`] — the GEMM⁺ mapping scheme: multi-node tiling
//!   (Fig. 5(a)), stash & lock (Fig. 5(b)) and CPU/MMAE overlap
//!   (Fig. 5(c)).
//! * [`group`] — node-group allocation and Fig. 5(a) partitioning onto
//!   explicit groups, for schedulers that space-share the machine.
//! * [`autotune`] — the analytic tiling autotuner: prices buffer-feasible
//!   tilings per (precision, shape, configuration) with the simulator's
//!   own step-cost structure and picks the cheapest
//!   ([`MacoBuilder::autotune_tiling`]).
//! * [`runner`] — a builder-style high-level API for examples and
//!   harnesses.
//!
//! # Example
//!
//! ```
//! use maco_core::runner::Maco;
//! use maco_isa::Precision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut maco = Maco::builder().nodes(1).build();
//! let report = maco.gemm(256, 256, 256, Precision::Fp64)?;
//! assert!(report.avg_efficiency() > 0.5);
//! # Ok(())
//! # }
//! ```

pub mod autotune;
pub mod gemm_plus;
pub mod group;
pub mod node;
pub mod physical;
pub mod runner;
pub mod system;

pub use autotune::{candidate_tilings, choose_tiling, model_cost_fs};
pub use gemm_plus::{GemmPlusReport, GemmPlusScratch, GemmPlusTask, ReductionCheckpoint};
pub use group::{partition_onto, NodePool};
/// The tile→node placement knob (re-exported so layers above `maco-core`
/// can sweep orderings without a `maco-noc` dependency).
pub use maco_noc::sfc::TileOrder;
/// The mapping-layer fault the simulators propagate (re-exported so
/// layers above `maco-core` can name it without a `maco-vm` dependency).
pub use maco_vm::page_table::TranslateFault;
pub use node::ComputeNode;
pub use physical::{PhysicalModel, UnitPhysical};
pub use runner::{Maco, MacoBuilder};
pub use system::{
    InFlightGemm, MacoSystem, NodeReport, SystemConfig, SystemReport, TaskAdmitError,
};
