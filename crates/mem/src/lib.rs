//! # maco-mem — memory-hierarchy substrate
//!
//! MACO's memory system (Section III.A): private L1/L2 caches per CPU core
//! (Table I), a distributed L3 "system cache" shared by all compute nodes
//! and fronted by **cache-coherence managers (CCMs)**, and external DRAM
//! behind memory controllers on the NoC. The paper's GEMM⁺ mapping scheme
//! additionally requires **stash** (prefetch into L3) and **lock** (pin
//! against eviction) operations issued through the CCM (Section IV.B,
//! Fig. 5(b)).
//!
//! The timing model (`maco_core::system::MacoSystem::price_tile_step`)
//! prices each CCM slice as a latency-bandwidth resource and stash and
//! lock as CCM occupancy, from data-movement volumes rather than a cache
//! simulation. There is no coherence directory, so coherence traffic is
//! not priced. This crate holds what that model reads:
//!
//! * [`l3`] — the [`L3Config`] geometry: slice count and capacity.
//! * [`dram`] — channel-interleaved DRAM with latency + bandwidth queuing.
//!
//! # Example: the paper-scale L3
//!
//! ```
//! use maco_mem::L3Config;
//!
//! let l3 = L3Config::default();
//! assert_eq!(l3.slices, 16, "one slice per CCM of the 4×4 mesh");
//! assert_eq!(l3.total_bytes(), 32 * 1024 * 1024);
//! ```

pub mod dram;
pub mod l3;

pub use dram::{Dram, DramConfig};
pub use l3::L3Config;
