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
//! prices each CCM slice as a latency-bandwidth resource. There is no
//! coherence directory, so coherence traffic is not priced. Of this
//! crate the timing model reads [`dram`] and the [`L3Config`] geometry;
//! [`cache`] and the functional stash/lock behaviour of [`l3`] are
//! standalone models.
//!
//! * [`cache`] — a generic set-associative, write-back cache model with
//!   true-LRU replacement and line locking.
//! * [`l3`] — the distributed L3: address-interleaved slices with stash and
//!   lock support.
//! * [`dram`] — channel-interleaved DRAM with latency + bandwidth queuing.
//!
//! # Example: a stash that locks lines in L3
//!
//! ```
//! use maco_mem::l3::{DistributedL3, L3Config};
//! use maco_vm::PhysAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut l3 = DistributedL3::new(L3Config::default());
//! // Stash 4 KB at physical 0x10000 and lock it.
//! let fetched = l3.stash(PhysAddr::new(0x10000), 4096, true)?;
//! assert_eq!(fetched, 64, "64 lines fetched from DRAM");
//! assert!(l3.lookup(PhysAddr::new(0x10040)), "subsequent access hits");
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod dram;
pub mod l3;

pub use cache::{AccessOutcome, SetAssocCache};
pub use dram::{Dram, DramConfig};
pub use l3::{DistributedL3, L3Config, StashError};

/// Cache-line size used throughout MACO (bytes).
pub const LINE_BYTES: u64 = 64;
/// Log2 of the line size.
pub const LINE_SHIFT: u32 = 6;
