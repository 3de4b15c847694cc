//! # maco-vm — virtual-memory substrate
//!
//! MACO's MMAE performs DMA on **virtual** addresses and shares the CPU
//! core's TLB hierarchy through customised interfaces (Section III.A). This
//! crate implements everything address-translation related:
//!
//! * [`addr`] — virtual/physical address newtypes and 4 KB page geometry.
//! * [`page_table`] — a process's address space as coalesced mapped
//!   extents: translation, permissions and the mapped-range check. A
//!   demand walk's timing is four dependent reads of a fixed latency
//!   ([`addr::WALK_LEVELS`]), priced by the caller, so the descriptor
//!   tree itself is not modelled.
//! * [`tlb`] — an LRU translation look-aside buffer, used for the CPU's
//!   1024-entry shared L2 TLB (Table I) that the MMAE borrows.
//! * [`matlb`] — the paper's **predictive address translation** unit
//!   (Section IV.A, Fig. 4): the tile geometry fixes, ahead of time, the
//!   virtual pages a DMA stream will touch, so the pages are pre-walked
//!   and the DMA engines never stall on a walk. The page count and span
//!   come in closed form from the pattern.
//!
//! # Example: translating through an address space
//!
//! ```
//! use maco_vm::page_table::{AddressSpace, PageFlags};
//! use maco_vm::addr::{VirtAddr, PhysAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut space = AddressSpace::new();
//! space.map(VirtAddr::new(0x4000_0000), PhysAddr::new(0x8000), PageFlags::rw())?;
//! let pa = space.translate(VirtAddr::new(0x4000_0123))?;
//! assert_eq!(pa.raw(), 0x8123);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod matlb;
pub mod page_table;
pub mod tlb;

pub use addr::{PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use matlb::TileAccessPattern;
pub use page_table::{AddressSpace, PageFlags, TranslateFault};
pub use tlb::{Tlb, TlbEntry};
