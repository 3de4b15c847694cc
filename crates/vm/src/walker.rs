//! The page-table walker (PTW).
//!
//! MACO's MMU contains a hardware walker (Fig. 2) that the mATLB drives
//! ahead of demand. A walk is four *dependent* memory reads — one per radix
//! level — so its latency is four serialised accesses through whatever part
//! of the memory hierarchy holds the tables. [`PageTableWalker`] performs
//! the functional walk against an [`AddressSpace`] and reports the concrete
//! read addresses so the caller can price them.

use crate::addr::{PhysAddr, VirtAddr, WALK_LEVELS};
use crate::page_table::{AddressSpace, PageFlags, TranslateFault};

/// Outcome of a successful walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The translated physical address of `va`'s page base plus offset.
    pub pa: PhysAddr,
    /// Leaf permissions.
    pub flags: PageFlags,
    /// The four descriptor reads performed, in dependency order.
    pub reads: [PhysAddr; WALK_LEVELS],
}

/// A hardware page-table walker.
///
/// The walker owns no memory and keeps no time; it counts walks and
/// faults. Timing is composed by the caller, which maps each of
/// [`WalkResult::reads`] to a memory-hierarchy latency (the full-system
/// model charges a fixed per-level read latency,
/// `SystemConfig::walk_read`).
///
/// # Example
///
/// ```
/// use maco_vm::walker::PageTableWalker;
/// use maco_vm::page_table::{AddressSpace, PageFlags};
/// use maco_vm::addr::{VirtAddr, PhysAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut space = AddressSpace::new();
/// space.map(VirtAddr::new(0x5000), PhysAddr::new(0x9000), PageFlags::rw())?;
/// let mut walker = PageTableWalker::new();
/// let res = walker.walk(&space, VirtAddr::new(0x5010))?;
/// assert_eq!(res.pa.raw(), 0x9010);
/// assert_eq!(res.reads.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTableWalker {
    walks: u64,
    faults: u64,
}

impl PageTableWalker {
    /// Creates a walker with zeroed counters.
    pub fn new() -> Self {
        PageTableWalker::default()
    }

    /// Functional walk: translate `va` through `space`.
    ///
    /// # Errors
    ///
    /// Propagates the [`TranslateFault`] raised by the radix walk; the MMAE
    /// converts this into a `TranslationFault` MTQ exception.
    pub fn walk(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
    ) -> Result<WalkResult, TranslateFault> {
        self.walks += 1;
        match space.walk_with_path(va) {
            Ok((pa, flags, reads)) => Ok(WalkResult { pa, flags, reads }),
            Err(e) => {
                self.faults += 1;
                Err(e)
            }
        }
    }

    /// Functional walk returning only the leaf translation: identical
    /// bookkeeping (walk and fault counters, fault values) to
    /// [`PageTableWalker::walk`], without materialising the descriptor
    /// read addresses — the hot path for translation streams, which
    /// discard them.
    ///
    /// # Errors
    ///
    /// Propagates the [`TranslateFault`] raised by the radix walk.
    pub fn walk_frame(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
    ) -> Result<(PhysAddr, PageFlags), TranslateFault> {
        self.walks += 1;
        match space.translate_with_flags(va) {
            Ok(res) => Ok(res),
            Err(e) => {
                self.faults += 1;
                Err(e)
            }
        }
    }

    /// Total walks attempted.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Walks that faulted.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Zeroes the walk and fault counters (between experiment
    /// repetitions).
    pub fn reset(&mut self) {
        self.walks = 0;
        self.faults = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn mapped_space() -> AddressSpace {
        let mut s = AddressSpace::new();
        for i in 0..16u64 {
            s.map(
                VirtAddr::new(0x10_0000 + i * PAGE_SIZE),
                PhysAddr::new(0x50_0000 + i * PAGE_SIZE),
                PageFlags::rw(),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn functional_walk_translates() {
        let space = mapped_space();
        let mut w = PageTableWalker::new();
        let r = w.walk(&space, VirtAddr::new(0x10_0040)).unwrap();
        assert_eq!(r.pa.raw(), 0x50_0040);
        assert!(r.flags.write);
    }

    #[test]
    fn walk_faults_propagate() {
        let space = AddressSpace::new();
        let mut w = PageTableWalker::new();
        assert!(w.walk(&space, VirtAddr::new(0x123000)).is_err());
        assert!(w.walk_frame(&space, VirtAddr::new(0x123000)).is_err());
        assert_eq!(w.faults(), 2, "both the full and the leaf walk faulted");
        assert_eq!(w.walks(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let space = mapped_space();
        let mut w = PageTableWalker::new();
        w.walk(&space, VirtAddr::new(0x10_0000)).unwrap();
        assert!(w.walk(&space, VirtAddr::new(0x123000)).is_err());
        w.reset();
        assert_eq!((w.walks(), w.faults()), (0, 0));
        let r = w.walk(&space, VirtAddr::new(0x10_0000)).unwrap();
        assert_eq!(r.pa.raw(), 0x50_0000);
        assert_eq!(w.walks(), 1);
    }
}
