//! The CPU memory-management unit, as the MMAE sees it.
//!
//! Table I gives the core 48-entry L1 ITLB/DTLB backed by a 1024-entry
//! fully-associative L2 TLB. The L2 TLB is the "shared TLB (sTLB)" of
//! Fig. 2 that the MMAE accesses through customised interfaces, and the
//! mATLB sends its predicted addresses here "to perform page table walk"
//! (Section IV.A). The MMAE reaches the MMU only through that pair, so the
//! model holds just the sTLB and the walker; the L1 TLBs serve the core's
//! own loads and stores, which no experiment times.

use maco_vm::tlb::Tlb;
use maco_vm::walker::PageTableWalker;

use crate::config::CpuConfig;

/// The MMU: the shared L2 TLB and the page-table walker.
#[derive(Debug, Clone)]
pub struct Mmu {
    stlb: Tlb,
    walker: PageTableWalker,
}

impl Mmu {
    /// Builds the MMU from a core configuration.
    pub fn new(config: &CpuConfig) -> Self {
        Mmu {
            stlb: Tlb::new(config.l2_tlb_entries),
            walker: PageTableWalker::new(),
        }
    }

    /// Splits the MMU into the shared TLB and walker — the exact pair the
    /// MMAE's `TranslationContext` (in `maco-mmae`) borrows simultaneously.
    pub fn shared_parts_mut(&mut self) -> (&mut Tlb, &mut PageTableWalker) {
        (&mut self.stlb, &mut self.walker)
    }

    /// Shared TLB statistics `(hits, misses)`.
    pub fn stlb_stats(&self) -> (u64, u64) {
        (self.stlb.hits(), self.stlb.misses())
    }
}
