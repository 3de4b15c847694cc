//! The DMA translation path: mATLB → shared TLB → page-table walk.
//!
//! Every tile transfer touches a predictable page sequence
//! ([`TileAccessPattern`]). With prediction enabled the mATLB pre-walks
//! those pages, so the stream never stalls; without it, every shared-TLB
//! miss exposes a demand walk — four dependent descriptor reads — on the
//! DMA critical path. The difference between those two costs *is* the
//! Fig. 6 experiment.
//!
//! Predictive translation is computed in closed form: the page count
//! comes from the pattern's geometry and faults from one mapped-range
//! check, so it never touches the shared TLB (the pre-walks are off the
//! critical path and have no timing effect). Only demand translation
//! replays the stream page by page through the TLB, translating each
//! miss in the address space.
//!
//! A whole block pass goes through [`crate::Mmae::translate_pass`], which
//! prices a predictive pass once per tile row and column and replays a
//! demand pass tile by tile through this path; every pass is computed,
//! none is served from a cache of earlier passes.

use maco_isa::Asid;
use maco_sim::SimDuration;
use maco_vm::addr::WALK_LEVELS;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::{AddressSpace, TranslateFault};
use maco_vm::tlb::{Tlb, TlbEntry};

/// Outcome of translating one tile transfer's page stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamTranslation {
    /// Translation stall serialised into the DMA stream.
    pub stall: SimDuration,
    /// Page touches in the stream (consecutive-dedup, Fig. 4 order).
    pub pages: u64,
    /// Touches the mATLB pre-walked (every touch with prediction).
    pub matlb_hits: u64,
    /// Touches satisfied by the shared TLB.
    pub tlb_hits: u64,
    /// Touches that required a demand page-table walk.
    pub demand_walks: u64,
}

impl StreamTranslation {
    /// Merges another stream's counters into this one.
    pub fn merge(&mut self, other: &StreamTranslation) {
        self.stall += other.stall;
        self.pages += other.pages;
        self.matlb_hits += other.matlb_hits;
        self.tlb_hits += other.tlb_hits;
        self.demand_walks += other.demand_walks;
    }
}

/// Mutable view over the translation machinery a DMA engine uses for one
/// transfer: the process's address space and ASID, the CPU-shared TLB
/// (Fig. 2's sTLB interface), and whether predictive translation (the
/// mATLB) is enabled.
pub struct TranslationContext<'a> {
    /// Submitting process.
    pub asid: Asid,
    /// The process's address space.
    pub space: &'a AddressSpace,
    /// The shared L2 TLB the MMAE accesses through its customised
    /// interface.
    pub stlb: &'a mut Tlb,
    /// Predictive translation; `false` reproduces the "without
    /// prediction" configuration of Fig. 6.
    pub prediction: bool,
    /// Memory latency of one descriptor read during a walk (walks hit the
    /// L2/L3 caches holding hot table nodes).
    pub walk_read_latency: SimDuration,
}

impl TranslationContext<'_> {
    /// Latency of one full demand walk (four dependent reads).
    pub fn demand_walk_latency(&self) -> SimDuration {
        self.walk_read_latency * WALK_LEVELS as u64
    }

    /// Translates the page stream of `pattern`, returning its page counts
    /// and the stall serialised into the DMA transfer.
    ///
    /// With prediction, the mATLB pre-walks every page off the critical
    /// path, so the stream never stalls and every page is an mATLB hit.
    /// The result follows from the pattern alone: the page count in closed
    /// form and, when the pattern's page span is mapped, no fault; the
    /// sTLB is not touched. Without prediction, every sTLB miss stalls
    /// the stream for a full walk.
    ///
    /// # Errors
    ///
    /// Returns the first [`TranslateFault`] in stream order — the MMAE
    /// reports it as a `TranslationFault` exception through the MTQ
    /// (Fig. 3 ④).
    pub fn translate_stream(
        &mut self,
        pattern: &TileAccessPattern,
    ) -> Result<StreamTranslation, TranslateFault> {
        if self.prediction {
            let (lo, hi) = pattern.page_span();
            if !self.space.range_mapped(lo, hi) {
                // Some page in the span is a hole; find the first one the
                // stream touches (holes in the gaps between rows are
                // never touched).
                for page in pattern.predicted_pages() {
                    self.space.translate(page)?;
                }
            }
            let pages = pattern.distinct_page_count();
            return Ok(StreamTranslation {
                pages,
                matlb_hits: pages,
                ..StreamTranslation::default()
            });
        }

        // Demand mode: every shared-TLB miss exposes a full walk on the
        // stream's critical path.
        let mut out = StreamTranslation::default();
        let walk_latency = self.demand_walk_latency();
        let asid = self.asid;
        let space = self.space;
        for page in pattern.predicted_pages() {
            out.pages += 1;
            let (hit, _) = self.stlb.lookup_or_fill(asid, page.page_number(), || {
                let (pa, flags) = space.translate_with_flags(page)?;
                Ok(TlbEntry {
                    frame: pa.frame_number(),
                    flags,
                })
            })?;
            if hit {
                out.tlb_hits += 1;
            } else {
                out.demand_walks += 1;
                out.stall += walk_latency;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_vm::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
    use maco_vm::page_table::PageFlags;

    fn make_space(pages: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_range(
            VirtAddr::new(0),
            PhysAddr::new(0x100_0000),
            pages * PAGE_SIZE,
            PageFlags::rw(),
        )
        .unwrap();
        s
    }

    fn pattern_rows(rows: u64) -> TileAccessPattern {
        // One page per row: 512 B rows at 8 KB stride (Fig. 4 case 1).
        TileAccessPattern::new(VirtAddr::new(0), rows, 512, 8192)
    }

    #[test]
    fn without_prediction_cold_pages_stall() {
        let space = make_space(128);
        let mut stlb = Tlb::new(1024);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: false,
            walk_read_latency: SimDuration::from_ns(30),
        };
        let tr = ctx.translate_stream(&pattern_rows(16)).unwrap();
        assert_eq!(tr.pages, 16);
        assert_eq!(tr.demand_walks, 16, "all cold");
        assert_eq!(tr.stall, SimDuration::from_ns(16 * 120));
        assert_eq!(tr.matlb_hits, 0);
    }

    #[test]
    fn without_prediction_warm_pages_hit_tlb() {
        let space = make_space(128);
        let mut stlb = Tlb::new(1024);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: false,
            walk_read_latency: SimDuration::from_ns(30),
        };
        ctx.translate_stream(&pattern_rows(16)).unwrap();
        let tr = ctx.translate_stream(&pattern_rows(16)).unwrap();
        assert_eq!(tr.tlb_hits, 16, "second pass is warm");
        assert_eq!(tr.stall, SimDuration::ZERO);
    }

    #[test]
    fn with_prediction_no_stall_even_cold() {
        let space = make_space(128);
        let mut stlb = Tlb::new(1024);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: true,
            walk_read_latency: SimDuration::from_ns(30),
        };
        let tr = ctx.translate_stream(&pattern_rows(16)).unwrap();
        assert_eq!(tr.matlb_hits, 16, "prefetch hides every walk");
        assert_eq!(tr.stall, SimDuration::ZERO);
        // The result is closed-form: the sTLB is untouched.
        assert_eq!((stlb.hits(), stlb.misses()), (0, 0));
        assert!(stlb.probe(Asid::new(1), 0).is_none());
    }

    #[test]
    fn prediction_covers_streams_beyond_the_buffer_window() {
        // No prefetch buffer is modelled, so a stream longer than any
        // buffer window never stalls and never reaches the sTLB.
        let space = make_space(256);
        let mut stlb = Tlb::new(1024);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: true,
            walk_read_latency: SimDuration::from_ns(30),
        };
        let tr = ctx.translate_stream(&pattern_rows(32)).unwrap();
        assert_eq!(tr.matlb_hits, 32);
        assert_eq!(tr.demand_walks, 0);
        assert_eq!(tr.stall, SimDuration::ZERO);
        assert_eq!(stlb.len(), 0);
    }

    #[test]
    fn unmapped_page_faults() {
        let space = make_space(4); // only 4 pages mapped
        let mut stlb = Tlb::new(64);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: false,
            walk_read_latency: SimDuration::from_ns(30),
        };
        // Rows stride into unmapped territory.
        let err = ctx.translate_stream(&pattern_rows(16));
        assert!(err.is_err());
    }

    #[test]
    fn prefetch_fault_reported_before_stream() {
        let space = make_space(4);
        let mut stlb = Tlb::new(64);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: true,
            walk_read_latency: SimDuration::from_ns(30),
        };
        assert!(ctx.translate_stream(&pattern_rows(16)).is_err());
    }

    #[test]
    fn tlb_thrash_reproduces_fig6_mechanism() {
        // Working set (64 pages) larger than a tiny TLB (16 entries):
        // repeated passes keep missing, exactly the n ≥ 1024 regime.
        let space = make_space(128);
        let mut stlb = Tlb::new(16);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: false,
            walk_read_latency: SimDuration::from_ns(30),
        };
        ctx.translate_stream(&pattern_rows(64)).unwrap();
        let tr = ctx.translate_stream(&pattern_rows(64)).unwrap();
        assert_eq!(tr.demand_walks, 64, "LRU thrash: no reuse survives");
    }
}
