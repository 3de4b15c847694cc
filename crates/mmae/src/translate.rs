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

use maco_isa::Asid;
use maco_sim::{FxHashMap, SimDuration};
use maco_vm::addr::WALK_LEVELS;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::{AddressSpace, TranslateFault};
use maco_vm::tlb::{Tlb, TlbEntry};

use crate::tiling::BlockPass;

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

/// The shape of one block pass, packed into a single scalar: 42 bits each
/// for rows/cols/depth plus the first/last reduction flags. GEMM extents
/// are bounded far below that upstream (`GemmParams` encodes each
/// dimension in 21 bits), so the packing is lossless for every
/// representable pass; keying the memo this way makes a lookup a single
/// integer hash instead of a five-field tuple walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassKey(u128);

impl PassKey {
    /// Packs a pass-shape key.
    ///
    /// # Panics
    ///
    /// Panics if any extent needs more than 42 bits (far beyond any
    /// encodable GEMM dimension).
    pub fn new(rows: u64, cols: u64, depth: u64, first_k: bool, last_k: bool) -> Self {
        const LIMIT: u64 = 1 << 42;
        assert!(
            rows < LIMIT && cols < LIMIT && depth < LIMIT,
            "pass extent exceeds PassKey range"
        );
        PassKey(
            rows as u128
                | ((cols as u128) << 42)
                | ((depth as u128) << 84)
                | ((first_k as u128) << 126)
                | ((last_k as u128) << 127),
        )
    }

    /// The key of a block pass.
    pub fn of(pass: &BlockPass) -> Self {
        PassKey::new(pass.rows, pass.cols, pass.depth, pass.first_k, pass.last_k)
    }
}

/// How many times a pass shape is simulated exactly before the memoised
/// counters are trusted (warm-up effects settle after the first pass).
const WARM_PASSES: u32 = 2;

/// Memoised per-pass translation cache: [`PassKey`] → (stream counters,
/// times simulated exactly). Block passes are cyclic in steady state, so
/// after `WARM_PASSES` (2) exact simulations of a shape the recorded
/// counters are exact for every later occurrence.
#[derive(Debug, Default)]
pub struct TranslationMemo {
    map: FxHashMap<PassKey, (StreamTranslation, u32)>,
}

impl TranslationMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        TranslationMemo::default()
    }

    /// The memoised counters for `key`, once it has been simulated exactly
    /// `WARM_PASSES` times; `None` means the caller must simulate the
    /// pass and [`TranslationMemo::record`] the result.
    pub fn cached(&self, key: PassKey) -> Option<StreamTranslation> {
        self.map
            .get(&key)
            .filter(|(_, seen)| *seen >= WARM_PASSES)
            .map(|(c, _)| *c)
    }

    /// Records one exact simulation of `key`.
    pub fn record(&mut self, key: PassKey, counters: StreamTranslation) {
        let entry = self.map.entry(key).or_insert((counters, 0));
        entry.0 = counters;
        entry.1 += 1;
    }
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

    #[test]
    fn memo_serves_only_after_two_exact_passes() {
        // The memo must reproduce the original semantics exactly: the
        // first two occurrences of a shape are simulated exactly, every
        // later occurrence is a hit on the last recorded counters.
        let mut memo = TranslationMemo::new();
        let key = PassKey::new(1024, 1024, 1024, true, false);
        let mut counters = StreamTranslation {
            pages: 7,
            ..StreamTranslation::default()
        };

        assert_eq!(memo.cached(key), None, "first occurrence misses");
        memo.record(key, counters);
        assert_eq!(memo.cached(key), None, "second occurrence still misses");
        counters.pages = 9; // warm-up pass differs from steady state
        memo.record(key, counters);
        assert_eq!(
            memo.cached(key).map(|c| c.pages),
            Some(9),
            "third occurrence hits the *last* recorded counters"
        );
        // A different shape is independent.
        let other = PassKey::new(1024, 1024, 512, false, true);
        assert_eq!(memo.cached(other), None);
    }

    #[test]
    fn pass_key_is_injective_over_pass_shapes() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for rows in [1u64, 63, 64, 1024] {
            for cols in [1u64, 64, 1000] {
                for depth in [1u64, 512, 1024] {
                    for flags in 0..4u8 {
                        let key = PassKey::new(rows, cols, depth, flags & 1 != 0, flags & 2 != 0);
                        assert!(
                            seen.insert(key),
                            "collision at {rows}x{cols}x{depth}/{flags}"
                        );
                    }
                }
            }
        }
        // The convenience constructor matches the field-wise one.
        let pass = BlockPass {
            ib: 0,
            jb: 0,
            kb: 1,
            row0: 0,
            col0: 0,
            k0: 1024,
            rows: 100,
            cols: 200,
            depth: 300,
            first_k: false,
            last_k: true,
        };
        assert_eq!(PassKey::of(&pass), PassKey::new(100, 200, 300, false, true));
    }
}
