//! Property-based tests over the core invariants of the reproduction.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proptest::prelude::*;

use maco::isa::mtq::MasterTaskQueue;
use maco::isa::params::GemmParams;
use maco::isa::{Asid, ExceptionType, Precision};
use maco::mmae::config::TilingConfig;
use maco::mmae::systolic::{reference_gemm, SystolicArray};
use maco::mmae::tiling::{block_passes, tiles_in_pass};
use maco::mmae::translate::{StreamTranslation, TranslationContext};
use maco::mmae::Mmae;
use maco::noc::routing::xy_route;
use maco::noc::sfc::TileOrder;
use maco::noc::topology::{MeshShape, NodeId};
use maco::sim::SimDuration;
use maco::vm::matlb::TileAccessPattern;
use maco::vm::page_table::{AddressSpace, PageFlags, TranslateFault};
use maco::vm::tlb::Tlb;
use maco::vm::{PhysAddr, VirtAddr, PAGE_SIZE};

/// First page of the window the address-space properties work in.
const WINDOW_VPN: u64 = 0x1_0000 - 40;
/// Pages in that window.
const WINDOW_PAGES: u64 = 96;

/// Applies random `(kind, page, len)` operations inside the window:
/// `map_range`, a single `map` or an `unmap`. Failures (double maps,
/// unmapping a hole) are part of the sequence and leave the space as the
/// operation left it.
fn random_space(ops: &[(u8, u64, u64)]) -> AddressSpace {
    let mut space = AddressSpace::new();
    let mut frame = 0x100_0000u64;
    for &(kind, page, len) in ops {
        let va = VirtAddr::new((WINDOW_VPN + page) * PAGE_SIZE);
        frame += len * PAGE_SIZE;
        let pa = PhysAddr::new(frame);
        let _ = match kind {
            0 => space.map_range(va, pa, len * PAGE_SIZE, PageFlags::rw()),
            1 => space.map(va, pa, PageFlags::ro()),
            _ => space.unmap(va),
        };
    }
    space
}

/// Page-wise reference for [`AddressSpace`]: page → (frame, writable).
#[derive(Default)]
struct PagewiseSpace(BTreeMap<u64, (u64, bool)>);

impl PagewiseSpace {
    fn map(&mut self, va: VirtAddr, pa: PhysAddr, write: bool) -> Result<(), TranslateFault> {
        match self.0.entry(va.page_number()) {
            Entry::Occupied(_) => Err(TranslateFault::AlreadyMapped { va }),
            Entry::Vacant(slot) => {
                slot.insert((pa.frame_number(), write));
                Ok(())
            }
        }
    }

    /// Page by page, stopping at the first mapped page.
    fn map_range(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        pages: u64,
        write: bool,
    ) -> Result<(), TranslateFault> {
        (0..pages).try_for_each(|i| self.map(va + i * PAGE_SIZE, pa + i * PAGE_SIZE, write))
    }

    fn unmap(&mut self, va: VirtAddr) -> Result<(), TranslateFault> {
        match self.0.remove(&va.page_number()) {
            Some(_) => Ok(()),
            None => Err(TranslateFault::NotMapped { va }),
        }
    }

    fn translate_with_flags(&self, va: VirtAddr) -> Result<(PhysAddr, PageFlags), TranslateFault> {
        let &(frame, write) = self
            .0
            .get(&va.page_number())
            .ok_or(TranslateFault::NotMapped { va })?;
        let flags = if write {
            PageFlags::rw()
        } else {
            PageFlags::ro()
        };
        Ok((PhysAddr::new(frame * PAGE_SIZE + va.page_offset()), flags))
    }
}

proptest! {
    /// Every output element of a GEMM is covered exactly once per
    /// reduction pass, for arbitrary shapes and tilings.
    #[test]
    fn tiling_covers_output_exactly_once(
        m in 1u64..300,
        n in 1u64..300,
        k in 1u64..200,
        tr in 1u64..4,
        tc in 1u64..4,
    ) {
        let tiling = TilingConfig {
            tr: tr * 64,
            tc: tc * 64,
            tk: 128,
            ttr: 32,
            ttc: 32,
            ttk: 32,
        };
        let mut covered = vec![0u32; (m * n) as usize];
        for pass in block_passes(m, n, k, &tiling) {
            if !pass.first_k {
                continue;
            }
            for tile in tiles_in_pass(&pass, &tiling) {
                for r in tile.row0..tile.row0 + tile.rows {
                    for c in tile.col0..tile.col0 + tile.cols {
                        covered[(r * n + c) as usize] += 1;
                    }
                }
            }
        }
        prop_assert!(covered.iter().all(|&x| x == 1));
    }

    /// The mATLB's predicted page sequence equals brute-force enumeration
    /// of every byte the pattern touches.
    #[test]
    fn matlb_prediction_is_exact(
        base in 0u64..0x4000,
        rows in 1u64..40,
        row_words in 1u64..128,
        extra_stride in 0u64..2048,
    ) {
        let row_bytes = row_words * 8;
        let pattern = TileAccessPattern::new(
            VirtAddr::new(base),
            rows,
            row_bytes,
            row_bytes + extra_stride,
        );
        let predicted: Vec<u64> =
            pattern.predicted_pages().map(|p| p.page_number()).collect();
        // Brute force with consecutive dedup.
        let mut brute = Vec::new();
        for r in 0..rows {
            let start = base + r * (row_bytes + extra_stride);
            for b in start..start + row_bytes {
                let pg = b >> 12;
                if brute.last() != Some(&pg) {
                    brute.push(pg);
                }
            }
        }
        prop_assert_eq!(pattern.distinct_page_count(), brute.len() as u64);
        prop_assert_eq!(pattern.page_span(), (brute[0], *brute.last().unwrap()));
        prop_assert_eq!(predicted, brute);
    }

    /// Predictive `translate_stream` (closed-form count, one mapped-range
    /// check) equals translating every predicted page: the same counters
    /// on success, the same first fault otherwise, and the sTLB is left
    /// untouched.
    #[test]
    fn predictive_translation_matches_the_per_page_reference(
        ops in proptest::collection::vec((0u8..3, 0u64..WINDOW_PAGES, 1u64..40), 0..12),
        offset in 0u64..WINDOW_PAGES * PAGE_SIZE,
        rows in 1u64..24,
        row_bytes in 1u64..9000,
        extra_stride in 0u64..12_000,
    ) {
        let space = random_space(&ops);
        let pattern = TileAccessPattern::new(
            VirtAddr::new(WINDOW_VPN * PAGE_SIZE + offset),
            rows,
            row_bytes,
            row_bytes + extra_stride,
        );
        let reference: Result<StreamTranslation, TranslateFault> = pattern
            .predicted_pages()
            .try_fold(0u64, |pages, page| space.translate(page).map(|_| pages + 1))
            .map(|pages| StreamTranslation {
                pages,
                matlb_hits: pages,
                ..StreamTranslation::default()
            });
        let mut stlb = Tlb::new(64);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            prediction: true,
            walk_read_latency: SimDuration::from_ns(30),
        };
        prop_assert_eq!(ctx.translate_stream(&pattern), reference);
        prop_assert_eq!((stlb.hits(), stlb.misses()), (0, 0));
    }

    /// `range_mapped` agrees with page-by-page translation for every
    /// page range in the window, under random `map`, `map_range` and
    /// `unmap` sequences.
    #[test]
    fn range_mapped_agrees_with_per_page_translate(
        ops in proptest::collection::vec((0u8..3, 0u64..WINDOW_PAGES, 1u64..40), 0..16),
    ) {
        let space = random_space(&ops);
        // A page past each end of the window, so runs reaching it count.
        let lo_vpn = WINDOW_VPN - 1;
        let mapped: Vec<bool> = (lo_vpn..=WINDOW_VPN + WINDOW_PAGES)
            .map(|vpn| space.translate(VirtAddr::new(vpn * PAGE_SIZE)).is_ok())
            .collect();
        for lo in 0..mapped.len() {
            let mut all = true;
            for (hi, &page_mapped) in mapped.iter().enumerate().skip(lo) {
                all &= page_mapped;
                prop_assert_eq!(
                    space.range_mapped(lo_vpn + lo as u64, lo_vpn + hi as u64),
                    all,
                    "pages {}..={}", lo, hi
                );
            }
        }
    }

    /// The extent `AddressSpace` behaves exactly as a page-wise map under
    /// random `map`, `map_range` and `unmap` sequences. Most operations
    /// map pages to the frames of one linear layout, so neighbours
    /// coalesce; the rest map to a fresh frame or with other flags, so
    /// VPN-adjacent extents that must stay apart are common too. After
    /// every operation the results (the first `AlreadyMapped` page of a
    /// `map_range` included, with the pages before it left mapped), each
    /// page's translation, the page count and `range_mapped` over every
    /// sub-range of the window agree.
    #[test]
    fn extent_space_matches_a_pagewise_reference(
        ops in proptest::collection::vec(
            (0u8..3, 0u64..WINDOW_PAGES, 1u64..40, 0u8..4, 0u8..2),
            1..16,
        ),
    ) {
        let mut space = AddressSpace::new();
        let mut reference = PagewiseSpace::default();
        for (step, &(kind, page, len, frame_kind, write)) in ops.iter().enumerate() {
            let write = write == 1;
            let vpn = WINDOW_VPN + page;
            let frame = if frame_kind == 0 {
                0x9000_0000 + step as u64 * 64
            } else {
                0x10_0000 + vpn
            };
            let va = VirtAddr::new(vpn * PAGE_SIZE);
            let pa = PhysAddr::new(frame * PAGE_SIZE);
            let flags = if write { PageFlags::rw() } else { PageFlags::ro() };
            let (got, want) = match kind {
                0 => (
                    space.map_range(va, pa, len * PAGE_SIZE, flags),
                    reference.map_range(va, pa, len, write),
                ),
                1 => {
                    // `map` takes any address in the page and reports it.
                    let va = va + len * 8;
                    (space.map(va, pa, flags), reference.map(va, pa, write))
                }
                _ => (space.unmap(va), reference.unmap(va)),
            };
            prop_assert_eq!(got, want, "step {}", step);
            prop_assert_eq!(space.mapped_pages(), reference.0.len() as u64);
            // A page past each end of the window, so extents reaching it
            // count.
            let lo_vpn = WINDOW_VPN - 1;
            let hi_vpn = WINDOW_VPN + WINDOW_PAGES;
            for vpn in lo_vpn..=hi_vpn {
                let va = VirtAddr::new(vpn * PAGE_SIZE + 0x18);
                prop_assert_eq!(
                    space.translate_with_flags(va),
                    reference.translate_with_flags(va),
                    "step {}, page {:#x}", step, vpn
                );
            }
            for lo in lo_vpn..=hi_vpn {
                let mut all = true;
                for hi in lo..=hi_vpn {
                    all &= reference.0.contains_key(&hi);
                    prop_assert_eq!(
                        space.range_mapped(lo, hi),
                        all,
                        "step {}, pages {:#x}..={:#x}", step, lo, hi
                    );
                }
            }
        }
    }

    /// Non-overlapping ascending rows make the predicted page sequence
    /// strictly increasing, so its length is the distinct-page count.
    #[test]
    fn predicted_pages_strictly_increase(
        base in 0u64..0x10_0000,
        rows in 1u64..64,
        row_bytes in 1u64..20_000,
        extra_stride in 0u64..20_000,
    ) {
        let pattern = TileAccessPattern::new(
            VirtAddr::new(base),
            rows,
            row_bytes,
            row_bytes + extra_stride,
        );
        let pages: Vec<u64> = pattern.predicted_pages().map(|p| p.page_number()).collect();
        prop_assert!(pages.windows(2).all(|w| w[0] < w[1]), "{:?}", pages);
        let distinct: std::collections::BTreeSet<u64> = pages.iter().copied().collect();
        prop_assert_eq!(pattern.distinct_page_count(), distinct.len() as u64);
    }

    /// X-Y routes are minimal and stay inside the mesh for every pair.
    #[test]
    fn xy_routes_minimal(sx in 0u8..4, sy in 0u8..4, dx in 0u8..4, dy in 0u8..4) {
        let mesh = MeshShape::new(4, 4);
        let src = NodeId::new(sx, sy);
        let dst = NodeId::new(dx, dy);
        let path = xy_route(mesh, src, dst);
        prop_assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
        prop_assert!(path.iter().all(|n| mesh.contains(*n)));
    }

    /// MTQ entries are never leaked or double-allocated under arbitrary
    /// interleavings of the Fig. 3 operations.
    #[test]
    fn mtq_never_leaks(ops in proptest::collection::vec((0u8..5, 0u8..4, 0u16..3), 1..300)) {
        let mut mtq = MasterTaskQueue::new(4);
        for (op, idx, asid_raw) in ops {
            let maid = maco::isa::mtq::Maid::new(idx);
            let asid = Asid::new(asid_raw);
            match op {
                0 => { let _ = mtq.allocate(asid); }
                1 => { let _ = mtq.complete(maid); }
                2 => { let _ = mtq.raise_exception(maid, ExceptionType::BusError); }
                3 => { let _ = mtq.query_release(maid, asid); }
                _ => { let _ = mtq.clear(maid); }
            }
            prop_assert!(mtq.in_use() <= mtq.capacity());
            // Allocation succeeds iff a free entry exists.
            let free = mtq.capacity() - mtq.in_use();
            let probe = mtq.allocate(Asid::new(999));
            if free > 0 {
                prop_assert!(probe.is_ok());
                mtq.clear(probe.unwrap()).unwrap();
            } else {
                prop_assert!(probe.is_err());
            }
        }
    }

    /// Tiled functional GEMM equals the reference for arbitrary small
    /// shapes (FP64).
    #[test]
    fn tiled_gemm_matches_reference(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        seed in 0u64..1000,
    ) {
        let cfg = maco::mmae::MmaeConfig {
            tiling: TilingConfig { tr: 32, tc: 32, tk: 32, ttr: 16, ttc: 16, ttk: 16 },
            ..Default::default()
        };
        let engine = Mmae::new(cfg);
        let mut rng = maco::sim::SplitMix64::new(seed);
        let a: Vec<f64> = (0..m * k).map(|_| rng.next_signed_unit()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.next_signed_unit()).collect();
        let c: Vec<f64> = (0..m * n).map(|_| rng.next_signed_unit()).collect();
        let y = engine.gemm_functional(&a, &b, &c, m, n, k, Precision::Fp64);
        let r = reference_gemm(&a, &b, &c, m, n, k);
        for (yi, ri) in y.iter().zip(&r) {
            prop_assert!((yi - ri).abs() < 1e-9);
        }
    }

    /// GEMM parameter blocks round-trip through the six-register image.
    #[test]
    fn gemm_params_roundtrip(
        m in 1u64..10_000,
        n in 1u64..10_000,
        k in 1u64..10_000,
        a in 0u64..u32::MAX as u64,
    ) {
        let p = GemmParams::new(a, a + 1, a + 2, a + 3, m, n, k, Precision::Fp32).unwrap();
        prop_assert_eq!(GemmParams::unpack(&p.pack()).unwrap(), p);
    }

    /// The systolic cycle model never beats the ideal MAC bound.
    #[test]
    fn sa_cycles_at_least_ideal(
        m in 1u64..256,
        n in 1u64..256,
        k in 1u64..256,
    ) {
        let sa = SystolicArray::new(4, 4);
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            prop_assert!(sa.tile_cycles(m, n, k, p) >= sa.ideal_cycles(m, n, k, p));
        }
    }

    /// Every tile→node ordering is a bijection onto the mesh — each cell
    /// visited exactly once — for arbitrary rectangular shapes (square,
    /// wide, tall), so no placement can drop or double-book a node.
    #[test]
    fn tile_orders_are_bijections_on_arbitrary_meshes(
        cols in 1u8..17,
        rows in 1u8..17,
    ) {
        let shape = MeshShape::new(cols, rows);
        for order in TileOrder::ALL {
            let cells = order.ordering(shape);
            prop_assert_eq!(cells.len(), shape.node_count());
            let mut seen = vec![false; shape.node_count()];
            for c in &cells {
                let i = usize::from(c.y) * usize::from(cols) + usize::from(c.x);
                prop_assert!(!seen[i], "{} visits ({}, {}) twice", order.name(), c.x, c.y);
                seen[i] = true;
            }
        }
    }

    /// On degenerate `1×N` / `N×1` meshes every space-filling curve
    /// reduces to row order — the identity assignment.
    #[test]
    fn degenerate_meshes_reduce_to_row_order(
        len in 1u8..33,
        tall in 0u64..2,
    ) {
        let shape = if tall == 1 {
            MeshShape::new(1, len)
        } else {
            MeshShape::new(len, 1)
        };
        let row = TileOrder::Row.ordering(shape);
        for order in [TileOrder::Morton, TileOrder::Hilbert] {
            prop_assert_eq!(order.ordering(shape), row.clone(), "{}", order.name());
        }
    }

    /// `TileOrder::Row` reproduces the historical `node_at` assignment
    /// bit for bit on every supported shape — the guarantee every pinned
    /// fingerprint rests on.
    #[test]
    fn row_order_is_the_historical_assignment(
        cols in 1u8..17,
        rows in 1u8..17,
        idx in 0usize..256,
    ) {
        let shape = MeshShape::new(cols, rows);
        let i = idx % shape.node_count();
        prop_assert_eq!(TileOrder::Row.position(shape, i), shape.node_at(i));
        prop_assert_eq!(TileOrder::Row.ordering(shape)[i], shape.node_at(i));
    }
}
