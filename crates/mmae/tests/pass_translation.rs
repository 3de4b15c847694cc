//! Pass translation against a per-tile reference.
//!
//! `Mmae::translate_pass` prices a predictive pass in closed form: one
//! mapped-range check per operand block, then A's page count once per
//! tile row, B's once per tile column and C's and Y's once per tile. The
//! reference below is the plain walk it replaces: every tile's A, B and
//! (on the first/last reduction pass) C and Y streams in tile order, each
//! through `TranslationContext::translate_stream`. The two must agree on
//! the counters of every pass or report the same first fault.
//!
//! Random GEMMs are drawn on random tilings (second-level tiles need not
//! divide the blocks, so tile rows and columns are ragged), in every
//! precision, with leading dimensions past the matrix width, operands
//! that start mid-page, and holes punched with `unmap` into the mapped
//! operands, in and beside the pass's streams. Demand mode is checked
//! against the same walk on a twin sTLB, contents included.

use proptest::prelude::*;

use maco_isa::params::GemmParams;
use maco_isa::{Asid, Precision};
use maco_mmae::tiling::pass_tiles;
use maco_mmae::{
    block_pass_at, block_pass_count, BlockPass, Mmae, MmaeConfig, StreamTranslation, TilingConfig,
    TranslationContext,
};
use maco_sim::SimDuration;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::{AddressSpace, PageFlags, TranslateFault};
use maco_vm::tlb::Tlb;
use maco_vm::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Every tile's streams in tile order, one `translate_stream` each.
fn reference_pass(
    params: &GemmParams,
    pass: &BlockPass,
    t: &TilingConfig,
    ctx: &mut TranslationContext<'_>,
) -> Result<StreamTranslation, TranslateFault> {
    let e = params.elem_bytes();
    let mut total = StreamTranslation::default();
    for tile in pass_tiles(pass, t) {
        let a = TileAccessPattern::new(
            VirtAddr::new(params.a_addr + (tile.row0 * params.lda + pass.k0) * e),
            tile.rows,
            pass.depth * e,
            params.lda * e,
        );
        total.merge(&ctx.translate_stream(&a)?);
        let b = TileAccessPattern::new(
            VirtAddr::new(params.b_addr + (pass.k0 * params.ldb + tile.col0) * e),
            pass.depth,
            tile.cols * e,
            params.ldb * e,
        );
        total.merge(&ctx.translate_stream(&b)?);
        for (streamed, addr) in [(pass.first_k, params.c_addr), (pass.last_k, params.y_addr)] {
            if streamed {
                let out = TileAccessPattern::new(
                    VirtAddr::new(addr + (tile.row0 * params.ldc + tile.col0) * e),
                    tile.rows,
                    tile.cols * e,
                    params.ldc * e,
                );
                total.merge(&ctx.translate_stream(&out)?);
            }
        }
    }
    Ok(total)
}

/// An extent of `whole` full tiles plus an edge: none, a 1-wide one or a
/// ragged one of `ragged % tile` (at least one element overall).
fn extent(tile: u64, whole: u64, edge: u64, ragged: u64) -> u64 {
    let edge = match edge {
        0 => 0,
        1 => 1,
        _ => ragged % tile,
    };
    (whole * tile + edge).max(1)
}

/// A leading dimension: the width itself half the time, else padded.
fn leading(width: u64, pad: u64) -> u64 {
    width + if pad.is_multiple_of(2) { 0 } else { pad / 2 }
}

fn context<'a>(
    space: &'a AddressSpace,
    stlb: &'a mut Tlb,
    prediction: bool,
) -> TranslationContext<'a> {
    TranslationContext {
        asid: Asid::new(1),
        space,
        stlb,
        prediction,
        walk_read_latency: SimDuration::from_ns(30),
    }
}

proptest! {
    #[test]
    fn translate_pass_matches_a_per_tile_walk(
        blocks in (1u64..80, 1u64..80, 1u64..80),
        inner in (0u64..80, 0u64..80),
        whole in (0u64..4, 0u64..4, 0u64..4),
        edges in (0u64..3, 0u64..3, 0u64..3),
        ragged in (0u64..80, 0u64..80, 0u64..80),
        precision in 0usize..4,
        pads in (0u64..2400, 0u64..2400, 0u64..2400),
        offsets in proptest::collection::vec((0u64..PAGE_SIZE, 0u64..3), 4..5),
        pass_pick in 0u64..u64::MAX,
        holes in proptest::collection::vec((0usize..4, 0u64..u64::MAX, 0u64..u64::MAX, 0u8..2), 0..3),
        stlb_entries in 1usize..48,
    ) {
        let t = TilingConfig {
            tr: blocks.0,
            tc: blocks.1,
            tk: blocks.2,
            ttr: 1 + inner.0 % blocks.0,
            ttc: 1 + inner.1 % blocks.1,
            ttk: blocks.2,
        };
        let m = extent(t.tr, whole.0, edges.0, ragged.0);
        let n = extent(t.tc, whole.1, edges.1, ragged.1);
        let k = extent(t.tk, whole.2, edges.2, ragged.2);
        let precision = Precision::ALL[precision];
        let e = precision.bytes();
        let (lda, ldb, ldc) = (leading(k, pads.0), leading(n, pads.1), leading(n, pads.2));

        // A, B, C and Y as (rows, cols, leading dimension), each mapped
        // over exactly its pages, from a base 0–2 pages past the previous
        // operand's last page and anywhere within its first page.
        let shapes = [(m, k, lda), (k, n, ldb), (m, n, ldc), (m, n, ldc)];
        let mut space = AddressSpace::new();
        let mut bases = [0u64; 4];
        let mut next_page = 16;
        for (i, &(rows, cols, ld)) in shapes.iter().enumerate() {
            let (offset, gap) = offsets[i];
            let first_page = next_page + gap;
            bases[i] = first_page * PAGE_SIZE + offset;
            let last_byte = bases[i] + ((rows - 1) * ld + cols) * e - 1;
            let last_page = last_byte / PAGE_SIZE;
            space
                .map_range(
                    VirtAddr::new(first_page * PAGE_SIZE),
                    PhysAddr::new((0x1000 + 0x10_0000 * i as u64) * PAGE_SIZE),
                    (last_page + 1 - first_page) * PAGE_SIZE,
                    PageFlags::rw(),
                )
                .unwrap();
            next_page = last_page + 1;
        }
        let params = GemmParams::new(bases[0], bases[1], bases[2], bases[3], m, n, k, precision)
            .unwrap()
            .with_strides(lda, ldb, ldc)
            .unwrap();

        let pass = block_pass_at(m, n, k, &t, (pass_pick % block_pass_count(m, n, k, &t) as u64) as usize);
        // Holes: one element's page of an operand, in a row the pass
        // streams and either in a column it streams or anywhere in the row
        // pitch (the gap past the matrix width included).
        let rows = [(pass.row0, pass.rows), (pass.k0, pass.depth), (pass.row0, pass.rows), (pass.row0, pass.rows)];
        let cols = [(pass.k0, pass.depth), (pass.col0, pass.cols), (pass.col0, pass.cols), (pass.col0, pass.cols)];
        for &(operand, row_pick, col_pick, in_pass) in &holes {
            let ld = shapes[operand].2;
            let row = rows[operand].0 + row_pick % rows[operand].1;
            let col = if in_pass == 1 {
                cols[operand].0 + col_pick % cols[operand].1
            } else {
                col_pick % ld
            };
            // A page already unmapped stays a hole.
            let _ = space.unmap(VirtAddr::new(bases[operand] + (row * ld + col) * e));
        }

        let engine = Mmae::new(MmaeConfig { tiling: t, ..MmaeConfig::default() });
        for prediction in [true, false] {
            let (mut stlb, mut reference_stlb) = (Tlb::new(stlb_entries), Tlb::new(stlb_entries));
            let got = engine.translate_pass(&params, &pass, &mut context(&space, &mut stlb, prediction));
            let want = reference_pass(&params, &pass, &t, &mut context(&space, &mut reference_stlb, prediction));
            prop_assert_eq!(got, want, "prediction {} pass {:?} of {}x{}x{}", prediction, pass, m, n, k);
            prop_assert!(stlb.iter_mru().eq(reference_stlb.iter_mru()));
            prop_assert_eq!((stlb.hits(), stlb.misses()), (reference_stlb.hits(), reference_stlb.misses()));
        }
    }
}
