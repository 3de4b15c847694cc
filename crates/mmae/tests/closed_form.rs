//! The closed-form pass and tile walks against a literal nested-loop
//! reference.
//!
//! `block_pass_at` and the pass and tile counts index the two-level tile
//! decomposition by arithmetic, and the `pass_tiles` cursor steps a
//! pass's tiles by offset; the reference below walks the same
//! decomposition the way the Accelerator Controller does, stepping
//! offsets through the matrix and clipping the last block and tile of
//! every extent. Random GEMMs and tilings are drawn so that extents are
//! exact multiples of their tile, one element past a multiple (1-wide
//! edges) or anything in between (ragged edges), and tiles may be as
//! narrow as one element.

use proptest::prelude::*;

use maco_mmae::tiling::{pass_tiles, tile_step_count};
use maco_mmae::{
    block_pass_at, block_pass_count, block_passes, tile_count, tiles_in_pass, BlockPass, Tile,
    TilingConfig,
};

/// Every block pass by stepping block offsets: rows, then columns, then
/// the reduction innermost.
fn reference_passes(m: u64, n: u64, k: u64, t: &TilingConfig) -> Vec<BlockPass> {
    let mut passes = Vec::new();
    for (ib, row0) in (0..m).step_by(t.tr as usize).enumerate() {
        for (jb, col0) in (0..n).step_by(t.tc as usize).enumerate() {
            for (kb, k0) in (0..k).step_by(t.tk as usize).enumerate() {
                passes.push(BlockPass {
                    ib: ib as u64,
                    jb: jb as u64,
                    kb: kb as u64,
                    row0,
                    col0,
                    k0,
                    rows: t.tr.min(m - row0),
                    cols: t.tc.min(n - col0),
                    depth: t.tk.min(k - k0),
                    first_k: k0 == 0,
                    last_k: k0 + t.tk >= k,
                });
            }
        }
    }
    passes
}

/// Every tile of `pass` by stepping tile offsets: columns outer, rows
/// inner.
fn reference_tiles(pass: &BlockPass, t: &TilingConfig) -> Vec<Tile> {
    let (row_end, col_end) = (pass.row0 + pass.rows, pass.col0 + pass.cols);
    let mut tiles = Vec::new();
    for col0 in (pass.col0..col_end).step_by(t.ttc as usize) {
        for row0 in (pass.row0..row_end).step_by(t.ttr as usize) {
            tiles.push(Tile {
                row0,
                col0,
                rows: t.ttr.min(row_end - row0),
                cols: t.ttc.min(col_end - col0),
            });
        }
    }
    tiles
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

proptest! {
    #[test]
    fn closed_form_passes_and_tiles_match_nested_loops(
        blocks in (1u64..24, 1u64..24, 1u64..24),
        inner in (0u64..24, 0u64..24, 0u64..24),
        whole in (0u64..4, 0u64..4, 0u64..4),
        edges in (0u64..3, 0u64..3, 0u64..3),
        ragged in (0u64..24, 0u64..24, 0u64..24),
    ) {
        let t = TilingConfig {
            tr: blocks.0,
            tc: blocks.1,
            tk: blocks.2,
            ttr: 1 + inner.0 % blocks.0,
            ttc: 1 + inner.1 % blocks.1,
            ttk: 1 + inner.2 % blocks.2,
        };
        let m = extent(t.tr, whole.0, edges.0, ragged.0);
        let n = extent(t.tc, whole.1, edges.1, ragged.1);
        let k = extent(t.tk, whole.2, edges.2, ragged.2);

        let passes = reference_passes(m, n, k, &t);
        prop_assert_eq!(block_pass_count(m, n, k, &t), passes.len());
        prop_assert_eq!(block_passes(m, n, k, &t), passes.clone());
        let mut steps = 0u64;
        for (i, pass) in passes.iter().enumerate() {
            prop_assert_eq!(block_pass_at(m, n, k, &t, i), *pass, "pass {} of {}x{}x{}", i, m, n, k);
            let tiles = reference_tiles(pass, &t);
            prop_assert_eq!(tile_count(pass, &t), tiles.len());
            prop_assert_eq!(tiles_in_pass(pass, &t), tiles.clone());
            prop_assert!(pass_tiles(pass, &t).eq(tiles.iter().copied()));
            steps += tiles.len() as u64;
        }
        prop_assert_eq!(tile_step_count(m, n, k, &t), steps);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn a_pass_index_past_the_count_panics() {
    let t = TilingConfig::default();
    let count = block_pass_count(1500, 1024, 1024, &t);
    block_pass_at(1500, 1024, 1024, &t, count);
}
