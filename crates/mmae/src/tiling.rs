//! Two-level tile decomposition of a GEMM task.
//!
//! The Accelerator Controller walks a GEMM in the order Fig. 5(a) implies:
//! first-level blocks of ⟨Tr,Tc,Tk⟩ staged through the L3 (the stash/lock
//! targets), and within each block pass, second-level ⟨ttr,ttc⟩ tiles
//! staged through the on-chip buffers, sweeping the block's reduction
//! extent per tile. Ragged edges (matrix dimensions not divisible by the
//! tile extents) produce partial tiles.

use crate::config::TilingConfig;

/// One first-level block pass: the unit of stash/lock residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPass {
    /// Block row index.
    pub ib: u64,
    /// Block column index.
    pub jb: u64,
    /// Block reduction index.
    pub kb: u64,
    /// First output row covered.
    pub row0: u64,
    /// First output column covered.
    pub col0: u64,
    /// First reduction index covered.
    pub k0: u64,
    /// Rows in this block (≤ Tr).
    pub rows: u64,
    /// Columns in this block (≤ Tc).
    pub cols: u64,
    /// Reduction extent in this pass (≤ Tk).
    pub depth: u64,
    /// True for the first reduction pass of this output block (C is read).
    pub first_k: bool,
    /// True for the last reduction pass (Y is written back).
    pub last_k: bool,
}

/// One second-level tile within a block pass: the unit of buffer residency
/// and SA scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First output row.
    pub row0: u64,
    /// First output column.
    pub col0: u64,
    /// Rows (≤ ttr).
    pub rows: u64,
    /// Columns (≤ ttc).
    pub cols: u64,
}

/// Enumerates the block passes of an `m×n×k` GEMM in `ib → jb → kb` order
/// (reduction innermost, so a block's partial sums accumulate back-to-back).
pub fn block_passes(m: u64, n: u64, k: u64, t: &TilingConfig) -> Vec<BlockPass> {
    t.validate();
    assert!(m > 0 && n > 0 && k > 0, "degenerate GEMM");
    let mut passes = Vec::new();
    let kb_count = k.div_ceil(t.tk);
    for ib in 0..m.div_ceil(t.tr) {
        for jb in 0..n.div_ceil(t.tc) {
            for kb in 0..kb_count {
                let row0 = ib * t.tr;
                let col0 = jb * t.tc;
                let k0 = kb * t.tk;
                passes.push(BlockPass {
                    ib,
                    jb,
                    kb,
                    row0,
                    col0,
                    k0,
                    rows: (m - row0).min(t.tr),
                    cols: (n - col0).min(t.tc),
                    depth: (k - k0).min(t.tk),
                    first_k: kb == 0,
                    last_k: kb == kb_count - 1,
                });
            }
        }
    }
    passes
}

/// Enumerates the second-level tiles of one block pass in `jt → it` order
/// (B tiles are reused across the inner `it` sweep, matching the
/// input-stationary dataflow).
pub fn tiles_in_pass(pass: &BlockPass, t: &TilingConfig) -> Vec<Tile> {
    pass_tiles(pass, t).collect()
}

/// [`tiles_in_pass`] into a reusable buffer: the simulation hot loop calls
/// this once per block pass with a long-lived `Vec`, so steady-state pass
/// walks allocate nothing.
pub fn tiles_into(pass: &BlockPass, t: &TilingConfig, tiles: &mut Vec<Tile>) {
    tiles.clear();
    tiles.extend(pass_tiles(pass, t));
}

/// The tiles of [`tiles_in_pass`], in the same order, without
/// materialising them: walks that visit each tile once allocate nothing.
pub fn pass_tiles(pass: &BlockPass, t: &TilingConfig) -> impl Iterator<Item = Tile> {
    let (pass, t) = (*pass, *t);
    (0..pass.cols.div_ceil(t.ttc)).flat_map(move |jt| {
        (0..pass.rows.div_ceil(t.ttr)).map(move |it| {
            let row0 = pass.row0 + it * t.ttr;
            let col0 = pass.col0 + jt * t.ttc;
            Tile {
                row0,
                col0,
                rows: (pass.row0 + pass.rows - row0).min(t.ttr),
                cols: (pass.col0 + pass.cols - col0).min(t.ttc),
            }
        })
    })
}

/// Total number of second-level tile steps in the whole GEMM — the event
/// count of the timing simulation.
pub fn tile_step_count(m: u64, n: u64, k: u64, t: &TilingConfig) -> u64 {
    block_passes(m, n, k, t)
        .iter()
        .map(|p| p.rows.div_ceil(t.ttr) * p.cols.div_ceil(t.ttc))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tiling() -> TilingConfig {
        TilingConfig::default()
    }

    #[test]
    fn exact_multiple_has_full_blocks() {
        let passes = block_passes(2048, 2048, 2048, &paper_tiling());
        assert_eq!(passes.len(), 8, "2×2×2 blocks");
        assert!(passes
            .iter()
            .all(|p| p.rows == 1024 && p.cols == 1024 && p.depth == 1024));
        // kb innermost: first two passes share (ib=0, jb=0).
        assert_eq!((passes[0].kb, passes[1].kb), (0, 1));
        assert!(passes[0].first_k && !passes[0].last_k);
        assert!(!passes[1].first_k && passes[1].last_k);
    }

    #[test]
    fn small_matrix_is_single_pass() {
        let passes = block_passes(256, 256, 256, &paper_tiling());
        assert_eq!(passes.len(), 1);
        let p = passes[0];
        assert_eq!((p.rows, p.cols, p.depth), (256, 256, 256));
        assert!(p.first_k && p.last_k);
    }

    #[test]
    fn ragged_edges_truncate() {
        let passes = block_passes(1500, 1024, 1024, &paper_tiling());
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].rows, 1024);
        assert_eq!(passes[1].rows, 476);
    }

    #[test]
    fn tiles_cover_pass_exactly_once() {
        let passes = block_passes(300, 200, 64, &paper_tiling());
        let t = paper_tiling();
        // Reconstruct coverage of the output space.
        let mut covered = vec![0u8; 300 * 200];
        for pass in &passes {
            if !pass.first_k {
                continue; // same output space each kb
            }
            for tile in tiles_in_pass(pass, &t) {
                for r in tile.row0..tile.row0 + tile.rows {
                    for c in tile.col0..tile.col0 + tile.cols {
                        covered[(r * 200 + c) as usize] += 1;
                    }
                }
            }
        }
        assert!(
            covered.iter().all(|&x| x == 1),
            "every Y element exactly once"
        );
    }

    #[test]
    fn tile_order_reuses_b() {
        let passes = block_passes(256, 256, 64, &paper_tiling());
        let tiles = tiles_in_pass(&passes[0], &paper_tiling());
        assert_eq!(tiles.len(), 16);
        // jt outer: first four tiles share col0 = 0.
        assert!(tiles[..4].iter().all(|t| t.col0 == 0));
        assert_eq!(tiles[4].col0, 64);
    }

    #[test]
    fn step_count_matches_paper_scale() {
        let t = paper_tiling();
        // 1024³: one block pass of 16×16 tiles.
        assert_eq!(tile_step_count(1024, 1024, 1024, &t), 256);
        // 9216³: 9³ passes × 256 tiles.
        assert_eq!(tile_step_count(9216, 9216, 9216, &t), 729 * 256);
    }

    #[test]
    fn partial_tile_dims() {
        let passes = block_passes(100, 100, 100, &paper_tiling());
        let tiles = tiles_in_pass(&passes[0], &paper_tiling());
        assert_eq!(tiles.len(), 4, "2×2 tiles of ⟨64,36⟩");
        let last = tiles.last().unwrap();
        assert_eq!((last.rows, last.cols), (36, 36));
    }
}
