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

/// Number of block passes of an `m×n×k` GEMM: the length of
/// [`block_passes`].
///
/// # Panics
///
/// Panics on an inconsistent tiling or a zero extent.
pub fn block_pass_count(m: u64, n: u64, k: u64, t: &TilingConfig) -> usize {
    t.validate();
    assert!(m > 0 && n > 0 && k > 0, "degenerate GEMM");
    (m.div_ceil(t.tr) * n.div_ceil(t.tc) * k.div_ceil(t.tk)) as usize
}

/// The `index`-th block pass of an `m×n×k` GEMM in `ib → jb → kb` order
/// (reduction innermost, so a block's partial sums accumulate
/// back-to-back), in closed form: walks that visit passes one at a time
/// never build the list.
///
/// # Panics
///
/// Panics if `index` is not below [`block_pass_count`].
pub fn block_pass_at(m: u64, n: u64, k: u64, t: &TilingConfig, index: usize) -> BlockPass {
    let kb_count = k.div_ceil(t.tk);
    let jb_count = n.div_ceil(t.tc);
    let i = index as u64;
    let (kb, jb, ib) = (
        i % kb_count,
        i / kb_count % jb_count,
        i / kb_count / jb_count,
    );
    assert!(ib < m.div_ceil(t.tr), "pass {index} out of range");
    let (row0, col0, k0) = (ib * t.tr, jb * t.tc, kb * t.tk);
    BlockPass {
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
    }
}

/// Enumerates the block passes of an `m×n×k` GEMM: [`block_pass_at`] for
/// every index below [`block_pass_count`].
pub fn block_passes(m: u64, n: u64, k: u64, t: &TilingConfig) -> Vec<BlockPass> {
    (0..block_pass_count(m, n, k, t))
        .map(|i| block_pass_at(m, n, k, t, i))
        .collect()
}

/// Number of second-level tiles in one block pass: the length of
/// [`tiles_in_pass`].
pub fn tile_count(pass: &BlockPass, t: &TilingConfig) -> usize {
    (pass.rows.div_ceil(t.ttr) * pass.cols.div_ceil(t.ttc)) as usize
}

/// Enumerates the second-level tiles of one block pass in `jt → it` order
/// (B tiles are reused across the inner `it` sweep, matching the
/// input-stationary dataflow).
pub fn tiles_in_pass(pass: &BlockPass, t: &TilingConfig) -> Vec<Tile> {
    pass_tiles(pass, t).collect()
}

/// The tiles of [`tiles_in_pass`], in the same order, without
/// materialising them: walks that visit each tile once allocate nothing,
/// and each step is an offset advance, with no division.
pub fn pass_tiles(pass: &BlockPass, t: &TilingConfig) -> PassTiles {
    PassTiles {
        row_start: pass.row0,
        row_end: pass.row0 + pass.rows,
        col_end: pass.col0 + pass.cols,
        ttr: t.ttr,
        ttc: t.ttc,
        row0: pass.row0,
        col0: pass.col0,
    }
}

/// The tile cursor [`pass_tiles`] returns: the next tile's offsets within
/// one block pass.
#[derive(Debug, Clone)]
pub struct PassTiles {
    row_start: u64,
    row_end: u64,
    col_end: u64,
    ttr: u64,
    ttc: u64,
    row0: u64,
    col0: u64,
}

impl Iterator for PassTiles {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        if self.col0 >= self.col_end {
            return None;
        }
        let tile = Tile {
            row0: self.row0,
            col0: self.col0,
            rows: (self.row_end - self.row0).min(self.ttr),
            cols: (self.col_end - self.col0).min(self.ttc),
        };
        self.row0 += self.ttr;
        if self.row0 >= self.row_end {
            self.row0 = self.row_start;
            self.col0 += self.ttc;
        }
        Some(tile)
    }
}

/// Total number of second-level tile steps in the whole GEMM — the event
/// count of the timing simulation.
pub fn tile_step_count(m: u64, n: u64, k: u64, t: &TilingConfig) -> u64 {
    (0..block_pass_count(m, n, k, t))
        .map(|i| tile_count(&block_pass_at(m, n, k, t, i), t) as u64)
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
