//! The MMAE engine facade.
//!
//! Glues the pieces together the way the Accelerator Controller does in
//! Fig. 2(a): the AC walks the two-level tiling, the ADE's DMA engines
//! stream tiles (with translation through the mATLB/sTLB path), and the
//! systolic array crunches. The engine exposes:
//!
//! * [`Mmae::translate_pass`] — the exact translation of every tile
//!   transfer in one block pass: in closed form per tile row and column
//!   with prediction (a tile row shares one A stream, a tile column one B
//!   stream), replayed tile by tile through the shared TLB without. The
//!   full-system simulator in `maco-core` folds its stall into the
//!   tile-step prices.
//! * [`Mmae::gemm_functional`] — the bit-faithful functional execution of
//!   the same tiling, verified against a reference GEMM in the tests.

use maco_isa::params::GemmParams;
use maco_isa::Precision;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::TranslateFault;
use maco_vm::{VirtAddr, PAGE_SIZE};

use crate::config::MmaeConfig;
use crate::kernels::{matmul_into, GemmOperands, GemmScratch};
use crate::systolic::SystolicArray;
use crate::tiling::{block_pass_at, block_pass_count, pass_tiles, BlockPass};
use crate::translate::{StreamTranslation, TranslationContext};

/// Fixed cost of accepting a task from the CPU (MA_CFG micro-ops, STQ
/// handshake, AC configuration), in MMAE cycles.
pub const TASK_ISSUE_CYCLES: u64 = 2_000;

/// The engine.
#[derive(Debug, Clone)]
pub struct Mmae {
    config: MmaeConfig,
    sa: SystolicArray,
}

impl Mmae {
    /// Creates an engine from its configuration.
    pub fn new(config: MmaeConfig) -> Self {
        Mmae {
            sa: SystolicArray::new(config.sa_rows, config.sa_cols),
            config,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &MmaeConfig {
        &self.config
    }

    /// The systolic array model.
    pub fn sa(&self) -> &SystolicArray {
        &self.sa
    }

    /// Exact translation of every tile transfer in one block pass —
    /// public so the full-system simulator in `maco-core` can drive the
    /// same page streams while owning the event loop. Allocation-free.
    ///
    /// Every tile of a tile row reads the same A stream and every tile of
    /// a tile column the same B stream, so a predictive pass is priced in
    /// closed form: one mapped-range check per operand block, then A
    /// counted once per tile row, B once per tile column, and C (first
    /// reduction pass) and Y (last) once per tile column when its rows
    /// lie a page or more apart, once per tile otherwise. A demand pass,
    /// or a predictive one whose operand blocks span a hole, streams
    /// every tile's transfers through
    /// [`TranslationContext::translate_stream`] in tile order, so a fault
    /// is the first one in stream order.
    pub fn translate_pass(
        &self,
        params: &GemmParams,
        pass: &BlockPass,
        ctx: &mut TranslationContext<'_>,
    ) -> Result<StreamTranslation, TranslateFault> {
        let (p, t, e) = (params, &self.config.tiling, params.elem_bytes());
        // The `rows×cols` sub-block at `(row0, col0)` of the matrix at
        // `addr` with leading dimension `ld`.
        let block = |addr: u64, ld: u64, (row0, col0): (u64, u64), (rows, cols): (u64, u64)| {
            let base = VirtAddr::new(addr + (row0 * ld + col0) * e);
            TileAccessPattern::new(base, rows, cols * e, ld * e)
        };
        let a = |row0, rows| block(p.a_addr, p.lda, (row0, pass.k0), (rows, pass.depth));
        let b = |col0, cols| block(p.b_addr, p.ldb, (pass.k0, col0), (pass.depth, cols));
        let out = |addr, at, size| block(addr, p.ldc, at, size);
        // C is read on the first reduction pass, Y written on the last.
        let outs = [(pass.first_k, p.c_addr), (pass.last_k, p.y_addr)];
        let outs = outs.iter().filter(|o| o.0).map(|o| o.1);
        if ctx.prediction {
            let mapped = |stream: TileAccessPattern| {
                let (lo, hi) = stream.page_span();
                ctx.space.range_mapped(lo, hi)
            };
            let (row0, col0, rows, cols) = (pass.row0, pass.col0, pass.rows, pass.cols);
            if mapped(a(row0, rows))
                && mapped(b(col0, cols))
                && outs
                    .clone()
                    .all(|addr| mapped(out(addr, (row0, col0), (rows, cols))))
            {
                // Each tile row's first row and height, and each tile
                // column's first column and width.
                let row_tiles = (row0..row0 + rows)
                    .step_by(t.ttr as usize)
                    .map(|r| (r, (row0 + rows - r).min(t.ttr)));
                let col_tiles = (col0..col0 + cols)
                    .step_by(t.ttc as usize)
                    .map(|c| (c, (col0 + cols - c).min(t.ttc)));
                let (tile_rows, tile_cols) = (rows.div_ceil(t.ttr), cols.div_ceil(t.ttc));
                let mut pages = 0;
                for (r, height) in row_tiles.clone() {
                    pages += a(r, height).distinct_page_count() * tile_cols;
                }
                for (c, width) in col_tiles {
                    pages += b(c, width).distinct_page_count() * tile_rows;
                    for addr in outs.clone() {
                        // Rows a page or more apart share no page, so a
                        // tile column's pages are then those of its tiles.
                        let column = out(addr, (row0, c), (rows, width));
                        pages += if column.row_stride - column.row_bytes >= PAGE_SIZE {
                            column.distinct_page_count()
                        } else {
                            row_tiles
                                .clone()
                                .map(|(r, height)| out(addr, (r, c), (height, width)))
                                .map(|tile| tile.distinct_page_count())
                                .sum()
                        };
                    }
                }
                return Ok(StreamTranslation {
                    pages,
                    matlb_hits: pages,
                    ..StreamTranslation::default()
                });
            }
        }
        let mut total = StreamTranslation::default();
        for tile in pass_tiles(pass, t) {
            total.merge(&ctx.translate_stream(&a(tile.row0, tile.rows))?);
            total.merge(&ctx.translate_stream(&b(tile.col0, tile.cols))?);
            for addr in outs.clone() {
                let c = out(addr, (tile.row0, tile.col0), (tile.rows, tile.cols));
                total.merge(&ctx.translate_stream(&c)?);
            }
        }
        Ok(total)
    }

    /// Functional execution of the engine's tiling: computes `Y = A×B + C`
    /// over host matrices with the SA's per-precision rounding, exercising
    /// exactly the block/tile decomposition the timing model in `maco-core`
    /// prices.
    ///
    /// Convenience wrapper over [`Mmae::gemm_functional_with`] that owns a
    /// throwaway scratch arena; sweep harnesses thread one long-lived
    /// [`GemmScratch`] through the `_with` variant instead.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the dimensions.
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature: 3 matrices + m/n/k + precision
    pub fn gemm_functional(
        &self,
        a: &[f64],
        b: &[f64],
        c: &[f64],
        m: usize,
        n: usize,
        k: usize,
        precision: Precision,
    ) -> Vec<f64> {
        let mut scratch = GemmScratch::new();
        let mut y = Vec::new();
        self.gemm_functional_with(
            &mut scratch,
            GemmOperands::new(a, b, c, m, n, k),
            precision,
            &mut y,
        );
        y
    }

    /// Allocation-free variant of [`Mmae::gemm_functional`]: computes into
    /// `y` (resized to `m·n`) with all tile staging and operand packing in
    /// `scratch`. After the first tile of a sweep has sized the arena,
    /// steady-state tile passes perform no allocation at all.
    pub fn gemm_functional_with(
        &self,
        scratch: &mut GemmScratch,
        ops: GemmOperands<'_>,
        precision: Precision,
        y: &mut Vec<f64>,
    ) {
        let t = &self.config.tiling;
        let (m, n, k) = (ops.m, ops.n, ops.k);
        y.clear();
        y.resize(m * n, 0.0);
        let (mu, nu, ku) = (m as u64, n as u64, k as u64);
        for i in 0..block_pass_count(mu, nu, ku, t) {
            let pass = block_pass_at(mu, nu, ku, t, i);
            let (k0, depth) = (pass.k0 as usize, pass.depth as usize);
            for tile in pass_tiles(&pass, t) {
                let (tr, tc) = (tile.rows as usize, tile.cols as usize);
                let (row0, col0) = (tile.row0 as usize, tile.col0 as usize);
                // Gather operand sub-blocks into the arena.
                scratch.at.clear();
                for r in 0..tr {
                    let start = (row0 + r) * k + k0;
                    scratch.at.extend_from_slice(&ops.a[start..start + depth]);
                }
                scratch.bt.clear();
                for kk in 0..depth {
                    let start = (k0 + kk) * n + col0;
                    scratch.bt.extend_from_slice(&ops.b[start..start + tc]);
                }
                // Partial-sum input: C on the first pass, Y accumulator after.
                scratch.ct.clear();
                let src: &[f64] = if pass.first_k { ops.c } else { y };
                for r in 0..tr {
                    let start = (row0 + r) * n + col0;
                    scratch.ct.extend_from_slice(&src[start..start + tc]);
                }
                scratch.yt.clear();
                scratch.yt.resize(tr * tc, 0.0);
                matmul_into(
                    &mut scratch.pack,
                    GemmOperands::new(&scratch.at, &scratch.bt, &scratch.ct, tr, tc, depth),
                    precision,
                    &mut scratch.yt,
                );
                for r in 0..tr {
                    let start = (row0 + r) * n + col0;
                    y[start..start + tc].copy_from_slice(&scratch.yt[r * tc..(r + 1) * tc]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_sim::SplitMix64;

    use crate::config::TilingConfig;
    use crate::systolic::reference_gemm;

    fn small_engine() -> Mmae {
        let cfg = MmaeConfig {
            tiling: TilingConfig {
                tr: 64,
                tc: 64,
                tk: 64,
                ttr: 16,
                ttc: 16,
                ttk: 16,
            },
            ..Default::default()
        };
        Mmae::new(cfg)
    }

    #[test]
    fn functional_tiled_matches_reference_fp64() {
        let engine = small_engine();
        let mut rng = SplitMix64::new(7);
        let (m, n, k) = (96, 80, 72);
        let a: Vec<f64> = (0..m * k).map(|_| rng.next_signed_unit()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.next_signed_unit()).collect();
        let c: Vec<f64> = (0..m * n).map(|_| rng.next_signed_unit()).collect();
        let y = engine.gemm_functional(&a, &b, &c, m, n, k, Precision::Fp64);
        let r = reference_gemm(&a, &b, &c, m, n, k);
        for (i, (yi, ri)) in y.iter().zip(&r).enumerate() {
            assert!((yi - ri).abs() < 1e-10, "element {i}: {yi} vs {ri}");
        }
    }

    #[test]
    fn functional_tiled_matches_untiled_sa_fp32() {
        let engine = small_engine();
        let mut rng = SplitMix64::new(9);
        let (m, n, k) = (32, 32, 32);
        let a: Vec<f64> = (0..m * k).map(|_| rng.next_signed_unit()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.next_signed_unit()).collect();
        let c: Vec<f64> = (0..m * n).map(|_| rng.next_signed_unit()).collect();
        let tiled = engine.gemm_functional(&a, &b, &c, m, n, k, Precision::Fp32);
        let r = reference_gemm(&a, &b, &c, m, n, k);
        for (yi, ri) in tiled.iter().zip(&r) {
            assert!((yi - ri).abs() < 1e-3);
        }
    }
}
