//! The MMAE engine facade.
//!
//! Glues the pieces together the way the Accelerator Controller does in
//! Fig. 2(a): the AC walks the two-level tiling, the ADE's DMA engines
//! stream tiles (with translation through the mATLB/sTLB path), and the
//! systolic array crunches. The engine exposes:
//!
//! * [`Mmae::translate_pass`] — the exact translation of every tile
//!   transfer in one block pass; the full-system simulator in `maco-core`
//!   folds its stall into the tile-step prices.
//! * [`Mmae::gemm_functional`] — the bit-faithful functional execution of
//!   the same tiling, verified against a reference GEMM in the tests.

use maco_isa::params::GemmParams;
use maco_isa::Precision;
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::TranslateFault;
use maco_vm::VirtAddr;

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
    pub fn translate_pass(
        &self,
        params: &GemmParams,
        pass: &BlockPass,
        ctx: &mut TranslationContext<'_>,
    ) -> Result<StreamTranslation, TranslateFault> {
        let t = &self.config.tiling;
        let e = params.elem_bytes();
        let mut total = StreamTranslation::default();
        for tile in pass_tiles(pass, t) {
            // A sub-block: tile.rows rows spanning the pass's k extent.
            let a = TileAccessPattern::new(
                VirtAddr::new(params.a_addr + (tile.row0 * params.lda + pass.k0) * e),
                tile.rows,
                pass.depth * e,
                params.lda * e,
            );
            total.merge(&ctx.translate_stream(&a)?);
            // B sub-block: depth rows of the tile's columns.
            let b = TileAccessPattern::new(
                VirtAddr::new(params.b_addr + (pass.k0 * params.ldb + tile.col0) * e),
                pass.depth,
                tile.cols * e,
                params.ldb * e,
            );
            total.merge(&ctx.translate_stream(&b)?);
            if pass.first_k {
                let c = TileAccessPattern::new(
                    VirtAddr::new(params.c_addr + (tile.row0 * params.ldc + tile.col0) * e),
                    tile.rows,
                    tile.cols * e,
                    params.ldc * e,
                );
                total.merge(&ctx.translate_stream(&c)?);
            }
            if pass.last_k {
                let y = TileAccessPattern::new(
                    VirtAddr::new(params.y_addr + (tile.row0 * params.ldc + tile.col0) * e),
                    tile.rows,
                    tile.cols * e,
                    params.ldc * e,
                );
                total.merge(&ctx.translate_stream(&y)?);
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
