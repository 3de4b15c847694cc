//! The MMAE engine facade.
//!
//! Glues the pieces together the way the Accelerator Controller does in
//! Fig. 2(a): tasks arrive through the slave task queue, the AC walks the
//! two-level tiling, the ADE's DMA engines stream tiles (with translation
//! through the mATLB/sTLB path), and the systolic array crunches. The
//! engine exposes:
//!
//! * [`Mmae::run_gemm_timed`] — the cycle-approximate execution used by the
//!   experiment harnesses; double-buffering overlaps DMA with compute, and
//!   demand-translation stalls serialise (they are why Fig. 6's
//!   "without prediction" curve sags).
//! * [`Mmae::gemm_functional`] — the bit-faithful functional execution of
//!   the same tiling, verified against a reference GEMM in the tests.

use maco_isa::params::GemmParams;
use maco_isa::Precision;
use maco_mem::port::MemoryPort;
use maco_sim::{SimDuration, SimTime};
use maco_vm::matlb::TileAccessPattern;
use maco_vm::page_table::TranslateFault;
use maco_vm::VirtAddr;

use crate::buffers::BufferPlan;
use crate::config::MmaeConfig;
use crate::kernels::{matmul_into, GemmOperands, GemmScratch};
use crate::systolic::SystolicArray;
use crate::tiling::{block_passes, pass_tiles, tiles_into, BlockPass, Tile};
use crate::translate::{PassKey, StreamTranslation, TranslationContext, TranslationMemo};

/// Fixed cost of accepting a task from the CPU (MA_CFG micro-ops, STQ
/// handshake, AC configuration), in MMAE cycles.
pub const TASK_ISSUE_CYCLES: u64 = 2_000;

/// Completion report of one GEMM task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskReport {
    /// Wall-clock duration of the task.
    pub elapsed: SimDuration,
    /// Floating-point operations retired.
    pub flops: u64,
    /// Systolic-array busy time.
    pub sa_busy: SimDuration,
    /// Aggregate translation behaviour.
    pub translation: StreamTranslation,
    /// Bytes moved by the DMA engines.
    pub dma_bytes: u64,
    /// Peak throughput of the configuration, for efficiency computation.
    pub peak_gflops: f64,
}

impl TaskReport {
    /// Achieved throughput in GFLOPS.
    pub fn gflops(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.flops as f64 / self.elapsed.as_ns()
        }
    }

    /// Computational efficiency: achieved / theoretical peak — the y-axis
    /// of Fig. 6 and Fig. 7.
    pub fn efficiency(&self) -> f64 {
        self.gflops() / self.peak_gflops
    }
}

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

    /// Runs a GEMM task through the timing model.
    ///
    /// `ctx` carries the translation machinery (mATLB present ⇔ predictive
    /// translation enabled) and `port` prices physical data movement. The
    /// returned report's [`TaskReport::efficiency`] is the quantity the
    /// paper plots.
    ///
    /// Translation is simulated exactly for the first two occurrences of
    /// each block-pass shape and memoised afterwards — block passes are
    /// cyclic in steady state, so this is exact up to warm-up effects while
    /// keeping 9216³ sweeps tractable.
    ///
    /// # Errors
    ///
    /// Returns the first [`TranslateFault`] (reported upstream as an MTQ
    /// `TranslationFault` exception).
    pub fn run_gemm_timed(
        &self,
        params: &GemmParams,
        ctx: &mut TranslationContext<'_>,
        port: &mut dyn MemoryPort,
        start: SimTime,
    ) -> Result<TaskReport, TranslateFault> {
        let t = &self.config.tiling;
        let plan = BufferPlan::plan(&self.config, t, params.precision)
            .expect("caller validates tile-buffer fit");
        let e = params.elem_bytes();
        let clock = self.config.clock;
        let precision = params.precision;

        let mut now = start + clock.cycles(TASK_ISSUE_CYCLES);
        let mut sa_busy = SimDuration::ZERO;
        let mut translation = StreamTranslation::default();
        let mut dma_bytes = 0u64;

        // Memoised per-pass translation: shape key → (stall, counters).
        let mut memo = TranslationMemo::new();
        // Tile enumeration buffer, reused across passes.
        let mut tiles: Vec<Tile> = Vec::new();

        for pass in block_passes(params.m, params.n, params.k, t) {
            let key = PassKey::of(&pass);
            let pass_translation = match memo.cached(key) {
                Some(c) => c,
                None => {
                    let c = self.translate_pass(params, &pass, ctx)?;
                    memo.record(key, c);
                    c
                }
            };
            translation.merge(&pass_translation);

            tiles_into(&pass, t, &mut tiles);
            let steps = tiles.len() as u64;
            let step_stall = SimDuration::from_fs(pass_translation.stall.as_fs() / steps.max(1));

            let mut first_step = true;
            for tile in &tiles {
                // SA time: the reduction sweep in ttk chunks.
                let lanes = self.config.lanes(precision);
                let mut sa_cycles = 0u64;
                let mut k_left = pass.depth;
                while k_left > 0 {
                    let chunk = k_left.min(t.ttk);
                    sa_cycles += self
                        .sa
                        .tile_cycles_lanes(tile.rows, tile.cols, chunk, lanes);
                    k_left -= chunk;
                }
                let sa_time = clock.cycles(sa_cycles);
                sa_busy += sa_time;

                // DMA-in: A and B sub-blocks (+C on the first reduction pass).
                let mut in_bytes = tile.rows * pass.depth * e + pass.depth * tile.cols * e;
                if pass.first_k {
                    in_bytes += tile.rows * tile.cols * e;
                }
                // DMA-out: Y on the last reduction pass.
                let out_bytes = if pass.last_k {
                    tile.rows * tile.cols * e
                } else {
                    0
                };
                dma_bytes += in_bytes + out_bytes;

                // Ports are physical; translation cost is already priced by
                // the TranslationContext, so bulk movement reuses the VA
                // bits as a stable physical address for interleaving.
                let a_base = params.a_addr + (tile.row0 * params.lda + pass.k0) * e;
                let in_done = port.read(maco_vm::PhysAddr::new(a_base), in_bytes, now);
                let dma_in = in_done
                    .saturating_since(now)
                    .max(clock.cycles(in_bytes.div_ceil(64)));
                let dma_out = if out_bytes > 0 {
                    let done = port.write(maco_vm::PhysAddr::new(params.y_addr), out_bytes, now);
                    done.saturating_since(now)
                        .max(clock.cycles(out_bytes.div_ceil(64)))
                } else {
                    SimDuration::ZERO
                };

                // Double buffering overlaps SA with both DMA engines; the
                // first tile of a pass exposes its input latency (nothing to
                // overlap with yet). Demand-translation stalls serialise.
                let mut step = if plan.double_buffered {
                    sa_time.max(dma_in).max(dma_out)
                } else {
                    sa_time + dma_in + dma_out
                };
                if first_step {
                    step += dma_in;
                    first_step = false;
                }
                now += step + step_stall;
            }
        }

        Ok(TaskReport {
            elapsed: now.since(start),
            flops: params.flops(),
            sa_busy,
            translation,
            dma_bytes,
            peak_gflops: self.config.peak_gflops(precision),
        })
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
            total.merge(&ctx.translate_stream(&a, SimTime::ZERO)?);
            // B sub-block: depth rows of the tile's columns.
            let b = TileAccessPattern::new(
                VirtAddr::new(params.b_addr + (pass.k0 * params.ldb + tile.col0) * e),
                pass.depth,
                tile.cols * e,
                params.ldb * e,
            );
            total.merge(&ctx.translate_stream(&b, SimTime::ZERO)?);
            if pass.first_k {
                let c = TileAccessPattern::new(
                    VirtAddr::new(params.c_addr + (tile.row0 * params.ldc + tile.col0) * e),
                    tile.rows,
                    tile.cols * e,
                    params.ldc * e,
                );
                total.merge(&ctx.translate_stream(&c, SimTime::ZERO)?);
            }
            if pass.last_k {
                let y = TileAccessPattern::new(
                    VirtAddr::new(params.y_addr + (tile.row0 * params.ldc + tile.col0) * e),
                    tile.rows,
                    tile.cols * e,
                    params.ldc * e,
                );
                total.merge(&ctx.translate_stream(&y, SimTime::ZERO)?);
            }
        }
        Ok(total)
    }

    /// Functional execution of the engine's tiling: computes `Y = A×B + C`
    /// over host matrices with the SA's per-precision rounding, exercising
    /// exactly the block/tile decomposition the timed model prices.
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
        let mut tiles = std::mem::take(&mut scratch.tiles);
        for pass in block_passes(m as u64, n as u64, k as u64, t) {
            tiles_into(&pass, t, &mut tiles);
            let (k0, depth) = (pass.k0 as usize, pass.depth as usize);
            for tile in &tiles {
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
        scratch.tiles = tiles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_isa::Asid;
    use maco_mem::port::FixedLatencyMemory;
    use maco_sim::SplitMix64;
    use maco_vm::addr::{PhysAddr, PAGE_SIZE};
    use maco_vm::matlb::Matlb;
    use maco_vm::page_table::{AddressSpace, PageFlags};
    use maco_vm::tlb::Tlb;
    use maco_vm::walker::PageTableWalker;

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

    fn mapped_space(bytes: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map_range(
            VirtAddr::new(0),
            PhysAddr::new(0x1000_0000),
            bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE,
            PageFlags::rw(),
        )
        .unwrap();
        s
    }

    fn paper_params(n: u64) -> GemmParams {
        // Pack A, B, C, Y consecutively in one VA range.
        let mat = n * n * 8;
        GemmParams::new(0, mat, 2 * mat, 3 * mat, n, n, n, Precision::Fp64).unwrap()
    }

    #[test]
    fn timed_run_reports_high_efficiency_with_prediction() {
        let engine = Mmae::new(MmaeConfig::default());
        let n = 512;
        let space = mapped_space(4 * n * n * 8);
        let mut stlb = Tlb::new(1024);
        let mut walker = PageTableWalker::new(2);
        let mut matlb = Matlb::new(160);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            walker: &mut walker,
            matlb: Some(&mut matlb),
            walk_read_latency: SimDuration::from_ns(6),
        };
        let mut mem = FixedLatencyMemory::new(SimDuration::from_ns(150));
        let report = engine
            .run_gemm_timed(&paper_params(n), &mut ctx, &mut mem, SimTime::ZERO)
            .unwrap();
        assert!(report.translation.stall.is_zero(), "prediction hides walks");
        let eff = report.efficiency();
        assert!(eff > 0.9, "efficiency {eff} too low");
        assert!(eff <= 1.0, "efficiency {eff} above peak");
    }

    #[test]
    fn prediction_beats_no_prediction_on_large_strides() {
        let engine = Mmae::new(MmaeConfig::default());
        let n = 1024; // the paper's worst case
        let space = mapped_space(4 * n * n * 8);
        let mut mem = FixedLatencyMemory::new(SimDuration::from_ns(150));

        let mut run = |matlb: Option<&mut Matlb>, stlb: &mut Tlb| {
            let mut walker = PageTableWalker::new(2);
            let mut ctx = TranslationContext {
                asid: Asid::new(1),
                space: &space,
                stlb,
                walker: &mut walker,
                matlb,
                walk_read_latency: SimDuration::from_ns(6),
            };
            engine
                .run_gemm_timed(&paper_params(n), &mut ctx, &mut mem, SimTime::ZERO)
                .unwrap()
        };

        let mut stlb1 = Tlb::new(1024);
        let mut matlb = Matlb::new(160);
        let with = run(Some(&mut matlb), &mut stlb1);
        let mut stlb2 = Tlb::new(1024);
        let without = run(None, &mut stlb2);

        assert!(without.translation.stall > SimDuration::ZERO);
        assert!(with.efficiency() > without.efficiency());
        let gap = with.efficiency() - without.efficiency();
        assert!(gap > 0.01, "gap {gap} should be visible at n=1024");
    }

    #[test]
    fn report_metrics_are_consistent() {
        let engine = small_engine();
        let n = 64;
        let space = mapped_space(0x30000 + n * n * 8);
        let mut stlb = Tlb::new(1024);
        let mut walker = PageTableWalker::new(2);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            walker: &mut walker,
            matlb: None,
            walk_read_latency: SimDuration::from_ns(6),
        };
        let mut mem = FixedLatencyMemory::new(SimDuration::from_ns(50));
        let params =
            GemmParams::new(0, 0x10000, 0x20000, 0x30000, n, n, n, Precision::Fp64).unwrap();
        let report = engine
            .run_gemm_timed(&params, &mut ctx, &mut mem, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.flops, 2 * n * n * n);
        assert!(report.gflops() > 0.0);
        assert!(report.sa_busy <= report.elapsed);
        assert!(report.dma_bytes >= 3 * n * n * 8);
    }

    #[test]
    fn unmapped_gemm_faults() {
        let engine = small_engine();
        let space = AddressSpace::new(); // nothing mapped
        let mut stlb = Tlb::new(64);
        let mut walker = PageTableWalker::new(2);
        let mut ctx = TranslationContext {
            asid: Asid::new(1),
            space: &space,
            stlb: &mut stlb,
            walker: &mut walker,
            matlb: None,
            walk_read_latency: SimDuration::from_ns(6),
        };
        let mut mem = FixedLatencyMemory::new(SimDuration::from_ns(50));
        let params =
            GemmParams::new(0, 0x10000, 0x20000, 0x30000, 64, 64, 64, Precision::Fp64).unwrap();
        assert!(engine
            .run_gemm_timed(&params, &mut ctx, &mut mem, SimTime::ZERO)
            .is_err());
    }
}
