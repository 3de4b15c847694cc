//! # maco-mmae — the Matrix Multiplication Acceleration Engine
//!
//! Every MACO compute node pairs its CPU core with an MMAE (Section III.A,
//! Fig. 2): a 4×4 systolic array with 192 KB of on-chip buffers, an
//! Accelerator Data Engine (ADE) with two DMA engines, an Accelerator
//! Controller (AC), a slave task queue and the mATLB predictive translation
//! unit. The SA extends the classical input-stationary dataflow with
//! SIMD-like modes: 1× FP64, 2× FP32 or 4× FP16 MACs per PE per cycle
//! (Fig. 2(b–d)), for 80 / 160 / 320 GFLOPS peak at 2.5 GHz (Table IV).
//!
//! * [`config`] — engine geometry, clocks, buffer split, tiling.
//! * [`f16`](crate::f16#) — software IEEE binary16 conversion (round-to-nearest-even),
//!   used by the FP16 SIMD mode.
//! * [`systolic`] — the SA: bit-accurate-per-precision functional tile
//!   GEMM plus the cycle model for pipeline fill/drain and weight reloads.
//! * [`kernels`] — the precision-specialized, register-blocked GEMM
//!   kernels behind the functional model, plus the [`GemmScratch`] arena
//!   that makes steady-state tile passes allocation-free.
//! * [`buffers`] — A/B/C buffer capacity checks and double-buffering
//!   occupancy.
//! * [`translate`] — the per-transfer translation path: closed-form
//!   mATLB prediction, or demand translation through the shared TLB with
//!   a fixed-latency page-table walk per miss, producing the stall the
//!   Fig. 6 experiment measures.
//! * [`engine`] — the engine facade: exact pass translation over the
//!   tiling (closed form per tile row and column with prediction, a
//!   per-tile sTLB replay without; no pass is memoised) and the
//!   functional execution of a whole GEMM.
//!
//! This crate prices nothing on its own. The one GEMM timing model is
//! `maco_core::system::MacoSystem::price_tile_step`: it walks the same
//! block passes ([`block_pass_at`]), charges the [`systolic`] cycle model
//! against DMA transfers through the shared mesh, CCM slices and DRAM,
//! and adds the stall [`Mmae::translate_pass`] reports.
//!
//! # Example: functional tile GEMM matches a reference
//!
//! ```
//! use maco_mmae::systolic::SystolicArray;
//! use maco_isa::Precision;
//!
//! let sa = SystolicArray::new(4, 4);
//! let a = vec![1.0; 8 * 8];
//! let b = vec![2.0; 8 * 8];
//! let c = vec![3.0; 8 * 8];
//! let y = sa.tile_matmul(&a, &b, &c, 8, 8, 8, Precision::Fp64);
//! assert!((y[0] - (8.0 * 2.0 + 3.0)).abs() < 1e-12);
//! ```

pub mod buffers;
pub mod config;
pub mod engine;
pub mod f16;
pub mod kernels;
pub mod systolic;
pub mod tiling;
pub mod translate;

pub use buffers::{BufferError, BufferPlan};
pub use config::{MmaeConfig, TilingConfig};
pub use engine::Mmae;
pub use kernels::{GemmOperands, GemmScratch};
pub use systolic::SystolicArray;
pub use tiling::{
    block_pass_at, block_pass_count, block_passes, tile_count, tiles_in_pass, BlockPass, Tile,
};
pub use translate::{StreamTranslation, TranslationContext};
