//! Precision-specialized, allocation-free GEMM kernels.
//!
//! The functional model must reproduce the SA's per-element rounding
//! *bit-exactly* (every output element accumulates `c + Σ a·b` in ascending
//! reduction order at the PE's working precision), but nothing forces it to
//! do so the naive way. The kernels here keep each element's accumulation
//! chain identical to [`naive_reference`] while restructuring everything
//! around it:
//!
//! * **typed inner loops** — FP32/FP16 operands are rounded *once* into
//!   packed `f32` panels ([`PackScratch`]) instead of per MAC, and the inner
//!   loops run on `f32` slices (two rounding calls per element total,
//!   down from `2k` per output element); INT8 operands quantize once into
//!   `Wrapping<i32>` panels and the inner loops run exact integer MACs;
//! * **i-k-j loop order** — the inner loop walks one row of B and one row
//!   of the accumulator with unit stride (the naive j-inner order strides B
//!   by `n` every step), which is what lets the compiler vectorise;
//! * **register-blocked micro-kernel** — four output rows advance per B-row
//!   sweep, so each packed B element loaded from cache feeds four MACs;
//! * **scratch arenas** — all staging lives in [`GemmScratch`], so
//!   steady-state tile passes allocate nothing.
//!
//! Equivalence to the naive triple loop is enforced by
//! `tests/kernel_equivalence.rs` (bit-identical across all precisions and
//! edge shapes) on top of the golden-model suite.

use std::num::Wrapping;

use maco_isa::Precision;

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};

/// Borrowed operands of one GEMM: row-major `A (m×k)`, `B (k×n)`,
/// `C (m×n)`.
#[derive(Debug, Clone, Copy)]
pub struct GemmOperands<'a> {
    /// Left operand, `m×k` row-major.
    pub a: &'a [f64],
    /// Right operand, `k×n` row-major.
    pub b: &'a [f64],
    /// Partial-sum input, `m×n` row-major.
    pub c: &'a [f64],
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction extent.
    pub k: usize,
}

impl<'a> GemmOperands<'a> {
    /// Bundles operand slices with their dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the dimensions.
    pub fn new(a: &'a [f64], b: &'a [f64], c: &'a [f64], m: usize, n: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "A shape mismatch");
        assert_eq!(b.len(), k * n, "B shape mismatch");
        assert_eq!(c.len(), m * n, "C shape mismatch");
        GemmOperands { a, b, c, m, n, k }
    }
}

/// Packed-operand staging for the typed kernels: FP32/FP16 inputs rounded
/// once into `f32` panels, INT8 inputs quantized once into `i32` panels
/// (wrapping, so debug and release builds accumulate identically). Reused
/// across tile passes; grows monotonically to the largest tile seen and
/// never shrinks.
#[derive(Debug, Default)]
pub struct PackScratch {
    a32: Vec<f32>,
    b32: Vec<f32>,
    acc32: Vec<f32>,
    ai: Vec<Wrapping<i32>>,
    bi: Vec<Wrapping<i32>>,
    acci: Vec<Wrapping<i32>>,
}

/// The reusable arena threaded through `SystolicArray::tile_matmul_with`
/// and `Mmae::gemm_functional_with`: packed kernel panels plus the engine's
/// tile-staging buffers. One long-lived `GemmScratch` makes steady-state
/// tile passes allocation-free.
#[derive(Debug, Default)]
pub struct GemmScratch {
    /// Kernel packing buffers.
    pub(crate) pack: PackScratch,
    /// Gathered A sub-block (`rows × depth`).
    pub(crate) at: Vec<f64>,
    /// Gathered B sub-block (`depth × cols`).
    pub(crate) bt: Vec<f64>,
    /// Gathered partial-sum input (`rows × cols`).
    pub(crate) ct: Vec<f64>,
    /// Tile output staging (`rows × cols`).
    pub(crate) yt: Vec<f64>,
}

impl GemmScratch {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        GemmScratch::default()
    }
}

/// Rows advanced per micro-kernel sweep (the register block height).
const MR: usize = 4;

/// The register-blocked i-k-j kernel over one element type: `y += A×B`
/// with `y` pre-loaded with the partial-sum input. Each output element's
/// reduction runs in ascending `l` order — the same chain as the naive
/// triple loop, so results are bit-identical.
fn kernel_ikj<T>(a: &[T], b: &[T], y: &mut [T], m: usize, n: usize, k: usize)
where
    T: Copy + std::ops::Mul<Output = T> + std::ops::AddAssign,
{
    let mut i = 0;
    // Four-row micro-kernel: one pass over a packed B row feeds four
    // output rows held in registers.
    while i + MR <= m {
        let (y0, rest) = y[i * n..(i + MR) * n].split_at_mut(n);
        let (y1, rest) = rest.split_at_mut(n);
        let (y2, y3) = rest.split_at_mut(n);
        for l in 0..k {
            let bl = &b[l * n..(l + 1) * n];
            let a0 = a[i * k + l];
            let a1 = a[(i + 1) * k + l];
            let a2 = a[(i + 2) * k + l];
            let a3 = a[(i + 3) * k + l];
            for j in 0..n {
                let bv = bl[j];
                y0[j] += a0 * bv;
                y1[j] += a1 * bv;
                y2[j] += a2 * bv;
                y3[j] += a3 * bv;
            }
        }
        i += MR;
    }
    // Ragged rows: single-row sweeps.
    while i < m {
        let yr = &mut y[i * n..(i + 1) * n];
        for l in 0..k {
            let bl = &b[l * n..(l + 1) * n];
            let av = a[i * k + l];
            for j in 0..n {
                yr[j] += av * bl[j];
            }
        }
        i += 1;
    }
}

/// Rounds one `f64` through binary16 into the `f32` the FP16 PEs consume.
#[inline]
fn to_f16_lane(x: f64) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x as f32))
}

/// Quantizes one `f64` to the symmetric signed-8-bit operand the INT8 PEs
/// consume: round to nearest, saturate at ±127 (the `-128` code is unused,
/// as in symmetric quantization schemes). NaN quantizes to 0.
#[inline]
fn to_i8_lane(x: f64) -> Wrapping<i32> {
    Wrapping(x.round().clamp(-127.0, 127.0) as i32)
}

fn pack_f32(src: &[f64], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(src.iter().map(|&x| x as f32));
}

fn pack_f16(src: &[f64], dst: &mut Vec<f32>) {
    dst.clear();
    dst.extend(src.iter().map(|&x| to_f16_lane(x)));
}

fn pack_i8(src: &[f64], dst: &mut Vec<Wrapping<i32>>) {
    dst.clear();
    dst.extend(src.iter().map(|&x| to_i8_lane(x)));
}

/// Re-enters INT8 working-precision partials (i32 values held exactly in
/// `f64` storage) into the accumulator without re-quantization.
fn pack_i32_verbatim(src: &[f64], dst: &mut Vec<Wrapping<i32>>) {
    dst.clear();
    dst.extend(src.iter().map(|&x| Wrapping(x as i32)));
}

/// Computes `Y = A×B + C` into `y` (`m×n`, any prior contents overwritten)
/// with `precision`'s rounding behaviour, staging packed operands in
/// `pack`. Allocation-free once `pack` has grown to the tile size.
///
/// # Panics
///
/// Panics if `y.len() != m·n`.
pub fn matmul_into(
    pack: &mut PackScratch,
    ops: GemmOperands<'_>,
    precision: Precision,
    y: &mut [f64],
) {
    assert_eq!(y.len(), ops.m * ops.n, "Y shape mismatch");
    match precision {
        Precision::Fp64 => {
            y.copy_from_slice(ops.c);
            kernel_ikj(ops.a, ops.b, y, ops.m, ops.n, ops.k);
        }
        Precision::Fp32 => {
            pack_f32(ops.a, &mut pack.a32);
            pack_f32(ops.b, &mut pack.b32);
            pack_f32(ops.c, &mut pack.acc32);
            kernel_ikj(&pack.a32, &pack.b32, &mut pack.acc32, ops.m, ops.n, ops.k);
            for (yo, &acc) in y.iter_mut().zip(&pack.acc32) {
                *yo = acc as f64;
            }
        }
        Precision::Fp16 => {
            // FP16-rounded inputs, FP32 accumulation (Fig. 2(d)).
            pack_f16(ops.a, &mut pack.a32);
            pack_f16(ops.b, &mut pack.b32);
            pack_f16(ops.c, &mut pack.acc32);
            kernel_ikj(&pack.a32, &pack.b32, &mut pack.acc32, ops.m, ops.n, ops.k);
            for (yo, &acc) in y.iter_mut().zip(&pack.acc32) {
                *yo = acc as f64;
            }
        }
        Precision::Int8 => {
            // Quantized i8 inputs, exact i32 accumulation. Like FP16, the
            // partial-sum input rounds through the operand precision on
            // the first pass.
            pack_i8(ops.a, &mut pack.ai);
            pack_i8(ops.b, &mut pack.bi);
            pack_i8(ops.c, &mut pack.acci);
            kernel_ikj(&pack.ai, &pack.bi, &mut pack.acci, ops.m, ops.n, ops.k);
            for (yo, &acc) in y.iter_mut().zip(&pack.acci) {
                *yo = acc.0 as f64;
            }
        }
    }
}

/// Continues a split reduction: computes `Y = A×B + Y₀` where `y` already
/// holds a previous [`matmul_into`] (or `matmul_resume_into`) output for
/// the *same* output tile — i.e. values already at the PE working
/// precision. Unlike [`matmul_into`], the partial-sum input is **not**
/// re-rounded through the operand precision (an FP16 task accumulates in
/// FP32, so its partials are FP32 values that must re-enter the chain
/// untouched). Chaining consecutive `k`-spans through this function
/// therefore reproduces the unsplit kernel's accumulation chain element
/// for element — the bit-identity the cluster's data-parallel `k`-split
/// relies on, proven by [`matmul_ksplit_into`]'s property suite.
///
/// # Panics
///
/// Panics if `y.len() != m·n` (`ops.c` is ignored; pass the previous
/// output in `y`).
pub fn matmul_resume_into(
    pack: &mut PackScratch,
    ops: GemmOperands<'_>,
    precision: Precision,
    y: &mut [f64],
) {
    assert_eq!(y.len(), ops.m * ops.n, "Y shape mismatch");
    match precision {
        Precision::Fp64 => {
            kernel_ikj(ops.a, ops.b, y, ops.m, ops.n, ops.k);
        }
        Precision::Fp32 | Precision::Fp16 => {
            // Operands round through the input precision; the accumulator
            // resumes from the working-precision partials verbatim (an
            // f32 value round-trips f64 → f32 exactly).
            match precision {
                Precision::Fp32 => {
                    pack_f32(ops.a, &mut pack.a32);
                    pack_f32(ops.b, &mut pack.b32);
                }
                _ => {
                    pack_f16(ops.a, &mut pack.a32);
                    pack_f16(ops.b, &mut pack.b32);
                }
            }
            pack_f32(y, &mut pack.acc32);
            kernel_ikj(&pack.a32, &pack.b32, &mut pack.acc32, ops.m, ops.n, ops.k);
            for (yo, &acc) in y.iter_mut().zip(&pack.acc32) {
                *yo = acc as f64;
            }
        }
        Precision::Int8 => {
            // Operands quantize through i8; the accumulator resumes from
            // the i32 working-precision partials verbatim (an i32 value
            // round-trips f64 → i32 exactly).
            pack_i8(ops.a, &mut pack.ai);
            pack_i8(ops.b, &mut pack.bi);
            pack_i32_verbatim(y, &mut pack.acci);
            kernel_ikj(&pack.ai, &pack.bi, &mut pack.acci, ops.m, ops.n, ops.k);
            for (yo, &acc) in y.iter_mut().zip(&pack.acci) {
                *yo = acc.0 as f64;
            }
        }
    }
}

/// Computes `Y = A×B + C` as a chain of consecutive reduction spans — the
/// functional model of a data-parallel `k`-split whose all-reduce combines
/// machine partials in span order at the working precision. The first span
/// runs [`matmul_into`] (rounding `C` through the operand precision, as
/// the unsplit kernel does); every later span resumes the accumulation
/// with [`matmul_resume_into`]. The result is bit-identical to one unsplit
/// [`matmul_into`] over the full `k`, for every precision and any split.
///
/// # Panics
///
/// Panics if `splits` is empty, contains a zero, or does not sum to
/// `ops.k`.
pub fn matmul_ksplit_into(
    pack: &mut PackScratch,
    ops: GemmOperands<'_>,
    precision: Precision,
    splits: &[u64],
    y: &mut [f64],
) {
    matmul_ksplit_resume_into(pack, ops, precision, splits, 0, y);
}

/// Resumes a `k`-split reduction chain from a checkpoint: runs spans
/// `start..` of `splits`, assuming `y` already holds the chained partial
/// of spans `..start` (for `start == 0`, `y` is ignored and the chain
/// starts fresh from `ops.c`, making this identical to
/// [`matmul_ksplit_into`]). This is the failure-recovery entry point: a
/// surviving machine restarts a lost reduction from its last completed
/// span prefix (see `maco_core::gemm_plus::ReductionCheckpoint`) and the
/// resumed chain stays bit-identical to the unfailed run — span order is
/// the unsplit kernel's accumulation order, and resuming re-enters the
/// working-precision partials verbatim.
///
/// # Panics
///
/// Panics if the spans are empty, contain a zero, do not sum to `ops.k`,
/// or `start` is out of range.
pub fn matmul_ksplit_resume_into(
    pack: &mut PackScratch,
    ops: GemmOperands<'_>,
    precision: Precision,
    splits: &[u64],
    start: usize,
    y: &mut [f64],
) {
    assert!(!splits.is_empty(), "need at least one reduction span");
    assert!(splits.iter().all(|&s| s > 0), "empty reduction span");
    assert_eq!(
        splits.iter().sum::<u64>(),
        ops.k as u64,
        "spans must cover the reduction exactly"
    );
    assert!(start <= splits.len(), "resume start beyond the span list");
    let mut k0: usize = splits[..start].iter().sum::<u64>() as usize;
    for (i, &span) in splits.iter().enumerate().skip(start) {
        let span = span as usize;
        // Gather this span's A columns (row-major A strides by k) and B
        // rows (contiguous).
        let a_span: Vec<f64> = (0..ops.m)
            .flat_map(|r| ops.a[r * ops.k + k0..r * ops.k + k0 + span].iter().copied())
            .collect();
        let b_span = &ops.b[k0 * ops.n..(k0 + span) * ops.n];
        let part = GemmOperands::new(&a_span, b_span, ops.c, ops.m, ops.n, span);
        if i == 0 {
            matmul_into(pack, part, precision, y);
        } else {
            matmul_resume_into(pack, part, precision, y);
        }
        k0 += span;
    }
}

/// The retained naive i-j-l triple loop — the reference the optimized
/// kernels are proved bit-identical to. Kept deliberately simple; only
/// tests and the equivalence suite should call it.
pub fn naive_reference(ops: GemmOperands<'_>, precision: Precision) -> Vec<f64> {
    let (m, n, k) = (ops.m, ops.n, ops.k);
    let (a, b, c) = (ops.a, ops.b, ops.c);
    let mut y = vec![0.0; m * n];
    match precision {
        Precision::Fp64 => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = c[i * n + j];
                    for l in 0..k {
                        acc += a[i * k + l] * b[l * n + j];
                    }
                    y[i * n + j] = acc;
                }
            }
        }
        Precision::Fp32 => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = c[i * n + j] as f32;
                    for l in 0..k {
                        let av = a[i * k + l] as f32;
                        let bv = b[l * n + j] as f32;
                        acc += av * bv;
                    }
                    y[i * n + j] = acc as f64;
                }
            }
        }
        Precision::Fp16 => {
            for i in 0..m {
                for j in 0..n {
                    // FP32 accumulator over FP16 inputs.
                    let mut acc = to_f16_lane(c[i * n + j]);
                    for l in 0..k {
                        let av = to_f16_lane(a[i * k + l]);
                        let bv = to_f16_lane(b[l * n + j]);
                        acc += av * bv;
                    }
                    y[i * n + j] = acc as f64;
                }
            }
        }
        Precision::Int8 => {
            for i in 0..m {
                for j in 0..n {
                    // Exact i32 accumulator over quantized i8 inputs; the
                    // i8×i8→i32 triple loop the property suite pins the
                    // packed kernels against.
                    let mut acc = to_i8_lane(c[i * n + j]);
                    for l in 0..k {
                        let av = to_i8_lane(a[i * k + l]);
                        let bv = to_i8_lane(b[l * n + j]);
                        acc += av * bv;
                    }
                    y[i * n + j] = acc.0 as f64;
                }
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_sim::SplitMix64;

    fn random(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_signed_unit()).collect()
    }

    fn run_both(m: usize, n: usize, k: usize, precision: Precision) -> (Vec<f64>, Vec<f64>) {
        let a = random(m as u64 * 31 + 1, m * k);
        let b = random(n as u64 * 37 + 2, k * n);
        let c = random(k as u64 * 41 + 3, m * n);
        let ops = GemmOperands::new(&a, &b, &c, m, n, k);
        let mut pack = PackScratch::default();
        let mut y = vec![0.0; m * n];
        matmul_into(&mut pack, ops, precision, &mut y);
        (y, naive_reference(ops, precision))
    }

    #[test]
    fn optimized_matches_naive_bitwise_all_precisions() {
        for p in Precision::ALL {
            for &(m, n, k) in &[(4, 4, 4), (5, 6, 7), (16, 12, 20), (1, 1, 1), (9, 3, 33)] {
                let (y, r) = run_both(m, n, k, p);
                for (i, (yi, ri)) in y.iter().zip(&r).enumerate() {
                    assert_eq!(
                        yi.to_bits(),
                        ri.to_bits(),
                        "{p:?} {m}x{n}x{k} element {i}: {yi} vs {ri}"
                    );
                }
            }
        }
    }

    #[test]
    fn ksplit_chain_matches_unsplit_bitwise() {
        for p in Precision::ALL {
            for splits in [vec![20u64], vec![10, 10], vec![1, 5, 14], vec![7, 13]] {
                let (m, n, k) = (9, 6, 20);
                let a = random(11, m * k);
                let b = random(12, k * n);
                let c = random(13, m * n);
                let ops = GemmOperands::new(&a, &b, &c, m, n, k);
                let mut pack = PackScratch::default();
                let mut whole = vec![0.0; m * n];
                matmul_into(&mut pack, ops, p, &mut whole);
                let mut split = vec![0.0; m * n];
                matmul_ksplit_into(&mut pack, ops, p, &splits, &mut split);
                for (i, (w, s)) in whole.iter().zip(&split).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        s.to_bits(),
                        "{p:?} splits {splits:?} element {i}: {w} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_reduction_passes_c_through_rounding() {
        let c = vec![0.1, -0.3, 0.7, 1.5];
        let ops = GemmOperands::new(&[], &[], &c, 2, 2, 0);
        let mut pack = PackScratch::default();
        let mut y = vec![9.0; 4];
        matmul_into(&mut pack, ops, Precision::Fp64, &mut y);
        assert_eq!(y, c, "fp64 passes C through exactly");
        matmul_into(&mut pack, ops, Precision::Fp32, &mut y);
        assert_eq!(y[0], 0.1f32 as f64, "fp32 rounds C through binary32");
        matmul_into(&mut pack, ops, Precision::Fp16, &mut y);
        assert_eq!(
            y[0],
            to_f16_lane(0.1) as f64,
            "fp16 rounds C through binary16"
        );
        matmul_into(&mut pack, ops, Precision::Int8, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 1.0, 2.0], "int8 quantizes C to nearest");
    }

    #[test]
    fn int8_lane_quantization_saturates_and_rounds() {
        assert_eq!(to_i8_lane(0.4).0, 0);
        assert_eq!(to_i8_lane(0.6).0, 1);
        assert_eq!(to_i8_lane(-0.6).0, -1);
        assert_eq!(to_i8_lane(126.7).0, 127);
        assert_eq!(to_i8_lane(1e9).0, 127, "saturates above +127");
        assert_eq!(to_i8_lane(-1e9).0, -127, "symmetric: -128 is unused");
        assert_eq!(to_i8_lane(f64::NAN).0, 0, "NaN quantizes to zero");
        assert_eq!(to_i8_lane(f64::INFINITY).0, 127);
        assert_eq!(to_i8_lane(f64::NEG_INFINITY).0, -127);
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_shapes() {
        let mut pack = PackScratch::default();
        // Big tile first, then a smaller one: stale packed data must not
        // bleed into the smaller result.
        let a = random(1, 8 * 8);
        let b = random(2, 8 * 8);
        let c = random(3, 8 * 8);
        let mut y = vec![0.0; 64];
        matmul_into(
            &mut pack,
            GemmOperands::new(&a, &b, &c, 8, 8, 8),
            Precision::Fp32,
            &mut y,
        );
        let mut y2 = vec![0.0; 9];
        matmul_into(
            &mut pack,
            GemmOperands::new(&a[..6], &b[..6], &c[..9], 3, 3, 2),
            Precision::Fp32,
            &mut y2,
        );
        let fresh = naive_reference(
            GemmOperands::new(&a[..6], &b[..6], &c[..9], 3, 3, 2),
            Precision::Fp32,
        );
        assert_eq!(y2, fresh);
    }

    #[test]
    fn operands_are_shape_checked() {
        let r = std::panic::catch_unwind(|| {
            GemmOperands::new(&[0.0; 4], &[0.0; 4], &[0.0; 4], 2, 2, 3)
        });
        assert!(r.is_err(), "mismatched K must panic");
    }
}
