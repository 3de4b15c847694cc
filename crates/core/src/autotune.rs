//! Analytic tiling autotuner.
//!
//! The paper fixes one tiling for every experiment (⟨1024³⟩ blocks walked
//! in ⟨64³⟩ buffer tiles, Section V.B). That constant is only optimal for
//! the FP64 operands it was sized for: a halved element width doubles the
//! square tile extent the 64 KB buffer arrays can double-buffer, and the
//! GotoBLAS2-style co-design literature derives blocking parameters per
//! target instead of fixing them. This module does the same for the MMAE:
//! [`choose_tiling`] prices every buffer-feasible candidate tiling with an
//! analytic model of the simulator's own tile-step cost — the systolic
//! sweep formula on the compute side, CCM service bandwidth on the memory
//! side, stepped over exactly the block-pass/tile walk the engine performs
//! — and returns the cheapest.
//!
//! The model is deliberately a *model*: it prices a step as
//! `max(SA sweep, DMA in, DMA out)` like `MacoSystem::price_tile_step`,
//! but replaces the stateful shared-resource simulation with closed-form
//! service times — a DMA shard through the CCM fanout plus its mesh
//! return, a pass-entry stash wait at DRAM bulk bandwidth — and drops the
//! terms that cancel across candidates (translation stalls are spread
//! evenly over a pass's tiles, so their total is tiling-independent).
//! `maco-explore`'s validation sweep replays the choice against full
//! simulations of every candidate and asserts the autotuned tiling is
//! never beaten at any grid point.

use maco_isa::Precision;
use maco_mmae::buffers::BufferPlan;
use maco_mmae::config::TilingConfig;
use maco_mmae::tiling::block_passes;
use maco_sim::SimDuration;

use crate::system::SystemConfig;

/// Square second-level tile extents the autotuner considers. Infeasible
/// ones (a double-buffered tile overflowing a buffer array at the target
/// precision) are filtered per configuration; the survivors are priced.
pub const CANDIDATE_TILES: [u64; 4] = [16, 32, 64, 128];

/// The buffer-feasible candidate tilings for `config` at `precision`, in
/// decreasing tile extent. Every candidate keeps the first-level (L3
/// stash) blocking of [`TilingConfig::default`] and varies the
/// second-level ⟨ttr,ttc,ttk⟩ cube; only tilings the buffer arrays can
/// *double*-buffer qualify, because the engine's overlapped step cost
/// assumes compute/transfer overlap.
pub fn candidate_tilings(config: &SystemConfig, precision: Precision) -> Vec<TilingConfig> {
    let base = TilingConfig::default();
    CANDIDATE_TILES
        .iter()
        .rev()
        .filter_map(|&t| {
            let tiling = TilingConfig {
                tr: base.tr.max(t),
                tc: base.tc.max(t),
                tk: base.tk.max(t),
                ttr: t,
                ttc: t,
                ttk: t,
            };
            match BufferPlan::plan(&config.mmae, &tiling, precision) {
                Ok(plan) if plan.double_buffered => Some(tiling),
                _ => None,
            }
        })
        .collect()
}

/// Systolic-array cycles of one ⟨rows×cols⟩ tile sweep over a reduction
/// chunk — the same formula as `SystolicArray::tile_cycles_lanes`.
fn sa_chunk_cycles(config: &SystemConfig, rows: u64, cols: u64, chunk: u64, lanes: u64) -> u64 {
    let sr = config.mmae.sa_rows as u64;
    let sc = config.mmae.sa_cols as u64;
    chunk.div_ceil(sr) * cols.div_ceil(sc * lanes) * rows.max(sr) + sr + sc
}

/// SA cycles of one tile over the whole pass depth, chunked by `ttk`
/// exactly as the engine sweeps it (each chunk pays the fill/drain
/// overhead again — the cost small `ttk` candidates must answer for).
fn sa_tile_cycles(
    config: &SystemConfig,
    rows: u64,
    cols: u64,
    depth: u64,
    ttk: u64,
    lanes: u64,
) -> u64 {
    let full = depth / ttk;
    let rem = depth % ttk;
    let mut cycles = full * sa_chunk_cycles(config, rows, cols, ttk, lanes);
    if rem > 0 {
        cycles += sa_chunk_cycles(config, rows, cols, rem, lanes);
    }
    cycles
}

/// DMA service time for `bytes` through the CCM path: the transfer fans
/// out over [`SystemConfig::ccm_shards`] slices served in parallel — the
/// machine's own shard count — and the slowest shard
/// bounds it — directory lookup, CCM service of the shard, then the shard
/// crossing the mesh back (two serialised link acquires on a multi-hop
/// X-Y route, which is what the worst slice of a fanout window pays).
fn dma_fs(config: &SystemConfig, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let shard = bytes.div_ceil(config.ccm_shards() as u64) as f64;
    let ns = shard / config.ccm_gbps.max(f64::MIN_POSITIVE)
        + 2.0 * shard / config.fabric.link_gbps.max(f64::MIN_POSITIVE);
    config.ccm_latency.as_fs() + SimDuration::from_ns_f64(ns).as_fs()
}

/// Stash service time for `bytes`: a bulk DRAM read (channel-interleaved
/// at page granularity) plus the mesh hop from the memory controller into
/// the pass's home L3 region.
fn stash_fs(config: &SystemConfig, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let gran = config.dram.interleave_bytes.max(1);
    let rounds = bytes
        .div_ceil(gran)
        .div_ceil(config.dram.channels.max(1) as u64);
    let round_ns = gran as f64 / config.dram.gbps_per_channel.max(f64::MIN_POSITIVE);
    config.dram.latency.as_fs()
        + rounds * SimDuration::from_ns_f64(round_ns).as_fs()
        + config.fabric.hop_latency.as_fs()
}

/// Models the cost of one `m×n×k` GEMM at `precision` under `tiling` in
/// femtoseconds: the engine's block-pass/tile walk with each step priced
/// `max(SA sweep, DMA in, DMA out)` (plus the un-overlapped first fill of
/// each pass and, under stash & lock, the pass-entry stash wait), tile
/// shapes aggregated by class (full / ragged-row / ragged-column /
/// corner) so the model is closed-form fast even for thousands of tiles.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn model_cost_fs(
    config: &SystemConfig,
    m: u64,
    n: u64,
    k: u64,
    precision: Precision,
    tiling: &TilingConfig,
) -> u128 {
    assert!(m > 0 && n > 0 && k > 0, "degenerate GEMM");
    let e = precision.bytes();
    let lanes = config.mmae.lanes(precision);
    let clock = config.mmae.clock;
    let mut total: u128 = 0;
    // Duration of the previous pass's steps — the window its successor's
    // stash prefetch had to hide in.
    let mut prev_pass_cost: u128 = 0;
    let mut first_pass = true;
    for pass in block_passes(m, n, k, tiling) {
        // Tile classes: (extent, count) per axis.
        let row_classes = [
            (tiling.ttr, pass.rows / tiling.ttr),
            (
                pass.rows % tiling.ttr,
                u64::from(pass.rows % tiling.ttr > 0),
            ),
        ];
        let col_classes = [
            (tiling.ttc, pass.cols / tiling.ttc),
            (
                pass.cols % tiling.ttc,
                u64::from(pass.cols % tiling.ttc > 0),
            ),
        ];
        let mut pass_cost: u128 = 0;
        let mut first = true;
        for &(cols, ccount) in &col_classes {
            for &(rows, rcount) in &row_classes {
                let count = (rcount * ccount) as u128;
                if count == 0 {
                    continue;
                }
                let cycles = sa_tile_cycles(config, rows, cols, pass.depth, tiling.ttk, lanes);
                let sa = clock.cycles(cycles).as_fs();
                let mut in_bytes = rows * pass.depth * e + pass.depth * cols * e;
                if pass.first_k {
                    in_bytes += rows * cols * e;
                }
                let out_bytes = if pass.last_k { rows * cols * e } else { 0 };
                let din = dma_fs(config, in_bytes);
                let dout = dma_fs(config, out_bytes);
                pass_cost += count * sa.max(din).max(dout) as u128;
                if first {
                    // The first tile of a pass has nothing to overlap its
                    // input fill with (`price_tile_step`'s `first_step`).
                    pass_cost += din as u128;
                    first = false;
                }
            }
        }
        if config.stash_lock {
            // Pass entry waits for stash residency: the first pass exposes
            // the first tile's share of its block stream; later passes were
            // prefetched during the previous pass and expose only what that
            // window could not hide.
            let pass_bytes = (pass.rows * pass.depth + pass.depth * pass.cols) * e;
            let steps = (pass.rows.div_ceil(tiling.ttr) * pass.cols.div_ceil(tiling.ttc)).max(1);
            total += if first_pass {
                stash_fs(config, pass_bytes / steps) as u128
            } else {
                (stash_fs(config, pass_bytes) as u128).saturating_sub(prev_pass_cost)
            };
        }
        total += pass_cost;
        prev_pass_cost = pass_cost;
        first_pass = false;
    }
    total
}

/// Picks the cheapest buffer-feasible tiling for an `m×n×k` GEMM at
/// `precision` on `config` under [`model_cost_fs`]. Deterministic: the
/// candidate order is fixed (decreasing extent) and ties keep the earlier
/// — larger — tile, which also minimises DMA traffic. If no candidate
/// double-buffers (pathologically small buffer arrays), the configured
/// tiling is returned unchanged, so the choice never invalidates a
/// configuration that was previously runnable.
pub fn choose_tiling(
    config: &SystemConfig,
    m: u64,
    n: u64,
    k: u64,
    precision: Precision,
) -> TilingConfig {
    let mut best: Option<(u128, TilingConfig)> = None;
    for tiling in candidate_tilings(config, precision) {
        let cost = model_cost_fs(config, m, n, k, precision, &tiling);
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, tiling));
        }
    }
    best.map_or(config.mmae.tiling, |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_scale_with_element_width() {
        let cfg = SystemConfig::default();
        // 64 KB arrays double-buffer up to 64³ at 8 B and 128³ at ≤2 B.
        let fp64: Vec<u64> = candidate_tilings(&cfg, Precision::Fp64)
            .iter()
            .map(|t| t.ttr)
            .collect();
        assert_eq!(fp64, vec![64, 32, 16]);
        let int8: Vec<u64> = candidate_tilings(&cfg, Precision::Int8)
            .iter()
            .map(|t| t.ttr)
            .collect();
        assert_eq!(int8, vec![128, 64, 32, 16]);
        assert_eq!(candidate_tilings(&cfg, Precision::Fp16).len(), 4);
        assert_eq!(candidate_tilings(&cfg, Precision::Fp32).len(), 3);
    }

    #[test]
    fn every_candidate_double_buffers() {
        let cfg = SystemConfig::default();
        for p in Precision::ALL {
            for t in candidate_tilings(&cfg, p) {
                t.validate();
                let plan = BufferPlan::plan(&cfg.mmae, &t, p).unwrap();
                assert!(plan.double_buffered, "{p} {t:?}");
            }
        }
    }

    #[test]
    fn chosen_tiling_is_deterministic() {
        let cfg = SystemConfig::default();
        for p in Precision::ALL {
            let a = choose_tiling(&cfg, 512, 512, 512, p);
            let b = choose_tiling(&cfg, 512, 512, 512, p);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn larger_tiles_win_under_the_model() {
        // Bigger buffer tiles mean strictly less DMA traffic per pass and
        // fewer SA fill/drains, so the model must pick the largest
        // feasible extent at the paper's default bandwidth point.
        let cfg = SystemConfig::default();
        assert_eq!(
            choose_tiling(&cfg, 1024, 1024, 1024, Precision::Fp64).ttr,
            64
        );
        assert_eq!(
            choose_tiling(&cfg, 1024, 1024, 1024, Precision::Int8).ttr,
            128
        );
    }

    #[test]
    fn chosen_tiling_attains_the_candidate_minimum() {
        // Larger tiles usually win (less DMA traffic, fewer fill/drains)
        // but not always — the un-overlapped first fill of a pass grows
        // with the tile — so the contract is argmin, not monotonicity.
        let cfg = SystemConfig::default();
        for p in Precision::ALL {
            for &size in &[96u64, 256, 512] {
                let chosen = choose_tiling(&cfg, size, size, size, p);
                let best = candidate_tilings(&cfg, p)
                    .iter()
                    .map(|t| model_cost_fs(&cfg, size, size, size, p, t))
                    .min()
                    .unwrap();
                assert_eq!(
                    model_cost_fs(&cfg, size, size, size, p, &chosen),
                    best,
                    "{p} {size}³"
                );
            }
        }
    }

    #[test]
    fn fanout_beyond_the_slice_count_costs_what_the_machine_charges() {
        // With two slices the machine splits a transfer into two shards
        // whether the fanout asks for two or four, so the model must too.
        let mut cfg = SystemConfig::default();
        cfg.l3.slices = 2;
        let tiling = cfg.mmae.tiling;
        let cost = |fanout| {
            let cfg = SystemConfig {
                ccm_fanout: fanout,
                ..cfg.clone()
            };
            model_cost_fs(&cfg, 1024, 1024, 1024, Precision::Fp64, &tiling)
        };
        assert_eq!(cost(2), cost(4));
        assert_ne!(cost(1), cost(2));
    }

    #[test]
    fn degenerate_buffers_fall_back_to_the_configured_tiling() {
        let mut cfg = SystemConfig::default();
        cfg.mmae.a_buffer_bytes = 64; // nothing double-buffers
        cfg.mmae.b_buffer_bytes = 64;
        cfg.mmae.c_buffer_bytes = 64;
        let chosen = choose_tiling(&cfg, 256, 256, 256, Precision::Fp64);
        assert_eq!(chosen, cfg.mmae.tiling);
    }
}
