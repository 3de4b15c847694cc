//! MMAE configuration.

use maco_isa::Precision;
use maco_sim::ClockDomain;

/// Two-level tiling of a GEMM task (Section V.B: first-level
/// ⟨Tr,Tc⟩ = ⟨1024,1024⟩ staged in L3, second-level ⟨ttr,ttc⟩ = ⟨64,64⟩
/// staged in the MMAE buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingConfig {
    /// First-level tile rows (L3-resident block).
    pub tr: u64,
    /// First-level tile columns.
    pub tc: u64,
    /// First-level reduction extent staged per block pass.
    pub tk: u64,
    /// Second-level tile rows (buffer-resident).
    pub ttr: u64,
    /// Second-level tile columns.
    pub ttc: u64,
    /// Second-level reduction extent per SA pass.
    pub ttk: u64,
}

impl Default for TilingConfig {
    /// The paper's evaluation tiling: ⟨1024,1024⟩ / ⟨64,64⟩ with matching
    /// reduction staging.
    fn default() -> Self {
        TilingConfig {
            tr: 1024,
            tc: 1024,
            tk: 1024,
            ttr: 64,
            ttc: 64,
            ttk: 64,
        }
    }
}

impl TilingConfig {
    /// Validates internal consistency (second-level divides first-level).
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or a second-level extent exceeds its
    /// first-level extent.
    pub fn validate(&self) {
        assert!(
            self.tr > 0 && self.tc > 0 && self.tk > 0,
            "zero first-level tile extent"
        );
        assert!(
            self.ttr > 0 && self.ttc > 0 && self.ttk > 0,
            "zero second-level tile extent"
        );
        assert!(
            self.ttr <= self.tr && self.ttc <= self.tc && self.ttk <= self.tk,
            "second-level tile larger than first-level"
        );
    }
}

/// Full MMAE configuration (Fig. 2 and Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmaeConfig {
    /// Systolic array rows (p).
    pub sa_rows: usize,
    /// Systolic array columns (p).
    pub sa_cols: usize,
    /// Engine clock.
    pub clock: ClockDomain,
    /// A-buffer capacity in bytes.
    pub a_buffer_bytes: u64,
    /// B-buffer capacity in bytes.
    pub b_buffer_bytes: u64,
    /// C-buffer capacity in bytes.
    pub c_buffer_bytes: u64,
    /// Number of DMA engines in the ADE.
    pub dma_engines: usize,
    /// Slave-task-queue entries.
    pub stq_entries: usize,
    /// Tiling scheme.
    pub tiling: TilingConfig,
    /// Overrides the per-PE SIMD width regardless of precision. Used by the
    /// Fig. 8 comparison, which fixes every solution at the same PE count
    /// with one MAC per PE.
    pub lanes_override: Option<u64>,
}

impl Default for MmaeConfig {
    /// The paper's engine: 4×4 SA @ 2.5 GHz, 192 KB of buffers split
    /// 64/64/64 KB, two DMA engines (Fig. 2(a)).
    fn default() -> Self {
        MmaeConfig {
            sa_rows: 4,
            sa_cols: 4,
            clock: ClockDomain::MMAE,
            a_buffer_bytes: 64 * 1024,
            b_buffer_bytes: 64 * 1024,
            c_buffer_bytes: 64 * 1024,
            dma_engines: 2,
            stq_entries: 4,
            tiling: TilingConfig::default(),
            lanes_override: None,
        }
    }
}

impl MmaeConfig {
    /// A Fig. 8 configuration: same engine but with a 16×16 PE array (the
    /// paper normalises all comparison solutions to 16×16 PEs) and buffers
    /// scaled to feed it.
    pub fn with_sa(mut self, rows: usize, cols: usize) -> Self {
        self.sa_rows = rows;
        self.sa_cols = cols;
        self
    }

    /// Total buffer capacity (the paper's 192 KB).
    pub fn total_buffer_bytes(&self) -> u64 {
        self.a_buffer_bytes + self.b_buffer_bytes + self.c_buffer_bytes
    }

    /// Processing elements in the array.
    pub fn pe_count(&self) -> u64 {
        (self.sa_rows * self.sa_cols) as u64
    }

    /// Effective SIMD lanes at `precision` (respecting any override).
    pub fn lanes(&self, precision: Precision) -> u64 {
        self.lanes_override.unwrap_or(precision.lanes())
    }

    /// MAC operations per cycle at `precision` (PEs × SIMD lanes).
    pub fn macs_per_cycle(&self, precision: Precision) -> u64 {
        self.pe_count() * self.lanes(precision)
    }

    /// Theoretical peak in GFLOPS (`2 × freq × FMACs`, Table IV note a).
    pub fn peak_gflops(&self, precision: Precision) -> f64 {
        2.0 * self.clock.freq_ghz() * self.macs_per_cycle(precision) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iv_peaks() {
        let c = MmaeConfig::default();
        assert!((c.peak_gflops(Precision::Fp64) - 80.0).abs() < 0.01);
        assert!((c.peak_gflops(Precision::Fp32) - 160.0).abs() < 0.01);
        assert!((c.peak_gflops(Precision::Fp16) - 320.0).abs() < 0.01);
        // INT8 doubles the FP16 lane count: 640 GOPS peak per MMAE.
        assert!((c.peak_gflops(Precision::Int8) - 640.0).abs() < 0.01);
        assert_eq!(c.total_buffer_bytes(), 192 * 1024);
        assert_eq!(c.pe_count(), 16);
    }

    #[test]
    fn macs_per_cycle_scales_with_lanes() {
        let c = MmaeConfig::default();
        assert_eq!(c.macs_per_cycle(Precision::Fp64), 16);
        assert_eq!(c.macs_per_cycle(Precision::Fp32), 32);
        assert_eq!(c.macs_per_cycle(Precision::Fp16), 64);
        assert_eq!(c.macs_per_cycle(Precision::Int8), 128);
    }

    #[test]
    fn fig8_geometry() {
        let c = MmaeConfig::default().with_sa(16, 16);
        assert_eq!(c.pe_count(), 256);
        // 16×16 PEs FP32 single-lane-equivalent peak used in Fig. 8:
        // 2 × 2.5 GHz × 256 = 1280 GFLOPS.
        assert!((2.0 * c.clock.freq_ghz() * c.pe_count() as f64 - 1280.0).abs() < 0.01);
    }

    #[test]
    fn default_tiling_matches_section_v() {
        let t = TilingConfig::default();
        t.validate();
        assert_eq!((t.tr, t.tc), (1024, 1024));
        assert_eq!((t.ttr, t.ttc), (64, 64));
    }

    #[test]
    #[should_panic(expected = "second-level")]
    fn tiling_validation_rejects_inverted_levels() {
        TilingConfig {
            tr: 32,
            tc: 1024,
            tk: 1024,
            ttr: 64,
            ttc: 64,
            ttk: 64,
        }
        .validate();
    }

    #[test]
    fn buffers_hold_double_buffered_paper_tiles() {
        // 64×64 FP64 tile = 32 KB; double buffering needs 64 KB per matrix.
        let c = MmaeConfig::default();
        let tile_bytes = 64 * 64 * 8u64;
        assert!(2 * tile_bytes <= c.a_buffer_bytes);
        assert!(2 * tile_bytes <= c.b_buffer_bytes);
        assert!(2 * tile_bytes <= c.c_buffer_bytes);
    }
}
