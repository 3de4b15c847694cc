//! The distributed L3 "system cache".
//!
//! "The L3 cache (also named system cache) is distributed among all CCMs
//! and shared by all compute nodes" (Section III.A). The GEMM⁺ mapping
//! scheme (Section IV.B) adds **stash** — prefetch a region into L3 ahead
//! of use — and **lock** — pin those lines against the streaming traffic
//! of other tiles. The timing model prices both as CCM occupancy, so of
//! the L3 it needs only the geometry below: one slice per CCM, and the
//! total capacity.

/// Geometry of the distributed L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Config {
    /// Number of slices (one per CCM; the 4×4 MACO has 16).
    pub slices: usize,
    /// Capacity per slice in bytes.
    pub slice_bytes: u64,
}

impl Default for L3Config {
    /// 16 slices × 2 MB — a 32 MB system cache.
    fn default() -> Self {
        L3Config {
            slices: 16,
            slice_bytes: 2 * 1024 * 1024,
        }
    }
}

impl L3Config {
    /// Total capacity across slices.
    pub fn total_bytes(&self) -> u64 {
        self.slice_bytes * self.slices as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_scale() {
        let c = L3Config::default();
        assert_eq!(c.total_bytes(), 32 * 1024 * 1024);
        assert_eq!(c.slices, 16);
    }
}
