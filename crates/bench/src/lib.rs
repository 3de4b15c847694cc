//! # maco-bench — experiment harnesses
//!
//! One binary per table and figure of the paper's evaluation section:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `table1` | Table I — CPU core parameters |
//! | `table4` | Table IV — CPU vs MMAE area/power/peak + derived ratios |
//! | `fig3_mtq_trace` | Fig. 3 — MTQ entry state transitions |
//! | `fig4_prediction_trace` | Fig. 4 — predicted page sequences |
//! | `fig5_timeline` | Fig. 5(c) — GEMM⁺ overlap timeline |
//! | `fig6` | Fig. 6 — efficiency with/without predictive translation |
//! | `fig7` | Fig. 7 — multi-node scalability |
//! | `fig8` | Fig. 8 — DNN throughput vs the four comparators |
//! | `ablation_tiling` | (extension) tile-size sensitivity |
//!
//! Run any of them with `cargo run --release -p maco-bench --bin <target>`.
//! Set `MACO_QUICK=1` to trim the largest sweep points (useful on slow
//! machines; the full sweeps match the paper's axes).
//!
//! The `benches/` directory holds Criterion micro-benchmarks of the
//! simulator substrate itself (systolic model, TLB, cache, page tables,
//! end-to-end small GEMM).

/// Formats one row of an aligned text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// True when the quick mode flag is set.
pub fn quick_mode() -> bool {
    std::env::var("MACO_QUICK").is_ok()
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns_cells() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.8872), "88.7%");
    }
}
