//! Cross-crate integration tests: the full MACO system exercised end to
//! end through the facade crate.

use maco::core::gemm_plus::GemmPlusTask;
use maco::core::node::ComputeNode;
use maco::core::runner::Maco;
use maco::core::system::{MacoSystem, NodeReport, SystemConfig};
use maco::cpu::kernels::Kernel;
use maco::isa::mtq::QueryOutcome;
use maco::isa::params::GemmParams;
use maco::isa::{Asid, ExceptionType, Precision};
use maco::mmae::systolic::reference_gemm;
use maco::mmae::translate::StreamTranslation;
use maco::sim::{SimDuration, SimTime};

/// The headline Fig. 6 property: predictive translation beats demand
/// translation at n ≥ 1024, and the gap collapses below 512.
#[test]
fn prediction_gap_has_fig6_shape() {
    let run = |n: u64, prediction: bool| {
        let mut cfg = SystemConfig::single_node();
        cfg.prediction = prediction;
        MacoSystem::new(cfg)
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .expect("mapped")
            .avg_efficiency()
    };
    let gap_small = run(256, true) - run(256, false);
    let gap_peak = run(1024, true) - run(1024, false);
    assert!(gap_peak > 0.04, "peak gap {gap_peak} too small");
    assert!(gap_small < 0.02, "small-size gap {gap_small} too large");
    assert!(gap_peak > 2.0 * gap_small, "gap must grow with size");
}

/// The headline Fig. 7 property: scaling to 16 nodes costs roughly 10 %
/// while staying near 90 % efficiency.
#[test]
fn sixteen_node_scaling_loses_about_ten_percent() {
    let n = 2048;
    let eff = |nodes: usize| {
        let cfg = SystemConfig {
            nodes,
            ..SystemConfig::default()
        };
        MacoSystem::new(cfg)
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .expect("mapped")
            .avg_efficiency()
    };
    let e1 = eff(1);
    let e16 = eff(16);
    let loss = e1 - e16;
    assert!((0.03..0.25).contains(&loss), "1→16 loss {loss}");
    assert!(e16 > 0.75, "16-node efficiency {e16}");
}

/// Functional correctness: the node's tiled SA execution equals a
/// reference GEMM.
#[test]
fn node_functional_gemm_matches_reference() {
    let node = ComputeNode::new(Asid::new(1));
    let (m, n, k) = (96, 80, 112);
    let a: Vec<f64> = (0..m * k)
        .map(|i| ((i * 37 % 23) as f64) / 7.0 - 1.0)
        .collect();
    let b: Vec<f64> = (0..k * n)
        .map(|i| ((i * 53 % 29) as f64) / 9.0 - 1.0)
        .collect();
    let c: Vec<f64> = (0..m * n).map(|i| ((i * 11 % 13) as f64) / 3.0).collect();
    let y = node.gemm_functional(&a, &b, &c, m, n, k, Precision::Fp64);
    let r = reference_gemm(&a, &b, &c, m, n, k);
    for (yi, ri) in y.iter().zip(&r) {
        assert!((yi - ri).abs() < 1e-9);
    }
}

/// The full MPAIS protocol across crates: clean task, exception task,
/// recycled entry.
#[test]
fn mpais_protocol_end_to_end() {
    let n = 128u64;
    let bytes = n * n * 8;
    let params = GemmParams::new(
        0x1000_0000,
        0x1000_0000 + bytes,
        0x1000_0000 + 2 * bytes,
        0x1000_0000 + 3 * bytes,
        n,
        n,
        n,
        Precision::Fp64,
    )
    .expect("valid");

    // Clean path.
    let mut node = ComputeNode::new(Asid::new(7));
    node.map(0x1000_0000, 4 * bytes).expect("fresh range");
    let (maid, report) = node.run_gemm(&params, SimTime::ZERO).expect("resources");
    assert!(report.is_some());
    assert_eq!(
        node.query_release(maid).expect("valid maid"),
        QueryOutcome::Done { exception: None }
    );

    // Exception path (nothing mapped).
    let mut bad = ComputeNode::new(Asid::new(8));
    let (maid, report) = bad.run_gemm(&params, SimTime::ZERO).expect("resources");
    assert!(report.is_none());
    assert_eq!(
        bad.query_release(maid).expect("valid maid"),
        QueryOutcome::Done {
            exception: Some(ExceptionType::TranslationFault)
        }
    );
    bad.clear(maid).expect("clear");
    assert_eq!(bad.cpu().mtq().in_use(), 0);
}

/// The GEMM⁺ mapping scheme helps: stash/lock + overlap beats the
/// unmapped, serial configuration (the Fig. 8 Baseline-2 relationship).
#[test]
fn mapping_scheme_beats_baseline2_configuration() {
    let task =
        GemmPlusTask::gemm(4096, 256, 1024, Precision::Fp32).with_epilogue(Kernel::softmax());

    let mut maco = Maco::builder().nodes(8).build();
    let mapped = maco.gemm_plus(&task).expect("mapped");

    let mut b2 = Maco::builder().nodes(8).stash_lock(false).build();
    let unmapped = b2
        .gemm_plus(&task.clone().without_overlap())
        .expect("mapped");

    assert!(
        mapped.elapsed < unmapped.elapsed,
        "mapping {} vs baseline-2 {}",
        mapped.elapsed,
        unmapped.elapsed
    );
}

/// Fig. 5(c): the CPU epilogue genuinely overlaps MMAE GEMM time.
#[test]
fn gemm_plus_timeline_overlaps() {
    let mut maco = Maco::builder().nodes(2).build();
    let task = GemmPlusTask::gemm(2048, 2048, 1024, Precision::Fp32).with_epilogue(Kernel::gelu());
    let report = maco.gemm_plus(&task).expect("mapped");
    for i in 0..2 {
        let overlap = report
            .timeline
            .overlap_between(&format!("CN{i}.MMAE"), &format!("CN{i}.CPU"));
        assert!(overlap > SimDuration::ZERO, "CN{i} shows no overlap");
    }
}

/// Multi-task streams run back to back without leaking MTQ/STQ entries.
#[test]
fn many_layers_do_not_leak_task_entries() {
    let mut maco = Maco::builder().nodes(4).build();
    let layers: Vec<GemmPlusTask> = (0..12)
        .map(|i| GemmPlusTask::gemm(512 + 64 * i, 512, 512, Precision::Fp32))
        .collect();
    let report = maco.dnn(&layers).expect("mapped");
    assert_eq!(report.layers, 12);
    assert!(report.gflops() > 0.0);
}

/// Precision changes peak and throughput coherently.
#[test]
fn precision_scales_throughput() {
    let mut machine = Maco::builder().nodes(1).build();
    let f64r = machine
        .parallel_gemm(1024, 1024, 1024, Precision::Fp64)
        .expect("mapped")
        .total_gflops();
    let f16r = machine
        .parallel_gemm(1024, 1024, 1024, Precision::Fp16)
        .expect("mapped")
        .total_gflops();
    let ratio = f16r / f64r;
    assert!(
        (2.5..4.5).contains(&ratio),
        "FP16 4-way SIMD should approach 4x FP64: {ratio}"
    );
}

/// Pins a ragged, multi-pass Baseline-2 (`stash_lock = false`) run on two
/// nodes: each node's GEMM splits into passes of several shapes, and
/// Baseline-2 prices every pass's DRAM traffic by that pass's own L3 miss
/// fraction. A model that priced all passes at the first pass's fraction
/// moves the elapsed times.
#[test]
fn ragged_baseline2_run_is_pinned() {
    let mut sys = MacoSystem::new(SystemConfig {
        nodes: 2,
        stash_lock: false,
        ..SystemConfig::default()
    });
    let r = sys
        .run_partitioned_gemm(&[(1500, 200, 1300), (700, 300, 900)], Precision::Fp64)
        .expect("mapped");
    let node = |node, elapsed_fs, flops, pages, dma_bytes| NodeReport {
        node,
        elapsed: SimDuration::from_fs(elapsed_fs),
        flops,
        peak_gflops: 80.0,
        translation: StreamTranslation {
            stall: SimDuration::ZERO,
            pages,
            matlb_hits: pages,
            tlb_hits: 0,
            demand_walks: 0,
        },
        dma_bytes,
    };
    assert_eq!(
        r.nodes,
        [
            node(0, 14_210_334_571_580, 780_000_000, 77_880, 117_120_000),
            node(1, 6_457_138_652_830, 378_000_000, 39_353, 52_320_000),
        ]
    );
}
