//! Differential test of the closed-loop event loop.
//!
//! [`MacoSystem::step_in_time_order`] picks the next run from a binary heap
//! of `(time, node)` keys. The reference below is the linear scan it
//! replaced: before every batch it rescans every run for the minimum key
//! and the runner-up. Random episodes driven through both on twin machines
//! must return equal reports and leave every link, CCM slice, DRAM channel
//! and work counter equal.

use proptest::prelude::*;
use proptest::TestRng;

use super::*;

/// Reference event loop: per-run next-event times, selected by a linear
/// scan that also finds the runner-up bounding the batch.
fn reference_step_in_time_order(
    sys: &mut MacoSystem,
    runs: &mut [InFlightGemm],
) -> Result<Vec<NodeReport>, TranslateFault> {
    let mut pending: Vec<Option<SimTime>> = runs.iter().map(|r| Some(r.now())).collect();
    let mut remaining = pending.len();
    let mut reports: Vec<Option<NodeReport>> = vec![None; runs.len()];

    while remaining > 0 {
        let mut best: Option<(SimTime, usize)> = None;
        let mut runner_up: Option<(SimTime, usize)> = None;
        for (i, t) in pending.iter().enumerate() {
            if let Some(t) = *t {
                let key = (t, i);
                if best.is_none_or(|b| key < b) {
                    runner_up = best;
                    best = Some(key);
                } else if runner_up.is_none_or(|r| key < r) {
                    runner_up = Some(key);
                }
            }
        }
        let (_, ni) = best.expect("remaining > 0");
        let finished = loop {
            match sys.step_gemm(&mut runs[ni])? {
                Some(report) => break Some(report),
                None => {
                    if let Some(r) = runner_up {
                        if (runs[ni].now(), ni) > r {
                            break None;
                        }
                    }
                }
            }
        };
        match finished {
            Some(report) => {
                reports[ni] = Some(report);
                pending[ni] = None;
                remaining -= 1;
            }
            None => pending[ni] = Some(runs[ni].now()),
        }
    }
    Ok(reports.into_iter().map(|r| r.expect("finished")).collect())
}

/// [`MacoSystem::run_tasks`] over the reference loop.
fn reference_run_tasks(
    sys: &mut MacoSystem,
    tasks: &[GemmParams],
) -> Result<SystemReport, TranslateFault> {
    let mut runs = sys.begin_tasks(tasks);
    let reports = reference_step_in_time_order(sys, &mut runs)?;
    Ok(sys.system_report(reports))
}

/// A GEMM extent up to `max`: a multiple of the 64-element buffer tile
/// one time in four, ragged otherwise.
fn draw_extent(rng: &mut TestRng, max: u64) -> u64 {
    match rng.next_below(4) {
        0 => 64 * (1 + rng.next_below(max / 64)),
        _ => 1 + rng.next_below(max),
    }
}

/// Either a squarish GEMM of up to 11×11 tiles in one or two k-passes, or
/// a thin deep one whose few tiles per pass put a pass entry (stash
/// prefetch, translation) every few steps.
fn draw_shape(rng: &mut TestRng) -> (u64, u64, u64) {
    if rng.next_below(2) == 0 {
        (
            draw_extent(rng, 700),
            draw_extent(rng, 700),
            draw_extent(rng, 1_300),
        )
    } else {
        (
            draw_extent(rng, 192),
            draw_extent(rng, 192),
            draw_extent(rng, 4_200),
        )
    }
}

fn assert_same_machine(heap: &MacoSystem, scan: &MacoSystem, episode: usize) {
    assert!(
        heap.fabric == scan.fabric,
        "episode {episode}: mesh links differ"
    );
    assert!(
        heap.ccms == scan.ccms,
        "episode {episode}: CCM slices differ"
    );
    assert!(
        heap.dram == scan.dram,
        "episode {episode}: DRAM channels differ"
    );
    assert_eq!(
        heap.stats_snapshot(),
        scan.stats_snapshot(),
        "episode {episode}: work counters differ"
    );
}

proptest! {
    #[test]
    fn heap_event_loop_matches_scan_event_loop(
        nodes in 1usize..17,
        precision in 0usize..4,
        flags in (0u8..2, 0u8..2, 0u8..2),
        seed in 0u64..u64::MAX,
    ) {
        let (prediction, stash_lock, translation_mirror) = flags;
        let config = SystemConfig {
            nodes,
            prediction: prediction == 1,
            stash_lock: stash_lock == 1,
            translation_mirror: translation_mirror == 1,
            ..SystemConfig::default()
        };
        let precision = Precision::ALL[precision];
        let mut heap = MacoSystem::new(config.clone());
        let mut scan = MacoSystem::new(config);
        let mut rng = TestRng::new(seed);

        // Two episodes, so the second starts from the translation state
        // (sTLBs, memos, mirror) the first left behind.
        for episode in 0..2 {
            let (a, b) = if rng.next_below(2) == 0 {
                let (m, n, k) = draw_shape(&mut rng);
                let params = scan.build_params(m, n, k, precision).expect("maps");
                (
                    heap.run_parallel_gemm(m, n, k, precision),
                    reference_run_tasks(&mut scan, &vec![params; nodes]),
                )
            } else {
                let parts = 1 + rng.next_below(nodes as u64) as usize;
                let shapes: Vec<(u64, u64, u64)> =
                    (0..parts).map(|_| draw_shape(&mut rng)).collect();
                let params: Vec<GemmParams> = shapes
                    .iter()
                    .map(|&(m, n, k)| scan.build_params(m, n, k, precision).expect("maps"))
                    .collect();
                (
                    heap.run_partitioned_gemm(&shapes, precision),
                    reference_run_tasks(&mut scan, &params),
                )
            };
            let (a, b) = (a.expect("no fault"), b.expect("no fault"));
            prop_assert_eq!(a.nodes, b.nodes, "episode {}: node reports", episode);
            prop_assert_eq!(a.makespan, b.makespan);
            prop_assert_eq!(
                a.mean_link_utilization.to_bits(),
                b.mean_link_utilization.to_bits()
            );
            prop_assert_eq!(
                a.max_link_utilization.to_bits(),
                b.max_link_utilization.to_bits()
            );
            prop_assert_eq!(a.dram_bytes, b.dram_bytes);
            assert_same_machine(&heap, &scan, episode);
        }
    }
}
