//! `gemm_sweep` — the paper's Fig. 6/7 experiment through the machine model
//! alone: FP64 square GEMMs through `MacoSystem::run_parallel_gemm` on one
//! node (bound by pass translation) and on 16 nodes (bound by tile-step
//! pricing). Serve and cluster are bypassed. The inputs are fixed, so every
//! seed runs the same GEMMs.
//!
//! A job here is one node's GEMM task; its latency is the task's simulated
//! duration.

use std::time::Instant;

use maco_core::system::{MacoSystem, NodeReport, SystemConfig};
use maco_isa::Precision;
use maco_mmae::{block_passes, tiles_in_pass};
use maco_sim::{fold_fingerprint, SimTime, Stats};

use crate::harness::{median, median_by, ns_since, quantile, repeat, timed, Mode, Pin, Report};

/// `(active nodes, square GEMM extent)`: Fig. 6 (one node) and Fig. 7 (16).
const CASES: [(usize, u64); 4] = [(1, 2048), (1, 4096), (16, 2048), (16, 4096)];
const PRECISION: Precision = Precision::Fp64;

/// The default seed's simulated outcomes. A change that moves one of
/// these changes the model, not just the simulator's speed.
pub const PIN: Pin = Pin {
    fingerprints: &[("nodes", 0x5666_9b4b_f7bb_5fae)],
    sim: &[
        ("sim_efficiency", 0.9178454567263132),
        ("sim_gflops", 621.7071109127709),
        ("sim_latency_p50_us", 263928.05930908),
        ("sim_latency_p99_us", 2021318.10230908),
    ],
};

type Reports = Vec<Vec<NodeReport>>;

/// Fresh machines with every case's operands mapped: everything before the
/// first timed call.
fn setup() -> Result<Vec<MacoSystem>, String> {
    CASES
        .iter()
        .map(|&(nodes, n)| {
            let mut sys = MacoSystem::new(SystemConfig {
                nodes,
                ..SystemConfig::default()
            });
            sys.map_gemm(n, n, n, PRECISION)
                .map_err(|e| e.to_string())?;
            Ok(sys)
        })
        .collect()
}

fn run_plain(systems: &mut [MacoSystem]) -> Result<Reports, String> {
    systems
        .iter_mut()
        .zip(CASES)
        .map(|(sys, (_, n))| {
            sys.run_parallel_gemm(n, n, n, PRECISION)
                .map(|r| r.nodes)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Host nanoseconds of every call into the core, by kind.
#[derive(Default)]
struct Calls {
    begin: Vec<u64>,
    /// Steps that enter a block pass (the pass is translated there).
    entry: Vec<u64>,
    /// Every other tile step.
    step: Vec<u64>,
}

/// The same episodes driven through `begin_gemm`/`step_gemm`, one timed
/// step at a time, in the minimum-`(time, node)` order `run_parallel_gemm`
/// uses.
fn run_traced(systems: &mut [MacoSystem], calls: &mut Calls) -> Result<Reports, String> {
    let mut out = Vec::with_capacity(CASES.len());
    for (sys, (nodes, n)) in systems.iter_mut().zip(CASES) {
        sys.reset_shared_resources();
        let params = sys
            .map_gemm(n, n, n, PRECISION)
            .map_err(|e| e.to_string())?;
        let tiling = sys.config().mmae.tiling;
        let mut is_entry = Vec::new();
        for pass in block_passes(n, n, n, &tiling) {
            let tiles = tiles_in_pass(&pass, &tiling).len();
            is_entry.push(true);
            is_entry.extend(std::iter::repeat_n(false, tiles - 1));
        }
        let mut tasks = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let asid = sys.node_asid(node);
            let t = Instant::now();
            let task = sys
                .begin_gemm(node, asid, params, SimTime::ZERO)
                .map_err(|e| e.to_string())?;
            calls.begin.push(ns_since(t));
            tasks.push(task);
        }
        let mut steps = vec![0usize; nodes];
        let mut reports: Vec<Option<NodeReport>> = vec![None; nodes];
        while let Some(i) = (0..nodes)
            .filter(|&i| reports[i].is_none())
            .min_by_key(|&i| (tasks[i].now(), i))
        {
            let t = Instant::now();
            let done = sys.step_gemm(&mut tasks[i]).map_err(|e| e.to_string())?;
            let ns = ns_since(t);
            if is_entry[steps[i]] {
                calls.entry.push(ns);
            } else {
                calls.step.push(ns);
            }
            steps[i] += 1;
            reports[i] = done;
        }
        out.push(
            reports
                .into_iter()
                .map(|r| r.expect("stepped to completion"))
                .collect(),
        );
    }
    Ok(out)
}

fn fingerprint(reports: &Reports) -> u64 {
    let mut h = 0;
    for r in reports.iter().flatten() {
        let t = &r.translation;
        for x in [
            r.node as u64,
            r.elapsed.as_fs(),
            r.flops,
            t.stall.as_fs(),
            t.pages,
            t.matlb_hits,
            t.tlb_hits,
            t.demand_walks,
            r.dma_bytes,
        ] {
            h = fold_fingerprint(h, x);
        }
    }
    h
}

fn check_reports(report: &mut Report, reports: &Reports) {
    for (case, &(nodes, n)) in reports.iter().zip(&CASES) {
        report.check(case.len() == nodes, || {
            format!("{n}^3 on {nodes} nodes: {} reports", case.len())
        });
        for r in case {
            report.check(r.flops == 2 * n * n * n, || {
                format!(
                    "{n}^3 node {}: {} flops, expected {}",
                    r.node,
                    r.flops,
                    2 * n * n * n
                )
            });
        }
    }
}

fn sim_metrics(report: &mut Report, reports: &Reports) {
    let flops: u64 = reports.iter().flatten().map(|r| r.flops).sum();
    let makespan_ns: f64 = reports
        .iter()
        .map(|case| {
            case.iter()
                .map(|r| r.elapsed)
                .max()
                .expect("nodes ran")
                .as_ns()
        })
        .sum();
    let efficiency = reports
        .iter()
        .map(|case| case.iter().map(NodeReport::efficiency).sum::<f64>() / case.len() as f64)
        .sum::<f64>()
        / reports.len() as f64;
    let mut latency: Vec<u64> = reports
        .iter()
        .flatten()
        .map(|r| r.elapsed.as_fs())
        .collect();
    report.sim("sim_efficiency", efficiency);
    report.sim("sim_gflops", flops as f64 / makespan_ns);
    report.sim(
        "sim_latency_p50_us",
        quantile(&mut latency, 0.5) as f64 / 1e9,
    );
    report.sim(
        "sim_latency_p99_us",
        quantile(&mut latency, 0.99) as f64 / 1e9,
    );
}

/// Per traced repetition: the per-layer times of one sweep.
struct LayerRep {
    begin_p50: u64,
    step_p50: u64,
    step_p99: u64,
    step_total: u64,
    entry_p50: u64,
    entry_p99: u64,
    entry_total: u64,
    begin_total: u64,
}

impl LayerRep {
    fn of(mut calls: Calls) -> Self {
        LayerRep {
            begin_total: calls.begin.iter().sum(),
            step_total: calls.step.iter().sum(),
            entry_total: calls.entry.iter().sum(),
            begin_p50: quantile(&mut calls.begin, 0.5),
            step_p50: quantile(&mut calls.step, 0.5),
            step_p99: quantile(&mut calls.step, 0.99),
            entry_p50: quantile(&mut calls.entry, 0.5),
            entry_p99: quantile(&mut calls.entry, 0.99),
        }
    }
}

pub fn run(report: &mut Report, seconds: f64) {
    let mode = report.mode;
    let mut setup_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layer_reps = Vec::new();
    let mut first: Option<(u64, Reports)> = None;
    let mut counters = Stats::new();
    let mut steps = (0usize, 0usize);
    let flops: u64 = CASES
        .iter()
        .map(|&(nodes, n)| nodes as u64 * 2 * n * n * n)
        .sum();

    repeat(seconds, |rep| {
        let (systems, s) = timed(setup);
        let mut systems = match systems {
            Ok(systems) => systems,
            Err(e) => return report.error(e),
        };
        let (traced, measured) = mode.rep_kind(rep);
        let mut calls = Calls::default();
        let (result, t) = if traced {
            timed(|| run_traced(&mut systems, &mut calls))
        } else {
            timed(|| run_plain(&mut systems))
        };
        let reports = match result {
            Ok(r) => r,
            Err(e) => return report.error(e),
        };
        let fp = fingerprint(&reports);
        check_reports(report, &reports);
        match &first {
            None => first = Some((fp, reports)),
            Some((want, _)) => report.check(fp == *want, || {
                format!("rep {rep} (traced: {traced}) fingerprint {fp:016x} != {want:016x}")
            }),
        }
        if traced {
            steps = (calls.step.len(), calls.entry.len());
            counters = Stats::new();
            for sys in &systems {
                counters.merge(&sys.stats_snapshot());
            }
            if measured {
                traced_s.push(t);
                layer_reps.push(LayerRep::of(calls));
            }
        } else if measured {
            setup_s.push(s);
            plain_s.push(t);
        }
    });

    let Some((fp, reports)) = first else { return };
    report.fingerprint("nodes", fp);
    sim_metrics(report, &reports);
    report.host_metrics(flops, &setup_s, &plain_s);

    if mode == Mode::Traced {
        let t = &layer_reps;
        let (tile_steps, entries) = steps;
        let translation = reports.iter().flatten().fold((0, 0, 0, 0), |a, r| {
            let t = &r.translation;
            (
                a.0 + t.pages,
                a.1 + t.matlb_hits,
                a.2 + t.tlb_hits,
                a.3 + t.demand_walks,
            )
        });
        let (pages, matlb_hits, tlb_hits, walks) = translation;
        let traced = median(&traced_s) * 1e9;
        let step_total = median_by(t, |r| r.step_total);
        let entry_total = median_by(t, |r| r.entry_total);
        let begin_total = median_by(t, |r| r.begin_total);
        report.layer("core.tile_steps", tile_steps as f64);
        report.layer("core.step_ns_p50", median_by(t, |r| r.step_p50));
        report.layer("core.step_ns_p99", median_by(t, |r| r.step_p99));
        report.layer("core.ns_per_tile_step", step_total / tile_steps as f64);
        report.layer("core.begin_gemm_ns_p50", median_by(t, |r| r.begin_p50));
        report.layer("mmae.pass_entries", entries as f64);
        report.layer("mmae.pass_entry_ns_p50", median_by(t, |r| r.entry_p50));
        report.layer("mmae.pass_entry_ns_p99", median_by(t, |r| r.entry_p99));
        report.layer(
            "mmae.pass_entry_share",
            entry_total / (entry_total + step_total),
        );
        report.layer("mmae.ns_per_pass_entry", entry_total / entries as f64);
        report.layer("vm.pages", pages as f64);
        report.layer("vm.matlb_hits", matlb_hits as f64);
        report.layer("vm.tlb_hits", tlb_hits as f64);
        report.layer("vm.demand_walks", walks as f64);
        report.layer("vm.matlb_hit_ratio", matlb_hits as f64 / pages as f64);
        report.layer("vm.ns_per_page", entry_total / pages as f64);
        report.machine_counters(&counters);
        report.layer("trace.overhead_ratio", median(&traced_s) / median(&plain_s));
        report.dominant(
            traced,
            &[
                ("mmae/vm pass entries", entry_total),
                ("core tile steps", step_total + begin_total),
            ],
            "the benchmark's own stepping loop",
        );
    }
    report.check_pin(&PIN);
}
