//! `maco-perfbench` — the simulator's repeatable, layer-attributed
//! benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload gemm_sweep --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--workload` is one of `gemm_sweep`, `serve_backlog`, `fleet_failover`
//! or `all`. With `--trace 0` each workload is repeated on fresh state for
//! `--seconds` of host time and the end-to-end metrics are printed; with
//! `--trace 1` a separate run times every call into each layer's public
//! functions from outside the program and prints the per-layer metrics.
//! Every run checks the simulated outputs; a failed check makes the exit
//! code non-zero. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod fleet_failover;
mod gemm_sweep;
mod harness;
mod serve_backlog;

use std::process::ExitCode;

use harness::{Mode, Report};

/// The seed the pinned `sim_*` values and fingerprints belong to.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while writing the benchmark: re-check claims on it.
pub const HELD_OUT_SEED: u64 = 7;

const WORKLOADS: [&str; 3] = ["gemm_sweep", "serve_backlog", "fleet_failover"];

const USAGE: &str =
    "usage: maco-perfbench --workload <gemm_sweep|serve_backlog|fleet_failover|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        mode: Mode::EndToEnd,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must lie in (0, 600]"));
                }
            }
            "--trace" => {
                args.mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn run(workload: &'static str, args: &Args) -> Report {
    let mut report = Report::new(workload, args.seed, args.mode);
    match workload {
        "gemm_sweep" => gemm_sweep::run(&mut report, args.seconds),
        "serve_backlog" => serve_backlog::run(&mut report, args.seconds),
        "fleet_failover" => fleet_failover::run(&mut report, args.seconds),
        _ => unreachable!("validated in parse_args"),
    }
    report.finish();
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\n(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&'static str> = WORKLOADS
        .into_iter()
        .filter(|w| args.workload == "all" || args.workload == *w)
        .collect();
    let mut correct = true;
    for name in names {
        let report = run(name, &args);
        report.print();
        correct &= report.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
