//! `perf_compare` — an alternating A/B comparison of two perfbench builds.
//!
//! ```sh
//! cargo run --release -p maco-bench --bin perf_compare -- \
//!     <parent perfbench binary> <change perfbench binary> \
//!     --workload serve_backlog --pairs 10 --seconds 25 [--seed 1]
//! ```
//!
//! Runs `--pairs` pairs of the two `maco-perfbench` binaries on one
//! workload with `--trace 0`: the parent goes first in even pairs and the
//! change in odd ones, so a drift in host speed falls on both sides alike.
//! Each run's last line of standard output is perfbench's JSON result.
//!
//! For every end-to-end metric `BENCHMARK.json` declares (read at build
//! time), it prints each
//! side's median and quartiles, the ratio of the medians and the pairs the
//! change won (ties count for neither side). The verdict reads `gain` when
//! the change won at least nine pairs in ten and its median beats the
//! parent's by more than the parent's interquartile range, and `worse`
//! when its median is worse than the parent's by more than the metric's
//! bound. Below them come each side's wall time and child CPU time (user
//! plus system, from `cutime` and `cstime` in `/proc/self/stat`) per run:
//! a run whose CPU time falls well short of its wall time waited for the
//! host instead of computing.
//!
//! It exits non-zero when a run cannot start or prints no result line, or
//! when any run reports `"correct": false`.

use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: perf_compare <parent-bin> <change-bin> --workload <name> \
                     [--pairs N] [--seconds S] [--seed N]";

/// The benchmark declaration: its end-to-end metrics, their directions
/// and bounds.
const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

/// Clock ticks per second of the times in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every Linux target).
const USER_HZ: f64 = 100.0;

struct Args {
    bins: [String; 2],
    workload: String,
    pairs: usize,
    seconds: String,
    seed: String,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut bins = Vec::new();
    let (mut workload, mut pairs, mut seconds, mut seed) =
        (None, 10, "25".to_string(), "1".to_string());
    let mut it = args;
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            bins.push(arg);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--pairs" => {
                pairs = value
                    .parse()
                    .ok()
                    .filter(|&p| p >= 1)
                    .ok_or_else(|| format!("--pairs {value}: not a positive count"))?;
            }
            "--seconds" => seconds = value,
            "--seed" => seed = value,
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    let bins: [String; 2] = bins
        .try_into()
        .map_err(|b: Vec<String>| format!("need two perfbench binaries, got {}", b.len()))?;
    Ok(Args {
        bins,
        workload: workload.ok_or("--workload is required")?,
        pairs,
        seconds,
        seed,
    })
}

/// A JSON value: enough of the format for `BENCHMARK.json` and perfbench's
/// result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {}", p.i))
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Parses `item`s separated by commas up to the `close` byte, the
    /// opening byte already eaten.
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(&b) if b == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.i
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.eat(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b"+-.0123456789eE".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    let c = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// The fraction by which the metric may worsen.
    bound: f64,
}

/// The end-to-end metrics [`BENCHMARK`] declares, in its order.
fn end_to_end_metrics() -> Vec<Metric> {
    let doc = Json::parse(BENCHMARK).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json lists no end_to_end metrics");
    };
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default();
            Metric {
                name: text("name").to_string(),
                unit: text("unit").to_string(),
                higher_is_better: text("better") == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .expect("every end-to-end metric has a bound"),
            }
        })
        .collect()
}

/// One perfbench run: its result line, wall seconds and child CPU seconds.
struct Run {
    result: Json,
    wall_s: f64,
    cpu_s: f64,
}

/// Reads one of a run's host times.
type RunTime = fn(&Run) -> f64;

/// This process's waited-for children's user plus system CPU seconds.
fn children_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // `cutime` (field 16) and `cstime` (field 17) sit at 13 and 14.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(13), ticks(14)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

fn run_once(bin: &str, args: &Args) -> Result<Run, String> {
    let cpu_before = children_cpu_s();
    let start = Instant::now();
    let out = Command::new(bin)
        .args(["--workload", &args.workload])
        .args(["--seconds", &args.seconds])
        .args(["--seed", &args.seed])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = children_cpu_s() - cpu_before;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{bin}: no result line (exit {})", out.status))?;
    let result = Json::parse(line).map_err(|e| format!("{bin}: result line: {e}"))?;
    Ok(Run {
        result,
        wall_s,
        cpu_s,
    })
}

/// The `q`-quantile of `xs`, interpolating between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median and quartiles.
fn summary(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

/// `x` to four significant digits.
fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

fn cell((median, q1, q3): (f64, f64, f64)) -> String {
    format!("{} [{}, {}]", sig4(median), sig4(q1), sig4(q3))
}

/// Pairs the change won, and the verdict, for one metric's per-pair values.
fn judge(metric: &Metric, parent: &[f64], change: &[f64]) -> (usize, &'static str) {
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (p, p1, p3) = summary(parent);
    let c = quantile(change, 0.5);
    let limit = if metric.higher_is_better {
        p * (1.0 - metric.bound)
    } else {
        p * (1.0 + metric.bound)
    };
    let verdict = if wins * 10 >= parent.len() * 9 && (c - p).abs() > p3 - p1 && better(c, p) {
        "gain"
    } else if better(limit, c) {
        "worse"
    } else {
        "-"
    };
    (wins, verdict)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_compare: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics = end_to_end_metrics();
    // runs[side][pair], side 0 the parent.
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            match run_once(&args.bins[side], &args) {
                Ok(run) => runs[side].push(run),
                Err(e) => {
                    eprintln!("perf_compare: pair {pair}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!("perf_compare: pair {} of {} done", pair + 1, args.pairs);
    }

    println!(
        "{} seed {}: {} pairs of {} s runs, parent first in even pairs",
        args.workload, args.seed, args.pairs, args.seconds
    );
    println!(
        "{:<20} {:<8} {:<36} {:<36} {:>7} {:>5}  verdict",
        "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
    );
    for metric in &metrics {
        let values = |side: &[Run]| -> Vec<f64> {
            side.iter()
                .map(|r| {
                    r.result
                        .get("metrics")
                        .and_then(|m| m.get(&metric.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::num)
                        .unwrap_or(f64::NAN)
                })
                .collect()
        };
        let (parent, change) = (values(&runs[0]), values(&runs[1]));
        let (wins, verdict) = judge(metric, &parent, &change);
        let (p, c) = (summary(&parent), summary(&change));
        println!(
            "{:<20} {:<8} {:<36} {:<36} {:>7.4} {:>2}/{:<2}  {verdict}",
            metric.name,
            metric.unit,
            cell(p),
            cell(c),
            c.0 / p.0,
            wins,
            args.pairs,
        );
    }
    let times: [(&str, RunTime); 2] = [("wall_s", |r| r.wall_s), ("child_cpu_s", |r| r.cpu_s)];
    for (name, read) in times {
        let parent: Vec<f64> = runs[0].iter().map(read).collect();
        let change: Vec<f64> = runs[1].iter().map(read).collect();
        let (p, c) = (summary(&parent), summary(&change));
        println!(
            "{name:<20} {:<8} {:<36} {:<36} {:>7.4}",
            "s",
            cell(p),
            cell(c),
            c.0 / p.0
        );
    }
    let mut ok = true;
    for (side, name) in runs.iter().zip(["parent", "change"]) {
        let incorrect = side
            .iter()
            .filter(|r| r.result.get("correct") != Some(&Json::Bool(true)))
            .count();
        println!("{name}: {incorrect} of {} runs incorrect", side.len());
        ok &= incorrect == 0;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_perfbench_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 4.5e-4, "unit": "s"}, "x": {"value": -2, "unit": "a\"b"}}}"#;
        let v = Json::parse(line).expect("parses");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let metrics = v.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Json::num), Some(4.5e-4));
        let unit = metrics.get("x").and_then(|m| m.get("unit"));
        assert_eq!(unit.and_then(Json::str), Some("a\"b"));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn reads_the_benchmark_declaration() {
        let metrics = end_to_end_metrics();
        assert_eq!(metrics.len(), 8);
        let gflops = metrics
            .iter()
            .find(|m| m.name == "sim_gflop_per_s")
            .expect("declared");
        assert!(gflops.higher_is_better);
        assert!(gflops.bound > 0.0);
        let setup = metrics
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("declared");
        assert!(!setup.higher_is_better);
    }

    #[test]
    fn verdicts_follow_wins_spread_and_bound() {
        let metric = Metric {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: true,
            bound: 0.25,
        };
        let parent = [
            100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
        ];
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(judge(&metric, &parent, &faster), (10, "gain"));
        // Within the parent's spread: no gain even with every pair won.
        let nudged: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(judge(&metric, &parent, &nudged), (10, "-"));
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        assert_eq!(judge(&metric, &parent, &slower), (0, "worse"));
        assert_eq!(judge(&metric, &parent, &parent), (0, "-"));
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(summary(&[4.0, 1.0, 3.0, 2.0, 5.0]), (3.0, 2.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(sig4(945.123), "945.1");
        assert_eq!(sig4(0.000_434_5), "0.0004345");
    }
}
