//! The measurement harness shared by the workloads: the repetition loop,
//! order statistics, the correctness tally, default-seed pins and the
//! printed report.

use std::time::Instant;

use maco_sim::Stats;

use crate::DEFAULT_SEED;

/// Which metric set a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end metrics.
    EndToEnd,
    /// The separate traced run: the per-layer metrics.
    Traced,
}

impl Mode {
    /// Whether repetition `rep` runs traced, and whether it is measured.
    /// With tracing on, odd repetitions run traced and even ones plain, so
    /// both kinds see the same host conditions. The first repetition of
    /// each kind warms caches and the allocator and is not measured.
    pub fn rep_kind(self, rep: usize) -> (bool, bool) {
        match self {
            Mode::EndToEnd => (false, rep > 0),
            Mode::Traced => (rep % 2 == 1, rep > 1),
        }
    }
}

/// Every end-to-end metric, with its unit. Every workload reports all of
/// them (`BENCHMARK.json` lists the same names). Simulated time is in
/// `sim_us`/`sim_ns`; `s`, `ms` and `ns` are host time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_gflop_per_s", "GFLOP/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("sim_efficiency", "ratio"),
    ("sim_gflops", "GFLOPS"),
    ("sim_latency_p50_us", "sim_us"),
    ("sim_latency_p99_us", "sim_us"),
];

/// Every per-layer metric, with its unit. A workload that bypasses a layer
/// reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.tile_steps", "count"),
    ("core.step_ns_p50", "ns"),
    ("core.step_ns_p99", "ns"),
    ("core.ns_per_tile_step", "ns"),
    ("core.begin_gemm_ns_p50", "ns"),
    ("mmae.pass_entries", "count"),
    ("mmae.pass_entry_ns_p50", "ns"),
    ("mmae.pass_entry_ns_p99", "ns"),
    ("mmae.pass_entry_share", "ratio"),
    ("mmae.ns_per_pass_entry", "ns"),
    ("vm.pages", "count"),
    ("vm.matlb_hits", "count"),
    ("vm.tlb_hits", "count"),
    ("vm.demand_walks", "count"),
    ("vm.matlb_hit_ratio", "ratio"),
    ("vm.stlb_misses", "count"),
    ("vm.ns_per_page", "ns"),
    ("noc.sends", "count"),
    ("noc.hop_flits", "count"),
    ("mem.ccm_bytes", "bytes"),
    ("mem.ccm_busy_ns", "sim_ns"),
    ("mem.dram_accesses", "count"),
    ("serve.events", "count"),
    ("serve.admit_ns_p50", "ns"),
    ("serve.admit_ns_p99", "ns"),
    ("serve.step_ns_p50", "ns"),
    ("serve.step_ns_p99", "ns"),
    ("serve.admit_share", "ratio"),
    ("serve.ns_per_job", "ns"),
    ("serve.ns_per_event", "ns"),
    ("serve.queue_depth_p50", "count"),
    ("serve.queue_depth_p99", "count"),
    ("isa.peak_mtq", "count"),
    ("isa.peak_stq", "count"),
    ("cluster.ns_per_job", "ns"),
    ("cluster.splits", "count"),
    ("cluster.migrations", "count"),
    ("cluster.jobs_replaced", "count"),
    ("cluster.interconnect_bytes", "bytes"),
    ("cluster.interconnect_busy_us", "sim_us"),
    ("cluster.machine_jobs_max", "count"),
    ("cluster.machine_jobs_min", "count"),
    ("telemetry.records", "count"),
    ("telemetry.sink_on_ratio", "ratio"),
    ("workloads.trace_gen_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dominant_share", "ratio"),
];

/// Minimum repetitions per run: a measured one of each kind after the
/// warm-ups (see [`Mode::rep_kind`]).
const MIN_REPS: usize = 4;

/// Calls `rep(i)` for `i = 0, 1, …` until `seconds` of host time have
/// passed and at least [`MIN_REPS`] repetitions ran.
pub fn repeat(seconds: f64, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        rep(i);
        i += 1;
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (sorted in place); 0 for
/// an empty slice.
pub fn quantile<T: Copy + PartialOrd + Default>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of host-time samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// Median over `items` of `f(item)`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> u64) -> f64 {
    median(&items.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
}

/// Host nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The default-seed values of a workload's deterministic outputs.
pub struct Pin {
    pub fingerprints: &'static [(&'static str, u64)],
    pub sim: &'static [(&'static str, f64)],
}

/// One workload run's outcome: metrics, correctness tally and notes.
pub struct Report {
    workload: &'static str,
    seed: u64,
    pub mode: Mode,
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    fingerprints: Vec<(&'static str, u64)>,
    sim: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

fn unit_of(list: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    list.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, mode: Mode) -> Self {
        Report {
            workload,
            seed,
            mode,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            fingerprints: Vec::new(),
            sim: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Counts one attempted job, task or correctness check; a false `ok`
    /// counts as failed and is described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records an error from the simulator as one failed attempt.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }

    /// An end-to-end metric (reported only with tracing off).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(END_TO_END, name).expect("listed end-to-end metric");
        if self.mode == Mode::EndToEnd {
            self.metrics.push((name, value, unit));
        }
    }

    /// The host-time end-to-end metrics: set-up seconds and simulated
    /// flops per host second over measured repetitions that simulate
    /// `flops` apiece. Both take the lower quartile of the repetitions:
    /// other tenants of the host only ever slow a repetition down, so the
    /// lower quartile tracks the simulator's own speed more steadily than
    /// the median does.
    pub fn host_metrics(&mut self, flops: u64, setup_s: &[f64], run_s: &[f64]) {
        let run = quantile(&mut run_s.to_vec(), 0.25);
        self.e2e("setup_s", quantile(&mut setup_s.to_vec(), 0.25));
        self.e2e("sim_gflop_per_s", flops as f64 / 1e9 / run);
        self.note(format!(
            "{} measured repetitions, lower quartile {run:.4} s, median {:.4} s, \
             {flops} simulated flops each",
            run_s.len(),
            median(run_s)
        ));
    }

    /// A deterministic simulated end-to-end metric: reported like
    /// [`Report::e2e`] and checked against the pin on the default seed.
    pub fn sim(&mut self, name: &'static str, value: f64) {
        self.sim.push((name, value));
        self.e2e(name, value);
    }

    /// A per-layer metric (reported only by the traced run).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(PER_LAYER, name).expect("listed per-layer metric");
        if self.mode == Mode::Traced {
            self.metrics.push((name, value, unit));
        }
    }

    /// The simulated work counters of the machines a workload ran
    /// (`MacoSystem::stats_snapshot`, merged).
    pub fn machine_counters(&mut self, stats: &Stats) {
        for (name, key) in [
            ("vm.stlb_misses", "stlb.misses"),
            ("noc.sends", "noc.sends"),
            ("noc.hop_flits", "noc.hop_flits"),
            ("mem.ccm_bytes", "ccm.bytes"),
            ("mem.ccm_busy_ns", "ccm.busy_ns"),
            ("mem.dram_accesses", "dram.accesses"),
        ] {
            self.layer(name, stats.get(key) as f64);
        }
    }

    /// Reports the layer with the largest share of `traced_ns` host
    /// nanoseconds; `rest` says where the remainder went.
    pub fn dominant(&mut self, traced_ns: f64, layers: &[(&str, f64)], rest: &str) {
        let (name, ns) = layers
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one layer");
        let share = ns / traced_ns;
        self.layer("trace.dominant_share", share);
        self.note(format!(
            "dominant layer: {name}, {:.1}% of traced host time; the rest is {rest}",
            share * 100.0
        ));
    }

    /// A fingerprint of simulated outcomes, printed and pinned.
    pub fn fingerprint(&mut self, name: &'static str, value: u64) {
        self.fingerprints.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Checks the deterministic outputs against `pin` on the default seed.
    pub fn check_pin(&mut self, pin: &Pin) {
        if self.seed != DEFAULT_SEED {
            return;
        }
        for &(name, want) in pin.fingerprints {
            let got = self
                .fingerprints
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            self.check(got == Some(want), || {
                format!("fingerprint {name}: got {got:x?}, pinned {want:016x}")
            });
        }
        for &(name, want) in pin.sim {
            let got = self.sim.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            self.check(got == Some(want), || {
                format!("{name}: got {got:?}, pinned {want:?}")
            });
        }
    }

    /// Completes the metric set: the success ratio and peak memory with
    /// tracing off, zeros for layers this workload bypasses when traced.
    pub fn finish(&mut self) {
        match self.mode {
            Mode::EndToEnd => {
                let rss = peak_rss_mb();
                self.check(rss > 0.0, || "VmHWM not readable".to_string());
                self.e2e("peak_rss_mb", rss);
                for &(name, _) in END_TO_END.iter().filter(|m| m.0 != "ok_ratio") {
                    let present = self.metrics.iter().any(|m| m.0 == name);
                    self.check(present, || format!("end-to-end metric {name} not measured"));
                }
                let failed = self.failures.len() as f64;
                self.e2e("ok_ratio", 1.0 - failed / self.attempted.max(1) as f64);
            }
            Mode::Traced => {
                for &(name, unit) in PER_LAYER {
                    if !self.metrics.iter().any(|m| m.0 == name) {
                        self.metrics.push((name, 0.0, unit));
                    }
                }
            }
        }
        self.check(self.attempted > 0, || "nothing was attempted".to_string());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the human-readable report, then the JSON result line.
    pub fn print(&self) {
        let w = self.workload;
        println!("== {w} (seed {}, {:?})", self.seed, self.mode);
        for (name, value, unit) in &self.metrics {
            println!("{w} {name} = {value} {unit}");
        }
        for (name, value) in &self.fingerprints {
            println!("{w} fingerprint {name} = {value:016x}");
        }
        for line in &self.notes {
            println!("{w} {line}");
        }
        for f in &self.failures {
            eprintln!("{w} FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
    }
}
