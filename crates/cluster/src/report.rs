//! Fleet-wide reports: per-machine serving outcomes, global job records,
//! interconnect traffic and the cluster fingerprint.

use std::fmt;

use maco_serve::{JobSpec, ServeReport};
use maco_sim::{fold_fingerprint, SimDuration, SimTime, Stats};
use maco_telemetry::Log2Histogram;

use crate::spec::SplitKind;

/// One machine's outcome over a cluster episode.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Machine display name (from the spec).
    pub name: String,
    /// The machine's compute node count.
    pub nodes: usize,
    /// The machine-local serving report (leases, tenant stats, schedule
    /// fingerprint — everything a standalone [`maco_serve::Server`] run
    /// reports). For a machine that failed and recovered this is the
    /// merge of its incarnations' reports (sums and maxima; fingerprints
    /// folded in incarnation order, lease logs concatenated — lease job
    /// ids are incarnation-local).
    pub serve: ServeReport,
    /// Engine incarnations this machine ran (1 + completed fail-stops).
    pub incarnations: u32,
}

/// Merges the serving reports of one machine's successive incarnations (a
/// failed machine's engine is retired at each fail-stop and a fresh one
/// started for the recovery) into the single per-machine view the fleet
/// report exposes. With one incarnation this is the identity.
pub(crate) fn merge_serve_reports(reports: Vec<ServeReport>) -> ServeReport {
    let mut iter = reports.into_iter();
    let mut merged = iter.next().expect("at least one incarnation");
    for r in iter {
        debug_assert_eq!(merged.tenants.len(), r.tenants.len());
        for (a, b) in merged.tenants.iter_mut().zip(r.tenants) {
            a.submitted += b.submitted;
            a.completed += b.completed;
            a.rejected += b.rejected;
            a.flops += b.flops;
            a.latency_sum += b.latency_sum;
            a.latency_max = a.latency_max.max(b.latency_max);
            a.deadline_misses += b.deadline_misses;
            a.peak_mtq = a.peak_mtq.max(b.peak_mtq);
            a.peak_stq = a.peak_stq.max(b.peak_stq);
            a.latency_hist.merge(&b.latency_hist);
        }
        merged.jobs_completed += r.jobs_completed;
        merged.jobs_rejected += r.jobs_rejected;
        merged.makespan = merged.makespan.max(r.makespan);
        merged.total_flops += r.total_flops;
        merged.machine_peak_mtq = merged.machine_peak_mtq.max(r.machine_peak_mtq);
        merged.machine_peak_stq = merged.machine_peak_stq.max(r.machine_peak_stq);
        merged.leases.extend(r.leases);
        merged.queue_depth_hist.merge(&r.queue_depth_hist);
        merged.machine_stats.merge(&r.machine_stats);
        merged.fingerprint = fold_fingerprint(merged.fingerprint, r.fingerprint);
    }
    merged
}

/// The byte-metric fingerprint: every job's attributed bytes in record
/// order, then every machine's total — pinned by the `placement_sfc` perf
/// scenario.
pub(crate) fn interconnect_fingerprint(records: &[JobRecord], machine_bytes: &[u64]) -> u64 {
    records
        .iter()
        .map(|r| r.interconnect_bytes)
        .chain(machine_bytes.iter().copied())
        .fold(0, fold_fingerprint)
}

impl MachineReport {
    /// Machine throughput in GFLOPS over the *fleet* makespan — the
    /// utilisation view: what share of the episode this machine spent
    /// doing useful work.
    pub fn gflops_over(&self, fleet_makespan: SimDuration) -> f64 {
        if fleet_makespan.is_zero() {
            0.0
        } else {
            self.serve.total_flops as f64 / fleet_makespan.as_ns()
        }
    }
}

/// The routing history of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Position in the arrival-sorted submitted stream.
    pub index: usize,
    /// Submitting tenant.
    pub tenant: usize,
    /// Original arrival time at the front-end router.
    pub arrival: SimTime,
    /// Arrival time on the target machine(s), after any migration or
    /// scatter delay on the interconnect.
    pub effective_arrival: SimTime,
    /// Participating machines, in part order (one entry unless split).
    pub machines: Vec<usize>,
    /// The data-parallel split applied, if any.
    pub split: Option<SplitKind>,
    /// Whether routing this job moved its tenant across machines (and
    /// paid the migration transfer).
    pub migrated: bool,
    /// Times this job (or one of its split parts) was evicted by a
    /// machine failure and re-placed on a surviving machine.
    pub requeues: u32,
    /// Fleet-level completion time (all parts done, reductions included);
    /// `None` for jobs rejected at admission.
    pub finished_at: Option<SimTime>,
    /// Total GEMM flops.
    pub flops: u64,
    /// Interconnect traffic attributed to this job, in **byte·link
    /// crossings** over the near-square fleet grid: its migration state
    /// transfers, split operand scatter, all-reduce combine, and
    /// eviction state transfers — each charged exactly once, weighted by
    /// the fleet links between source and destination machine. On a
    /// fleet whose machines are all one link apart this equals the raw
    /// wire bytes; in general a byte crossing two links counts twice,
    /// which is what communication-avoiding placement minimises.
    /// Summing over jobs gives the same total as
    /// [`ClusterReport::machine_interconnect_bytes`].
    pub interconnect_bytes: u64,
}

impl JobRecord {
    /// The record of the `index`-th submitted job as it reaches the
    /// router: placed nowhere yet, unsplit, unmigrated, unfinished, no
    /// traffic attributed. Routing sets the fields that differ.
    pub(crate) fn new(index: usize, job: &JobSpec) -> Self {
        JobRecord {
            index,
            tenant: job.tenant,
            arrival: job.arrival,
            effective_arrival: job.arrival,
            machines: Vec::new(),
            split: None,
            migrated: false,
            requeues: 0,
            finished_at: None,
            flops: job.flops(),
            interconnect_bytes: 0,
        }
    }

    /// End-to-end latency (router arrival → fleet completion), when the
    /// job completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.finished_at.map(|t| t.since(self.arrival))
    }
}

/// Router-health diagnostics: counters that are always zero in a healthy
/// episode, surfaced so release builds cannot silently paper over
/// accounting corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterDiagnostics {
    /// Times the outstanding-flops ledger clamped a checked-subtraction
    /// underflow. Debug builds panic at the same point; release builds
    /// clamp to zero *and count it here* so the desync is never silent —
    /// every test asserts this stays 0.
    pub outstanding_clamps: u64,
}

/// One autoscaler action on the active machine set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the decision was taken (a routed arrival's instant).
    pub at: SimTime,
    /// True = activated a standby machine; false = drained one.
    pub grew: bool,
    /// Active machine count after the action.
    pub active_after: usize,
}

/// Failure/elasticity outcome of one fleet episode. With an empty
/// [`crate::spec::FaultSpec`] and no autoscaler every counter is zero,
/// `availability` is 1.0 and `fingerprint` is 0.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Machine fail-stop events processed.
    pub failures: u64,
    /// Machine recoveries processed.
    pub recoveries: u64,
    /// Evicted jobs (or split parts) re-placed on surviving machines.
    pub jobs_replaced: u64,
    /// Interconnect bytes charged for re-placement state transfer
    /// (migration context + remaining weight bytes per evicted job).
    pub replaced_bytes: u64,
    /// Admitted jobs that finished nowhere — the fail-stop contract is
    /// that this is **always 0**: every evicted remainder is re-placed.
    pub jobs_lost: u64,
    /// Alive machine-time fraction over the episode makespan (1.0 = no
    /// downtime).
    pub availability: f64,
    /// Worst per-failure recovery latency: failure instant to the last
    /// evicted remainder's effective re-arrival (0 for failures that
    /// evicted nothing).
    pub recovery_latency_max: SimDuration,
    /// Mean per-failure recovery latency.
    pub recovery_latency_mean: SimDuration,
    /// Flops of jobs that completed within their deadline (jobs with no
    /// deadline always count) — the SLO-weighted portion of
    /// `total_flops`.
    pub goodput_flops: u64,
    /// Fleet-level deadline misses (router arrival → fleet completion,
    /// reduction tails included).
    pub deadline_misses: u64,
    /// Autoscaler actions, in decision order.
    pub scale_events: Vec<ScaleEvent>,
    /// Largest active machine set the autoscaler ran (fleet size when no
    /// autoscaler is configured).
    pub peak_active: usize,
    /// Order-sensitive fold of every fault event, eviction, re-placement
    /// and scaling action — the failure layer's own determinism gate,
    /// separate from the schedule fingerprint. 0 with no faults and no
    /// autoscaler.
    pub fingerprint: u64,
}

/// The outcome of one fleet episode.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-machine reports, in fleet index order.
    pub machines: Vec<MachineReport>,
    /// Per-job routing and completion records, in arrival order.
    pub jobs: Vec<JobRecord>,
    /// Jobs that ran to fleet-level completion (a split job counts once).
    pub jobs_completed: u64,
    /// Jobs refused at router admission.
    pub jobs_rejected: u64,
    /// Fleet makespan: start of time to the last fleet-level completion
    /// (reduction tails included).
    pub makespan: SimDuration,
    /// Total GEMM flops served across the fleet.
    pub total_flops: u64,
    /// Raw wire bytes moved across the inter-machine interconnect
    /// (migrations, scatters, reductions) — the serialisation/timing
    /// ledger, independent of which machines the bytes moved between.
    pub interconnect_bytes: u64,
    /// Cumulative interconnect busy time (serialisation only).
    pub interconnect_busy: SimDuration,
    /// Per-machine attributed interconnect traffic in byte·link
    /// crossings, in fleet index order, charged to each transfer's hub
    /// machine (old home of a migration, scatter/all-reduce anchor,
    /// failed machine of an eviction). Sums to the per-job totals in
    /// `jobs`; see [`JobRecord::interconnect_bytes`].
    pub machine_interconnect_bytes: Vec<u64>,
    /// The byte-metric fingerprint: an order-sensitive fold of every
    /// job's attributed bytes (arrival order) then every machine's total
    /// — pinned by the `placement_sfc` perf scenario.
    pub interconnect_fingerprint: u64,
    /// Cross-machine tenant migrations the router charged.
    pub migrations: u64,
    /// Jobs the router split data-parallel.
    pub splits: u64,
    /// Failure/elasticity metrics (all-zero and availability 1.0 for a
    /// healthy, non-elastic fleet).
    pub fault: FaultReport,
    /// Router-health diagnostics (always zero in a healthy episode).
    pub diagnostics: ClusterDiagnostics,
    /// Log2 histogram of end-to-end job latencies (router arrival → fleet
    /// completion, reduction tails included) in integer nanoseconds — the
    /// source of the fleet-level p50/p95/p99 figures.
    pub latency_hist: Log2Histogram,
    /// Order-sensitive fold of every routing decision, completion and
    /// machine schedule fingerprint — byte-identical across same-seed
    /// runs.
    pub fingerprint: u64,
}

impl ClusterReport {
    /// Aggregate fleet throughput in GFLOPS over the makespan.
    pub fn total_gflops(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_flops as f64 / self.makespan.as_ns()
        }
    }

    /// Fleet-wide served flops per tenant (summed across machines).
    pub fn per_tenant_flops(&self) -> Vec<u64> {
        let tenants = self.machines.first().map_or(0, |m| m.serve.tenants.len());
        (0..tenants)
            .map(|t| self.machines.iter().map(|m| m.serve.tenants[t].flops).sum())
            .collect()
    }

    /// Jain's fairness index over fleet-wide weighted tenant service,
    /// across tenants that submitted work anywhere in the fleet.
    pub fn fairness(&self) -> f64 {
        let tenants = self.machines.first().map_or(0, |m| m.serve.tenants.len());
        let xs: Vec<f64> = (0..tenants)
            .filter(|&t| {
                self.machines
                    .iter()
                    .any(|m| m.serve.tenants[t].submitted > 0)
            })
            .map(|t| {
                let flops: u64 = self.machines.iter().map(|m| m.serve.tenants[t].flops).sum();
                let weight = self.machines[0].serve.tenants[t].weight;
                flops as f64 / weight as f64
            })
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (xs.len() as f64 * sq)
        }
    }

    /// Mean attributed interconnect traffic (byte·link crossings, see
    /// [`JobRecord::interconnect_bytes`]) per non-rejected job — the
    /// communication-avoiding placement figure of merit (lower is
    /// better at equal served work).
    pub fn interconnect_bytes_per_job(&self) -> f64 {
        let routed = self.jobs.len() as u64 - self.jobs_rejected;
        if routed == 0 {
            0.0
        } else {
            let attributed: u64 = self.jobs.iter().map(|j| j.interconnect_bytes).sum();
            attributed as f64 / routed as f64
        }
    }

    /// Mean end-to-end latency over completed jobs.
    pub fn mean_latency(&self) -> SimDuration {
        let done: Vec<SimDuration> = self.jobs.iter().filter_map(JobRecord::latency).collect();
        if done.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u64 = done.iter().map(|d| d.as_fs()).sum();
        SimDuration::from_fs(sum / done.len() as u64)
    }

    /// SLO-weighted throughput in GFLOPS: deadline-respecting flops over
    /// the makespan.
    pub fn goodput_gflops(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.fault.goodput_flops as f64 / self.makespan.as_ns()
        }
    }

    /// Median end-to-end latency (log2-bucket upper bound).
    pub fn latency_p50(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p50())
    }

    /// 95th-percentile end-to-end latency (log2-bucket upper bound).
    pub fn latency_p95(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p95())
    }

    /// 99th-percentile end-to-end latency (log2-bucket upper bound).
    pub fn latency_p99(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p99())
    }

    /// Tenant `t`'s machine-level completion-latency histogram, merged
    /// across every machine (and engine incarnation) in the fleet.
    pub fn tenant_latency_hist(&self, t: usize) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for m in &self.machines {
            h.merge(&m.serve.tenants[t].latency_hist);
        }
        h
    }

    /// Fleet-wide hardware-counter rollup: every machine's
    /// [`maco_core::system::MacoSystem::stats_snapshot`] merged by
    /// addition ([`Stats::merge`]) — TLB lookups/misses, DRAM/NoC traffic
    /// and CCM activity summed across the fleet.
    pub fn fleet_stats(&self) -> Stats {
        let mut s = Stats::new();
        for m in &self.machines {
            s.merge(&m.serve.machine_stats);
        }
        s
    }

    /// The fingerprint as the 16-hex-digit string reports embed.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// The report as one flat JSON object (no external serializer): the
    /// headline counters, fleet latency percentiles, availability,
    /// goodput, the router diagnostics and per-tenant latency
    /// percentiles. Deterministic field order; integer nanoseconds and
    /// fixed-precision floats only.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!("\"jobs_completed\": {}", self.jobs_completed));
        s.push_str(&format!(", \"jobs_rejected\": {}", self.jobs_rejected));
        s.push_str(&format!(
            ", \"makespan_ns\": {}",
            self.makespan.as_fs() / maco_sim::time::FS_PER_NS
        ));
        s.push_str(&format!(", \"total_gflops\": {:.3}", self.total_gflops()));
        s.push_str(&format!(", \"fairness\": {:.6}", self.fairness()));
        s.push_str(&format!(
            ", \"latency_p50_ns\": {}",
            self.latency_hist.p50()
        ));
        s.push_str(&format!(
            ", \"latency_p95_ns\": {}",
            self.latency_hist.p95()
        ));
        s.push_str(&format!(
            ", \"latency_p99_ns\": {}",
            self.latency_hist.p99()
        ));
        s.push_str(&format!(", \"migrations\": {}", self.migrations));
        s.push_str(&format!(", \"splits\": {}", self.splits));
        s.push_str(&format!(
            ", \"interconnect_bytes\": {}",
            self.interconnect_bytes
        ));
        s.push_str(&format!(
            ", \"interconnect_bytes_per_job\": {:.3}",
            self.interconnect_bytes_per_job()
        ));
        s.push_str(&format!(
            ", \"interconnect_fingerprint\": \"{:016x}\"",
            self.interconnect_fingerprint
        ));
        s.push_str(&format!(", \"failures\": {}", self.fault.failures));
        s.push_str(&format!(
            ", \"jobs_replaced\": {}",
            self.fault.jobs_replaced
        ));
        s.push_str(&format!(", \"jobs_lost\": {}", self.fault.jobs_lost));
        s.push_str(&format!(
            ", \"availability\": {:.6}",
            self.fault.availability
        ));
        s.push_str(&format!(
            ", \"goodput_gflops\": {:.3}",
            self.goodput_gflops()
        ));
        s.push_str(&format!(
            ", \"deadline_misses\": {}",
            self.fault.deadline_misses
        ));
        s.push_str(&format!(
            ", \"outstanding_clamps\": {}",
            self.diagnostics.outstanding_clamps
        ));
        s.push_str(", \"tenants\": [");
        let tenants = self.machines.first().map_or(0, |m| m.serve.tenants.len());
        for t in 0..tenants {
            if t > 0 {
                s.push_str(", ");
            }
            let h = self.tenant_latency_hist(t);
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"completed\": {}, \"latency_p50_ns\": {}, \
                 \"latency_p95_ns\": {}, \"latency_p99_ns\": {}}}",
                self.machines[0].serve.tenants[t].name,
                self.machines
                    .iter()
                    .map(|m| m.serve.tenants[t].completed)
                    .sum::<u64>(),
                h.p50(),
                h.p95(),
                h.p99(),
            ));
        }
        s.push(']');
        s.push_str(&format!(
            ", \"fingerprint\": \"{}\"",
            self.fingerprint_hex()
        ));
        s.push('}');
        s
    }
}

impl fmt::Display for ClusterReport {
    /// Human-readable fleet summary: headline counters, fleet latency
    /// percentiles, fault/elasticity outcome, router diagnostics, then
    /// one line per tenant with fleet-merged latency percentiles. Integer
    /// microseconds and fixed-precision floats only, so the dump is
    /// byte-stable across platforms.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "machines={} completed={} rejected={} makespan_us={:.3} gflops={:.3} fairness={:.6}",
            self.machines.len(),
            self.jobs_completed,
            self.jobs_rejected,
            self.makespan.as_us(),
            self.total_gflops(),
            self.fairness(),
        )?;
        writeln!(
            f,
            "latency_us mean={:.3} p50<={:.3} p95<={:.3} p99<={:.3}",
            self.mean_latency().as_us(),
            self.latency_p50().as_us(),
            self.latency_p95().as_us(),
            self.latency_p99().as_us(),
        )?;
        writeln!(
            f,
            "migrations={} splits={} failures={} replaced={} lost={} availability={:.6} \
             outstanding_clamps={}",
            self.migrations,
            self.splits,
            self.fault.failures,
            self.fault.jobs_replaced,
            self.fault.jobs_lost,
            self.fault.availability,
            self.diagnostics.outstanding_clamps,
        )?;
        writeln!(
            f,
            "interconnect bytes={} bytes_per_job={:.3} fingerprint={:016x}",
            self.interconnect_bytes,
            self.interconnect_bytes_per_job(),
            self.interconnect_fingerprint,
        )?;
        let tenants = self.machines.first().map_or(0, |m| m.serve.tenants.len());
        for t in 0..tenants {
            let h = self.tenant_latency_hist(t);
            let completed: u64 = self
                .machines
                .iter()
                .map(|m| m.serve.tenants[t].completed)
                .sum();
            writeln!(
                f,
                "tenant {:<12} completed={} latency_us p50<={:.3} p95<={:.3} p99<={:.3}",
                self.machines[0].serve.tenants[t].name,
                completed,
                SimDuration::from_ns(h.p50()).as_us(),
                SimDuration::from_ns(h.p95()).as_us(),
                SimDuration::from_ns(h.p99()).as_us(),
            )?;
        }
        write!(f, "fingerprint={}", self.fingerprint_hex())
    }
}
