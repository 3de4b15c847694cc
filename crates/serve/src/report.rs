//! Serving-episode reports: per-tenant service quality, machine-level
//! utilisation, fairness, and the schedule fingerprint.

use std::fmt;

use maco_sim::{SimDuration, SimTime, Stats};
use maco_telemetry::Log2Histogram;

use crate::sched::Policy;

/// Service observed by one tenant over an episode.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Fair-share weight the scheduler used.
    pub weight: u32,
    /// Jobs submitted (admitted + rejected).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// GEMM flops served.
    pub flops: u64,
    /// Sum of completed-job latencies (arrival → last layer done).
    pub latency_sum: SimDuration,
    /// Worst completed-job latency.
    pub latency_max: SimDuration,
    /// Completed jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Peak MTQ entries this tenant held simultaneously (across nodes).
    pub peak_mtq: usize,
    /// Peak STQ depth observed on nodes while submitting this tenant's
    /// tasks.
    pub peak_stq: usize,
    /// Log2 histogram of completed-job latencies in integer nanoseconds —
    /// mergeable across machines and engine incarnations, the source of
    /// the p50/p95/p99 figures reports print.
    pub latency_hist: Log2Histogram,
}

impl TenantReport {
    /// Mean completed-job latency.
    pub fn mean_latency(&self) -> SimDuration {
        match self.latency_sum.as_fs().checked_div(self.completed) {
            Some(fs) => SimDuration::from_fs(fs),
            None => SimDuration::ZERO,
        }
    }

    /// Median completed-job latency (log2-bucket upper bound).
    pub fn latency_p50(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p50())
    }

    /// 95th-percentile completed-job latency (log2-bucket upper bound).
    pub fn latency_p95(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p95())
    }

    /// 99th-percentile completed-job latency (log2-bucket upper bound).
    pub fn latency_p99(&self) -> SimDuration {
        SimDuration::from_ns(self.latency_hist.p99())
    }

    /// Tenant throughput in GFLOPS over the episode makespan.
    pub fn gflops(&self, makespan: SimDuration) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.flops as f64 / makespan.as_ns()
        }
    }
}

/// One node lease: a job's exclusive hold on a compute node, from gang
/// dispatch to job completion. The no-sharing invariant is checked over
/// these intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLease {
    /// The leased compute node.
    pub node: usize,
    /// Leasing job.
    pub job: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Lease start (gang dispatch).
    pub from: SimTime,
    /// Lease end (job completion, epilogue tails included).
    pub until: SimTime,
}

/// Result of one serving episode.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The policy that produced the schedule.
    pub policy: Policy,
    /// Per-tenant service reports, indexed like the tenant fleet.
    pub tenants: Vec<TenantReport>,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs refused at admission.
    pub jobs_rejected: u64,
    /// Episode makespan: start of time to the last job completion.
    pub makespan: SimDuration,
    /// Total GEMM flops served.
    pub total_flops: u64,
    /// Highest per-core MTQ occupancy any node saw (all tenants), read
    /// from the queues' own high-water counters — machine lifetime, so a
    /// reused server accumulates across episodes.
    pub machine_peak_mtq: usize,
    /// Highest STQ depth any node saw (machine lifetime, as above).
    pub machine_peak_stq: usize,
    /// Node leases in dispatch order.
    pub leases: Vec<NodeLease>,
    /// Log2 histogram of admission-queue depth, sampled at each admission.
    pub queue_depth_hist: Log2Histogram,
    /// Counter snapshot of the machine's shared resources at episode end
    /// ([`maco_core::system::MacoSystem::stats_snapshot`]): TLB
    /// lookups/misses, DRAM and NoC traffic, CCM bytes. Counters only, so
    /// per-incarnation snapshots merge by addition.
    pub machine_stats: Stats,
    /// Order-sensitive fold of every schedule event — byte-identical
    /// across same-seed, same-policy runs.
    pub fingerprint: u64,
}

impl ServeReport {
    /// Aggregate throughput in GFLOPS over the makespan.
    pub fn total_gflops(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_flops as f64 / self.makespan.as_ns()
        }
    }

    /// Jain's fairness index over per-tenant weighted service
    /// (`flops / weight`), across tenants that submitted work: 1.0 is
    /// perfectly proportional, `1/n` is maximally skewed.
    pub fn fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.flops as f64 / t.weight as f64)
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

    /// The fingerprint as the 16-hex-digit string reports embed.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

impl fmt::Display for ServeReport {
    /// Human-readable episode summary: headline counters, then one line
    /// per tenant with mean/p50/p95/p99 latency. Integer microseconds and
    /// fixed-precision floats only, so the dump is byte-stable across
    /// platforms.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy={:?} completed={} rejected={} makespan_us={:.3} gflops={:.3} fairness={:.6}",
            self.policy,
            self.jobs_completed,
            self.jobs_rejected,
            self.makespan.as_us(),
            self.total_gflops(),
            self.fairness(),
        )?;
        writeln!(
            f,
            "queue_depth p50<={} p99<={} peak_mtq={} peak_stq={}",
            self.queue_depth_hist.p50(),
            self.queue_depth_hist.p99(),
            self.machine_peak_mtq,
            self.machine_peak_stq,
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "tenant {:<12} completed={}/{} flops={} latency_us mean={:.3} p50<={:.3} p95<={:.3} p99<={:.3} misses={}",
                t.name,
                t.completed,
                t.submitted,
                t.flops,
                t.mean_latency().as_us(),
                t.latency_p50().as_us(),
                t.latency_p95().as_us(),
                t.latency_p99().as_us(),
                t.deadline_misses,
            )?;
        }
        write!(f, "fingerprint={}", self.fingerprint_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_sim::fold_fingerprint;

    fn tenant(name: &str, flops: u64, weight: u32) -> TenantReport {
        TenantReport {
            name: name.into(),
            weight,
            submitted: 1,
            completed: 1,
            rejected: 0,
            flops,
            latency_sum: SimDuration::from_ns(100),
            latency_max: SimDuration::from_ns(100),
            deadline_misses: 0,
            peak_mtq: 1,
            peak_stq: 1,
            latency_hist: Log2Histogram::new(),
        }
    }

    fn report(tenants: Vec<TenantReport>) -> ServeReport {
        ServeReport {
            policy: Policy::Fifo,
            jobs_completed: tenants.len() as u64,
            jobs_rejected: 0,
            makespan: SimDuration::from_ns(1000),
            total_flops: tenants.iter().map(|t| t.flops).sum(),
            machine_peak_mtq: 1,
            machine_peak_stq: 1,
            leases: Vec::new(),
            queue_depth_hist: Log2Histogram::new(),
            machine_stats: Stats::new(),
            fingerprint: 0,
            tenants,
        }
    }

    #[test]
    fn fairness_is_one_for_proportional_service() {
        let r = report(vec![tenant("a", 100, 1), tenant("b", 100, 1)]);
        assert!((r.fairness() - 1.0).abs() < 1e-12);
        // Weighted: tenant b entitled to 2x and served 2x → still fair.
        let r = report(vec![tenant("a", 100, 1), tenant("b", 200, 2)]);
        assert!((r.fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_drops_under_skew() {
        let r = report(vec![tenant("a", 1000, 1), tenant("b", 0, 1)]);
        assert!(
            (r.fairness() - 0.5).abs() < 1e-12,
            "all service to one of two"
        );
    }

    #[test]
    fn mean_latency_divides_by_completions() {
        let mut t = tenant("a", 1, 1);
        t.completed = 4;
        t.latency_sum = SimDuration::from_ns(400);
        assert_eq!(t.mean_latency(), SimDuration::from_ns(100));
    }

    #[test]
    fn display_prints_per_tenant_percentiles() {
        let mut t = tenant("a", 100, 1);
        for ns in [900u64, 1000, 40_000] {
            t.latency_hist.record(ns);
        }
        let r = report(vec![t]);
        let s = r.to_string();
        assert!(s.contains("tenant a"));
        assert!(s.contains("p50<="));
        assert!(s.contains("p95<="));
        assert!(s.contains("p99<="));
        assert!(s.contains("queue_depth"));
        assert!(s.ends_with("fingerprint=0000000000000000"));
    }

    #[test]
    fn fingerprint_fold_is_order_sensitive() {
        let a = fold_fingerprint(fold_fingerprint(0, 1), 2);
        let b = fold_fingerprint(fold_fingerprint(0, 2), 1);
        assert_ne!(a, b);
    }
}
