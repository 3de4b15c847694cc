//! The threaded replica runner.
//!
//! The co-simulation itself is strictly sequential — one shared timeline —
//! but *independent* request streams need no shared state at all: each
//! replica serves its shard on its own simulated machine. This runner
//! shards work across OS threads (plain `std::thread`, no runtime
//! dependency) for wall-clock throughput while keeping every shard's
//! simulated outcome bit-identical to a single-threaded run of the same
//! shard: results are joined in shard order, so the combined fingerprint
//! is independent of thread scheduling.

use std::time::{Duration, Instant};

use maco_core::system::{MacoSystem, SystemConfig};
use maco_sim::fold_fingerprint;
use maco_workloads::trace::TraceRequest;

use crate::job::Tenant;
use crate::report::ServeReport;
use crate::server::{ServeConfig, ServeError, Server};

/// Result of a replicated serving run.
#[derive(Debug)]
pub struct ReplicaOutcome {
    /// Per-shard reports, in shard order (not completion order).
    pub reports: Vec<ServeReport>,
    /// Wall-clock time of the slowest path (all threads joined).
    pub wall: Duration,
    /// Fold of the shard fingerprints in shard order — deterministic
    /// regardless of how the OS interleaved the threads.
    pub fingerprint: u64,
}

impl ReplicaOutcome {
    /// Total jobs completed across shards.
    pub fn jobs_completed(&self) -> u64 {
        self.reports.iter().map(|r| r.jobs_completed).sum()
    }

    /// Total GEMM flops served across shards.
    pub fn total_flops(&self) -> u64 {
        self.reports.iter().map(|r| r.total_flops).sum()
    }
}

/// Serves each shard on its own machine replica, one OS thread per shard,
/// and joins the results in shard order.
///
/// Each replica is a fresh [`MacoSystem`] built from `system`, with the
/// full tenant fleet registered (a shard simply sees no requests from the
/// tenants hashed elsewhere). One shard reproduces the single-threaded
/// run exactly.
///
/// # Errors
///
/// Propagates the first shard's [`ServeError`] in shard order.
///
/// # Panics
///
/// Panics if `shards` is empty or a worker thread panics.
pub fn run_replicas(
    system: &SystemConfig,
    tenants: &[Tenant],
    config: &ServeConfig,
    shards: &[Vec<TraceRequest>],
) -> Result<ReplicaOutcome, ServeError> {
    assert!(!shards.is_empty(), "need at least one shard");
    let t0 = Instant::now();
    let results: Vec<Result<ServeReport, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || {
                    let machine = MacoSystem::new(system.clone());
                    let mut server = Server::new(machine, tenants.to_vec(), config.clone());
                    server.run_trace(shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        reports.push(r?);
    }
    let fingerprint = reports
        .iter()
        .fold(0u64, |h, r| fold_fingerprint(h, r.fingerprint));
    Ok(ReplicaOutcome {
        reports,
        wall,
        fingerprint,
    })
}
