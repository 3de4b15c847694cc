//! Deep-backlog scaling of the event core (release builds only).
//!
//! One 4-node server drains `TraceConfig::micro` traces whose arrivals
//! outpace it, with the queue sized to hold the whole trace, so the
//! backlog grows with trace length. With admission and dispatch costs
//! that do not grow with queue depth, 8x the requests costs about 8x the
//! wall clock under every policy; a scheduler that rescans the backlog
//! per dispatch grows quadratically (~31x).
//! Debug builds are too noisy to time, so the test runs under
//! `cargo test --release`.

use std::time::{Duration, Instant};

use maco_core::system::{MacoSystem, SystemConfig};
use maco_serve::{Policy, ServeConfig, Server, Tenant};
use maco_workloads::trace::{self, TraceConfig};

/// Minimum wall clock of three runs serving `requests` micro requests
/// under `policy`.
fn best_of_three(policy: Policy, requests: usize) -> Duration {
    let config = TraceConfig::micro(1, requests);
    let trace = trace::generate(&config);
    (0..3)
        .map(|_| {
            let system = MacoSystem::new(SystemConfig {
                nodes: 4,
                ..SystemConfig::default()
            });
            let mut server = Server::new(
                system,
                Tenant::fleet(config.tenants),
                ServeConfig {
                    queue_capacity: requests,
                    ..ServeConfig::with_policy(policy)
                },
            );
            let start = Instant::now();
            let report = server.run_trace(&trace).expect("episode serves");
            let wall = start.elapsed();
            assert_eq!(report.jobs_completed, requests as u64);
            wall
        })
        .min()
        .expect("three runs")
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn deep_backlog_scales_near_linearly() {
    for policy in Policy::ALL {
        let small = best_of_three(policy, 2_500);
        let large = best_of_three(policy, 20_000);
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        assert!(
            ratio <= 16.0,
            "{policy:?}: 8x the requests took {ratio:.1}x the wall clock ({small:?} -> {large:?})"
        );
    }
}
