//! Heap-allocation budget of a served job.
//!
//! A job's fixed path (admission, pick, gang lease, `map_gemm`,
//! `begin_gemm`, its tile steps and its retirement) allocates nothing:
//! the core walks passes and tiles in closed form, the gang lives in the
//! episode lease log and MTQ occupancy is counted, not walked. What an
//! episode still allocates is its per-job tables (pending arrival keys and
//! specs, jobs, leases, the ready queue's slab), sized once from the
//! pushed count, and a constant set-up. So the count per job stays far
//! below one, and the bytes per job stay near the tables' row sizes: a
//! table regrown by doubling would request about twice its final size,
//! most of it in large blocks.
//!
//! The counting allocator counts per thread, so tests running in
//! parallel do not leak into each other's counts. Counts are
//! deterministic, so the tests run in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{JobSpec, Policy, ServeConfig, Server, Tenant};
use maco_sim::SimTime;
use maco_workloads::trace::{self, TraceConfig};

/// The system allocator, counting this thread's allocations and
/// reallocations and the bytes they request.
struct Counting;

/// A request of at least this many bytes counts as a large block.
const LARGE: usize = 64 << 10;

/// What this thread asked the allocator for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Requests {
    /// Allocations and reallocations.
    count: u64,
    /// Bytes requested: each allocation's size, each reallocation's new
    /// size.
    bytes: u64,
    /// Requests of at least [`LARGE`] bytes.
    large: u64,
}

impl Requests {
    fn since(self, before: Requests) -> Requests {
        Requests {
            count: self.count - before.count,
            bytes: self.bytes - before.bytes,
            large: self.large - before.large,
        }
    }
}

thread_local! {
    static REQUESTS: Cell<Requests> = const {
        Cell::new(Requests { count: 0, bytes: 0, large: 0 })
    };
}

fn count_one(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = REQUESTS.try_with(|c| {
        let r = c.get();
        c.set(Requests {
            count: r.count + 1,
            bytes: r.bytes + bytes as u64,
            large: r.large + u64::from(bytes >= LARGE),
        });
    });
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and what this thread requested while it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Requests) {
    let before = REQUESTS.with(Cell::get);
    let r = f();
    (r, REQUESTS.with(Cell::get).since(before))
}

fn machine() -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes: 4,
        ..SystemConfig::default()
    })
}

const MICRO_JOBS: usize = 20_000;

/// Serves `MICRO_JOBS` micro jobs under each policy, with the queue sized
/// to the whole trace, and hands each episode's requests to `check`.
fn serve_micro_jobs(check: impl Fn(Policy, Requests)) {
    let config = TraceConfig::micro(1, MICRO_JOBS);
    let trace = trace::generate(&config);
    for policy in Policy::ALL {
        let mut server = Server::new(
            machine(),
            Tenant::fleet(config.tenants),
            ServeConfig {
                queue_capacity: MICRO_JOBS,
                ..ServeConfig::with_policy(policy)
            },
        );
        let specs: Vec<JobSpec> = trace.iter().map(JobSpec::from_request).collect();
        let (report, requests) = counted(|| server.run_jobs(specs).expect("episode serves"));
        assert_eq!(report.jobs_completed, MICRO_JOBS as u64);
        check(policy, requests);
    }
}

#[test]
fn a_served_micro_job_allocates_almost_nothing() {
    serve_micro_jobs(|policy, requests| {
        let per_job = requests.count as f64 / MICRO_JOBS as f64;
        assert!(
            per_job <= 0.05,
            "{policy:?}: {} allocations over {MICRO_JOBS} jobs ({per_job:.3} per job)",
            requests.count
        );
    });
}

#[test]
fn an_episode_sizes_its_tables_once() {
    serve_micro_jobs(|policy, requests| {
        let per_job = requests.bytes as f64 / MICRO_JOBS as f64;
        assert!(
            per_job <= 400.0,
            "{policy:?}: {} bytes requested over {MICRO_JOBS} jobs ({per_job:.0} per job)",
            requests.bytes
        );
        assert!(
            requests.large <= 10,
            "{policy:?}: {} requests of at least {LARGE} bytes",
            requests.large
        );
    });
}

#[test]
fn a_one_pass_gemm_steps_to_completion_without_allocating() {
    let mut system = machine();
    system.reset_shared_resources();
    let params = system.map_gemm(64, 64, 64, Precision::Fp32).expect("maps");
    let asid = system.node_asid(0);
    let (report, allocs) = counted(|| {
        let mut task = system
            .begin_gemm(0, asid, params, SimTime::ZERO)
            .expect("queues have room");
        loop {
            if let Some(report) = system.step_gemm(&mut task).expect("maps") {
                break report;
            }
        }
    });
    assert_eq!(report.flops, 2 * 64 * 64 * 64);
    assert_eq!(
        system.stats_snapshot().get("xlate.passes_exact"),
        1,
        "one pass"
    );
    assert_eq!(
        allocs,
        Requests::default(),
        "begin_gemm and its steps allocated"
    );
}
