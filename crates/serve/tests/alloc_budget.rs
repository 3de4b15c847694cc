//! Heap-allocation budget of a served job.
//!
//! A job's fixed path (admission, pick, gang lease, `map_gemm`,
//! `begin_gemm`, its tile steps and its retirement) allocates nothing:
//! the core walks passes and tiles in closed form, the gang lives in the
//! episode lease log and MTQ occupancy is counted, not walked. What an
//! episode still allocates is the amortised growth of its logs (jobs,
//! leases, arrival keys, the ready queue's slab) and a constant set-up,
//! so the count per job stays far below one.
//!
//! The counting allocator counts per thread, so tests running in
//! parallel do not leak into each other's counts. Counts are
//! deterministic, so the test runs in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{JobSpec, Policy, ServeConfig, Server, Tenant};
use maco_sim::SimTime;
use maco_workloads::trace::{self, TraceConfig};

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

fn machine() -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes: 4,
        ..SystemConfig::default()
    })
}

#[test]
fn a_served_micro_job_allocates_almost_nothing() {
    const REQUESTS: usize = 20_000;
    let config = TraceConfig::micro(1, REQUESTS);
    let trace = trace::generate(&config);
    for policy in Policy::ALL {
        let mut server = Server::new(
            machine(),
            Tenant::fleet(config.tenants),
            ServeConfig {
                queue_capacity: REQUESTS,
                ..ServeConfig::with_policy(policy)
            },
        );
        let specs: Vec<JobSpec> = trace.iter().map(JobSpec::from_request).collect();
        let (report, allocs) = counted(|| server.run_jobs(specs).expect("episode serves"));
        assert_eq!(report.jobs_completed, REQUESTS as u64);
        let per_job = allocs as f64 / REQUESTS as f64;
        assert!(
            per_job <= 0.05,
            "{policy:?}: {allocs} allocations over {REQUESTS} jobs ({per_job:.3} per job)"
        );
    }
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
    assert_eq!(allocs, 0, "begin_gemm and its steps allocated");
}
