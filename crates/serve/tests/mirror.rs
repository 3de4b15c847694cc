//! The cost-gated translation mirror seen from the serving layer.
//!
//! A serving episode translates one small pass per micro job, far below
//! the mirror's break-even, alongside heavier layers above it. Turning the
//! mirror off must not move a single scheduled event, and the small
//! passes must never pay for an sTLB snapshot. The machines run without
//! prediction: the mirror serves demand translation only.

use maco_core::system::{MacoSystem, SystemConfig};
use maco_serve::{Engine, JobOutcome, JobSpec, Policy, ServeConfig, ServeReport, Server, Tenant};
use maco_workloads::trace::{self, ModelKind, TraceConfig, TraceRequest};

const NODES: usize = 4;

fn machine(translation_mirror: bool) -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes: NODES,
        prediction: false,
        translation_mirror,
        ..SystemConfig::default()
    })
}

fn serve_config(policy: Policy, requests: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: requests,
        ..ServeConfig::with_policy(policy)
    }
}

/// A micro backlog plus the lightest ResNet and BERT requests of a
/// failover trace. Micro passes (16 touches) and the ResNet slices (a few
/// hundred) sit below the mirror's break-even, the BERT slices (thousands
/// of touches per pass) above it.
fn mixed_trace() -> Vec<TraceRequest> {
    let mut requests = trace::generate(&TraceConfig::micro(7, 120));
    let failover = trace::generate(&TraceConfig::failover(7));
    for model in [ModelKind::Resnet, ModelKind::Bert] {
        let lightest = failover
            .iter()
            .filter(|r| r.model == model)
            .min_by_key(|r| r.flops())
            .expect("the failover mix holds the family");
        requests.push(lightest.clone());
    }
    requests
}

/// Serves `trace` through the engine, keeping every job's outcome.
fn drive(
    mut system: MacoSystem,
    policy: Policy,
    trace: &[TraceRequest],
) -> (ServeReport, Vec<JobOutcome>) {
    let mut specs: Vec<JobSpec> = trace.iter().map(JobSpec::from_request).collect();
    specs.sort_by_key(|s| s.arrival);
    system.reset_shared_resources();
    let tenants = Tenant::fleet(8);
    let mut engine = Engine::new(NODES, &tenants, &serve_config(policy, trace.len()));
    for spec in specs {
        engine.push(spec);
    }
    let mut outcomes = Vec::new();
    while engine.next_event().is_some() {
        if let Some(o) = engine.advance(&mut system, None).expect("episode serves") {
            outcomes.push(o);
        }
    }
    (engine.finish(&system), outcomes)
}

#[test]
fn mirror_on_and_off_serve_identical_schedules() {
    let trace = mixed_trace();
    for policy in Policy::ALL {
        let (on, on_jobs) = drive(machine(true), policy, &trace);
        let (off, off_jobs) = drive(machine(false), policy, &trace);
        let name = policy.name();
        assert_eq!(on.jobs_completed, trace.len() as u64, "{name}");
        assert_eq!(
            on.fingerprint, off.fingerprint,
            "{name} schedule fingerprint"
        );
        assert_eq!(on_jobs, off_jobs, "{name} job outcomes");
        // Both sides of the cost rule ran: heavy passes were recorded,
        // micro passes only replayed.
        let stats = &on.machine_stats;
        assert!(stats.get("xlate.mirror_snapshots") > 0, "{name}");
        assert!(stats.get("xlate.passes_exact") > stats.get("xlate.mirror_snapshots"));
        assert_eq!(off.machine_stats.get("xlate.mirror_snapshots"), 0, "{name}");
    }
}

#[test]
fn micro_serving_never_snapshots_the_stlb() {
    const REQUESTS: usize = 400;
    let trace = trace::generate(&TraceConfig::micro(1, REQUESTS));
    let report = Server::new(
        machine(true),
        Tenant::fleet(8),
        serve_config(Policy::Fifo, REQUESTS),
    )
    .run_trace(&trace)
    .expect("episode serves");
    assert_eq!(report.jobs_completed, REQUESTS as u64);
    let stats = &report.machine_stats;
    // One single-pass job each: every pass is replayed exactly, none is
    // worth a snapshot, so none is transplanted either.
    assert_eq!(stats.get("xlate.passes_exact"), REQUESTS as u64);
    assert_eq!(stats.get("xlate.passes_memo"), 0);
    assert_eq!(stats.get("xlate.passes_mirrored"), 0);
    assert_eq!(stats.get("xlate.mirror_snapshots"), 0);
}
