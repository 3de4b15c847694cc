//! `serve_backlog` — one 4-node `Server` fed the all-micro 64³ trace
//! (`TraceConfig::micro`, 1 µs mean gap: faster than four nodes drain it),
//! with the admission queue sized to the whole trace, under FIFO, SJF and
//! FairShare. Admission cost grows with queue depth, and translation is one
//! small pass per job. The seed is the trace seed.

use std::time::Instant;

use maco_core::system::{MacoSystem, SystemConfig};
use maco_isa::Precision;
use maco_serve::{Engine, JobOutcome, JobSpec, Policy, ServeConfig, ServeReport, Server, Tenant};
use maco_sim::{SimTime, Stats};
use maco_workloads::trace::{self, TraceConfig, TraceRequest};

use crate::harness::{median, median_by, ns_since, quantile, repeat, timed, Mode, Pin, Report};

const REQUESTS: usize = 10_000;
const NODES: usize = 4;

/// The default seed's simulated outcomes. A change that moves one of
/// these changes the model, not just the simulator's speed.
pub const PIN: Pin = Pin {
    fingerprints: &[
        ("fifo", 0xf25b_2b66_08f6_8e05),
        ("sjf", 0x1355_311b_b626_17cf),
        ("fair_share", 0x8b59_fa3f_a01a_f1e7),
    ],
    sim: &[
        ("sim_efficiency", 0.4744257815239658),
        ("sim_gflops", 303.5255509891097),
        ("sim_latency_p50_us", 3414.478508196),
        ("sim_latency_p99_us", 12321.167594493),
    ],
};

/// One policy's episode: its report and every job's outcome.
type Episode = (ServeReport, Vec<JobOutcome>);

fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig::micro(seed, REQUESTS)
}

fn serve_config(policy: Policy) -> ServeConfig {
    ServeConfig {
        queue_capacity: REQUESTS,
        ..ServeConfig::with_policy(policy)
    }
}

fn machine() -> MacoSystem {
    MacoSystem::new(SystemConfig {
        nodes: NODES,
        ..SystemConfig::default()
    })
}

/// Host nanoseconds of every `Engine::advance`, by event kind.
#[derive(Default)]
struct Calls {
    /// Advances whose next event was a pushed arrival: admission plus a
    /// scheduling attempt.
    admit: Vec<u64>,
    /// Every other advance: wake-ups and tile-step batches. A completion
    /// also admits every arrival its last step leapt past, so under backlog
    /// most admissions are paid here.
    step: Vec<u64>,
    /// Pending-queue depth after each advance.
    depth: Vec<u64>,
}

/// One episode driven through `Engine::push`/`advance`/`finish` exactly as
/// `Server::run_jobs` does, timing every advance and keeping every job's
/// outcome.
fn drive(
    mut system: MacoSystem,
    tenants: &[Tenant],
    policy: Policy,
    trace: &[TraceRequest],
    calls: &mut Calls,
) -> Result<Episode, String> {
    let mut specs: Vec<JobSpec> = trace.iter().map(JobSpec::from_request).collect();
    specs.sort_by_key(|s| s.arrival);
    let arrivals: Vec<SimTime> = specs.iter().map(|s| s.arrival).collect();
    system.reset_shared_resources();
    let mut engine = Engine::new(system.node_count(), tenants, &serve_config(policy));
    for spec in specs {
        engine.push(spec);
    }
    let mut next = 0;
    let mut outcomes = Vec::with_capacity(trace.len());
    while let Some(at) = engine.next_event() {
        let admit = arrivals.get(next) == Some(&at);
        let t = Instant::now();
        let outcome = engine
            .advance(&mut system, None)
            .map_err(|e| e.to_string())?;
        let ns = ns_since(t);
        if admit {
            next += 1;
            calls.admit.push(ns);
        } else {
            calls.step.push(ns);
        }
        calls.depth.push(engine.queued_jobs().len() as u64);
        if let Some(o) = outcome {
            // A completion admits every arrival its last step leapt past.
            while arrivals.get(next).is_some_and(|&a| a <= o.finished_at) {
                next += 1;
            }
            outcomes.push(o);
        }
    }
    Ok((engine.finish(&system), outcomes))
}

fn check_episode(report: &mut Report, r: &ServeReport, trace: &[TraceRequest]) {
    let flops: u64 = trace.iter().map(TraceRequest::flops).sum();
    let policy = r.policy.name();
    report.check(
        r.jobs_completed == trace.len() as u64 && r.jobs_rejected == 0,
        || {
            format!(
                "{policy}: {} completed, {} rejected of {}",
                r.jobs_completed,
                r.jobs_rejected,
                trace.len()
            )
        },
    );
    report.check(r.total_flops == flops, || {
        format!(
            "{policy}: served {} flops, trace holds {flops}",
            r.total_flops
        )
    });
}

/// Checks every job's record against its request.
fn check_jobs(
    report: &mut Report,
    policy: Policy,
    outcomes: &[JobOutcome],
    trace: &[TraceRequest],
) {
    report.check(outcomes.len() == trace.len(), || {
        format!(
            "{}: {} outcomes for {} requests",
            policy.name(),
            outcomes.len(),
            trace.len()
        )
    });
    for o in outcomes {
        // Nothing is rejected, so job ids are arrival ranks.
        let want = trace.get(o.job.0 as usize).map(TraceRequest::flops);
        report.check(want == Some(o.flops), || {
            format!(
                "{} job {}: {} flops, request has {want:?}",
                policy.name(),
                o.job.0,
                o.flops
            )
        });
    }
}

fn sim_metrics(report: &mut Report, episodes: &[Episode]) {
    let peak = SystemConfig::default().mmae.peak_gflops(Precision::Fp32);
    let flops: u64 = episodes.iter().map(|e| e.0.total_flops).sum();
    let makespan_ns: f64 = episodes.iter().map(|e| e.0.makespan.as_ns()).sum();
    let busy_ns: f64 = episodes
        .iter()
        .flat_map(|e| &e.0.leases)
        .map(|l| l.until.since(l.from).as_ns())
        .sum();
    let mut latency: Vec<u64> = episodes
        .iter()
        .flat_map(|e| &e.1)
        .map(|o| o.finished_at.since(o.arrival).as_fs())
        .collect();
    report.sim("sim_efficiency", flops as f64 / busy_ns / peak);
    report.sim("sim_gflops", flops as f64 / makespan_ns);
    report.sim(
        "sim_latency_p50_us",
        quantile(&mut latency, 0.5) as f64 / 1e9,
    );
    report.sim(
        "sim_latency_p99_us",
        quantile(&mut latency, 0.99) as f64 / 1e9,
    );
}

/// Per traced repetition: the engine's host times over all three policies.
struct LayerRep {
    admit_p50: u64,
    admit_p99: u64,
    step_p50: u64,
    step_p99: u64,
    admit_total: u64,
    step_total: u64,
}

pub fn run(report: &mut Report, seconds: f64) {
    let mode = report.mode;
    let config = trace_config(report.seed());
    let tenants = Tenant::fleet(config.tenants);
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layer_reps = Vec::new();
    let mut fingerprints: Option<Vec<u64>> = None;
    let mut trace_flops = 0;
    let mut traced_run: Option<(Vec<Episode>, Calls)> = None;

    repeat(seconds, |rep| {
        let ((trace, systems), s) = timed(|| {
            let (trace, g) = timed(|| trace::generate(&config));
            gen_s.push(g);
            (trace, Policy::ALL.map(|_| machine()))
        });
        trace_flops = trace.iter().map(TraceRequest::flops).sum::<u64>();
        report.check(trace.iter().all(|r| r.precision == Precision::Fp32), || {
            "micro trace is not all FP32".to_string()
        });
        let (traced, measured) = mode.rep_kind(rep);
        let mut calls = Calls::default();
        let (episodes, t) = timed(|| {
            let mut out = Vec::new();
            for (system, policy) in systems.into_iter().zip(Policy::ALL) {
                let episode = if traced {
                    drive(system, &tenants, policy, &trace, &mut calls)
                } else {
                    Server::new(system, tenants.clone(), serve_config(policy))
                        .run_trace(&trace)
                        .map(|r| (r, Vec::new()))
                        .map_err(|e| e.to_string())
                };
                out.push(episode);
            }
            out
        });
        let mut episodes_ok = Vec::new();
        for (episode, policy) in episodes.into_iter().zip(Policy::ALL) {
            match episode {
                Ok((r, outcomes)) => {
                    check_episode(report, &r, &trace);
                    if traced {
                        check_jobs(report, policy, &outcomes, &trace);
                    }
                    episodes_ok.push((r, outcomes));
                }
                Err(e) => report.error(format!("{}: {e}", policy.name())),
            }
        }
        let fps: Vec<u64> = episodes_ok.iter().map(|e| e.0.fingerprint).collect();
        match &fingerprints {
            None => fingerprints = Some(fps),
            Some(want) => report.check(&fps == want, || {
                format!("rep {rep} (traced: {traced}) fingerprints {fps:x?} != {want:x?}")
            }),
        }
        if traced {
            if measured {
                traced_s.push(t);
                let (admit_total, step_total) = (calls.admit.iter().sum(), calls.step.iter().sum());
                layer_reps.push(LayerRep {
                    admit_p50: quantile(&mut calls.admit, 0.5),
                    admit_p99: quantile(&mut calls.admit, 0.99),
                    step_p50: quantile(&mut calls.step, 0.5),
                    step_p99: quantile(&mut calls.step, 0.99),
                    admit_total,
                    step_total,
                });
            }
            traced_run = Some((episodes_ok, calls));
        } else if measured {
            setup_s.push(s);
            plain_s.push(t);
        }
    });

    let Some(fingerprints) = fingerprints else {
        return;
    };
    for (name, fp) in ["fifo", "sjf", "fair_share"].into_iter().zip(&fingerprints) {
        report.fingerprint(name, *fp);
    }
    // Per-job records: with tracing off, one untimed engine-driven replay
    // after the measured repetitions.
    let (episodes, calls) = match traced_run {
        Some(run) => run,
        None => {
            let trace = trace::generate(&config);
            let mut calls = Calls::default();
            let mut episodes = Vec::new();
            for policy in Policy::ALL {
                match drive(machine(), &tenants, policy, &trace, &mut calls) {
                    Ok(e) => {
                        check_jobs(report, policy, &e.1, &trace);
                        episodes.push(e);
                    }
                    Err(e) => report.error(format!("{}: {e}", policy.name())),
                }
            }
            (episodes, calls)
        }
    };
    let replayed: Vec<u64> = episodes.iter().map(|e| e.0.fingerprint).collect();
    report.check(replayed == fingerprints, || {
        format!("engine-driven fingerprints {replayed:x?} != Server::run_trace {fingerprints:x?}")
    });
    sim_metrics(report, &episodes);
    report.host_metrics(Policy::ALL.len() as u64 * trace_flops, &setup_s, &plain_s);

    if mode == Mode::Traced {
        let t = &layer_reps;
        let jobs = (Policy::ALL.len() * REQUESTS) as f64;
        let admit_total = median_by(t, |r| r.admit_total);
        let step_total = median_by(t, |r| r.step_total);
        let traced = median(&traced_s) * 1e9;
        let mut depth = calls.depth;
        let mut counters = Stats::new();
        for (r, _) in &episodes {
            counters.merge(&r.machine_stats);
        }
        report.layer("workloads.trace_gen_ms", median(&gen_s) * 1e3);
        report.layer(
            "serve.events",
            (calls.admit.len() + calls.step.len()) as f64,
        );
        report.layer("serve.admit_ns_p50", median_by(t, |r| r.admit_p50));
        report.layer("serve.admit_ns_p99", median_by(t, |r| r.admit_p99));
        report.layer("serve.step_ns_p50", median_by(t, |r| r.step_p50));
        report.layer("serve.step_ns_p99", median_by(t, |r| r.step_p99));
        report.layer(
            "serve.admit_share",
            admit_total / (admit_total + step_total),
        );
        report.layer("serve.ns_per_job", (admit_total + step_total) / jobs);
        report.layer(
            "serve.ns_per_event",
            (admit_total + step_total) / (calls.admit.len() + calls.step.len()) as f64,
        );
        report.layer("serve.queue_depth_p50", quantile(&mut depth, 0.5) as f64);
        report.layer("serve.queue_depth_p99", quantile(&mut depth, 0.99) as f64);
        let peak_mtq = episodes
            .iter()
            .map(|e| e.0.machine_peak_mtq)
            .max()
            .unwrap_or(0);
        let peak_stq = episodes
            .iter()
            .map(|e| e.0.machine_peak_stq)
            .max()
            .unwrap_or(0);
        report.layer("isa.peak_mtq", peak_mtq as f64);
        report.layer("isa.peak_stq", peak_stq as f64);
        report.machine_counters(&counters);
        report.layer("trace.overhead_ratio", median(&traced_s) / median(&plain_s));
        report.dominant(
            traced,
            &[
                ("serve admissions", admit_total),
                ("serve steps and completions (core inside)", step_total),
            ],
            "the benchmark's own event loop",
        );
    }
    report.check_pin(&PIN);
}
