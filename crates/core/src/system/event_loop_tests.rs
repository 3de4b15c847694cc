//! Differential test of [`TaskHeap`] against a scan that rereads every
//! slot for the minimum `(now, seq)` key and the runner-up before every
//! batch, on twin machines: closed-loop runs (every task inserted at time
//! zero in node order), and engine-style episodes with mid-episode inserts
//! in random node order (so `seq != node`), a random bound per step and
//! `clear()` onto a fresh machine. Results, next step times, links, CCM
//! slices, DRAM channels and work counters must all agree.

use proptest::prelude::*;
use proptest::TestRng;

use super::*;

type Shape = (u64, u64, u64);
/// `(node, time after the step)` for every tile step, in step order.
type Trail = Vec<(usize, SimTime)>;
/// Tasks to begin at an instant, as `(node, shape)` in insert order (a busy
/// node is skipped), or `None`: `clear()` onto a fresh machine.
type Event = (SimTime, Option<Vec<(usize, Shape)>>);

/// Reference task heap: per-node `(task, seq, tag)` slots, rescanned
/// before every batch.
struct ScanHeap {
    slots: Vec<Option<(InFlightGemm, u64, usize)>>,
    seq: u64,
    trail: Trail,
}

impl ScanHeap {
    fn new(nodes: usize) -> Self {
        ScanHeap {
            slots: (0..nodes).map(|_| None).collect(),
            seq: 0,
            trail: Vec::new(),
        }
    }

    fn insert(&mut self, task: InFlightGemm, tag: usize) {
        let node = task.node();
        assert!(self.slots[node].is_none(), "node {node} is busy");
        self.slots[node] = Some((task, self.seq, tag));
        self.seq += 1;
    }

    /// Every key, smallest first: the minimum and the runner-up lead.
    fn keys(&self) -> Vec<(SimTime, u64, usize)> {
        let slots = self.slots.iter().enumerate();
        let mut keys: Vec<_> = slots
            .filter_map(|(node, slot)| slot.as_ref().map(|(task, seq, _)| (task.now(), *seq, node)))
            .collect();
        keys.sort_unstable();
        keys
    }

    fn step(
        &mut self,
        sys: &mut MacoSystem,
        bound: Option<SimTime>,
    ) -> Result<Option<(InFlightGemm, NodeReport, usize)>, TranslateFault> {
        let keys = self.keys();
        let (_, seq, node) = keys[0];
        let runner_up = keys.get(1).copied();
        loop {
            let (task, _, _) = self.slots[node].as_mut().expect("scanned above");
            let report = sys.step_gemm(task)?;
            self.trail.push((node, task.now()));
            if let Some(report) = report {
                let (task, _, tag) = self.slots[node].take().expect("stepped above");
                return Ok(Some((task, report, tag)));
            }
            let key = (task.now(), seq, node);
            if bound.is_some_and(|b| key.0 >= b) || runner_up.is_some_and(|r| key > r) {
                return Ok(None);
            }
        }
    }
}

/// [`MacoSystem::run_tasks`] over the reference heap.
fn reference_run_tasks(
    sys: &mut MacoSystem,
    tasks: &[GemmParams],
) -> Result<SystemReport, TranslateFault> {
    let mut scan = ScanHeap::new(tasks.len());
    for task in sys.begin_tasks(tasks) {
        scan.insert(task, 0);
    }
    let mut reports: Vec<Option<NodeReport>> = vec![None; tasks.len()];
    while !scan.keys().is_empty() {
        if let Some((task, report, _)) = scan.step(sys, None)? {
            reports[task.node()] = Some(report);
        }
    }
    Ok(sys.system_report(reports.into_iter().map(|r| r.expect("finished")).collect()))
}

/// A GEMM extent up to `max`: a multiple of the 64-element buffer tile
/// one time in four, ragged otherwise.
fn draw_extent(rng: &mut TestRng, max: u64) -> u64 {
    match rng.next_below(4) {
        0 => 64 * (1 + rng.next_below(max / 64)),
        _ => 1 + rng.next_below(max),
    }
}

/// Either a squarish GEMM of up to 11×11 tiles in one or two k-passes, or
/// a thin deep one whose few tiles per pass put a pass entry (stash
/// prefetch, translation) every few steps.
fn draw_shape(rng: &mut TestRng) -> Shape {
    let (mn, k) = if rng.next_below(2) == 0 {
        (700, 1_300)
    } else {
        (192, 4_200)
    };
    (
        draw_extent(rng, mn),
        draw_extent(rng, mn),
        draw_extent(rng, k),
    )
}

/// Two to six events. A zero gap puts an event on the previous one's
/// instant, so inserts pile up into tie storms.
fn draw_script(rng: &mut TestRng, nodes: usize) -> Vec<Event> {
    let mut at = SimTime::ZERO;
    (0..2 + rng.next_below(5))
        .map(|i| {
            if rng.next_below(3) > 0 {
                at += SimDuration::from_ns(rng.next_below(20_000));
            }
            if i > 0 && rng.next_below(6) == 0 {
                return (at, None);
            }
            let mut order: Vec<usize> = (0..nodes).collect();
            for j in (1..nodes).rev() {
                order.swap(j, rng.next_below(j as u64 + 1) as usize);
            }
            order.truncate(1 + rng.next_below(nodes as u64) as usize);
            let shared = draw_shape(rng);
            let members = order.into_iter().map(|node| match rng.next_below(2) {
                0 => (node, shared),
                _ => (node, draw_shape(rng)),
            });
            (at, Some(members.collect()))
        })
        .collect()
}

fn config_of(nodes: usize, (prediction, stash_lock, mirror): (u8, u8, u8)) -> SystemConfig {
    SystemConfig {
        nodes,
        prediction: prediction == 1,
        stash_lock: stash_lock == 1,
        translation_mirror: mirror == 1,
        ..SystemConfig::default()
    }
}

fn assert_same_machine(heap: &MacoSystem, scan: &MacoSystem) {
    assert!(heap.fabric == scan.fabric, "mesh links differ");
    assert!(heap.ccms == scan.ccms, "CCM slices differ");
    assert!(heap.dram == scan.dram, "DRAM channels differ");
    assert_eq!(heap.stats_snapshot(), scan.stats_snapshot());
}

/// Plays `script` through a [`TaskHeap`] and the reference on twin
/// machines as the engine would: an event is handled once no step is due
/// before it, and no batch reaches it. `extra` may bound each step too.
fn play(
    config: &SystemConfig,
    precision: Precision,
    script: &[Event],
    mut extra: impl FnMut(&ScanHeap) -> Option<SimTime>,
) -> Trail {
    let fresh = || {
        let mut sys = MacoSystem::new(config.clone());
        sys.reset_shared_resources();
        sys
    };
    let (mut heap_sys, mut scan_sys) = (fresh(), fresh());
    let (mut heap, mut scan) = (TaskHeap::new(config.nodes), ScanHeap::new(config.nodes));
    let mut events = script.iter().enumerate().peekable();
    loop {
        let next = heap.next_time();
        assert_eq!(
            next,
            scan.keys().first().map(|k| k.0),
            "next step times differ"
        );
        let arrival = events.peek().map(|&(_, &(at, _))| at);
        if arrival.is_some_and(|at| next.is_none_or(|t| at <= t)) {
            let (i, (at, members)) = events.next().expect("peeked");
            let Some(members) = members else {
                assert_same_machine(&heap_sys, &scan_sys);
                heap.clear();
                scan.slots.fill_with(|| None);
                (heap_sys, scan_sys) = (fresh(), fresh());
                continue;
            };
            for &(node, (m, n, k)) in members {
                if scan.slots[node].is_none() {
                    let begin = |sys: &mut MacoSystem| {
                        let params = sys.map_gemm(m, n, k, precision).expect("maps");
                        let asid = sys.node_asid(node);
                        sys.begin_gemm(node, asid, params, *at).expect("idle node")
                    };
                    heap.insert(begin(&mut heap_sys), i * config.nodes + node);
                    scan.insert(begin(&mut scan_sys), i * config.nodes + node);
                }
            }
        } else if next.is_some() {
            let bound = [arrival, extra(&scan)].into_iter().flatten().min();
            let seen = |r: Option<(InFlightGemm, NodeReport, usize)>| {
                r.map(|(task, report, tag)| (task.node(), task.now(), report, tag))
            };
            let stepped = seen(heap.step(&mut heap_sys, bound).expect("no fault"));
            let reference = seen(scan.step(&mut scan_sys, bound).expect("no fault"));
            assert_eq!(stepped, reference, "step results differ");
        } else {
            assert_same_machine(&heap_sys, &scan_sys);
            return scan.trail;
        }
    }
}

proptest! {
    #[test]
    fn heap_event_loop_matches_scan_event_loop(
        nodes in 1usize..17,
        precision in 0usize..4,
        flags in (0u8..2, 0u8..2, 0u8..2),
        seed in 0u64..u64::MAX,
    ) {
        let config = config_of(nodes, flags);
        let precision = Precision::ALL[precision];
        let mut heap = MacoSystem::new(config.clone());
        let mut scan = MacoSystem::new(config);
        let mut rng = TestRng::new(seed);
        // Two episodes, so the second starts from the translation state
        // (sTLBs and mirror) the first left behind.
        for episode in 0..2 {
            let parallel = rng.next_below(2) == 0;
            let parts = if parallel { 1 } else { 1 + rng.next_below(nodes as u64) };
            let shapes: Vec<Shape> = (0..parts).map(|_| draw_shape(&mut rng)).collect();
            let mut params: Vec<GemmParams> = shapes
                .iter()
                .map(|&(m, n, k)| scan.build_params(m, n, k, precision).expect("maps"))
                .collect();
            let a = if parallel {
                params = vec![params[0]; nodes];
                let (m, n, k) = shapes[0];
                heap.run_parallel_gemm(m, n, k, precision)
            } else {
                heap.run_partitioned_gemm(&shapes, precision)
            };
            let b = reference_run_tasks(&mut scan, &params);
            prop_assert_eq!(a.expect("no fault"), b.expect("no fault"), "episode {}", episode);
            assert_same_machine(&heap, &scan);
        }
    }

    #[test]
    fn task_heap_matches_scan_under_inserts_bounds_and_clear(
        nodes in 1usize..9,
        precision in 0usize..4,
        flags in (0u8..2, 0u8..2, 0u8..2),
        seed in 0u64..u64::MAX,
    ) {
        let config = config_of(nodes, flags);
        let precision = Precision::ALL[precision];
        let mut rng = TestRng::new(seed);
        let script = draw_script(&mut rng, nodes);
        // Bounded by the events alone. A bound only splits a batch, and the
        // next call steps the same task on, so this fixes the step
        // sequence of every run below.
        let trail = play(&config, precision, &script, |_| None);
        let bounded = play(&config, precision, &script, |scan| {
            let (now, _, node) = *scan.keys().first()?;
            match rng.next_below(3) {
                0 => None,
                1 => {
                    // A time the due task reaches exactly, where stopping
                    // at `>=` and at `>` part ways.
                    let done = scan.trail.len();
                    let run = trail[done..].iter().take_while(|&&(n, _)| n == node).count();
                    (run > 0).then(|| trail[done + rng.next_below(run as u64) as usize].1)
                }
                _ => Some(now + SimDuration::from_ns(rng.next_below(3_000))),
            }
        });
        prop_assert_eq!(bounded, trail, "a bound changed the step sequence");
    }
}
