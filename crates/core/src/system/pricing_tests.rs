//! Differential test of tile-step pricing.
//!
//! [`MacoSystem::price_tile_step`] prices a step from a per-class
//! [`StepPlan`] over the `(node, slice)` route table and feeds train
//! reservations. The reference below is the per-send pricing it replaced:
//! every shard resolves its routes, wraps its slice with `%` and lets each
//! resource compute its own service time. Random step sequences driven
//! through both must return the same times and leave every link, CCM slice
//! and DRAM channel in the same state.

use proptest::prelude::*;
use proptest::TestRng;

use super::*;

/// Mesh position of `node`, re-derived from the configuration.
fn node_pos(sys: &MacoSystem, node: usize) -> NodeId {
    sys.config.tile_order.ordering(sys.config.fabric.shape)[node]
}

fn reference_fanout(sys: &MacoSystem) -> usize {
    sys.config.ccm_fanout.min(sys.ccms.len()).max(1)
}

/// Reference read path: header to each CCM, slice occupancy, data back.
fn reference_read(
    sys: &mut MacoSystem,
    node: usize,
    slice: usize,
    bytes: u64,
    now: SimTime,
) -> SimTime {
    let np = node_pos(sys, node);
    let fanout = reference_fanout(sys);
    let shard = bytes.div_ceil(fanout as u64);
    let mut done = now;
    for j in 0..fanout {
        let s = (slice + j) % sys.ccms.len();
        let cp = sys.slice_pos(s);
        let req = sys.fabric.send_control(np, cp, now);
        let srv = sys.ccms[s].access(req, shard);
        done = done.max(sys.fabric.send_bulk(cp, np, shard, srv));
    }
    done
}

/// Reference write path: data shards to the CCMs, occupancy, acks back.
fn reference_write(
    sys: &mut MacoSystem,
    node: usize,
    slice: usize,
    bytes: u64,
    now: SimTime,
) -> SimTime {
    let np = node_pos(sys, node);
    let fanout = reference_fanout(sys);
    let shard = bytes.div_ceil(fanout as u64);
    let mut done = now;
    for j in 0..fanout {
        let s = (slice + j) % sys.ccms.len();
        let cp = sys.slice_pos(s);
        let data = sys.fabric.send_bulk(np, cp, shard, now);
        let srv = sys.ccms[s].access(data, shard);
        done = done.max(sys.fabric.send_control(cp, np, srv));
    }
    done
}

/// Reference tile step: every count recomputed from the tile.
fn reference_step(
    sys: &mut MacoSystem,
    run: &mut GemmRun,
    pass: &BlockPass,
    tile: &Tile,
) -> SimDuration {
    let t = sys.config.mmae.tiling;
    let clock = sys.config.mmae.clock;
    let e = run.params.elem_bytes();
    let now = run.now;

    let lanes = sys.config.mmae.lanes(run.params.precision);
    let mut sa_cycles = 0u64;
    let mut k_left = pass.depth;
    while k_left > 0 {
        let chunk = k_left.min(t.ttk);
        sa_cycles += sys.nodes[run.node]
            .mmae
            .sa()
            .tile_cycles_lanes(tile.rows, tile.cols, chunk, lanes);
        k_left -= chunk;
    }
    let sa_time = clock.cycles(sa_cycles);
    run.sa_busy += sa_time;

    let mut in_bytes = tile.rows * pass.depth * e + pass.depth * tile.cols * e;
    if pass.first_k {
        in_bytes += tile.rows * tile.cols * e;
    }
    let out_bytes = if pass.last_k {
        tile.rows * tile.cols * e
    } else {
        0
    };
    run.dma_bytes += in_bytes + out_bytes;

    let slice = (run.step_counter as usize + run.node) % sys.ccms.len();
    let dma_in = if sys.config.stash_lock {
        reference_read(sys, run.node, slice, in_bytes, now).saturating_since(now)
    } else {
        let miss = sys.unmapped_miss_fraction(pass, e);
        let dram_bytes = (in_bytes as f64 * miss) as u64;
        let refill_done = if dram_bytes > 0 {
            let addr = PhysAddr::new(FRAME_BASE + run.step_counter * 4096);
            let d = sys.dram.access_bulk(addr, dram_bytes, now);
            let mc = sys.memory_controller_pos(run.node);
            let home = sys.slice_pos(slice);
            sys.fabric.send_bulk(mc, home, dram_bytes, d)
        } else {
            now
        };
        let lines = dram_bytes / LINE_BYTES;
        run.unmapped_stall = SimDuration::from_fs(
            sys.config.dram.latency.as_fs() * lines / sys.config.dma_mshr.max(1),
        );
        reference_read(sys, run.node, slice, in_bytes, refill_done).saturating_since(now)
    };
    let dma_in = dma_in.max(clock.cycles(in_bytes.div_ceil(64)));

    let dma_out = if out_bytes > 0 {
        let done = reference_write(sys, run.node, slice, out_bytes, now);
        done.saturating_since(now)
            .max(clock.cycles(out_bytes.div_ceil(64)))
    } else {
        SimDuration::ZERO
    };

    let mut step = sa_time.max(dma_in).max(dma_out);
    if run.first_step {
        step += dma_in;
        run.first_step = false;
    }
    let unmapped = run.unmapped_stall;
    run.unmapped_stall = SimDuration::ZERO;
    step + run.step_stall + unmapped
}

/// A transfer size: zero, a few bytes, or up to a few tiles' worth, often
/// not a multiple of the fanout.
fn draw_bytes(rng: &mut TestRng) -> u64 {
    match rng.next_below(4) {
        0 => 0,
        1 => rng.next_below(100),
        2 => 64 * rng.next_below(2_000),
        _ => rng.next_below(400_000),
    }
}

/// A request time in a window narrow enough that transfers overlap.
fn draw_now(rng: &mut TestRng) -> SimTime {
    SimTime::from_ps(rng.next_below(20_000_000))
}

/// A tile class: one of the run's few shapes, so plans are both reused
/// and rebuilt.
fn draw_step(rng: &mut TestRng, classes: &[(u64, u64, u64)]) -> (BlockPass, Tile) {
    let (rows, cols, depth) = classes[rng.next_below(classes.len() as u64) as usize];
    let pass = BlockPass {
        ib: 0,
        jb: 0,
        kb: 0,
        row0: 0,
        col0: 0,
        k0: 0,
        rows: rows + rng.next_below(1_024),
        cols: cols + rng.next_below(1_024),
        depth,
        first_k: rng.next_below(2) == 0,
        last_k: rng.next_below(2) == 0,
    };
    let tile = Tile {
        row0: 0,
        col0: 0,
        rows,
        cols,
    };
    (pass, tile)
}

fn assert_same_state(a: &MacoSystem, b: &MacoSystem, op: usize) {
    assert!(a.fabric == b.fabric, "op {op}: mesh links differ");
    assert!(a.ccms == b.ccms, "op {op}: CCM slices differ");
    assert!(a.dram == b.dram, "op {op}: DRAM channels differ");
}

proptest! {
    #[test]
    fn planned_pricing_matches_per_send_pricing(
        mesh in (1u8..5, 1u8..5, 0usize..3),
        l3 in (0usize..64, 1usize..40, 1usize..45),
        mode in (0usize..2, 0usize..4),
        seed in 0u64..u64::MAX,
    ) {
        let (cols, rows, order) = mesh;
        let (node_draw, slices, fanout) = l3;
        let (stash_lock, precision) = mode;
        let shape = maco_noc::topology::MeshShape::new(cols, rows);
        let mut config = SystemConfig {
            nodes: 1 + node_draw % shape.node_count(),
            ccm_fanout: fanout,
            stash_lock: stash_lock == 1,
            tile_order: TileOrder::ALL[order],
            ..SystemConfig::default()
        };
        config.fabric.shape = shape;
        config.l3.slices = slices;
        let mut planned = MacoSystem::new(config.clone());
        let mut reference = MacoSystem::new(config.clone());

        let precision = Precision::ALL[precision];
        let params = GemmParams::new(A_BASE, B_BASE, C_BASE, Y_BASE, 64, 64, 64, precision)
            .expect("valid shape");
        let mut rng = TestRng::new(seed);
        let t = config.mmae.tiling;
        let classes: Vec<(u64, u64, u64)> = (0..3)
            .map(|_| {
                (
                    1 + rng.next_below(t.ttr),
                    1 + rng.next_below(t.ttc),
                    1 + rng.next_below(3 * t.ttk),
                )
            })
            .collect();
        let new_run = |node| GemmRun::new(node, 0, params, &config, SimTime::ZERO);
        let mut runs: Vec<(GemmRun, GemmRun)> =
            (0..config.nodes).map(|n| (new_run(n), new_run(n))).collect();

        for op in 0..48 {
            let node = rng.next_below(config.nodes as u64) as usize;
            let now = draw_now(&mut rng);
            match rng.next_below(4) {
                0 | 1 => {
                    let slice = rng.next_below(slices as u64) as usize;
                    let bytes = draw_bytes(&mut rng);
                    let shard = planned.shard(bytes);
                    let (a, b) = if op % 2 == 0 {
                        (
                            planned.price_l3_read(node, slice, &shard, now),
                            reference_read(&mut reference, node, slice, bytes, now),
                        )
                    } else {
                        (
                            planned.price_l3_write(node, slice, &shard, now),
                            reference_write(&mut reference, node, slice, bytes, now),
                        )
                    };
                    prop_assert_eq!(a, b, "op {}: transfer completion", op);
                }
                2 => {
                    let (pass, tile) = draw_step(&mut rng, &classes);
                    let step_counter = rng.next_below(1_000);
                    let first_step = rng.next_below(2) == 0;
                    let step_stall = SimDuration::from_ps(rng.next_below(5_000));
                    // Pass entry sets Baseline-2's miss fraction; the
                    // reference recomputes it on every step.
                    let miss_fraction = planned.unmapped_miss_fraction(&pass, params.elem_bytes());
                    let (run_a, run_b) = &mut runs[node];
                    for run in [&mut *run_a, &mut *run_b] {
                        run.miss_fraction = miss_fraction;
                        run.now = now;
                        run.step_counter = step_counter;
                        run.slice = (step_counter as usize + node) % slices;
                        run.first_step = first_step;
                        run.step_stall = step_stall;
                    }
                    let a = planned.price_tile_step(run_a, &pass, &tile);
                    let b = reference_step(&mut reference, run_b, &pass, &tile);
                    prop_assert_eq!(a, b, "op {}: step duration", op);
                    prop_assert_eq!(run_a.sa_busy, run_b.sa_busy);
                    prop_assert_eq!(run_a.dma_bytes, run_b.dma_bytes);
                    prop_assert_eq!(run_a.first_step, run_b.first_step);
                    prop_assert_eq!(run_a.unmapped_stall, run_b.unmapped_stall);
                }
                _ => {
                    // Stash traffic shares the DRAM channels and mesh links.
                    let bytes = draw_bytes(&mut rng);
                    let a = planned.price_stash(&runs[node].0, bytes, now);
                    let b = reference.price_stash(&runs[node].1, bytes, now);
                    prop_assert_eq!(a, b, "op {}: stash completion", op);
                }
            }
            assert_same_state(&planned, &reference, op);
        }
    }
}
