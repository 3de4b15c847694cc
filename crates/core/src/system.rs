//! The full-system timing simulator.
//!
//! Runs 1–16 compute nodes concurrently over the shared resources of
//! Section III.A: the mesh fabric (per-link bandwidth), the CCM slices
//! (lookup latency + L3 service occupancy, with no coherence directory)
//! and the DRAM channels. Nodes advance tile-step by tile-step through a
//! global event loop in simulated-time order, so contention between nodes
//! emerges from resource queuing — this is the machinery behind Fig. 6
//! (translation prediction), Fig. 7 (scalability) and Fig. 8 (DNN
//! throughput).
//!
//! `MacoSystem::price_tile_step` is the simulator's one GEMM timing
//! model: every runner, the serving layer, the fleet and the standalone
//! [`ComputeNode`](crate::node::ComputeNode) price their tiles through it.

use std::fmt;

use maco_cpu::core::CpuCore;
use maco_cpu::CpuConfig;
use maco_isa::mtq::{Maid, MtqError};
use maco_isa::params::GemmParams;
use maco_isa::stq::{SlaveTaskQueue, StqError, TaskKind};
use maco_isa::{Asid, ExceptionType, Precision};
use maco_mem::dram::{Dram, DramConfig};
use maco_mem::l3::L3Config;
use maco_mmae::config::MmaeConfig;
use maco_mmae::engine::TASK_ISSUE_CYCLES;
use maco_mmae::tiling::{block_passes, tiles_into, BlockPass, Tile};
use maco_mmae::translate::{PassKey, StreamTranslation, TranslationContext, TranslationMemo};
use maco_mmae::Mmae;
use maco_noc::fabric::{FabricConfig, MeshFabric};
use maco_noc::sfc::TileOrder;
use maco_noc::topology::NodeId;
use maco_sim::{FxHashMap, LatencyBandwidthResource, SimDuration, SimTime, Stats};
use maco_vm::page_table::{AddressSpace, PageFlags, TranslateFault};
use maco_vm::{PhysAddr, VirtAddr, PAGE_SIZE};

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Active compute nodes (1..=16), placed on the mesh in the order
    /// [`SystemConfig::tile_order`] dictates (row-major by default).
    pub nodes: usize,
    /// Per-node MMAE configuration.
    pub mmae: MmaeConfig,
    /// Per-node CPU configuration.
    pub cpu: CpuConfig,
    /// Distributed L3 configuration.
    pub l3: L3Config,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Mesh fabric configuration.
    pub fabric: FabricConfig,
    /// Fixed CCM lookup latency (directory + tag pipeline).
    pub ccm_latency: SimDuration,
    /// CCM service bandwidth per slice in GB/s — the occupancy of moving
    /// lines through a slice. This is the shared-resource knee behind the
    /// Fig. 7 multi-node loss.
    pub ccm_gbps: f64,
    /// How many slices one tile transfer spreads across (line interleave
    /// means real transfers touch every slice; the simulator aggregates to
    /// this fan-out per step for tractability).
    pub ccm_fanout: usize,
    /// Predictive address translation (Fig. 6 "with prediction").
    pub prediction: bool,
    /// GEMM⁺ stash & lock mapping scheme (Section IV.B); disabling it
    /// reproduces Fig. 8's Baseline-2.
    pub stash_lock: bool,
    /// Per-level page-walk read latency (table nodes hit the cache
    /// hierarchy).
    pub walk_read: SimDuration,
    /// Outstanding demand misses the DMA engines sustain without the
    /// stash prefetch pipeline (MSHR depth). Bounds how much DRAM latency
    /// Baseline-2 can hide.
    pub dma_mshr: u64,
    /// Cross-node translation mirroring (wall-clock optimisation, on by
    /// default; demand translation only). Predictive translation is
    /// closed-form and touches no sTLB or walker state, so with
    /// [`SystemConfig::prediction`] on there is nothing to mirror and this
    /// flag has no effect. Without prediction, when several nodes have
    /// replayed *identical* pass translation histories — every node
    /// running the same independent GEMM — the exact page-stream
    /// simulation of a pass is performed once and its outcome (stream
    /// counters plus the resulting sTLB/walker state, retagged per ASID)
    /// transplanted to the other nodes. The mirror is cost-gated: only a
    /// pass whose exact replay costs more host time than transplanting
    /// the whole sTLB (its page touches weighed against the sTLB
    /// capacity) is recorded, so small passes are simply replayed.
    /// Simulated results are bit-identical either way; `false` forces
    /// every node to replay every stream (the equivalence tests run both).
    pub translation_mirror: bool,
    /// How logical node indices map onto mesh positions.
    /// [`TileOrder::Row`] (the default) reproduces the historical
    /// row-major assignment bit for bit; Morton/Hilbert pack active
    /// nodes into mesh-compact blocks so partial meshes (< 16 nodes)
    /// cross fewer links per CCM access (communication-avoiding
    /// placement — see `noc.hop_flits` in the stats snapshot).
    pub tile_order: TileOrder,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            nodes: 16,
            mmae: MmaeConfig::default(),
            cpu: CpuConfig::default(),
            l3: L3Config::default(),
            dram: DramConfig::default(),
            fabric: FabricConfig::default(),
            ccm_latency: SimDuration::from_ns(20),
            ccm_gbps: 20.0,
            ccm_fanout: 4,
            prediction: true,
            stash_lock: true,
            // ~4 CPU cycles per level: hot table nodes live in the L1/L2
            // caches during a GEMM. Calibrated so the Fig. 6 gap magnitudes
            // land on the paper's annotations (see EXPERIMENTS.md).
            walk_read: SimDuration::from_ps(1_550),
            dma_mshr: 4,
            translation_mirror: true,
            tile_order: TileOrder::Row,
        }
    }
}

impl SystemConfig {
    /// A single-node configuration (Fig. 6 experiments).
    pub fn single_node() -> Self {
        SystemConfig {
            nodes: 1,
            ..SystemConfig::default()
        }
    }
}

/// Per-node result of a system run.
#[derive(Debug, Clone, Copy)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Task duration on this node.
    pub elapsed: SimDuration,
    /// Floating-point operations retired.
    pub flops: u64,
    /// Peak GFLOPS of the node's engine at the task precision.
    pub peak_gflops: f64,
    /// Translation statistics.
    pub translation: StreamTranslation,
    /// DMA bytes moved.
    pub dma_bytes: u64,
}

impl NodeReport {
    /// Achieved GFLOPS.
    pub fn gflops(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.flops as f64 / self.elapsed.as_ns()
        }
    }

    /// Computational efficiency (Fig. 6/7 y-axis).
    pub fn efficiency(&self) -> f64 {
        self.gflops() / self.peak_gflops
    }
}

/// Whole-system result.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Per-node reports.
    pub nodes: Vec<NodeReport>,
    /// Time until the last node finished.
    pub makespan: SimDuration,
    /// Mean mesh-link utilisation over the makespan.
    pub mean_link_utilization: f64,
    /// Peak mesh-link utilisation over the makespan.
    pub max_link_utilization: f64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
}

impl SystemReport {
    /// Average per-node computational efficiency (Fig. 7 y-axis).
    pub fn avg_efficiency(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.efficiency()).sum::<f64>() / self.nodes.len() as f64
    }

    /// Aggregate achieved throughput in GFLOPS (Fig. 8 y-axis): total
    /// flops over the makespan.
    pub fn total_gflops(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        let flops: u64 = self.nodes.iter().map(|n| n.flops).sum();
        flops as f64 / self.makespan.as_ns()
    }
}

/// Matrix base virtual addresses used by system-managed GEMM tasks.
const A_BASE: u64 = 0x1_0000_0000;
const B_BASE: u64 = 0x2_0000_0000;
const C_BASE: u64 = 0x3_0000_0000;
const Y_BASE: u64 = 0x4_0000_0000;
/// Physical frame pool for system-managed mappings.
const FRAME_BASE: u64 = 0x10_0000_0000;
/// Cache-line size in bytes.
pub(crate) const LINE_BYTES: u64 = 64;

struct NodeState {
    cpu: CpuCore,
    mmae: Mmae,
    stq: SlaveTaskQueue,
    asid: Asid,
    pos: NodeId,
}

/// The MACO system.
pub struct MacoSystem {
    config: SystemConfig,
    fabric: MeshFabric,
    ccms: Vec<LatencyBandwidthResource>,
    dram: Dram,
    space: AddressSpace,
    mapped: FxHashMap<u64, u64>, // region base → mapped bytes
    nodes: Vec<NodeState>,
    next_frame: u64,
    /// Mesh position of each L3 slice's CCM, precomputed (resolved several
    /// times per tile step).
    slice_positions: Vec<NodeId>,
    /// Cross-node translation mirror (see
    /// [`MacoSystem::translate_pass_mirrored`]).
    mirror: TranslationMirror,
    /// Pass-translation work counters (`xlate.*` in the stats snapshot).
    passes: PassCounters,
}

impl MacoSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the mesh capacity, or if the
    /// L3 has no slice (tile steps spread their traffic over the slices).
    pub fn new(config: SystemConfig) -> Self {
        assert!(config.nodes >= 1, "need at least one compute node");
        assert!(config.l3.slices >= 1, "the L3 needs at least one slice");
        assert!(
            config.nodes <= config.fabric.shape.node_count(),
            "more nodes than mesh positions"
        );
        let slices = config.l3.slices;
        // `TileOrder::Row` here is `shape.node_at(i)` bit for bit, so the
        // default placement (and every pinned fingerprint) is unchanged.
        let placement = config.tile_order.ordering(config.fabric.shape);
        let nodes = (0..config.nodes)
            .map(|i| NodeState {
                cpu: CpuCore::new(config.cpu),
                mmae: Mmae::new(config.mmae),
                stq: SlaveTaskQueue::new(config.mmae.stq_entries),
                asid: Asid::new(i as u16 + 1),
                pos: placement[i],
            })
            .collect();
        let count = config.fabric.shape.node_count();
        MacoSystem {
            fabric: MeshFabric::new(config.fabric),
            ccms: (0..slices)
                .map(|_| LatencyBandwidthResource::new(config.ccm_latency, config.ccm_gbps))
                .collect(),
            dram: Dram::new(config.dram),
            space: AddressSpace::new(),
            mapped: FxHashMap::default(),
            nodes,
            next_frame: FRAME_BASE,
            slice_positions: (0..slices)
                .map(|s| config.fabric.shape.node_at(s % count))
                .collect(),
            mirror: TranslationMirror {
                history: vec![Some(0); config.nodes],
                cache: FxHashMap::default(),
            },
            passes: PassCounters::default(),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of active compute nodes.
    pub fn node_count(&self) -> usize {
        self.config.nodes
    }

    /// Read access to a node's CPU (MTQ inspection in tests/examples).
    pub fn cpu(&self, node: usize) -> &CpuCore {
        &self.nodes[node].cpu
    }

    /// Write access to a node's CPU, for the software side of the MPAIS
    /// protocol (`MA_STATE`, `MA_CLEAR`).
    pub(crate) fn cpu_mut(&mut self, node: usize) -> &mut CpuCore {
        &mut self.nodes[node].cpu
    }

    /// Read access to a node's slave task queue (occupancy inspection).
    pub fn stq(&self, node: usize) -> &SlaveTaskQueue {
        &self.nodes[node].stq
    }

    /// The ASID the system assigned to a node's resident context.
    pub fn node_asid(&self, node: usize) -> Asid {
        self.nodes[node].asid
    }

    /// A read-only counter snapshot of the shared resources and per-node
    /// translation machinery, for the telemetry layer. Counters only (no
    /// gauges), so snapshots from different machines — or successive
    /// incarnations of one machine — merge by plain addition via
    /// [`Stats::merge`]. Reading the snapshot never perturbs simulation
    /// state.
    ///
    /// `stlb.*` counts lookups (hits plus misses) and misses.
    /// Predictive translation is closed-form and never consults the sTLB,
    /// so `stlb.*` counts demand-mode traffic only.
    ///
    /// The `xlate.*` entries count block passes by how their translation
    /// was obtained — computed exactly, served from a run's memo, or
    /// transplanted by the cross-node mirror — plus the sTLB snapshots the
    /// mirror recorded. They measure host-side work only: mirror on and
    /// off give different counts for bit-identical results, so they are
    /// never folded into a fingerprint.
    pub fn stats_snapshot(&self) -> Stats {
        let mut s = Stats::new();
        let mut stlb = (0u64, 0u64);
        let mut instructions = 0u64;
        for node in &self.nodes {
            let (sh, sm) = node.cpu.mmu().stlb_stats();
            stlb = (stlb.0 + sh + sm, stlb.1 + sm);
            instructions += node.cpu.instructions_issued();
        }
        s.add("cpu.instructions", instructions);
        s.add("stlb.lookups", stlb.0);
        s.add("stlb.misses", stlb.1);
        s.add("dram.accesses", self.dram.accesses());
        s.add("dram.bytes", self.dram.bytes());
        s.add("noc.sends", self.fabric.sends());
        s.add("noc.bytes", self.fabric.bytes());
        s.add("noc.hop_flits", self.fabric.hop_flits());
        s.add(
            "ccm.bytes",
            self.ccms
                .iter()
                .map(|c| c.bandwidth().bytes_transferred())
                .sum(),
        );
        s.add(
            "ccm.busy_ns",
            self.ccms
                .iter()
                .map(|c| c.bandwidth().busy_time().as_fs() / maco_sim::time::FS_PER_NS)
                .sum(),
        );
        s.add("xlate.passes_exact", self.passes.exact);
        s.add("xlate.passes_memo", self.passes.memo);
        s.add("xlate.passes_mirrored", self.passes.mirrored);
        s.add("xlate.mirror_snapshots", self.passes.snapshots);
        s
    }

    /// Ensures `[base, base+bytes)` is mapped in the shared layout: a
    /// region grows from `base` and is never remapped.
    pub(crate) fn ensure_mapped(&mut self, base: u64, bytes: u64) -> Result<(), TranslateFault> {
        let have = self.mapped.get(&base).copied().unwrap_or(0);
        if bytes <= have {
            return Ok(());
        }
        let start = base + have;
        let extra = (bytes - have).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.space.map_range(
            VirtAddr::new(start),
            PhysAddr::new(self.next_frame),
            extra,
            PageFlags::rw(),
        )?;
        self.next_frame += extra;
        self.mapped.insert(base, have + extra);
        Ok(())
    }

    /// Builds the GEMM descriptor for an `m×n×k` task in the shared layout.
    fn build_params(
        &mut self,
        m: u64,
        n: u64,
        k: u64,
        precision: Precision,
    ) -> Result<GemmParams, TranslateFault> {
        let e = precision.bytes();
        self.ensure_mapped(A_BASE, m * k * e)?;
        self.ensure_mapped(B_BASE, k * n * e)?;
        self.ensure_mapped(C_BASE, m * n * e)?;
        self.ensure_mapped(Y_BASE, m * n * e)?;
        Ok(
            GemmParams::new(A_BASE, B_BASE, C_BASE, Y_BASE, m, n, k, precision)
                .expect("validated dimensions"),
        )
    }

    /// Maps (growing the shared layout as needed) and returns the GEMM
    /// descriptor for an `m×n×k` task — the public entry point external
    /// schedulers use before [`MacoSystem::begin_gemm`].
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateFault`]s (mapping failures).
    pub fn map_gemm(
        &mut self,
        m: u64,
        n: u64,
        k: u64,
        precision: Precision,
    ) -> Result<GemmParams, TranslateFault> {
        self.build_params(m, n, k, precision)
    }

    /// Resets the shared resources (mesh fabric, CCM slices, DRAM) to the
    /// start of a fresh simulated episode. [`MacoSystem::run_parallel_gemm`]
    /// and friends do this implicitly; external schedulers driving the
    /// reentrant [`MacoSystem::begin_gemm`]/[`MacoSystem::step_gemm`] API
    /// call it once per serving episode.
    pub fn reset_shared_resources(&mut self) {
        self.fabric.reset();
        self.dram.reset();
        for ccm in &mut self.ccms {
            ccm.reset();
        }
    }

    /// Starts one GEMM task on `node` at simulated time `at`, on behalf of
    /// the process `asid`: the full MPAIS round trip (`MA_CFG` on the CPU,
    /// STQ submission) followed by task issue, exactly as the closed-loop
    /// runners do. The returned [`InFlightGemm`] is stepped to completion
    /// with [`MacoSystem::step_gemm`] — external schedulers interleave many
    /// of these on the shared timeline by always stepping the task with the
    /// minimum `(now, tiebreak)` key.
    ///
    /// The pass translations are tagged with the node's resident context
    /// (the shared layout means a hit is valid across tenants); the MTQ
    /// entry carries `asid`, so per-tenant occupancy accounting and the
    /// Fig. 3 protocol observe the submitting process.
    ///
    /// ```
    /// use maco_core::system::{MacoSystem, SystemConfig};
    /// use maco_isa::Precision;
    /// use maco_sim::SimTime;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut sys = MacoSystem::new(SystemConfig { nodes: 2, ..SystemConfig::default() });
    /// sys.reset_shared_resources();
    /// let params = sys.map_gemm(256, 256, 256, Precision::Fp64)?;
    /// let asid = sys.node_asid(0);
    /// let mut task = sys.begin_gemm(0, asid, params, SimTime::ZERO)?;
    /// let report = loop {
    ///     if let Some(report) = sys.step_gemm(&mut task)? {
    ///         break report;
    ///     }
    /// };
    /// assert!(task.is_done());
    /// assert_eq!(report.flops, 2 * 256 * 256 * 256);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TaskAdmitError`] when the node's MTQ or STQ has no free
    /// entry (software would retry) or the parameter block is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an active compute node.
    pub fn begin_gemm(
        &mut self,
        node: usize,
        asid: Asid,
        params: GemmParams,
        at: SimTime,
    ) -> Result<InFlightGemm, TaskAdmitError> {
        assert!(node < self.config.nodes, "node {node} is not active");
        let state = &mut self.nodes[node];
        let (maid, issue) = state.cpu.issue_ma_cfg(asid).map_err(TaskAdmitError::Mtq)?;
        match state.stq.submit(maid, TaskKind::Gemm, &params.pack()) {
            Ok(None) => {}
            Ok(Some(resp)) => {
                // Parse rejection: the STQ responds straight to the MTQ
                // entry, which then holds the exception until MA_CLEAR.
                state
                    .cpu
                    .mmae_response(resp.maid, resp.exception)
                    .expect("entry was just allocated");
                return Err(TaskAdmitError::Rejected(maid));
            }
            Err(e) => {
                // Roll the MTQ allocation back; the caller retries later.
                state.cpu.mtq_mut().clear(maid).expect("entry exists");
                return Err(TaskAdmitError::Stq(e));
            }
        }
        let t0 = at + issue + self.config.mmae.clock.cycles(TASK_ISSUE_CYCLES);
        Ok(InFlightGemm {
            run: GemmRun::new(node, maid.index(), params, &self.config, t0),
            asid,
            done: false,
        })
    }

    /// Advances one tile step of an in-flight task. On completion the MPAIS
    /// response cycle runs (STQ → MTQ → `MA_STATE` release, Fig. 3 state ②)
    /// and the final [`NodeReport`] is returned; the task must not be
    /// stepped again afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateFault`]s raised by the pass translation. The
    /// task is then finished through the Fig. 3 exception path: its MTQ
    /// entry holds [`ExceptionType::TranslationFault`] until `MA_CLEAR`.
    pub fn step_gemm(
        &mut self,
        task: &mut InFlightGemm,
    ) -> Result<Option<NodeReport>, TranslateFault> {
        let report = self.execute_step(task)?;
        if report.is_some() {
            // Software polls MA_STATE, observes Done and releases the
            // entry (Fig. 3 state ②).
            self.nodes[task.run.node]
                .cpu
                .issue_ma_state(Maid::new(task.run.maid), task.asid)
                .expect("entry exists");
        }
        Ok(report)
    }

    /// [`MacoSystem::step_gemm`] up to the MMAE's response: a finished
    /// task's STQ slot completes (with [`ExceptionType::TranslationFault`]
    /// on a fault) and the MTQ entry turns `Done`, left for the caller's
    /// `MA_STATE` or `MA_CLEAR`.
    pub(crate) fn execute_step(
        &mut self,
        task: &mut InFlightGemm,
    ) -> Result<Option<NodeReport>, TranslateFault> {
        debug_assert!(!task.done, "stepping a completed task");
        let result = self.advance_step(&mut task.run);
        let exception = match result {
            Ok(None) => return result,
            Ok(Some(_)) => None,
            Err(_) => Some(ExceptionType::TranslationFault),
        };
        let node = &mut self.nodes[task.run.node];
        let resp = node
            .stq
            .complete_active(exception)
            .expect("task was active");
        debug_assert_eq!(resp.maid.index(), task.run.maid);
        node.cpu
            .mmae_response(resp.maid, resp.exception)
            .expect("running");
        task.done = true;
        result
    }

    /// Runs the same independent `m×n×k` GEMM on every active node
    /// concurrently — the Fig. 7 experiment ("Each compute node was
    /// assigned an independent GEMM workload, with no inter-node
    /// interaction"). With one node this is the Fig. 6 configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateFault`]s (mapping failures).
    pub fn run_parallel_gemm(
        &mut self,
        m: u64,
        n: u64,
        k: u64,
        precision: Precision,
    ) -> Result<SystemReport, TranslateFault> {
        let params = self.build_params(m, n, k, precision)?;
        let shapes: Vec<GemmParams> = vec![params; self.config.nodes];
        self.run_tasks(&shapes)
    }

    /// Runs a *different* GEMM per node concurrently (the multi-node
    /// partitioned mapping of Fig. 5(a) uses this with per-node column
    /// slices).
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateFault`]s (mapping failures).
    pub fn run_partitioned_gemm(
        &mut self,
        shapes: &[(u64, u64, u64)],
        precision: Precision,
    ) -> Result<SystemReport, TranslateFault> {
        assert!(
            shapes.len() <= self.config.nodes,
            "more partitions than nodes"
        );
        let mut params = Vec::with_capacity(shapes.len());
        for &(m, n, k) in shapes {
            params.push(self.build_params(m, n, k, precision)?);
        }
        self.run_tasks(&params)
    }

    /// The shared event loop: one GEMM task per entry of `tasks`, assigned
    /// to nodes 0..tasks.len(), advanced tile-step by tile-step in global
    /// time order.
    fn run_tasks(&mut self, tasks: &[GemmParams]) -> Result<SystemReport, TranslateFault> {
        assert!(!tasks.is_empty());
        let start = SimTime::ZERO;
        self.reset_shared_resources();

        let mut runs: Vec<InFlightGemm> = Vec::with_capacity(tasks.len());
        for (i, params) in tasks.iter().enumerate() {
            let asid = self.nodes[i].asid;
            runs.push(
                self.begin_gemm(i, asid, *params, start)
                    .expect("fresh queues have room"),
            );
        }

        // The event "heap": per-run next-event times, selected by linear
        // scan. Runs number at most 16, so scanning beats a binary heap's
        // sift traffic — and computing the runner-up during the same scan
        // gives the batching bound below for free. Selection order is the
        // heap's exactly: minimum `(time, node)`, a total order because
        // node indices are unique.
        let mut pending: Vec<Option<SimTime>> = runs.iter().map(|r| Some(r.now())).collect();
        let mut remaining = pending.len();
        let mut reports: Vec<Option<NodeReport>> = vec![None; tasks.len()];

        while remaining > 0 {
            let mut best: Option<(SimTime, usize)> = None;
            let mut runner_up: Option<(SimTime, usize)> = None;
            for (i, t) in pending.iter().enumerate() {
                if let Some(t) = *t {
                    let key = (t, i);
                    if best.is_none_or(|b| key < b) {
                        runner_up = best;
                        best = Some(key);
                    } else if runner_up.is_none_or(|r| key < r) {
                        runner_up = Some(key);
                    }
                }
            }
            let (_, ni) = best.expect("remaining > 0");
            // Batch contiguous steps of the selected run: as long as its
            // clock stays at or below the runner-up event, the next
            // selection would return it again, so advancing it inline is
            // *exactly* the original select-advance-reselect sequence
            // minus the scheduling traffic — simulated times are
            // bit-identical. With one node (or nodes spread out in time)
            // the scheduler runs once per whole phase instead of once per
            // tile step.
            let finished = loop {
                match self.step_gemm(&mut runs[ni])? {
                    Some(report) => break Some(report),
                    None => {
                        if let Some(r) = runner_up {
                            if (runs[ni].now(), ni) > r {
                                break None;
                            }
                        }
                    }
                }
            };
            match finished {
                Some(report) => {
                    reports[ni] = Some(report);
                    pending[ni] = None;
                    remaining -= 1;
                }
                None => pending[ni] = Some(runs[ni].now()),
            }
        }

        let nodes: Vec<NodeReport> = reports.into_iter().map(|r| r.expect("finished")).collect();
        let makespan = nodes
            .iter()
            .map(|n| n.elapsed)
            .max()
            .unwrap_or(SimDuration::ZERO);
        Ok(SystemReport {
            mean_link_utilization: self.fabric.mean_link_utilization(makespan),
            max_link_utilization: self.fabric.max_link_utilization(makespan),
            dram_bytes: self.dram.bytes(),
            nodes,
            makespan,
        })
    }

    /// Advances one tile step of `run`; returns the final report when the
    /// task completes.
    fn advance_step(&mut self, run: &mut GemmRun) -> Result<Option<NodeReport>, TranslateFault> {
        if run.pass_idx >= run.passes.len() {
            return Ok(Some(run.report()));
        }

        // Pass entry: wait for stash residency, translate the pass, kick
        // off the next pass's stash.
        if run.tile_idx == 0 {
            let pass = run.passes[run.pass_idx];
            if self.config.stash_lock {
                // The first pass's blocks are stashed at task start. The
                // DMA consumes the stash front cut-through, so only the
                // first tile's share of the stream is exposed; the rest
                // still occupies DRAM (and delays later stashes).
                if run.pass_idx == 0 {
                    let t = self.config.mmae.tiling;
                    let e = run.params.elem_bytes();
                    let bytes = pass.rows * pass.depth * e + pass.depth * pass.cols * e;
                    let steps = (pass.rows.div_ceil(t.ttr) * pass.cols.div_ceil(t.ttc)).max(1);
                    let first_share = bytes / steps;
                    run.stash_ready = self.price_stash(run, first_share, run.now);
                    if bytes > first_share {
                        let _ = self.price_stash(run, bytes - first_share, run.now);
                    }
                }
                run.now = run.now.max(run.stash_ready);
                // Prefetch the *next* pass's blocks while this one computes.
                if let Some(next) = run.passes.get(run.pass_idx + 1).copied() {
                    let e = run.params.elem_bytes();
                    let bytes = next.rows * next.depth * e + next.depth * next.cols * e;
                    run.stash_ready = self.price_stash(run, bytes, run.now);
                }
            }
            let key = PassKey::of(&pass);
            let pass_tr = match run.memo.cached(key) {
                Some(c) => {
                    self.passes.memo += 1;
                    c
                }
                None => {
                    let c = self.translate_pass_mirrored(run, &pass)?;
                    run.memo.record(key, c);
                    c
                }
            };
            run.translation.merge(&pass_tr);
            tiles_into(&pass, &self.config.mmae.tiling, &mut run.tiles);
            run.step_stall =
                SimDuration::from_fs(pass_tr.stall.as_fs() / run.tiles.len().max(1) as u64);
            run.first_step = true;
        }

        let pass = run.passes[run.pass_idx];
        let tile = run.tiles[run.tile_idx];
        let step = self.price_tile_step(run, &pass, &tile);
        run.now += step;

        run.tile_idx += 1;
        run.step_counter += 1;
        if run.tile_idx == run.tiles.len() {
            run.tile_idx = 0;
            run.pass_idx += 1;
            if run.pass_idx == run.passes.len() {
                return Ok(Some(run.report()));
            }
        }
        Ok(None)
    }

    /// Cost of one tile step: SA sweep overlapped with DMA in/out plus the
    /// serialised translation stall.
    fn price_tile_step(&mut self, run: &mut GemmRun, pass: &BlockPass, tile: &Tile) -> SimDuration {
        let t = self.config.mmae.tiling;
        let clock = self.config.mmae.clock;
        let e = run.params.elem_bytes();
        let precision = run.params.precision;
        let now = run.now;

        // SA time over the reduction sweep. Consecutive tiles of a pass
        // mostly share one shape (only the ragged edge differs), so the
        // sweep is computed once per distinct `(rows, cols, depth)` and
        // replayed from a one-entry cache — same arithmetic, same result.
        let sa_shape = (tile.rows, tile.cols, pass.depth);
        let sa_cycles = match run.sa_cycle_cache {
            Some((shape, cycles)) if shape == sa_shape => cycles,
            _ => {
                let lanes = self.config.mmae.lanes(precision);
                let mut cycles = 0u64;
                let mut k_left = pass.depth;
                while k_left > 0 {
                    let chunk = k_left.min(t.ttk);
                    cycles += self.nodes[run.node]
                        .mmae
                        .sa()
                        .tile_cycles_lanes(tile.rows, tile.cols, chunk, lanes);
                    k_left -= chunk;
                }
                run.sa_cycle_cache = Some((sa_shape, cycles));
                cycles
            }
        };
        let sa_time = clock.cycles(sa_cycles);
        run.sa_busy += sa_time;

        // DMA byte counts.
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

        // Shared-resource pricing. Each step's transfer fans out over a
        // rotating window of CCM slices (line interleave aggregated per
        // step).
        let slice = (run.step_counter as usize + run.node) % self.ccms.len();
        let dma_in = if self.config.stash_lock {
            let done = self.price_l3_read(run.node, slice, in_bytes, now);
            done.saturating_since(now)
        } else {
            // Baseline-2: streams miss the (unlocked, thrashed) L3 in
            // proportion to the footprint exceeding this node's share. The
            // missing portion refills from DRAM *through* the CCM — the
            // request still performs the directory lookup — so the step
            // pays DRAM + mesh on the miss share and then full CCM service.
            let miss = self.unmapped_miss_fraction(pass, e);
            let dram_bytes = (in_bytes as f64 * miss) as u64;
            let refill_done = if dram_bytes > 0 {
                let addr = PhysAddr::new(FRAME_BASE + run.step_counter * 4096);
                let d = self.dram.access_bulk(addr, dram_bytes, now);
                let mc = self.memory_controller_pos(run.node);
                let home = self.slice_pos(slice);
                self.fabric.send_bulk(mc, home, dram_bytes, d)
            } else {
                now
            };
            // Demand misses expose DRAM latency: with no stash pipeline the
            // DMA overlaps at most `dma_mshr` line fills, so the stream
            // pays latency / MSHR per missing line — a serial stall the SA
            // cannot hide (recorded into the step below).
            let lines = dram_bytes / crate::system::LINE_BYTES;
            run.unmapped_stall = SimDuration::from_fs(
                self.config.dram.latency.as_fs() * lines / self.config.dma_mshr.max(1),
            );
            let done = self.price_l3_read(run.node, slice, in_bytes, refill_done);
            done.saturating_since(now)
        };
        let dma_in = dma_in.max(clock.cycles(in_bytes.div_ceil(64)));

        let dma_out = if out_bytes > 0 {
            let done = self.price_l3_write(run.node, slice, out_bytes, now);
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

    /// Read path: the transfer fans out over `ccm_fanout` slices starting
    /// at `slice`; each shard is a header to the CCM, slice occupancy, and
    /// data back to the node. Shards proceed in parallel; the slowest
    /// bounds the transfer.
    fn price_l3_read(&mut self, node: usize, slice: usize, bytes: u64, now: SimTime) -> SimTime {
        let np = self.nodes[node].pos;
        let fanout = self.config.ccm_fanout.min(self.ccms.len()).max(1);
        let shard = bytes.div_ceil(fanout as u64);
        let mut done = now;
        for j in 0..fanout {
            let s = (slice + j) % self.ccms.len();
            let cp = self.slice_pos(s);
            let req = self.fabric.send_control(np, cp, now);
            let srv = self.ccms[s].access(req, shard);
            done = done.max(self.fabric.send_bulk(cp, np, shard, srv));
        }
        done
    }

    /// Write path: data shards to the CCMs, occupancy, short acks back.
    fn price_l3_write(&mut self, node: usize, slice: usize, bytes: u64, now: SimTime) -> SimTime {
        let np = self.nodes[node].pos;
        let fanout = self.config.ccm_fanout.min(self.ccms.len()).max(1);
        let shard = bytes.div_ceil(fanout as u64);
        let mut done = now;
        for j in 0..fanout {
            let s = (slice + j) % self.ccms.len();
            let cp = self.slice_pos(s);
            let data = self.fabric.send_bulk(np, cp, shard, now);
            let srv = self.ccms[s].access(data, shard);
            done = done.max(self.fabric.send_control(cp, np, srv));
        }
        done
    }

    /// Stash pricing: DRAM bulk read plus the mesh hop from the memory
    /// controller into the L3 slices (aggregated as one transfer to the
    /// pass's home region).
    fn price_stash(&mut self, run: &GemmRun, bytes: u64, now: SimTime) -> SimTime {
        let addr = PhysAddr::new(FRAME_BASE + (run.pass_idx as u64) * (1 << 20));
        let d = self.dram.access_bulk(addr, bytes, now);
        let mc = self.memory_controller_pos(run.node);
        let home = self.slice_pos((run.pass_idx + run.node) % self.ccms.len());
        self.fabric.send_bulk(mc, home, bytes, d)
    }

    /// Estimated L3 miss fraction for unmapped (no stash/lock) streaming.
    ///
    /// Two components, the larger governs:
    /// * **compulsory** — the first touch of every A/B block byte in a pass
    ///   must come from DRAM regardless of cache size: the block bytes over
    ///   the pass's total (reuse-inflated) DMA traffic;
    /// * **capacity** — reuse hits survive only for the fraction of the
    ///   streaming footprint that fits this node's fair share of the L3.
    fn unmapped_miss_fraction(&self, pass: &BlockPass, elem: u64) -> f64 {
        let t = &self.config.mmae.tiling;
        let block_bytes = (pass.rows * pass.depth + pass.depth * pass.cols) * elem;
        let it = pass.rows.div_ceil(t.ttr);
        let jt = pass.cols.div_ceil(t.ttc);
        let traffic = it * jt * (t.ttr + t.ttc) * pass.depth * elem;
        let compulsory = block_bytes as f64 / traffic.max(1) as f64;
        let share = self.config.l3.total_bytes() as f64 / self.config.nodes as f64;
        let capacity = (1.0 - (share / block_bytes as f64)).clamp(0.0, 1.0);
        compulsory.max(capacity).clamp(0.0, 1.0)
    }

    /// Mesh position of an L3 slice's CCM (one per mesh node, Fig. 2).
    fn slice_pos(&self, slice: usize) -> NodeId {
        self.slice_positions[slice]
    }

    /// Mesh position of the memory controller a node's refills use (the
    /// paper attaches controllers to NoC nodes; we place four at the
    /// corners).
    fn memory_controller_pos(&self, node: usize) -> NodeId {
        let shape = self.config.fabric.shape;
        let corners = [
            NodeId::new(0, 0),
            NodeId::new(shape.cols - 1, 0),
            NodeId::new(0, shape.rows - 1),
            NodeId::new(shape.cols - 1, shape.rows - 1),
        ];
        corners[node % corners.len()]
    }

    /// Exact pass translation: closed-form with prediction, replayed
    /// through the node's MMU-shared TLB and walker without.
    fn translate_pass_for(
        &mut self,
        node: usize,
        params: &GemmParams,
        pass: &BlockPass,
    ) -> Result<StreamTranslation, TranslateFault> {
        self.passes.exact += 1;
        let prediction = self.config.prediction;
        let walk_read = self.config.walk_read;
        let state = &mut self.nodes[node];
        let asid = state.asid;
        let (stlb, walker) = state.cpu.mmu_mut().shared_parts_mut();
        let mut ctx = TranslationContext {
            asid,
            space: &self.space,
            stlb,
            walker,
            prediction,
            walk_read_latency: walk_read,
        };
        state.mmae.translate_pass(params, pass, &mut ctx)
    }

    /// Pass translation with cross-node mirroring (see
    /// [`SystemConfig::translation_mirror`]).
    ///
    /// The mirror serves demand translation only: predictive passes are
    /// closed-form and touch no MMU state, so they bypass it.
    ///
    /// Soundness rests on three invariants, each load-bearing:
    ///
    /// * **Isomorphic histories.** A node's sTLB and walker are touched
    ///   *only* by demand-mode `translate_pass_for` (the CPU's own L1 TLBs
    ///   are separate), so a chained hash over every `(params, pass)` a node
    ///   has translated fully determines its MMU state up to the ASID tag.
    ///   Two nodes with equal history hashes are isomorphic, and a
    ///   recorded post-state can be transplanted via
    ///   [`maco_vm::tlb::Tlb::clone_retagged`].
    /// * **Append-only space.** `MacoSystem` never remaps or unmaps; an
    ///   existing translation never changes. A recorded (successful) pass
    ///   outcome therefore stays valid even if the space has grown since.
    /// * **Fault poisoning.** A faulting pass mutates the MMU partially;
    ///   the node's history is poisoned (set to `None`) so it never
    ///   mirrors or seeds the cache again.
    ///
    /// The cost gate ([`mirror_pays`]) decides only which outcomes are
    /// *recorded*; every exactly replayed pass still chains its node's
    /// history, so none of the three invariants depends on it. A pass
    /// too cheap to record can never find an entry, so its lookup is a
    /// single missed hash probe and it is always replayed.
    fn translate_pass_mirrored(
        &mut self,
        run: &GemmRun,
        pass: &BlockPass,
    ) -> Result<StreamTranslation, TranslateFault> {
        let node = run.node;
        // Predictive translation leaves no MMU state to transplant.
        if !self.config.translation_mirror || self.config.prediction {
            return self.translate_pass_for(node, &run.params, pass);
        }
        let sig = mirror_signature(run.params_sig, pass);
        let history = self.mirror.history[node];
        if let Some(h) = history {
            if let Some(entry) = self.mirror.cache.get(&(h, sig)) {
                // Another node already replayed this exact stream from an
                // isomorphic state: transplant its outcome.
                let counters = entry.counters;
                let history_after = entry.history_after;
                let state = &mut self.nodes[node];
                let (stlb, walker) = state.cpu.mmu_mut().shared_parts_mut();
                *stlb = entry.stlb.clone_retagged(state.asid);
                *walker = entry.walker.clone();
                self.mirror.history[node] = Some(history_after);
                self.passes.mirrored += 1;
                return Ok(counters);
            }
        }
        match self.translate_pass_for(node, &run.params, pass) {
            Ok(counters) => {
                if let Some(h) = history {
                    let history_after = chain_history(h, sig);
                    self.mirror.history[node] = Some(history_after);
                    // Snapshots are recorded for every pass that pays for
                    // its transplant, whether or not another node shares
                    // hash `h` right now: a node still at an *ancestor*
                    // hash arrives at `h` later if it follows the same
                    // pass sequence, and in near-lockstep runs that is
                    // exactly when the entry gets hit. Dead snapshots
                    // (diverged histories) cost a bounded TLB clone each
                    // and are dropped by the cap below.
                    if self.config.nodes > 1
                        && mirror_pays(counters.pages, self.config.cpu.l2_tlb_entries)
                    {
                        // Bound the cache; clearing only costs re-simulation.
                        if self.mirror.cache.len() >= MIRROR_CACHE_CAP {
                            self.mirror.cache.clear();
                        }
                        let state = &mut self.nodes[node];
                        let (stlb, walker) = state.cpu.mmu_mut().shared_parts_mut();
                        let entry = MirrorEntry {
                            counters,
                            stlb: stlb.clone(),
                            walker: walker.clone(),
                            history_after,
                        };
                        self.mirror.cache.insert((h, sig), entry);
                        self.passes.snapshots += 1;
                    }
                }
                Ok(counters)
            }
            Err(fault) => {
                self.mirror.history[node] = None;
                Err(fault)
            }
        }
    }
}

/// Cap on retained mirror entries (each holds an sTLB snapshot).
const MIRROR_CACHE_CAP: usize = 64;

/// Break-even of the mirror: the host cost of replaying one page touch
/// exactly, in percent of the cost of transplanting one sTLB entry.
///
/// Measured by the `substrate` criterion benches on a 2-core Xeon host:
/// `tlb/clone_retagged_1024` (a full sTLB) takes 16.0 µs, ~15.6 ns per
/// entry, and `mmae/translate_pass_*` replays 24.6 ns per touch on a
/// 1024³ FP64 pass (8.07 ms, 327,680 touches) and 26.8 ns on a 64³ FP32
/// pass (0.43 µs, 16 touches). One touch therefore costs ~1.5 entries: on
/// the default 1024-entry sTLB a pass pays for its snapshot from 683
/// touches up. Charging the full capacity is an upper bound — a nearly
/// empty sTLB still clones in 4.1 µs (`tlb/clone_retagged_1024_live16`)
/// — so the gate errs towards replaying, which is never wrong.
const MIRROR_TOUCH_COST_PCT: u64 = 150;

/// Whether recording (and later transplanting) a pass outcome is cheaper
/// than replaying it: its `touches` exact page touches weighed against a
/// transplant of the whole `stlb_entries`-entry sTLB.
fn mirror_pays(touches: u64, stlb_entries: usize) -> bool {
    touches * MIRROR_TOUCH_COST_PCT >= stlb_entries as u64 * 100
}

/// Hash of a task's packed parameter block, the per-task half of
/// [`mirror_signature`] (computed once per [`GemmRun`]).
fn params_signature(params: &GemmParams) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = maco_sim::FxHasher::default();
    params.pack().hash(&mut h);
    h.finish()
}

/// ASID-independent signature of one pass translation's inputs.
fn mirror_signature(params_sig: u64, pass: &BlockPass) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = maco_sim::FxHasher::default();
    params_sig.hash(&mut h);
    (
        pass.row0, pass.col0, pass.k0, pass.rows, pass.cols, pass.depth,
    )
        .hash(&mut h);
    (pass.first_k, pass.last_k).hash(&mut h);
    h.finish()
}

/// Chains one pass signature onto a node's translation history hash.
fn chain_history(history: u64, sig: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = maco_sim::FxHasher::default();
    h.write_u64(history);
    h.write_u64(sig);
    h.finish()
}

/// Cross-node translation mirror state (see
/// [`MacoSystem::translate_pass_mirrored`]).
struct TranslationMirror {
    /// Per-node chained history hash; `None` = poisoned by a fault.
    history: Vec<Option<u64>>,
    /// `(history-before, pass signature)` → recorded outcome.
    cache: FxHashMap<(u64, u64), MirrorEntry>,
}

/// Pass-translation work counters; see [`MacoSystem::stats_snapshot`].
#[derive(Default)]
struct PassCounters {
    /// Passes computed exactly: in closed form with prediction, replayed
    /// page by page through a node's sTLB and walker without.
    exact: u64,
    /// Passes served from a run's [`TranslationMemo`].
    memo: u64,
    /// Passes transplanted from another node by the mirror.
    mirrored: u64,
    /// sTLB/walker snapshots the mirror recorded.
    snapshots: u64,
}

/// One recorded exact pass simulation.
struct MirrorEntry {
    counters: StreamTranslation,
    stlb: maco_vm::tlb::Tlb,
    walker: maco_vm::walker::PageTableWalker,
    history_after: u64,
}

/// Why a task could not be started on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskAdmitError {
    /// `MA_CFG` found no free MTQ entry; software retries later.
    Mtq(MtqError),
    /// The node's STQ had no room to buffer the task.
    Stq(StqError),
    /// The STQ rejected the parameter block; the MTQ entry holds the
    /// exception until `MA_CLEAR` (Fig. 3 state ④).
    Rejected(Maid),
}

impl fmt::Display for TaskAdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskAdmitError::Mtq(e) => write!(f, "MA_CFG refused: {e}"),
            TaskAdmitError::Stq(e) => write!(f, "STQ refused: {e}"),
            TaskAdmitError::Rejected(m) => write!(f, "parameters rejected, {m} holds exception"),
        }
    }
}

impl std::error::Error for TaskAdmitError {}

/// One GEMM task in flight on a node, begun via [`MacoSystem::begin_gemm`]
/// and advanced by [`MacoSystem::step_gemm`]. External schedulers hold many
/// of these and interleave their steps in global `(now, tiebreak)` order —
/// exactly the discipline the closed-loop runners use internally — so
/// multi-job co-simulation on the shared resources stays deterministic.
pub struct InFlightGemm {
    run: GemmRun,
    asid: Asid,
    done: bool,
}

impl InFlightGemm {
    /// The task's current position on the simulated timeline (its next
    /// event time while running; its completion time once done).
    pub fn now(&self) -> SimTime {
        self.run.now
    }

    /// The compute node executing the task.
    pub fn node(&self) -> usize {
        self.run.node
    }

    /// The submitting process.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The MTQ entry index (MAID) the task occupies on its node.
    pub fn maid(&self) -> u8 {
        self.run.maid
    }

    /// Whether the task has completed (stepping must stop).
    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// Per-node GEMM execution state.
struct GemmRun {
    node: usize,
    maid: u8,
    params: GemmParams,
    /// [`params_signature`] of `params`.
    params_sig: u64,
    passes: Vec<BlockPass>,
    tiles: Vec<Tile>,
    pass_idx: usize,
    tile_idx: usize,
    step_counter: u64,
    now: SimTime,
    start: SimTime,
    stash_ready: SimTime,
    step_stall: SimDuration,
    unmapped_stall: SimDuration,
    first_step: bool,
    sa_busy: SimDuration,
    translation: StreamTranslation,
    dma_bytes: u64,
    peak_gflops: f64,
    memo: TranslationMemo,
    /// One-entry SA-sweep cache: `(rows, cols, depth)` → cycles.
    sa_cycle_cache: Option<((u64, u64, u64), u64)>,
}

impl GemmRun {
    fn new(node: usize, maid: u8, params: GemmParams, config: &SystemConfig, t0: SimTime) -> Self {
        GemmRun {
            node,
            maid,
            passes: block_passes(params.m, params.n, params.k, &config.mmae.tiling),
            tiles: Vec::new(),
            pass_idx: 0,
            tile_idx: 0,
            step_counter: 0,
            now: t0,
            start: SimTime::ZERO,
            stash_ready: SimTime::ZERO,
            step_stall: SimDuration::ZERO,
            unmapped_stall: SimDuration::ZERO,
            first_step: true,
            sa_busy: SimDuration::ZERO,
            translation: StreamTranslation::default(),
            dma_bytes: 0,
            peak_gflops: config.mmae.peak_gflops(params.precision),
            memo: TranslationMemo::new(),
            sa_cycle_cache: None,
            params_sig: params_signature(&params),
            params,
        }
    }

    fn report(&self) -> NodeReport {
        NodeReport {
            node: self.node,
            elapsed: self.now.since(self.start),
            flops: self.params.flops(),
            peak_gflops: self.peak_gflops,
            translation: self.translation,
            dma_bytes: self.dma_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(nodes: usize) -> SystemConfig {
        SystemConfig {
            nodes,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn single_node_gemm_reports_sane_efficiency() {
        let mut sys = MacoSystem::new(small_config(1));
        let r = sys
            .run_parallel_gemm(512, 512, 512, Precision::Fp64)
            .unwrap();
        assert_eq!(r.nodes.len(), 1);
        let eff = r.nodes[0].efficiency();
        assert!((0.5..=1.0).contains(&eff), "efficiency {eff}");
        assert!(r.makespan > SimDuration::ZERO);
    }

    /// Tile steps pick a CCM slice modulo the slice count, so an L3
    /// without slices is refused when the system is built, not on the
    /// first step.
    #[test]
    #[should_panic(expected = "at least one slice")]
    fn an_l3_without_slices_is_rejected() {
        let mut config = small_config(1);
        config.l3.slices = 0;
        MacoSystem::new(config);
    }

    #[test]
    fn timed_run_reports_high_efficiency_with_prediction() {
        let n = 512;
        let mut sys = MacoSystem::new(small_config(1));
        let r = sys.run_parallel_gemm(n, n, n, Precision::Fp64).unwrap();
        assert!(
            r.nodes[0].translation.stall.is_zero(),
            "prediction hides walks"
        );
        let eff = r.nodes[0].efficiency();
        assert!(eff > 0.9, "efficiency {eff} too low");
        assert!(eff <= 1.0, "efficiency {eff} above peak");
    }

    #[test]
    fn report_metrics_are_consistent() {
        let n = 64;
        let mut sys = MacoSystem::new(small_config(1));
        let r = sys.run_parallel_gemm(n, n, n, Precision::Fp64).unwrap();
        let node = &r.nodes[0];
        assert_eq!(node.flops, 2 * n * n * n);
        assert!(node.gflops() > 0.0);
        assert!(node.dma_bytes >= 3 * n * n * 8, "A, B and C each stream in");
    }

    /// Fig. 3 exception path: a task over unmapped memory faults, frees
    /// its STQ slot and leaves its MTQ entry `Done` with the exception
    /// until `MA_CLEAR`; once mapped, the same task runs cleanly.
    #[test]
    fn translation_fault_completes_the_task_with_an_exception() {
        use maco_isa::mtq::QueryOutcome;

        let mut sys = MacoSystem::new(small_config(1));
        let asid = sys.node_asid(0);
        // The shared layout's descriptor, not yet mapped in `sys`.
        let params = MacoSystem::new(small_config(1))
            .map_gemm(64, 64, 64, Precision::Fp64)
            .unwrap();
        let mut task = sys.begin_gemm(0, asid, params, SimTime::ZERO).unwrap();
        let maid = Maid::new(task.maid());
        assert!(sys.step_gemm(&mut task).is_err());
        assert!(task.is_done());
        let (outcome, _) = sys.cpu_mut(0).issue_ma_state(maid, asid).unwrap();
        assert_eq!(
            outcome,
            QueryOutcome::Done {
                exception: Some(ExceptionType::TranslationFault)
            }
        );
        sys.cpu_mut(0).issue_ma_clear(maid).unwrap();
        assert_eq!(sys.cpu(0).mtq().in_use(), 0);
        assert!(sys.stq(0).is_empty());

        assert_eq!(sys.map_gemm(64, 64, 64, Precision::Fp64).unwrap(), params);
        let mut task = sys.begin_gemm(0, asid, params, SimTime::ZERO).unwrap();
        let report = loop {
            if let Some(report) = sys.step_gemm(&mut task).unwrap() {
                break report;
            }
        };
        assert_eq!(report.flops, 2 * 64 * 64 * 64);
        assert_eq!(sys.cpu(0).mtq().in_use(), 0);
        assert!(sys.stq(0).is_empty());
    }

    #[test]
    fn prediction_improves_large_stride_gemm() {
        let n = 1024;
        let mut with = MacoSystem::new(small_config(1));
        let r_with = with.run_parallel_gemm(n, n, n, Precision::Fp64).unwrap();

        let mut cfg = small_config(1);
        cfg.prediction = false;
        let mut without = MacoSystem::new(cfg);
        let r_without = without.run_parallel_gemm(n, n, n, Precision::Fp64).unwrap();

        let gap = r_with.avg_efficiency() - r_without.avg_efficiency();
        assert!(gap > 0.01, "prediction gap {gap} at n={n}");
        assert!(r_without.nodes[0].translation.demand_walks > 0);
        assert_eq!(r_with.nodes[0].translation.demand_walks, 0);
    }

    /// Demand walks stall a GEMM whose rows span many pages; a short,
    /// wide shape keeps the strides of the n=1024 case at a fraction of
    /// its work.
    #[test]
    fn prediction_beats_no_prediction_on_large_strides() {
        let (m, n, k) = (128, 1024, 1024);
        let mut cfg = small_config(1);
        let with = MacoSystem::new(cfg.clone())
            .run_parallel_gemm(m, n, k, Precision::Fp64)
            .unwrap();
        cfg.prediction = false;
        let without = MacoSystem::new(cfg)
            .run_parallel_gemm(m, n, k, Precision::Fp64)
            .unwrap();

        assert!(with.nodes[0].translation.stall.is_zero());
        assert!(without.nodes[0].translation.stall > SimDuration::ZERO);
        let gap = with.avg_efficiency() - without.avg_efficiency();
        assert!(gap > 0.01, "gap {gap} should be visible at these strides");
    }

    #[test]
    fn multi_node_loses_some_efficiency() {
        let n = 1024;
        let mut one = MacoSystem::new(small_config(1));
        let e1 = one
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .unwrap()
            .avg_efficiency();
        let mut sixteen = MacoSystem::new(small_config(16));
        let e16 = sixteen
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .unwrap()
            .avg_efficiency();
        assert!(e16 < e1, "contention must cost something: {e1} vs {e16}");
        assert!(e16 > 0.6, "but the system still performs: {e16}");
    }

    #[test]
    fn stash_lock_beats_unmapped_at_scale() {
        let n = 1024;
        let mut mapped = MacoSystem::new(small_config(16));
        let em = mapped
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .unwrap()
            .avg_efficiency();
        let mut cfg = small_config(16);
        cfg.stash_lock = false;
        let mut unmapped = MacoSystem::new(cfg);
        let eu = unmapped
            .run_parallel_gemm(n, n, n, Precision::Fp64)
            .unwrap()
            .avg_efficiency();
        assert!(em > eu, "stash/lock must help: {em} vs {eu}");
    }

    #[test]
    fn mtq_cycle_completes_and_releases() {
        let mut sys = MacoSystem::new(small_config(2));
        sys.run_parallel_gemm(256, 256, 256, Precision::Fp64)
            .unwrap();
        for i in 0..2 {
            // The full MA_CFG → execute → respond → MA_STATE cycle ran, so
            // every entry is free again (Fig. 3 back to the idle state).
            assert_eq!(sys.cpu(i).mtq().in_use(), 0);
            assert_eq!(sys.cpu(i).instructions_issued(), 2, "MA_CFG + MA_STATE");
        }
        // Queue never leaks across many tasks.
        for _ in 0..10 {
            sys.run_parallel_gemm(128, 128, 128, Precision::Fp64)
                .unwrap();
        }
        assert_eq!(sys.cpu(0).mtq().in_use(), 0);
    }

    #[test]
    fn partitioned_shapes_run_per_node() {
        let mut sys = MacoSystem::new(small_config(4));
        let shapes = vec![(512, 128, 512); 4];
        let r = sys.run_partitioned_gemm(&shapes, Precision::Fp32).unwrap();
        assert_eq!(r.nodes.len(), 4);
        let total: u64 = r.nodes.iter().map(|n| n.flops).sum();
        assert_eq!(total, 4 * 2 * 512 * 128 * 512);
    }

    /// Runs `f` against a mirrored and an unmirrored system, both in
    /// demand mode (the only mode the mirror serves), and asserts every
    /// simulated outcome — times, counters, and the per-node MMU
    /// statistics the mirror transplants — is identical.
    fn assert_mirror_equivalent(nodes: usize, f: impl Fn(&mut MacoSystem) -> Vec<SystemReport>) {
        let demand = SystemConfig {
            prediction: false,
            ..small_config(nodes)
        };
        let mut mirrored = MacoSystem::new(demand.clone());
        let mut plain = MacoSystem::new(SystemConfig {
            translation_mirror: false,
            ..demand
        });
        let rm = f(&mut mirrored);
        let rp = f(&mut plain);
        assert_eq!(rm.len(), rp.len());
        for (a, b) in rm.iter().zip(&rp) {
            assert_eq!(a.makespan, b.makespan, "makespan must be bit-identical");
            assert_eq!(a.dram_bytes, b.dram_bytes);
            for (na, nb) in a.nodes.iter().zip(&b.nodes) {
                assert_eq!(na.elapsed, nb.elapsed, "node {} elapsed", na.node);
                assert_eq!(na.translation, nb.translation, "node {} counters", na.node);
                assert_eq!(na.dma_bytes, nb.dma_bytes);
            }
        }
        for i in 0..nodes {
            // The transplanted MMU state must be indistinguishable: sTLB
            // counters, walker counters, and every entry in LRU order.
            let mut m = mirrored.nodes[i].cpu.mmu().clone();
            let mut p = plain.nodes[i].cpu.mmu().clone();
            let (m_stlb, m_walker) = m.shared_parts_mut();
            let (p_stlb, p_walker) = p.shared_parts_mut();
            assert_eq!(
                (m_stlb.hits(), m_stlb.misses(), m_stlb.evictions()),
                (p_stlb.hits(), p_stlb.misses(), p_stlb.evictions()),
                "node {i} sTLB counters"
            );
            assert_eq!(
                (m_walker.walks(), m_walker.faults()),
                (p_walker.walks(), p_walker.faults()),
                "node {i} walker counters"
            );
            assert!(
                m_stlb.iter_mru().eq(p_stlb.iter_mru()),
                "node {i} sTLB contents in LRU order"
            );
        }
    }

    #[test]
    fn mirrored_parallel_runs_match_unmirrored_exactly() {
        assert_mirror_equivalent(4, |sys| {
            vec![
                sys.run_parallel_gemm(512, 512, 512, Precision::Fp64)
                    .unwrap(),
                // A repeat on warmed state and a different size both reuse
                // and extend the mirror history.
                sys.run_parallel_gemm(512, 512, 512, Precision::Fp64)
                    .unwrap(),
                sys.run_parallel_gemm(1500, 640, 512, Precision::Fp32)
                    .unwrap(),
            ]
        });
    }

    #[test]
    fn mirrored_partitioned_and_ragged_runs_match_unmirrored_exactly() {
        assert_mirror_equivalent(4, |sys| {
            vec![
                // Unequal shapes: histories diverge per node, mirror must
                // fall back to exact simulation.
                sys.run_partitioned_gemm(
                    &[
                        (512, 512, 512),
                        (512, 256, 512),
                        (300, 512, 512),
                        (512, 512, 300),
                    ],
                    Precision::Fp64,
                )
                .unwrap(),
                // Back to identical tasks on now-divergent histories.
                sys.run_parallel_gemm(640, 640, 640, Precision::Fp64)
                    .unwrap(),
            ]
        });
    }

    #[test]
    fn mirror_cost_gate_weighs_touches_against_the_stlb() {
        // Micro passes (16 touches) replay; the 1024-entry sTLB breaks
        // even at 683 touches; full 1024³ FP64 passes are recorded.
        assert!(!mirror_pays(16, 1024));
        assert!(!mirror_pays(682, 1024));
        assert!(mirror_pays(683, 1024));
        assert!(mirror_pays(327_680, 1024));
    }

    #[test]
    fn lockstep_nodes_still_transplant_large_passes() {
        // 2048³ FP64 is 8 passes of two shapes per node; each shape is
        // replayed twice before the run's memo serves it. Every replayed
        // pass is far past the break-even, so node 0 replays and records
        // each one and the other 15 nodes transplant it.
        let mut sys = MacoSystem::new(SystemConfig {
            prediction: false,
            ..small_config(16)
        });
        sys.run_parallel_gemm(2048, 2048, 2048, Precision::Fp64)
            .unwrap();
        let stats = sys.stats_snapshot();
        let counts = [
            "xlate.passes_exact",
            "xlate.passes_memo",
            "xlate.passes_mirrored",
            "xlate.mirror_snapshots",
        ]
        .map(|key| stats.get(key));
        assert_eq!(counts, [4, 64, 60, 4]);
    }

    #[test]
    fn predictive_runs_bypass_the_mirror_and_the_stlb() {
        // Closed-form predictive translation leaves no MMU state, so the
        // same lockstep run records and transplants nothing.
        let mut sys = MacoSystem::new(small_config(16));
        sys.run_parallel_gemm(2048, 2048, 2048, Precision::Fp64)
            .unwrap();
        let stats = sys.stats_snapshot();
        assert_eq!(stats.get("xlate.mirror_snapshots"), 0);
        assert_eq!(stats.get("xlate.passes_mirrored"), 0);
        assert_eq!(stats.get("stlb.lookups"), 0);
        assert_eq!(stats.get("xlate.passes_exact"), 16 * 2 * 2);
    }

    #[test]
    fn stlb_counters_count_every_demand_lookup() {
        // 256³ FP64 is one block pass, replayed exactly: every page touch
        // is one sTLB lookup and every demand walk one miss.
        let mut sys = MacoSystem::new(SystemConfig {
            prediction: false,
            ..small_config(1)
        });
        let r = sys
            .run_parallel_gemm(256, 256, 256, Precision::Fp64)
            .unwrap();
        let tr = r.nodes[0].translation;
        let stats = sys.stats_snapshot();
        assert_eq!(stats.get("xlate.passes_exact"), 1);
        assert_eq!(stats.get("stlb.lookups"), tr.pages);
        assert_eq!(stats.get("stlb.misses"), tr.demand_walks);
        assert!(tr.tlb_hits > 0, "the pass reuses pages");
    }

    #[test]
    fn report_totals_are_consistent() {
        let mut sys = MacoSystem::new(small_config(2));
        let r = sys
            .run_parallel_gemm(256, 256, 256, Precision::Fp64)
            .unwrap();
        assert!(r.total_gflops() > 0.0);
        assert!(r.makespan >= r.nodes.iter().map(|n| n.elapsed).max().unwrap());
        assert!(r.max_link_utilization >= r.mean_link_utilization);
    }
}
