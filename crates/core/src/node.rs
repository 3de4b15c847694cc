//! A single compute node driven through the MPAIS protocol.
//!
//! [`ComputeNode`] is one process's view of one compute node, used by
//! examples, tests and the Fig. 3 exception scenarios: it wires the
//! complete MPAIS round trip — `MA_CFG` on the CPU allocates an MTQ entry,
//! the parameter block lands in the MMAE's STQ, the engine executes (or
//! raises an exception), and the STQ responds to the MTQ where `MA_STATE` /
//! `MA_CLEAR` observe the Fig. 3 state machine.
//!
//! The node has no timing model of its own. It owns a private 1-node
//! [`MacoSystem`] and steps each task through [`MacoSystem::begin_gemm`]
//! and the system's tile-step pricing, so a task costs exactly what it
//! costs on a 1-node system; only the `MA_STATE` poll is left to the
//! caller.

use maco_cpu::core::CpuCore;
use maco_isa::mtq::{Maid, MtqError, QueryOutcome};
use maco_isa::params::GemmParams;
use maco_isa::{Asid, Precision};
use maco_mmae::Mmae;
use maco_sim::SimTime;
use maco_vm::page_table::TranslateFault;

use crate::system::{MacoSystem, NodeReport, SystemConfig, TaskAdmitError};

/// One MACO compute node, owned by one process.
pub struct ComputeNode {
    system: MacoSystem,
    asid: Asid,
}

impl ComputeNode {
    /// Creates a node with the default (paper) configuration for process
    /// `asid`.
    pub fn new(asid: Asid) -> Self {
        ComputeNode::with_config(asid, SystemConfig::single_node())
    }

    fn with_config(asid: Asid, config: SystemConfig) -> Self {
        debug_assert_eq!(config.nodes, 1, "a compute node is a 1-node system");
        ComputeNode {
            system: MacoSystem::new(config),
            asid,
        }
    }

    /// The node's CPU core.
    pub fn cpu(&self) -> &CpuCore {
        self.system.cpu(0)
    }

    /// Maps `[va, va+bytes)` in the node's address space. Mapping the same
    /// `va` again only grows the region.
    ///
    /// # Errors
    ///
    /// Propagates [`TranslateFault::AlreadyMapped`] on overlap with
    /// another region.
    pub fn map(&mut self, va: u64, bytes: u64) -> Result<(), TranslateFault> {
        self.system.ensure_mapped(va, bytes)
    }

    /// Full MPAIS round trip for a GEMM task on a fresh episode of the
    /// shared resources: `MA_CFG` at `start` → STQ → execution → response.
    /// The caller then issues `MA_STATE` ([`ComputeNode::query_release`]).
    /// Returns the MAID and, on clean completion, the task's report; its
    /// `elapsed` counts from simulated time zero, as every
    /// [`MacoSystem`] report does.
    ///
    /// A translation fault during execution takes the Fig. 3 exception
    /// path: the MTQ entry carries
    /// [`maco_isa::ExceptionType::TranslationFault`] and the report is
    /// `None`. So does a parameter block the STQ rejects, with
    /// [`maco_isa::ExceptionType::InvalidConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`TaskAdmitError`] for MTQ/STQ resource exhaustion.
    pub fn run_gemm(
        &mut self,
        params: &GemmParams,
        start: SimTime,
    ) -> Result<(Maid, Option<NodeReport>), TaskAdmitError> {
        self.system.reset_shared_resources();
        let mut task = match self.system.begin_gemm(0, self.asid, *params, start) {
            Ok(task) => task,
            Err(TaskAdmitError::Rejected(maid)) => return Ok((maid, None)),
            Err(e) => return Err(e),
        };
        let report = loop {
            if let Some(outcome) = self.system.execute_step(&mut task).transpose() {
                break outcome.ok();
            }
        };
        Ok((Maid::new(task.maid()), report))
    }

    /// Software-side `MA_STATE` for a previously submitted task.
    ///
    /// # Errors
    ///
    /// Propagates [`MtqError`].
    pub fn query_release(&mut self, maid: Maid) -> Result<QueryOutcome, MtqError> {
        let asid = self.asid;
        self.system
            .cpu_mut(0)
            .issue_ma_state(maid, asid)
            .map(|(o, _)| o)
    }

    /// Software-side `MA_CLEAR` (exception recovery).
    ///
    /// # Errors
    ///
    /// Propagates [`MtqError`].
    pub fn clear(&mut self, maid: Maid) -> Result<(), MtqError> {
        self.system.cpu_mut(0).issue_ma_clear(maid).map(|_| ())
    }

    /// Functional GEMM through the node's engine (tiled through the SA).
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature: 3 matrices + m/n/k + precision
    pub fn gemm_functional(
        &self,
        a: &[f64],
        b: &[f64],
        c: &[f64],
        m: usize,
        n: usize,
        k: usize,
        precision: Precision,
    ) -> Vec<f64> {
        Mmae::new(self.system.config().mmae).gemm_functional(a, b, c, m, n, k, precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maco_isa::ExceptionType;

    fn params(n: u64) -> GemmParams {
        let bytes = n * n * 8;
        GemmParams::new(
            0x1000_0000,
            0x1000_0000 + bytes,
            0x1000_0000 + 2 * bytes,
            0x1000_0000 + 3 * bytes,
            n,
            n,
            n,
            Precision::Fp64,
        )
        .unwrap()
    }

    fn mapped_node(n: u64, config: SystemConfig) -> ComputeNode {
        let mut node = ComputeNode::with_config(Asid::new(1), config);
        node.map(0x1000_0000, 4 * n * n * 8).unwrap();
        node
    }

    #[test]
    fn clean_task_lifecycle_end_to_end() {
        let mut node = mapped_node(128, SystemConfig::single_node());
        let (maid, report) = node.run_gemm(&params(128), SimTime::ZERO).unwrap();
        let report = report.expect("clean completion");
        assert!(report.efficiency() > 0.3);
        assert_eq!(
            node.query_release(maid).unwrap(),
            QueryOutcome::Done { exception: None }
        );
        assert_eq!(node.cpu().mtq().in_use(), 0);
    }

    #[test]
    fn unmapped_task_raises_translation_exception() {
        let mut node = ComputeNode::new(Asid::new(1)); // nothing mapped
        let (maid, report) = node.run_gemm(&params(64), SimTime::ZERO).unwrap();
        assert!(report.is_none());
        assert_eq!(
            node.query_release(maid).unwrap(),
            QueryOutcome::Done {
                exception: Some(ExceptionType::TranslationFault)
            }
        );
        // Fig. 3 ④: entry persists until MA_CLEAR.
        assert_eq!(node.cpu().mtq().in_use(), 1);
        node.clear(maid).unwrap();
        assert_eq!(node.cpu().mtq().in_use(), 0);
        assert!(node.system.stq(0).is_empty(), "the STQ slot was released");
    }

    #[test]
    fn functional_gemm_matches_engine() {
        let node = ComputeNode::new(Asid::new(1));
        let m = 8;
        let a = vec![1.0; m * m];
        let b = vec![1.0; m * m];
        let c = vec![0.5; m * m];
        let y = node.gemm_functional(&a, &b, &c, m, m, m, Precision::Fp64);
        assert!(y.iter().all(|&v| (v - (m as f64 + 0.5)).abs() < 1e-12));
    }

    #[test]
    fn prediction_toggle_changes_translation_behaviour() {
        let mut with = mapped_node(512, SystemConfig::single_node());
        let (_, r1) = with.run_gemm(&params(512), SimTime::ZERO).unwrap();
        let mut without = mapped_node(
            512,
            SystemConfig {
                prediction: false,
                ..SystemConfig::single_node()
            },
        );
        let (_, r2) = without.run_gemm(&params(512), SimTime::ZERO).unwrap();
        let (r1, r2) = (r1.unwrap(), r2.unwrap());
        assert_eq!(r1.translation.demand_walks, 0);
        assert!(r2.translation.demand_walks > 0);
        assert!(r1.elapsed <= r2.elapsed);
    }

    /// The node prices a task exactly as a 1-node system's own runner
    /// does, cold and on warm translation state, with prediction on and
    /// off.
    #[test]
    fn run_gemm_matches_a_one_node_system() {
        let n = 256;
        for prediction in [true, false] {
            let config = SystemConfig {
                prediction,
                ..SystemConfig::single_node()
            };
            let mut system = MacoSystem::new(config.clone());
            let params = system.map_gemm(n, n, n, Precision::Fp64).unwrap();
            let mut node = ComputeNode::with_config(Asid::new(5), config);
            let e = params.elem_bytes();
            for (va, bytes) in [
                (params.a_addr, params.m * params.k * e),
                (params.b_addr, params.k * params.n * e),
                (params.c_addr, params.m * params.n * e),
                (params.y_addr, params.m * params.n * e),
            ] {
                node.map(va, bytes).unwrap();
            }
            for run in 0..2 {
                let want = system
                    .run_parallel_gemm(n, n, n, Precision::Fp64)
                    .unwrap()
                    .nodes[0];
                let (maid, got) = node.run_gemm(&params, SimTime::ZERO).unwrap();
                let got = got.expect("clean completion");
                let case = format!("prediction {prediction}, run {run}");
                assert_eq!(got.elapsed, want.elapsed, "{case}");
                assert_eq!(got.flops, want.flops, "{case}");
                assert_eq!(got.translation, want.translation, "{case}");
                assert_eq!(got.dma_bytes, want.dma_bytes, "{case}");
                assert_eq!(
                    node.query_release(maid).unwrap(),
                    QueryOutcome::Done { exception: None }
                );
            }
        }
    }
}
