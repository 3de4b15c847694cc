//! The CPU core facade.
//!
//! Owns the Table I configuration, the MMU and the master task queue, and
//! prices the MPAIS issue path: an `MA_CFG` is "a series of
//! micro-operations (mops), such as requesting an available entry of the
//! Master Task Queue … and sending the buffered parameters to the MMAE"
//! (Section III.B).

use maco_isa::encoding::Mnemonic;
use maco_isa::mtq::{Maid, MasterTaskQueue, MtqError, QueryOutcome};
use maco_isa::{Asid, ExceptionType};
use maco_sim::SimDuration;

use crate::config::CpuConfig;
use crate::mmu::Mmu;

/// Cycles to execute one MPAIS instruction on the core (decode, register
/// reads, MTQ access, request to the MMAE over the node interconnect).
pub const MPAIS_ISSUE_CYCLES: u64 = 24;

/// A MACO CPU core.
#[derive(Debug, Clone)]
pub struct CpuCore {
    config: CpuConfig,
    mmu: Mmu,
    mtq: MasterTaskQueue,
    instructions_issued: u64,
}

impl CpuCore {
    /// Creates a core from its configuration.
    pub fn new(config: CpuConfig) -> Self {
        CpuCore {
            mmu: Mmu::new(&config),
            mtq: MasterTaskQueue::new(config.mtq_entries),
            config,
            instructions_issued: 0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The MMU (shared-TLB interface for the MMAE lives here).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// Read access to the MMU (statistics inspection).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// The master task queue.
    pub fn mtq(&self) -> &MasterTaskQueue {
        &self.mtq
    }

    /// Mutable MTQ access (MMAE responses land here).
    pub fn mtq_mut(&mut self) -> &mut MasterTaskQueue {
        &mut self.mtq
    }

    /// Issue cost of one MPAIS instruction.
    pub fn mpais_issue_time(&mut self, _mnemonic: Mnemonic) -> SimDuration {
        self.instructions_issued += 1;
        self.config.clock.cycles(MPAIS_ISSUE_CYCLES)
    }

    /// Executes `MA_CFG`: allocates an MTQ entry for `asid` and returns the
    /// MAID along with the issue latency.
    ///
    /// # Errors
    ///
    /// Returns [`MtqError::Full`] when no entry is free — software retries
    /// or falls back to CPU execution.
    pub fn issue_ma_cfg(&mut self, asid: Asid) -> Result<(Maid, SimDuration), MtqError> {
        let maid = self.mtq.allocate(asid)?;
        Ok((maid, self.mpais_issue_time(Mnemonic::MaCfg)))
    }

    /// Executes `MA_STATE` (query + conditional release).
    ///
    /// # Errors
    ///
    /// Returns [`MtqError::BadMaid`] for invalid MAIDs.
    pub fn issue_ma_state(
        &mut self,
        maid: Maid,
        asid: Asid,
    ) -> Result<(QueryOutcome, SimDuration), MtqError> {
        let outcome = self.mtq.query_release(maid, asid)?;
        Ok((outcome, self.mpais_issue_time(Mnemonic::MaState)))
    }

    /// Executes `MA_CLEAR` (exception recovery).
    ///
    /// # Errors
    ///
    /// Returns [`MtqError::BadMaid`] for invalid MAIDs.
    pub fn issue_ma_clear(&mut self, maid: Maid) -> Result<SimDuration, MtqError> {
        self.mtq.clear(maid)?;
        Ok(self.mpais_issue_time(Mnemonic::MaClear))
    }

    /// MMAE response path: marks a task complete or excepted.
    ///
    /// # Errors
    ///
    /// Returns [`MtqError::NotRunning`] on protocol violations.
    pub fn mmae_response(
        &mut self,
        maid: Maid,
        exception: Option<ExceptionType>,
    ) -> Result<(), MtqError> {
        match exception {
            None => self.mtq.complete(maid),
            Some(e) => self.mtq.raise_exception(maid, e),
        }
    }

    /// Total MPAIS instructions issued.
    pub fn instructions_issued(&self) -> u64 {
        self.instructions_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CpuGemmModel;
    use maco_isa::Precision;

    #[test]
    fn ma_cfg_lifecycle_through_core() {
        let mut cpu = CpuCore::new(CpuConfig::default());
        let asid = Asid::new(3);
        let (maid, issue) = cpu.issue_ma_cfg(asid).unwrap();
        assert_eq!(issue, CpuConfig::default().clock.cycles(MPAIS_ISSUE_CYCLES));

        cpu.mmae_response(maid, None).unwrap();
        let (outcome, _) = cpu.issue_ma_state(maid, asid).unwrap();
        assert_eq!(outcome, QueryOutcome::Done { exception: None });
        assert_eq!(cpu.mtq().in_use(), 0);
        assert_eq!(cpu.instructions_issued(), 2);
    }

    #[test]
    fn exception_path_needs_clear() {
        let mut cpu = CpuCore::new(CpuConfig::default());
        let asid = Asid::new(1);
        let (maid, _) = cpu.issue_ma_cfg(asid).unwrap();
        cpu.mmae_response(maid, Some(ExceptionType::TranslationFault))
            .unwrap();
        let (outcome, _) = cpu.issue_ma_state(maid, asid).unwrap();
        assert!(matches!(
            outcome,
            QueryOutcome::Done {
                exception: Some(ExceptionType::TranslationFault)
            }
        ));
        assert_eq!(cpu.mtq().in_use(), 1, "exception entry persists");
        cpu.issue_ma_clear(maid).unwrap();
        assert_eq!(cpu.mtq().in_use(), 0);
    }

    #[test]
    fn mtq_exhaustion_surfaces() {
        let mut cpu = CpuCore::new(CpuConfig::default());
        let asid = Asid::new(1);
        for _ in 0..cpu.config().mtq_entries {
            cpu.issue_ma_cfg(asid).unwrap();
        }
        assert!(matches!(cpu.issue_ma_cfg(asid), Err(MtqError::Full)));
    }

    #[test]
    fn cpu_gemm_is_much_slower_than_mmae_peak() {
        let t =
            CpuGemmModel::default().time(&CpuConfig::default(), 1024, 1024, 1024, Precision::Fp32);
        let gflops = 2.0 * 1024f64.powi(3) / t.as_ns();
        // MMAE peak is 160 GFLOPS FP32; the core sustains a small fraction.
        assert!(gflops < 40.0, "CPU GEMM at {gflops} GFLOPS");
        assert!(gflops > 10.0);
    }
}
