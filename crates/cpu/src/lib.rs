//! # maco-cpu — the general-purpose core
//!
//! Each MACO compute node pairs an MMAE with a "64-bit high-performance
//! general-purpose processor core with a multi-issue superscalar
//! architecture" (Section III.A, Table I). For the reproduction the core is
//! modelled at the granularity the experiments need:
//!
//! * [`config`] — the Table I microarchitectural parameters, printable as
//!   the paper's table (`table1` harness).
//! * [`mmu`] — the shared 1024-entry L2 TLB ("sTLB") and the walker, the
//!   pair the MMAE borrows through customised interfaces (Fig. 2). Table I's
//!   48-entry L1 I/D TLBs are listed by [`config`] but not modelled: they
//!   serve only the core's own loads and stores.
//! * [`kernels`] — roofline models of the non-GEMM workloads the GEMM⁺
//!   mapping overlaps (normalisation, activation, softmax), and the blocked
//!   CPU GEMM used by Fig. 8's Baseline-1.
//! * [`core`] — the core facade: MPAIS issue timing and the master task
//!   queue. Kernel and CPU-GEMM durations come from [`Kernel::time_on`] and
//!   [`CpuGemmModel`] directly.
//!
//! # Example
//!
//! ```
//! use maco_cpu::kernels::Kernel;
//! use maco_cpu::CpuConfig;
//! use maco_isa::Precision;
//!
//! let t = Kernel::softmax().time_on(&CpuConfig::default(), 1 << 20, Precision::Fp32);
//! assert!(t.as_us() > 0.0);
//! ```

pub mod config;
pub mod core;
pub mod kernels;
pub mod mmu;

pub use config::CpuConfig;
pub use core::CpuCore;
pub use kernels::{CpuGemmModel, Kernel};
pub use mmu::Mmu;
