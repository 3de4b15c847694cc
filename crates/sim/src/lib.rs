//! # maco-sim — discrete-event simulation kernel
//!
//! The foundation of the MACO reproduction: the simulated-time types, the
//! shared-resource queuing models and the deterministic helpers every
//! other crate builds on. Each crate keeps its own event order (the core's
//! task heap, the serve engine's ready queue and arrival heap, the fleet's
//! fault schedule); this crate holds none.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — femtosecond-resolution simulated time.
//! * [`ClockDomain`] — cycle↔time conversion for the paper's three clock
//!   domains (CPU 2.2 GHz, MMAE 2.5 GHz, NoC 2.0 GHz).
//! * [`Stats`] — named counters and scalar gauges used by every component to
//!   report utilisation, hit rates and traffic.
//! * [`BandwidthResource`] / [`LatencyBandwidthResource`] — queuing models
//!   for shared links, DRAM channels and cache-controller ports.
//! * [`SplitMix64`] — a tiny deterministic PRNG for components that need
//!   reproducible pseudo-randomness without pulling in `rand`.
//! * [`FxHashMap`] — a deterministic, fast hasher for the simulator's hot
//!   integer-keyed maps (the translation mirror, TLB indices).
//! * [`Timeline`] — a lightweight activity recorder used to regenerate the
//!   paper's Fig. 5(c) GEMM⁺ overlap diagram.
//!
//! # Example
//!
//! ```
//! use maco_sim::{ClockDomain, LatencyBandwidthResource, SimDuration, SimTime};
//!
//! let clk = ClockDomain::from_ghz(2.5);
//! let mut port = LatencyBandwidthResource::new(SimDuration::from_ns(20), 1.0);
//! // Two 60-byte transfers queue on the port's 1 GB/s bandwidth.
//! let first = port.access(SimTime::ZERO + clk.cycles(10), 60);
//! let second = port.access(SimTime::ZERO + clk.cycles(10), 60);
//! assert_eq!(second.since(first), SimDuration::from_ns(60));
//! ```

pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use hash::{fold_fingerprint, FxBuildHasher, FxHashMap, FxHasher};
pub use resource::{BandwidthResource, LatencyBandwidthResource};
pub use rng::SplitMix64;
pub use stats::Stats;
pub use time::{ClockDomain, SimDuration, SimTime};
pub use timeline::{Activity, Timeline};
