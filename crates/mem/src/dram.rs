//! External DRAM model.
//!
//! MACO attaches "external memory controller (optional)" interfaces to NoC
//! nodes (Section III.A). We model a small number of DRAM channels, each a
//! fixed-latency + bandwidth-queuing resource
//! ([`LatencyBandwidthResource`]), with physical addresses interleaved
//! across channels at 4 KB granularity. The channel count and per-channel
//! bandwidth bound the aggregate refill traffic in the Fig. 7 scalability
//! experiment.

use maco_sim::{LatencyBandwidthResource, SimDuration, SimTime};
use maco_vm::PhysAddr;

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels (memory controllers on the NoC).
    pub channels: usize,
    /// Closed-page access latency per request.
    pub latency: SimDuration,
    /// Sustained bandwidth per channel in GB/s.
    pub gbps_per_channel: f64,
    /// Interleave granularity in bytes.
    pub interleave_bytes: u64,
}

impl Default for DramConfig {
    /// Four DDR channels of 25.6 GB/s (DDR4-3200 64-bit) with ~60 ns access
    /// latency, interleaved at page granularity.
    fn default() -> Self {
        DramConfig {
            channels: 4,
            latency: SimDuration::from_ns(60),
            gbps_per_channel: 25.6,
            interleave_bytes: 4096,
        }
    }
}

impl DramConfig {
    /// Aggregate bandwidth across channels in GB/s.
    pub fn total_gbps(&self) -> f64 {
        self.gbps_per_channel * self.channels as f64
    }
}

/// Channel-interleaved DRAM.
///
/// # Example
///
/// ```
/// use maco_mem::dram::{Dram, DramConfig};
/// use maco_vm::PhysAddr;
/// use maco_sim::SimTime;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let done = dram.access(PhysAddr::new(0x1000), 64, SimTime::ZERO);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<LatencyBandwidthResource>,
    accesses: u64,
    bytes: u64,
}

impl Dram {
    /// Creates a DRAM system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "DRAM needs at least one channel");
        Dram {
            channels: (0..config.channels)
                .map(|_| LatencyBandwidthResource::new(config.latency, config.gbps_per_channel))
                .collect(),
            config,
            accesses: 0,
            bytes: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Which channel services `pa`.
    pub fn channel_of(&self, pa: PhysAddr) -> usize {
        ((pa.raw() / self.config.interleave_bytes) % self.config.channels as u64) as usize
    }

    /// Issues a `bytes`-sized access at `now`; returns its completion time
    /// (queuing on the owning channel + access latency + burst transfer).
    pub fn access(&mut self, pa: PhysAddr, bytes: u64, now: SimTime) -> SimTime {
        let ch = self.channel_of(pa);
        self.accesses += 1;
        self.bytes += bytes;
        self.channels[ch].access(now, bytes)
    }

    /// Issues a large transfer split across channels at the interleave
    /// granularity; returns when the *last* chunk completes. This is how
    /// stash prefetches stream whole sub-matrix blocks.
    ///
    /// Conceptually this issues one chunk per interleave unit (a partial
    /// head chunk, full chunks, a partial tail chunk), all requested at
    /// `now`, round-robin across channels. Since same-`now` chunks on one
    /// channel chain back-to-back, each channel's share collapses into a
    /// single train reservation — O(channels) work per call instead of
    /// O(bytes / interleave), with bit-identical completion times (the
    /// stash path moves whole megabyte-scale blocks, which made the
    /// chunk-by-chunk walk the simulation's hottest loop).
    pub fn access_bulk(&mut self, pa: PhysAddr, bytes: u64, now: SimTime) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let gran = self.config.interleave_bytes;
        let nch = self.config.channels as u64;
        // Chunk sequence: head (up to the first boundary), full interleave
        // units, then a partial tail. Chunk `i` lands on channel
        // `(base + i) % nch`.
        let head = (gran - (pa.raw() % gran)).min(bytes);
        let rest = bytes - head;
        let full = rest / gran;
        let tail = rest % gran;
        let chunks = 1 + full + (tail > 0) as u64;
        let base = pa.raw() / gran;

        let s_full = self.channels[0].service_time(gran);
        let mut done = now;
        for d in 0..nch.min(chunks) {
            let ch = ((base + d) % nch) as usize;
            // Chunks assigned to this channel: indices ≡ d (mod nch).
            let count = (chunks - 1 - d) / nch + 1;
            let mut full_count = count;
            let mut service = SimDuration::ZERO;
            let mut channel_bytes = 0u64;
            if d == 0 {
                service += self.channels[ch].service_time(head);
                channel_bytes += head;
                full_count -= 1;
            }
            if tail > 0 && (chunks - 1) % nch == d {
                service += self.channels[ch].service_time(tail);
                channel_bytes += tail;
                full_count -= 1;
            }
            service += s_full * full_count;
            channel_bytes += gran * full_count;
            done = done.max(self.channels[ch].access_train(now, service, channel_bytes));
        }
        self.accesses += chunks;
        self.bytes += bytes;
        done
    }

    /// Total requests serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average achieved bandwidth in GB/s over `elapsed`.
    pub fn achieved_gbps(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 / elapsed.as_ns()
        }
    }

    /// Resets queuing state and counters (between experiment repetitions).
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.reset();
        }
        self.accesses = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            channels: 2,
            latency: SimDuration::from_ns(50),
            gbps_per_channel: 1.0, // 1 byte/ns for easy arithmetic
            interleave_bytes: 4096,
        }
    }

    #[test]
    fn single_access_latency_plus_burst() {
        let mut d = Dram::new(cfg());
        let done = d.access(PhysAddr::new(0), 100, SimTime::ZERO);
        assert_eq!(done, SimTime::from_ns(150), "100 ns burst + 50 ns latency");
    }

    #[test]
    fn channel_interleaving_by_page() {
        let d = Dram::new(cfg());
        assert_eq!(d.channel_of(PhysAddr::new(0)), 0);
        assert_eq!(d.channel_of(PhysAddr::new(4096)), 1);
        assert_eq!(d.channel_of(PhysAddr::new(8192)), 0);
    }

    #[test]
    fn same_channel_requests_queue() {
        let mut d = Dram::new(cfg());
        let d1 = d.access(PhysAddr::new(0), 100, SimTime::ZERO);
        let d2 = d.access(PhysAddr::new(64), 100, SimTime::ZERO);
        assert_eq!(d1, SimTime::from_ns(150));
        assert_eq!(d2, SimTime::from_ns(250), "serialised on channel 0");
    }

    #[test]
    fn different_channels_run_in_parallel() {
        let mut d = Dram::new(cfg());
        let d1 = d.access(PhysAddr::new(0), 100, SimTime::ZERO);
        let d2 = d.access(PhysAddr::new(4096), 100, SimTime::ZERO);
        assert_eq!(d1, d2, "independent channels");
    }

    #[test]
    fn bulk_splits_across_channels() {
        let mut d = Dram::new(cfg());
        // 8 KB from page boundary: 4 KB on each channel, parallel.
        let done = d.access_bulk(PhysAddr::new(0), 8192, SimTime::ZERO);
        assert_eq!(done, SimTime::from_ns(4096 + 50));
        assert_eq!(d.accesses(), 2);
        assert_eq!(d.bytes(), 8192);
    }

    #[test]
    fn bulk_handles_unaligned_start() {
        let mut d = Dram::new(cfg());
        // Start 1 KB before a boundary: chunks of 1 KB + 3 KB.
        let done = d.access_bulk(PhysAddr::new(3072), 4096, SimTime::ZERO);
        assert_eq!(d.accesses(), 2);
        // Longest chunk (3 KB on channel 1) dominates.
        assert_eq!(done, SimTime::from_ns(3072 + 50));
    }

    #[test]
    fn achieved_bandwidth() {
        let mut d = Dram::new(cfg());
        d.access(PhysAddr::new(0), 1000, SimTime::ZERO);
        assert!((d.achieved_gbps(SimDuration::from_us(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_idle() {
        let mut d = Dram::new(cfg());
        d.access(PhysAddr::new(0), 1_000_000, SimTime::ZERO);
        d.reset();
        assert_eq!(d.accesses(), 0);
        let done = d.access(PhysAddr::new(0), 100, SimTime::ZERO);
        assert_eq!(done, SimTime::from_ns(150));
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let c = DramConfig::default();
        assert!((c.total_gbps() - 102.4).abs() < 1e-9);
    }
}
