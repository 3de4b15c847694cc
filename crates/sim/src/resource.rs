//! Queuing models for shared hardware resources.
//!
//! Links, DRAM channels and coherence-manager ports are all *serially
//! reusable* resources: a request occupies the resource for a
//! size-proportional service time, and later requests queue behind it. The
//! types here implement this "next-free bookkeeping" pattern, which is how
//! the full-system simulator models the NoC-bandwidth contention responsible
//! for the ~10 % multi-node efficiency loss in Fig. 7 of the paper.

use crate::time::{SimDuration, SimTime};

/// A bandwidth-limited, serially-reusable resource.
///
/// `acquire(now, bytes)` returns the interval during which the transfer
/// occupies the resource: it starts no earlier than `now` and no earlier
/// than the end of the previously accepted transfer, and lasts
/// `bytes / bandwidth`.
///
/// # Example
///
/// ```
/// use maco_sim::{BandwidthResource, SimTime};
///
/// // A 64-byte-per-nanosecond link (64 GB/s).
/// let mut link = BandwidthResource::from_bytes_per_ns(64.0);
/// let (s1, e1) = link.acquire(SimTime::ZERO, 128);
/// let (s2, _e2) = link.acquire(SimTime::ZERO, 64);
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1); // second transfer queues behind the first
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthResource {
    fs_per_byte: f64,
    next_free: SimTime,
    busy: SimDuration,
    bytes: u64,
}

impl BandwidthResource {
    /// Creates a resource with the given bandwidth in bytes per nanosecond
    /// (equivalently, GB/s).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_ns` is not strictly positive.
    pub fn from_bytes_per_ns(bytes_per_ns: f64) -> Self {
        assert!(bytes_per_ns > 0.0, "bandwidth must be positive");
        BandwidthResource {
            fs_per_byte: 1e6 / bytes_per_ns,
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            bytes: 0,
        }
    }

    /// Creates a resource with the given bandwidth in GB/s (identical scale
    /// to bytes/ns; provided for readability at call sites quoting the
    /// paper's figures, e.g. the NoC's 128 GB/s per node).
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bytes_per_ns(gbps)
    }

    /// Reserves the resource for a `bytes`-sized transfer not starting
    /// before `now`. Returns `(start, end)` of the occupancy.
    pub fn acquire(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.acquire_train(now, self.service_time(bytes), bytes)
    }

    /// The serialisation time of a `bytes`-sized transfer (rounded to the
    /// femtosecond exactly as [`BandwidthResource::acquire`] charges it).
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_fs((self.fs_per_byte * bytes as f64).round() as u64)
    }

    /// Reserves the resource for a back-to-back train of transfers all
    /// requested at `now`, totalling `service` occupancy and `bytes`
    /// payload. Because a transfer requested at `now` starts at
    /// `max(now, next_free)` and every follow-on chunk then starts exactly
    /// when its predecessor ends, issuing the train as one reservation is
    /// *bit-identical* to issuing the chunks one
    /// [`BandwidthResource::acquire`] at a time — pass `service` as the
    /// sum of the chunks' [`BandwidthResource::service_time`]s. Returns
    /// `(start, end)` of the whole train.
    pub fn acquire_train(
        &mut self,
        now: SimTime,
        service: SimDuration,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        let start = now.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        self.bytes += bytes;
        (start, end)
    }

    /// When the resource becomes free for a new transfer.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes transferred so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `elapsed` during which the resource was busy.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_fs() as f64 / elapsed.as_fs() as f64
        }
    }

    /// Resets occupancy bookkeeping (used between experiment repetitions).
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
        self.bytes = 0;
    }
}

/// A resource with a fixed per-request latency in addition to a
/// size-proportional occupancy — the shape of a DRAM channel (activation +
/// burst) or a directory lookup (tag pipeline + line transfer).
///
/// The latency portion is *pipelined* (overlaps with other requests); only
/// the occupancy portion serialises, as in a banked memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBandwidthResource {
    latency: SimDuration,
    bw: BandwidthResource,
}

impl LatencyBandwidthResource {
    /// Creates a resource with `latency` per request and the given
    /// serialisation bandwidth in GB/s.
    pub fn new(latency: SimDuration, gbps: f64) -> Self {
        LatencyBandwidthResource {
            latency,
            bw: BandwidthResource::from_gbps(gbps),
        }
    }

    /// Issues a request of `bytes` at `now`; returns the completion time
    /// (queuing + latency + serialisation).
    pub fn access(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let (_, end) = self.bw.acquire(now, bytes);
        end + self.latency
    }

    /// Issues a back-to-back train of same-`now` requests as one
    /// reservation (see [`BandwidthResource::acquire_train`]); returns the
    /// completion time of the train's last request. Identical to issuing
    /// the chunks through [`LatencyBandwidthResource::access`] one at a
    /// time and taking the latest completion.
    pub fn access_train(&mut self, now: SimTime, service: SimDuration, bytes: u64) -> SimTime {
        let (_, end) = self.bw.acquire_train(now, service, bytes);
        end + self.latency
    }

    /// The serialisation time of one `bytes`-sized request.
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        self.bw.service_time(bytes)
    }

    /// The fixed per-request latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Shared-bandwidth statistics for the serialised portion.
    pub fn bandwidth(&self) -> &BandwidthResource {
        &self.bw
    }

    /// Resets occupancy bookkeeping.
    pub fn reset(&mut self) {
        self.bw.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_serialises_back_to_back() {
        let mut r = BandwidthResource::from_gbps(1.0); // 1 byte/ns
        let (s1, e1) = r.acquire(SimTime::ZERO, 100);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_ns(100));
        let (s2, e2) = r.acquire(SimTime::from_ns(10), 50);
        assert_eq!(s2, SimTime::from_ns(100));
        assert_eq!(e2, SimTime::from_ns(150));
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = BandwidthResource::from_gbps(2.0);
        let (s, e) = r.acquire(SimTime::from_ns(500), 100);
        assert_eq!(s, SimTime::from_ns(500));
        assert_eq!(e, SimTime::from_ns(550));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut r = BandwidthResource::from_gbps(1.0);
        r.acquire(SimTime::ZERO, 100); // busy 100 ns
        let u = r.utilization(SimDuration::from_ns(200));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(r.bytes_transferred(), 100);
    }

    #[test]
    fn latency_bandwidth_combines() {
        let mut r = LatencyBandwidthResource::new(SimDuration::from_ns(40), 1.0);
        let done = r.access(SimTime::ZERO, 60);
        assert_eq!(done, SimTime::from_ns(100)); // 60 ns occupancy + 40 ns latency
                                                 // Second access queues on bandwidth but overlaps latency.
        let done2 = r.access(SimTime::ZERO, 60);
        assert_eq!(done2, SimTime::from_ns(160));
    }

    #[test]
    fn reset_clears_queue_state() {
        let mut r = BandwidthResource::from_gbps(1.0);
        r.acquire(SimTime::ZERO, 1_000);
        r.reset();
        let (s, _) = r.acquire(SimTime::ZERO, 1);
        assert_eq!(s, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthResource::from_gbps(0.0);
    }
}
