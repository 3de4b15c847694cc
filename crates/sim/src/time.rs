//! Simulated time and clock domains.
//!
//! MACO spans three clock domains (CPU cores at 2.2 GHz, MMAEs at 2.5 GHz and
//! the NoC at 2.0 GHz — Section V.A of the paper), so the kernel keeps time in
//! a domain-neutral unit: **femtoseconds**. A `u64` of femtoseconds covers
//! ~5.1 hours of simulated time, far beyond any experiment in the paper, and
//! makes a 2.2 GHz period (454 545 fs) representable with ≤1e-7 relative
//! error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Femtoseconds per picosecond — handy for conversions in tests.
pub const FS_PER_PS: u64 = 1_000;
/// Femtoseconds per nanosecond.
pub const FS_PER_NS: u64 = 1_000_000;
/// Femtoseconds per microsecond.
pub const FS_PER_US: u64 = 1_000_000_000;

/// An instant in simulated time, measured in femtoseconds from simulation
/// start.
///
/// `SimTime` is totally ordered and cheap to copy; components compare and
/// store instants to model queuing (see
/// [`BandwidthResource`](crate::resource::BandwidthResource)).
///
/// # Example
///
/// ```
/// use maco_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(5);
/// assert_eq!(t.as_ns(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in femtoseconds.
///
/// Durations are produced by [`ClockDomain`] conversions and consumed by
/// scheduling APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw femtoseconds.
    pub const fn from_fs(fs: u64) -> Self {
        SimTime(fs)
    }

    /// Creates an instant from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps * FS_PER_PS)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * FS_PER_NS)
    }

    /// Raw femtosecond count since simulation start.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This instant expressed in nanoseconds (lossy).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// This instant expressed in microseconds (lossy).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / FS_PER_US as f64
    }

    /// This instant expressed in seconds (lossy).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-15
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a scheduling bug).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// The earlier of two optional instants (`None` is "no event"): one
/// compare, where an event loop pays per event.
pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    a.zip(b).map(|(a, b)| a.min(b)).or(a).or(b)
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw femtoseconds.
    pub const fn from_fs(fs: u64) -> Self {
        SimDuration(fs)
    }

    /// Creates a duration from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps * FS_PER_PS)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * FS_PER_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * FS_PER_US)
    }

    /// Creates a duration from a (possibly fractional) nanosecond count.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns >= 0.0, "negative duration");
        SimDuration((ns * FS_PER_NS as f64).round() as u64)
    }

    /// Creates a duration from a (possibly fractional) second count.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0, "negative duration");
        SimDuration((secs * 1e15).round() as u64)
    }

    /// Raw femtosecond count.
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This duration in nanoseconds (lossy).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// This duration in microseconds (lossy).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / FS_PER_US as f64
    }

    /// This duration in seconds (lossy).
    pub fn as_secs(self) -> f64 {
        self.0 as f64 * 1e-15
    }

    /// True if the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction; zero if `other` is longer.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns())
    }
}

/// A fixed-frequency clock domain.
///
/// Converts between cycle counts and [`SimDuration`]s. MACO has three
/// domains; the constants used throughout the workspace are
/// [`ClockDomain::CPU`] (2.2 GHz), [`ClockDomain::MMAE`] (2.5 GHz) and
/// [`ClockDomain::NOC`] (2.0 GHz), matching Section V.A of the paper.
///
/// # Example
///
/// ```
/// use maco_sim::ClockDomain;
/// let mmae = ClockDomain::MMAE;
/// assert_eq!(mmae.cycles(1).as_fs(), 400_000); // 2.5 GHz → 400 ps period
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    period_fs: u64,
}

impl ClockDomain {
    /// The MACO CPU core clock (2.2 GHz, Table IV).
    pub const CPU: ClockDomain = ClockDomain { period_fs: 454_545 };
    /// The MMAE clock (2.5 GHz, Table IV).
    pub const MMAE: ClockDomain = ClockDomain { period_fs: 400_000 };
    /// The NoC clock (2.0 GHz, Section III.A).
    pub const NOC: ClockDomain = ClockDomain { period_fs: 500_000 };

    /// Creates a domain from a frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "clock frequency must be positive");
        ClockDomain {
            period_fs: (1e6 / ghz).round() as u64,
        }
    }

    /// Creates a domain from a period in femtoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `period_fs` is zero.
    pub fn from_period_fs(period_fs: u64) -> Self {
        assert!(period_fs > 0, "clock period must be positive");
        ClockDomain { period_fs }
    }

    /// The clock period.
    pub fn period(&self) -> SimDuration {
        SimDuration(self.period_fs)
    }

    /// The frequency in GHz (lossy inverse of the stored period).
    pub fn freq_ghz(&self) -> f64 {
        1e6 / self.period_fs as f64
    }

    /// Duration of `n` cycles in this domain.
    pub fn cycles(&self, n: u64) -> SimDuration {
        SimDuration(self.period_fs * n)
    }

    /// Duration of a fractional cycle count (rounded to femtoseconds).
    pub fn cycles_f64(&self, n: f64) -> SimDuration {
        assert!(n >= 0.0, "negative cycle count");
        SimDuration((self.period_fs as f64 * n).round() as u64)
    }

    /// How many whole cycles of this domain have elapsed at instant `t`.
    pub fn cycles_at(&self, t: SimTime) -> u64 {
        t.as_fs() / self.period_fs
    }

    /// How many whole cycles of this domain fit in `d`.
    pub fn cycles_in(&self, d: SimDuration) -> u64 {
        d.as_fs() / self.period_fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(3) + SimDuration::from_ps(500);
        assert_eq!(t.as_fs(), 3_500_000);
        assert_eq!(t.since(SimTime::from_ns(3)), SimDuration::from_ps(500));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_ns(1);
        let late = SimTime::from_ns(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ns(1));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_negative_span() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn paper_clock_domains() {
        assert_eq!(ClockDomain::MMAE.cycles(1).as_fs(), 400_000);
        assert_eq!(ClockDomain::NOC.cycles(1).as_fs(), 500_000);
        // 2.2 GHz period rounds to 454 545 fs, within 1e-6 of exact.
        let exact = 1e15 / 2.2e9;
        let err = (ClockDomain::CPU.period().as_fs() as f64 - exact).abs() / exact;
        assert!(err < 1e-6);
    }

    #[test]
    fn from_ghz_matches_constants() {
        assert_eq!(ClockDomain::from_ghz(2.5), ClockDomain::MMAE);
        assert_eq!(ClockDomain::from_ghz(2.0), ClockDomain::NOC);
        assert_eq!(ClockDomain::from_ghz(2.2), ClockDomain::CPU);
    }

    #[test]
    fn cycle_conversions() {
        let clk = ClockDomain::from_ghz(2.0);
        assert_eq!(clk.cycles(7).as_ps(), 3_500.0);
        assert_eq!(clk.cycles_in(SimDuration::from_ns(1)), 2);
        assert_eq!(clk.cycles_at(SimTime::from_ns(10)), 20);
    }

    #[test]
    fn duration_ordering_and_sum() {
        let a = SimDuration::from_ns(1);
        let b = SimDuration::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        let total: SimDuration = [a, b, a].into_iter().sum();
        assert_eq!(total, SimDuration::from_ns(4));
    }

    #[test]
    fn fractional_cycles_round() {
        let clk = ClockDomain::MMAE;
        assert_eq!(clk.cycles_f64(0.5).as_fs(), 200_000);
        assert_eq!(clk.cycles_f64(2.25).as_fs(), 900_000);
    }

    impl SimDuration {
        fn as_ps(self) -> f64 {
            self.0 as f64 / FS_PER_PS as f64
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::from_ns(5)).is_empty());
        assert!(!format!("{}", SimDuration::from_ns(5)).is_empty());
    }
}
