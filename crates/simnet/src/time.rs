//! Simulated time: nanosecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn secs(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000_000)
    }

    /// Duration as nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as a float number of seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiply by an integer factor.
    #[inline]
    pub fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(SimDuration::micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::millis(5);
        assert_eq!(t.nanos(), 5_000_000);
        assert_eq!((t + SimDuration::millis(5)) - t, SimDuration::millis(5));
        assert_eq!(t.since(SimTime(10_000_000)), SimDuration::ZERO); // saturating
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::secs(5).to_string(), "5.000s");
        assert_eq!(SimTime(1_500_000_000).to_string(), "1.500000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::millis(1) < SimDuration::secs(1));
    }
}
