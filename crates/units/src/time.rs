//! Simulated time: [`SimInstant`] (a point on the simulation clock) and
//! [`SimDuration`] (a span between two points).
//!
//! Both are backed by integer **milliseconds** so that event ordering in
//! the discrete-event kernel is exact and runs are bit-reproducible; the
//! paper's dynamics (10 s telemetry polling, 1 s utilization polling,
//! minutes-long thermal time constants) are far coarser than 1 ms.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with millisecond resolution.
///
/// # Example
///
/// ```
/// use leakctl_units::SimDuration;
///
/// let poll = SimDuration::from_secs(10);
/// let run = SimDuration::from_mins(80);
/// assert_eq!(run / poll, 480.0);
/// assert_eq!(poll * 3.0, SimDuration::from_secs(30));
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: Self = Self(0);

    /// Constructs a duration from whole milliseconds.
    #[inline]
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Constructs a duration from whole seconds.
    #[inline]
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Constructs a duration from fractional seconds.
    ///
    /// Sub-millisecond parts are rounded to the nearest millisecond;
    /// negative and non-finite inputs saturate to zero.
    #[inline]
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Self::ZERO;
        }
        Self((secs * 1_000.0).round() as u64)
    }

    /// Constructs a duration from whole minutes.
    #[inline]
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        Self(mins * 60_000)
    }

    /// Constructs a duration from whole hours.
    #[inline]
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * 3_600_000)
    }

    /// Milliseconds as an integer.
    #[inline]
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Minutes as a float.
    #[inline]
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// `true` when the duration is zero.
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    #[must_use]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    #[inline]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl Add for SimDuration {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    /// # Panics
    ///
    /// Panics in debug builds when `rhs > self`; use
    /// [`SimDuration::saturating_sub`] when underflow is possible.
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Self) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Div<u64> for SimDuration {
    type Output = Self;
    #[inline]
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0;
        if total_ms < 1_000 {
            write!(f, "{total_ms}ms")
        } else if total_ms < 60_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            let mins = total_ms / 60_000;
            let rem_s = (total_ms % 60_000) as f64 / 1_000.0;
            write!(f, "{mins}m{rem_s:.0}s")
        }
    }
}

/// A point on the simulation clock, measured from the start of the run.
///
/// # Example
///
/// ```
/// use leakctl_units::{SimDuration, SimInstant};
///
/// let t0 = SimInstant::ZERO;
/// let t1 = t0 + SimDuration::from_secs(30);
/// assert_eq!(t1 - t0, SimDuration::from_secs(30));
/// assert!(t1 > t0);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The start of simulated time.
    pub const ZERO: Self = Self(0);

    /// Constructs an instant at the given millisecond offset from zero.
    #[inline]
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// Milliseconds since the start of the run.
    #[inline]
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float.
    #[inline]
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Minutes since the start of the run, as a float.
    #[inline]
    #[must_use]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is in the future.
    #[inline]
    #[must_use]
    pub const fn since(self, earlier: Self) -> SimDuration {
        SimDuration::from_millis(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = Self;
    #[inline]
    fn add(self, rhs: SimDuration) -> Self {
        Self(self.0 + rhs.as_millis())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_millis();
    }
}

impl Sub for SimInstant {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds when `rhs` is later than `self`; use
    /// [`SimInstant::since`] when that is possible.
    #[inline]
    fn sub(self, rhs: Self) -> SimDuration {
        SimDuration::from_millis(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: SimDuration) -> Self {
        Self(self.0 - rhs.as_millis())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_millis(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(60), SimDuration::from_mins(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_millis(1_500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(2.5).as_millis(), 2_500);
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(10);
        let b = SimDuration::from_secs(4);
        assert_eq!(a + b, SimDuration::from_secs(14));
        assert_eq!(a - b, SimDuration::from_secs(6));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 2u64, SimDuration::from_secs(20));
        assert_eq!(a * 0.5, SimDuration::from_secs(5));
        assert_eq!(a / b, 2.5);
        assert_eq!(a / 2u64, SimDuration::from_secs(5));
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::ZERO;
        let t1 = t0 + SimDuration::from_mins(5);
        assert_eq!(t1.as_mins_f64(), 5.0);
        assert_eq!(t1 - t0, SimDuration::from_mins(5));
        assert_eq!(t0.since(t1), SimDuration::ZERO);
        assert_eq!(t1.since(t0), SimDuration::from_mins(5));
        assert_eq!(
            t1 - SimDuration::from_mins(1),
            t0 + SimDuration::from_mins(4)
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimInstant::from_millis(5),
            SimInstant::from_millis(1),
            SimInstant::from_millis(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimInstant::from_millis(1),
                SimInstant::from_millis(3),
                SimInstant::from_millis(5)
            ]
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_mins(80)), "80m0s");
        assert_eq!(format!("{}", SimInstant::from_millis(500)), "t+500ms");
    }
}
