//! Fixed-point time representation.
//!
//! All timing parameters (worst-case execution times, periods, deadlines,
//! response times, simulation timestamps) are expressed as an integral number
//! of *ticks*, where one tick is one microsecond. Using integers keeps the
//! schedulability analysis and the discrete-event simulator exact and free of
//! floating-point drift; utilisations and tightness metrics are the only
//! quantities computed in `f64`.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Number of ticks per microsecond (the tick *is* a microsecond).
pub const TICKS_PER_MICRO: u64 = 1;
/// Number of ticks per millisecond.
pub const TICKS_PER_MILLI: u64 = 1_000;
/// Number of ticks per second.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// A non-negative duration or instant measured in microsecond ticks.
///
/// `Time` is used both as a *duration* (WCET, period, deadline, response
/// time) and as an *instant* on the simulator's time line; the two uses never
/// mix in a way that requires distinct types, and keeping a single newtype
/// keeps the arithmetic ergonomic.
///
/// # Example
///
/// ```
/// use rt_core::Time;
///
/// let period = Time::from_millis(20);
/// let wcet = Time::from_micros(2_500);
/// assert_eq!(period.as_micros(), 20_000);
/// assert!(wcet < period);
/// assert_eq!((period - wcet).as_micros(), 17_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero duration.
    pub const ZERO: Time = Time(0);
    /// The largest representable time value.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time value from raw ticks (microseconds).
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Creates a time value from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros * TICKS_PER_MICRO)
    }

    /// Creates a time value from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * TICKS_PER_MILLI)
    }

    /// Creates a time value from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * TICKS_PER_SEC)
    }

    /// Creates a time value from a fractional number of seconds, rounding to
    /// the nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "time must be finite and non-negative, got {secs}"
        );
        Time((secs * TICKS_PER_SEC as f64).round() as u64)
    }

    /// Raw number of ticks.
    #[must_use]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// Number of whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / TICKS_PER_MICRO
    }

    /// Number of whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / TICKS_PER_MILLI
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_MILLI as f64
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SEC as f64
    }

    /// Whether this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[must_use]
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Checked multiplication by a scalar.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<Time> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a scalar.
    #[must_use]
    pub const fn saturating_mul(self, rhs: u64) -> Time {
        Time(self.0.saturating_mul(rhs))
    }

    /// Integer ceiling division `⌈self / rhs⌉`, as used by the response-time
    /// recurrence.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[must_use]
    pub const fn div_ceil(self, rhs: Time) -> u64 {
        assert!(rhs.0 != 0, "division by zero time");
        self.0.div_ceil(rhs.0)
    }

    /// Integer floor division `⌊self / rhs⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[must_use]
    pub const fn div_floor(self, rhs: Time) -> u64 {
        assert!(rhs.0 != 0, "division by zero time");
        self.0 / rhs.0
    }

    /// Ratio of two durations as `f64` (e.g. a utilisation `C / T`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[must_use]
    pub fn ratio(self, rhs: Time) -> f64 {
        assert!(!rhs.is_zero(), "division by zero time");
        self.0 as f64 / rhs.0 as f64
    }

    /// The smaller of two times.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({}us)", self.as_micros())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= TICKS_PER_SEC && self.0.is_multiple_of(TICKS_PER_SEC) {
            write!(f, "{}s", self.0 / TICKS_PER_SEC)
        } else if self.0 >= TICKS_PER_MILLI && self.0.is_multiple_of(TICKS_PER_MILLI) {
            write!(f, "{}ms", self.0 / TICKS_PER_MILLI)
        } else {
            write!(f, "{}us", self.as_micros())
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time addition overflowed"))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("time subtraction underflowed"),
        )
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(
            self.0
                .checked_mul(rhs)
                .expect("time multiplication overflowed"),
        )
    }
}

impl Mul<Time> for u64 {
    type Output = Time;
    fn mul(self, rhs: Time) -> Time {
        rhs * self
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Rem for Time {
    type Output = Time;
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl From<u64> for Time {
    fn from(ticks: u64) -> Self {
        Time::from_ticks(ticks)
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> Self {
        t.as_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1).as_ticks(), TICKS_PER_MICRO);
    }

    #[test]
    fn float_constructors_round_to_nearest() {
        assert_eq!(Time::from_secs_f64(0.0015), Time::from_micros(1_500));
        assert_eq!(Time::from_secs_f64(0.000_000_4), Time::from_ticks(0));
        assert_eq!(Time::from_secs_f64(2.5), Time::from_millis(2_500));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_float_panics() {
        let _ = Time::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Time::from_millis(10);
        let b = Time::from_millis(4);
        assert_eq!(a + b, Time::from_millis(14));
        assert_eq!(a - b, Time::from_millis(6));
        assert_eq!(a * 3, Time::from_millis(30));
        assert_eq!(a / 2, Time::from_millis(5));
        assert_eq!(a % b, Time::from_millis(2));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn div_ceil_and_floor() {
        let a = Time::from_millis(10);
        let b = Time::from_millis(3);
        assert_eq!(a.div_ceil(b), 4);
        assert_eq!(a.div_floor(b), 3);
        assert_eq!(a.div_ceil(Time::from_millis(5)), 2);
    }

    #[test]
    fn ratio_is_exact_for_small_values() {
        let c = Time::from_millis(5);
        let t = Time::from_millis(20);
        assert!((c.ratio(t) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_underflow_panics() {
        let _ = Time::from_millis(1) - Time::from_millis(2);
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(Time::from_secs(2).to_string(), "2s");
        assert_eq!(Time::from_millis(20).to_string(), "20ms");
        assert_eq!(Time::from_micros(1_500).to_string(), "1500us");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [
            Time::from_millis(1),
            Time::from_millis(2),
            Time::from_millis(3),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Time::from_millis(6));
    }

    #[test]
    fn min_max() {
        let a = Time::from_millis(1);
        let b = Time::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn checked_and_saturating_ops() {
        assert_eq!(Time::MAX.checked_add(Time::from_ticks(1)), None);
        assert_eq!(Time::MAX.saturating_add(Time::from_ticks(1)), Time::MAX);
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert_eq!(Time::MAX.saturating_mul(2), Time::MAX);
        assert_eq!(
            Time::from_ticks(3).checked_mul(4),
            Some(Time::from_ticks(12))
        );
    }
}
