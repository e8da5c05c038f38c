//! Simulation clock.
//!
//! The simulator keeps time as integer microseconds so timestamps have a
//! total order (no NaN) and event-order comparisons are exact; workload
//! traces use `f64` milliseconds at the boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the run started.
///
/// # Examples
///
/// ```
/// use ecg_sim::SimTime;
///
/// let t = SimTime::from_ms(1.5);
/// assert_eq!(t.as_micros(), 1_500);
/// assert_eq!(t.as_ms(), 1.5);
/// let later = t + SimTime::from_ms(0.5);
/// assert!(later > t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from (non-negative, finite) milliseconds, rounding
    /// to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative, NaN, or infinite.
    pub fn from_ms(ms: f64) -> Self {
        Self::try_from_ms(ms).unwrap_or_else(|| panic!("time must be finite and >= 0, got {ms}"))
    }

    /// Like [`SimTime::from_ms`], but `None` instead of a panic for a
    /// negative, NaN, or infinite `ms` — the form input validation uses.
    #[inline]
    pub fn try_from_ms(ms: f64) -> Option<Self> {
        (ms.is_finite() && ms >= 0.0).then(|| SimTime(round_to_u64(ms * 1_000.0)))
    }

    /// [`SimTime::from_ms`] of a time input validation has already
    /// accepted: the quantisation alone.
    #[inline]
    pub(crate) fn from_valid_ms(ms: f64) -> Self {
        debug_assert!(ms.is_finite() && ms >= 0.0, "unvalidated time {ms}");
        SimTime(round_to_u64(ms * 1_000.0))
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference, as milliseconds.
    pub fn ms_since(self, earlier: SimTime) -> f64 {
        (self.0.saturating_sub(earlier.0)) as f64 / 1_000.0
    }
}

/// `x.round() as u64` for a non-negative (or `+∞`) `x`, without the
/// call into libm that `f64::round` is on baseline x86-64 — this runs
/// once per event. Below 2⁵² the truncation `t` is exact and so is
/// `x − t` (both are multiples of `x`'s last place and the difference is
/// under 1), so comparing it with one half rounds ties away from zero
/// exactly as `round` does; from 2⁵² on every `f64` is an integer and
/// the cast alone (saturating, like `round`'s) is the answer. The
/// common case goes through `i64`, which converts in one instruction
/// each way where `u64` takes a dozen.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const INTEGERS_FROM: f64 = (1u64 << 52) as f64;
    if x < INTEGERS_FROM {
        let truncated = x as i64;
        (truncated + i64::from(x - truncated as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Saturating subtraction: time never goes negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_round_trip() {
        let t = SimTime::from_ms(123.456);
        assert!((t.as_ms() - 123.456).abs() < 1e-3);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_ms(1.0);
        let b = SimTime::from_ms(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(5.0);
        let b = SimTime::from_ms(3.0);
        assert_eq!((a + b).as_ms(), 8.0);
        assert_eq!((a - b).as_ms(), 2.0);
        // Saturating.
        assert_eq!((b - a).as_ms(), 0.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_ms(), 8.0);
    }

    #[test]
    fn ms_since_saturates() {
        let a = SimTime::from_ms(5.0);
        let b = SimTime::from_ms(9.0);
        assert_eq!(b.ms_since(a), 4.0);
        assert_eq!(a.ms_since(b), 0.0);
    }

    #[test]
    fn display_shows_ms() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_ms_panics() {
        let _ = SimTime::from_ms(-1.0);
    }

    #[test]
    fn inline_rounding_is_f64_round() {
        let same = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        // Ties, and the values one place either side of them.
        for whole in [0u64, 1, 2, 3, 1_000, 999_999, (1 << 51) - 1, (1 << 52) - 1] {
            let tie = whole as f64 + 0.5;
            for x in [whole as f64, tie.next_down(), tie, tie.next_up()] {
                same(x);
            }
        }
        // Where the fractions end, and where the cast saturates.
        let two52 = (1u64 << 52) as f64;
        for x in [
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 + 2.0,
        ] {
            same(x);
        }
        for x in [
            0.49999999999999994,
            1e19,
            1.8446744073709552e19,
            1e300,
            f64::MAX,
        ] {
            same(x);
        }
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
        // 5 M pseudo-random values across every binade a time can have.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mantissa = (state >> 12) as f64 / (1u64 << 52) as f64;
            same((1.0 + mantissa) * 2f64.powi((state % 66) as i32 - 2));
        }
    }

    #[test]
    fn try_from_ms_rejects_what_from_ms_panics_on() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(SimTime::try_from_ms(bad), None, "{bad}");
        }
        assert_eq!(SimTime::try_from_ms(1.5), Some(SimTime::from_ms(1.5)));
    }
}
