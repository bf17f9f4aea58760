//! Virtual time: finite, non-negative seconds since simulation start.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the simulation epoch.
///
/// Values are always finite; constructors reject NaN/infinities so the
/// event queue's ordering is total.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct VirtualTime(f64);

impl VirtualTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// Creates a virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite.
    pub fn from_seconds(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "virtual time must be finite and non-negative, got {seconds}"
        );
        VirtualTime(seconds)
    }

    /// Seconds since the epoch.
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// This time advanced by `seconds` (clamped to non-negative).
    pub fn after(self, seconds: f64) -> VirtualTime {
        VirtualTime::from_seconds(self.0 + seconds.max(0.0))
    }

    /// The non-negative duration from `earlier` to `self`.
    pub fn since(self, earlier: VirtualTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }

    /// The later of two times.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for VirtualTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite by construction, so `partial_cmp` always answers; and
        // unlike `total_cmp` it keeps -0.0 and 0.0 equal, as `==` does.
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl Add<f64> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: f64) -> VirtualTime {
        self.after(rhs)
    }
}

impl AddAssign<f64> for VirtualTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = self.after(rhs);
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = f64;
    fn sub(self, rhs: VirtualTime) -> f64 {
        self.since(rhs)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = VirtualTime::from_seconds(1.5);
        assert_eq!(t.as_seconds(), 1.5);
        assert_eq!(VirtualTime::ZERO.as_seconds(), 0.0);
        assert_eq!(t.to_string(), "1.500s");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rejected() {
        let _ = VirtualTime::from_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_rejected() {
        let _ = VirtualTime::from_seconds(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let t = VirtualTime::from_seconds(10.0);
        assert_eq!((t + 5.0).as_seconds(), 15.0);
        assert_eq!(t.after(-3.0).as_seconds(), 10.0, "negative deltas clamp");
        let later = VirtualTime::from_seconds(12.0);
        assert_eq!(later - t, 2.0);
        assert_eq!(t - later, 0.0, "durations are non-negative");
        let mut m = t;
        m += 1.0;
        assert_eq!(m.as_seconds(), 11.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = VirtualTime::from_seconds(1.0);
        let b = VirtualTime::from_seconds(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
