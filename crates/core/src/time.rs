//! Simulation time: nanosecond instants and durations.
//!
//! All timing in the workspace is expressed in integer nanoseconds so that
//! the discrete-event simulator is exactly deterministic and traces can be
//! serialized without floating-point round-trip loss. Conversions to `f64`
//! seconds happen only at metric-computation and reporting boundaries.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the (virtual or wall) clock, in nanoseconds since an
/// arbitrary epoch (simulation start, or trace-session start for real runs).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(pub u64);

/// A span of time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Dur(pub u64);

impl Nanos {
    /// The epoch (time zero).
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    /// Elapsed time since `earlier`, saturating to zero if `earlier` is later.
    pub fn since(self, earlier: Nanos) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
    /// The earlier of two instants.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
    /// The later of two instants.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }
    /// Construct from fractional seconds (rounds to nearest nanosecond,
    /// halves away from zero; negative inputs clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Dur::ZERO;
        }
        Dur(round_nonneg(s * NANOS_PER_SEC as f64))
    }

    /// Time to move `bytes` at `rate` bytes per second: exactly
    /// `Dur::from_secs_f64(bytes as f64 / rate as f64)`, the conversion
    /// every simulated link and device prices a transfer with.
    #[inline]
    pub fn for_bytes(bytes: u64, rate: u64) -> Self {
        Dur::from_secs_f64(bytes as f64 / rate as f64)
    }
    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    /// True if the duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `x.round() as u64` for `x >= 0` (or NaN), without the rounding libcall.
///
/// Below 2^52 the cast truncates exactly and the fraction `x - trunc(x)`
/// is exact too (Sterbenz), so comparing it with one half reproduces
/// round-half-away-from-zero bit for bit. From 2^52 up every double is
/// already an integer, and the cast saturates exactly as `round` would
/// before it (NaN casts to 0 either way).
#[inline]
fn round_nonneg(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x < EXACT {
        // Signed casts are single instructions; the value fits either way.
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add<Dur> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Dur) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}
impl AddAssign<Dur> for Nanos {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub<Dur> for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Dur) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}
impl Sub<Nanos> for Nanos {
    type Output = Dur;
    fn sub(self, rhs: Nanos) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}
impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}
impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_millis(2_000), Nanos(2 * NANOS_PER_SEC));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Dur::from_millis(1), Dur(NANOS_PER_SEC / 1_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Nanos::from_millis(10);
        let d = Dur::from_millis(4);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut u = t;
        u += d;
        assert_eq!(u, Nanos::from_millis(14));
    }

    #[test]
    fn since_saturates() {
        let a = Nanos::from_millis(1);
        let b = Nanos::from_millis(2);
        assert_eq!(b.since(a), Dur::from_millis(1));
        assert_eq!(a.since(b), Dur::ZERO);
    }

    #[test]
    fn secs_f64_conversion() {
        assert!((Dur::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Dur::from_secs_f64(1.5), Dur::from_millis(1500));
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    /// The conversion `from_secs_f64` used before the rounding shortcut.
    fn reference(s: f64) -> Dur {
        if s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[test]
    fn rounding_shortcut_matches_round_on_edge_cases() {
        let halfway = |ns: f64| ns / NANOS_PER_SEC as f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            -1.5,
            f64::MIN_POSITIVE,
            5e-324,
            halfway(0.5f64.next_down()),
            halfway(0.5),
            halfway(1.5),
            halfway(2.5),
            halfway(4503599627370495.5),
            halfway(4503599627370496.0),
            halfway(9007199254740993.0),
            1e10,
            1.8e10,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        // Values straddling every half-nanosecond boundary up to 2^53 ns.
        for k in 0..64 {
            let ns = (1u64 << k) as f64 + 0.5;
            for x in [ns, ns.next_down(), ns.next_up()] {
                inputs.push(x / NANOS_PER_SEC as f64);
            }
        }
        for s in inputs {
            assert_eq!(Dur::from_secs_f64(s), reference(s), "{s:e}");
        }
    }

    #[test]
    fn rounding_shortcut_matches_round_on_transfers() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for rate in [64, 1_000_000, 95_000_000, 117_000_000, 6_000_000_000] {
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bytes = x >> (x % 50);
                let want = reference(bytes as f64 / rate as f64);
                assert_eq!(Dur::for_bytes(bytes, rate), want, "{bytes} B at {rate} B/s");
                let f = (x >> 11) as f64 / (1u64 << 53) as f64;
                assert_eq!(
                    Dur::from_secs_f64(want.as_secs_f64() * f),
                    reference(want.as_secs_f64() * f)
                );
            }
        }
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Dur(500)), "500ns");
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.00us");
        assert_eq!(format!("{}", Dur::from_millis(12)), "12.00ms");
        assert_eq!(format!("{}", Dur::from_millis(2_000)), "2.000s");
    }

    #[test]
    fn min_max() {
        let a = Nanos(3);
        let b = Nanos(7);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
