//! Timestamps and durations.
//!
//! The paper (§5) distinguishes three kinds of timestamps a data stream may
//! carry — *external* (assigned by the producing application), *internal*
//! (assigned on entry to the DSMS from the system clock) and *latent*
//! (assigned lazily by individual operators that need one). The kind is a
//! property of a **stream**, not of an individual tuple, and it determines
//! whether idle-waiting can occur at all and how Enabling Time-Stamps (ETS)
//! are generated for it; see [`TimestampKind`].
//!
//! A [`Timestamp`] itself is a plain monotone instant measured in
//! microseconds from an arbitrary epoch (simulation start in the
//! discrete-event engine, process start in the real-time engine).
//! Microsecond resolution is fine enough to resolve the paper's headline
//! ~0.1 ms latency gap between on-demand ETS and latent timestamps while
//! keeping arithmetic in `u64`.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds in one millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;

/// An instant on the (virtual or wall-clock) timeline, in microseconds since
/// an arbitrary epoch.
///
/// `Timestamp` is totally ordered; streams entering the DSMS are required to
/// be non-decreasing in their timestamps, which is the property every
/// idle-waiting-prone operator relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The epoch (time zero).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The greatest representable instant. Useful as an identity for `min`.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Builds a timestamp from raw microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Builds a timestamp from milliseconds, saturating at
    /// [`Timestamp::MAX`] on overflow.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis.saturating_mul(MICROS_PER_MILLI))
    }

    /// Builds a timestamp from whole seconds, saturating at
    /// [`Timestamp::MAX`] on overflow.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Builds a timestamp from fractional seconds, saturating at zero for
    /// negative inputs.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            Timestamp::ZERO
        } else {
            Timestamp((secs * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// Raw microsecond count since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction producing the elapsed duration between two
    /// instants; zero if `earlier` is actually later.
    #[inline]
    pub fn duration_since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction of a duration, saturating at the epoch. ETS
    /// generation for externally timestamped streams (`t + τ − δ`) must not
    /// underflow when the skew bound exceeds the elapsed time.
    #[inline]
    pub fn saturating_sub(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(delta.as_micros()))
    }

    /// Addition that saturates at `Timestamp::MAX` instead of overflowing.
    #[inline]
    pub fn saturating_add(self, delta: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(delta.as_micros()))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        // Saturate: a wrapping add would send time backwards, violating the
        // monotonicity contract every buffer and IWP operator relies on.
        Timestamp(self.0.saturating_add(rhs.as_micros()))
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.as_micros());
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta::from_micros(self.0.saturating_sub(rhs.0))
    }
}

/// A non-negative span of time, in microseconds.
///
/// Distinct from [`Timestamp`] so that instants and spans cannot be mixed up
/// in ETS arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl TimeDelta {
    /// The zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Builds a span from raw microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        TimeDelta(micros)
    }

    /// Builds a span from milliseconds, saturating on overflow.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        TimeDelta(millis.saturating_mul(MICROS_PER_MILLI))
    }

    /// Builds a span from whole seconds, saturating on overflow.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Builds a span from fractional seconds, saturating at zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            TimeDelta::ZERO
        } else {
            TimeDelta((secs * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    /// This span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True iff this is the zero span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> TimeDelta {
        TimeDelta(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= MICROS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl core::iter::Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> Self {
        iter.fold(TimeDelta::ZERO, |acc, d| acc + d)
    }
}

/// The three timestamp disciplines a stream can use (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimestampKind {
    /// Tuples were timestamped by the producing application. Future tuples
    /// are only bounded by an application-specific maximum skew, so ETS for
    /// such streams must apply the `t + τ − δ` rule of §5.
    External,
    /// Tuples are timestamped with the system clock when they enter the
    /// DSMS. An ETS can always be generated from the current clock value.
    Internal,
    /// Tuples carry no timestamp until an operator that needs one assigns it
    /// on the fly. Streams with latent timestamps never idle-wait: a union
    /// may forward tuples the moment they arrive. This is the paper's
    /// experimental lower bound (line **D**).
    Latent,
}

impl TimestampKind {
    /// Whether idle-waiting can occur on a stream of this kind. Latent
    /// streams are exempt by construction.
    #[inline]
    pub fn idle_waiting_possible(self) -> bool {
        !matches!(self, TimestampKind::Latent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Timestamp::from_secs(3), Timestamp::from_micros(3_000_000));
        assert_eq!(Timestamp::from_millis(5), Timestamp::from_micros(5_000));
        assert_eq!(TimeDelta::from_secs(2), TimeDelta::from_micros(2_000_000));
        assert_eq!(
            Timestamp::from_secs_f64(1.5),
            Timestamp::from_micros(1_500_000)
        );
        assert_eq!(Timestamp::from_secs_f64(-1.0), Timestamp::ZERO);
    }

    #[test]
    fn ordering_is_total_and_monotone() {
        let a = Timestamp::from_micros(10);
        let b = Timestamp::from_micros(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(Timestamp::MAX.min(a), a);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Timestamp::from_secs(1);
        let d = TimeDelta::from_millis(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
        // duration_since saturates rather than underflowing.
        assert_eq!(t.duration_since(t + d), TimeDelta::ZERO);
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        let t = Timestamp::from_micros(5);
        assert_eq!(
            t.saturating_sub(TimeDelta::from_micros(10)),
            Timestamp::ZERO
        );
        assert_eq!(
            Timestamp::MAX.saturating_add(TimeDelta::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(
            TimeDelta::from_micros(u64::MAX).saturating_mul(2),
            TimeDelta::from_micros(u64::MAX)
        );
    }

    #[test]
    fn add_saturates_at_the_u64_boundary() {
        // Plain `+` must never wrap past Timestamp::MAX: in release builds a
        // wrapped timestamp would travel backwards in time and silently
        // violate every ordering contract downstream.
        let near_max = Timestamp::from_micros(u64::MAX - 1);
        assert_eq!(near_max + TimeDelta::from_micros(1), Timestamp::MAX);
        assert_eq!(near_max + TimeDelta::from_micros(2), Timestamp::MAX);
        assert_eq!(Timestamp::MAX + TimeDelta::from_secs(1), Timestamp::MAX);

        let mut t = Timestamp::from_micros(u64::MAX - 5);
        t += TimeDelta::from_micros(100);
        assert_eq!(t, Timestamp::MAX);

        let d_max = TimeDelta::from_micros(u64::MAX);
        assert_eq!(d_max + TimeDelta::from_micros(1), d_max);
        let mut d = TimeDelta::from_micros(u64::MAX - 1);
        d += TimeDelta::from_micros(7);
        assert_eq!(d, d_max);
    }

    #[test]
    fn constructors_saturate_on_overflow() {
        assert_eq!(Timestamp::from_millis(u64::MAX), Timestamp::MAX);
        assert_eq!(Timestamp::from_secs(u64::MAX), Timestamp::MAX);
        assert_eq!(
            TimeDelta::from_millis(u64::MAX),
            TimeDelta::from_micros(u64::MAX)
        );
        assert_eq!(
            TimeDelta::from_secs(u64::MAX),
            TimeDelta::from_micros(u64::MAX)
        );
        // Values just below the boundary still multiply exactly.
        let ok = u64::MAX / MICROS_PER_SEC;
        assert_eq!(
            Timestamp::from_secs(ok),
            Timestamp::from_micros(ok * MICROS_PER_SEC)
        );
    }

    #[test]
    fn sum_saturates_instead_of_panicking() {
        let total: TimeDelta = [u64::MAX, u64::MAX, 1]
            .into_iter()
            .map(TimeDelta::from_micros)
            .sum();
        assert_eq!(total, TimeDelta::from_micros(u64::MAX));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(TimeDelta::from_micros(12).to_string(), "12us");
        assert_eq!(TimeDelta::from_millis(3).to_string(), "3.000ms");
        assert_eq!(TimeDelta::from_secs(2).to_string(), "2.000s");
        assert_eq!(Timestamp::from_secs(1).to_string(), "1.000000s");
    }

    #[test]
    fn latent_streams_never_idle_wait() {
        assert!(TimestampKind::External.idle_waiting_possible());
        assert!(TimestampKind::Internal.idle_waiting_possible());
        assert!(!TimestampKind::Latent.idle_waiting_possible());
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = [1u64, 2, 3].into_iter().map(TimeDelta::from_micros).sum();
        assert_eq!(total, TimeDelta::from_micros(6));
    }
}
