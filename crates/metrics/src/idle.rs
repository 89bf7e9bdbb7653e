//! Idle-waiting time accounting.
//!
//! The paper verifies its latency results by measuring "the percentage of
//! time the union operator spends in an idle-waiting state" (§6): 99% with
//! no ETS, ~15% with 100/s periodic punctuation, <0.1% with on-demand ETS.
//! [`IdleTracker`] integrates that state over (virtual) time: an IWP
//! operator is *idle-waiting* while it holds at least one pending input
//! tuple but its (relaxed) `more` condition is false.

use millstream_types::{TimeDelta, Timestamp};

/// Integrates the time an operator spends idle-waiting.
///
/// Instants are clamped to an internal monotone high-water mark, so
/// reports arriving with a non-monotone `now` — possible when instants
/// from merged parallel component clocks or network-arrival wall clocks
/// interleave — can never make a span negative, inflate totals past the
/// observation window, or push [`IdleTracker::idle_fraction`] outside
/// `[0, 1]`. An out-of-order instant simply behaves as if it arrived "as
/// late as anything already seen".
#[derive(Debug, Clone)]
pub struct IdleTracker {
    started_at: Timestamp,
    /// Latest instant ever reported; all incoming instants clamp to this.
    high_water: Timestamp,
    idle_since: Option<Timestamp>,
    total_idle: TimeDelta,
    episodes: u64,
    longest: TimeDelta,
}

impl IdleTracker {
    /// Creates a tracker; `start` is the beginning of the observation
    /// window.
    pub fn new(start: Timestamp) -> Self {
        IdleTracker {
            started_at: start,
            high_water: start,
            idle_since: None,
            total_idle: TimeDelta::ZERO,
            episodes: 0,
            longest: TimeDelta::ZERO,
        }
    }

    /// Clamps a reported instant to the monotone timeline and advances the
    /// high-water mark.
    fn clamp(&mut self, now: Timestamp) -> Timestamp {
        self.high_water = self.high_water.max(now);
        self.high_water
    }

    /// Reports the operator's state at instant `now`: `idle` is true while
    /// the operator idle-waits. Consecutive reports of the same state are
    /// idempotent. A `now` earlier than a previously reported instant is
    /// treated as that latest instant (saturating, never panicking).
    pub fn set_idle(&mut self, now: Timestamp, idle: bool) {
        let now = self.clamp(now);
        match (self.idle_since, idle) {
            (None, true) => {
                self.idle_since = Some(now);
                self.episodes += 1;
            }
            (Some(since), false) => {
                let span = now.duration_since(since);
                self.total_idle += span;
                self.longest = self.longest.max(span);
                self.idle_since = None;
            }
            _ => {}
        }
    }

    /// Closes any open idle episode at `now` (end of run).
    pub fn finish(&mut self, now: Timestamp) {
        self.set_idle(now, false);
    }

    /// Total idle-waiting time accumulated (excluding an open episode).
    pub fn total_idle(&self) -> TimeDelta {
        self.total_idle
    }

    /// Number of idle episodes begun.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Longest single idle episode.
    pub fn longest_episode(&self) -> TimeDelta {
        self.longest
    }

    /// Fraction of the observation window `[start, now]` spent idle.
    /// Includes the currently open episode, if any. A `now` behind the
    /// latest reported instant evaluates at that instant instead, so the
    /// result is always in `[0, 1]`.
    pub fn idle_fraction(&self, now: Timestamp) -> f64 {
        // Read-only clamp: `idle_fraction` must not move the high-water
        // mark (it takes `&self`), but it evaluates on the same monotone
        // timeline as the mutating reports.
        let now = now.max(self.high_water);
        let window = now.duration_since(self.started_at).as_micros();
        if window == 0 {
            return 0.0;
        }
        let mut idle = self.total_idle.as_micros();
        if let Some(since) = self.idle_since {
            idle += now.duration_since(since).as_micros();
        }
        (idle as f64 / window as f64).min(1.0)
    }

    /// Serializable summary at instant `now`.
    pub fn summarize(&self, now: Timestamp) -> IdleSummary {
        IdleSummary {
            idle_fraction: self.idle_fraction(now),
            episodes: self.episodes,
            longest_episode_ms: self.longest.as_millis_f64(),
            total_idle_ms: self.total_idle.as_millis_f64(),
        }
    }
}

/// Serializable idle-waiting summary (the in-text §6 comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct IdleSummary {
    /// Fraction of the run spent idle-waiting (0..1).
    pub idle_fraction: f64,
    /// Number of idle episodes.
    pub episodes: u64,
    /// Longest single episode in milliseconds.
    pub longest_episode_ms: f64,
    /// Total idle time in milliseconds.
    pub total_idle_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::from_micros(v)
    }

    #[test]
    fn integrates_episodes() {
        let mut t = IdleTracker::new(ts(0));
        t.set_idle(ts(10), true);
        t.set_idle(ts(30), false); // 20us idle
        t.set_idle(ts(50), true);
        t.set_idle(ts(100), false); // 50us idle
        assert_eq!(t.total_idle(), TimeDelta::from_micros(70));
        assert_eq!(t.episodes(), 2);
        assert_eq!(t.longest_episode(), TimeDelta::from_micros(50));
        assert!((t.idle_fraction(ts(100)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn repeated_reports_are_idempotent() {
        let mut t = IdleTracker::new(ts(0));
        t.set_idle(ts(10), true);
        t.set_idle(ts(20), true); // no new episode
        t.set_idle(ts(30), false);
        t.set_idle(ts(40), false);
        assert_eq!(t.episodes(), 1);
        assert_eq!(t.total_idle(), TimeDelta::from_micros(20));
    }

    #[test]
    fn open_episode_counts_in_fraction() {
        let mut t = IdleTracker::new(ts(0));
        t.set_idle(ts(0), true);
        // Still idle at 100: fraction is 1.0 even though not closed.
        assert!((t.idle_fraction(ts(100)) - 1.0).abs() < 1e-12);
        t.finish(ts(100));
        assert_eq!(t.total_idle(), TimeDelta::from_micros(100));
    }

    #[test]
    fn zero_window_is_zero_fraction() {
        let t = IdleTracker::new(ts(5));
        assert_eq!(t.idle_fraction(ts(5)), 0.0);
    }

    #[test]
    fn non_monotone_instants_saturate() {
        let mut t = IdleTracker::new(ts(100));
        // Idle episode opens at 150, closes with a regressed instant: the
        // close clamps to 150 and the span saturates to zero.
        t.set_idle(ts(150), true);
        t.set_idle(ts(120), false);
        assert_eq!(t.total_idle(), TimeDelta::ZERO);
        assert_eq!(t.episodes(), 1);
        // A regressed open instant clamps forward to the high-water mark.
        t.set_idle(ts(200), false); // advance the timeline idle-free
        t.set_idle(ts(130), true); // clamps to 200
        t.set_idle(ts(260), false);
        assert_eq!(t.total_idle(), TimeDelta::from_micros(60));
        // Evaluating the fraction at a stale instant stays in [0, 1].
        let f = t.idle_fraction(ts(0));
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }

    #[test]
    fn summary_fields() {
        let mut t = IdleTracker::new(ts(0));
        t.set_idle(ts(0), true);
        t.set_idle(ts(1_000), false);
        let s = t.summarize(ts(2_000));
        assert!((s.idle_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.episodes, 1);
        assert!((s.total_idle_ms - 1.0).abs() < 1e-12);
    }
}
