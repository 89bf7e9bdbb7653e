//! # millstream-metrics
//!
//! Measurement infrastructure for the millstream DSMS, matching the
//! quantities the paper reports:
//!
//! * [`LatencyRecorder`] — average/percentile output latency (Fig. 7);
//! * [`IdleTracker`] — idle-waiting time fraction (§6 in-text comparison);
//! * [`RunMetrics`] — the combined, serializable result of one experiment
//!   run (peak queue size for Fig. 8 comes from
//!   `millstream_buffer::OccupancyTracker` and is folded in here).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod idle;
mod json;
mod latency;

pub use idle::{IdleSummary, IdleTracker};
pub use json::{Json, ToJson};
pub use latency::{LatencyRecorder, LatencySummary};

/// The combined, serializable measurements of one experiment run — one data
/// point of the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Output latency statistics (Fig. 7).
    pub latency: LatencySummary,
    /// Idle-waiting statistics of the monitored IWP operator (§6).
    pub idle: IdleSummary,
    /// Peak total queue size in tuples (Fig. 8).
    pub peak_queue_tuples: usize,
    /// Total punctuation tuples enqueued anywhere in the graph.
    pub punctuation_enqueued: u64,
    /// Data tuples delivered at sinks.
    pub delivered: u64,
    /// Virtual (or wall-clock) seconds the run covered.
    pub run_seconds: f64,
    /// Total operator-step work units executed (CPU cost proxy).
    pub work_units: u64,
}

impl RunMetrics {
    /// Delivered-tuple throughput in tuples per second of run time.
    pub fn throughput(&self) -> f64 {
        if self.run_seconds <= 0.0 {
            0.0
        } else {
            self.delivered as f64 / self.run_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use millstream_types::{TimeDelta, Timestamp};

    fn sample() -> RunMetrics {
        let mut lat = LatencyRecorder::new();
        lat.record(TimeDelta::from_millis(2));
        let mut idle = IdleTracker::new(Timestamp::ZERO);
        idle.set_idle(Timestamp::from_secs(1), true);
        idle.finish(Timestamp::from_secs(2));
        RunMetrics {
            latency: lat.summarize(),
            idle: idle.summarize(Timestamp::from_secs(2)),
            peak_queue_tuples: 42,
            punctuation_enqueued: 7,
            delivered: 100,
            run_seconds: 2.0,
            work_units: 1_000,
        }
    }

    #[test]
    fn throughput_math() {
        let m = sample();
        assert!((m.throughput() - 50.0).abs() < 1e-12);
        let zero = RunMetrics {
            run_seconds: 0.0,
            ..sample()
        };
        assert_eq!(zero.throughput(), 0.0);
    }

    #[test]
    fn fields_plumbed() {
        let m = sample();
        assert_eq!(m.latency.count, 1);
        assert!((m.latency.mean_ms - 2.0).abs() < 1e-9);
        assert!((m.idle.idle_fraction - 0.5).abs() < 1e-12);
        assert_eq!(m.peak_queue_tuples, 42);
    }
}
