//! Output-latency recording.
//!
//! The paper's Figure 7 reports **average output latency** across four
//! orders of magnitude (log scale), so the recorder keeps exact count/sum/
//! min/max plus a logarithmic histogram for percentiles. Buckets are
//! half-powers of two of microseconds, giving ≤ ~41% relative error per
//! bucket — plenty for a log-scale plot — with a fixed 128-slot footprint.

use millstream_types::TimeDelta;

/// Number of histogram buckets: 2 per power of two of `u64` microseconds.
const BUCKETS: usize = 128;

/// Records a population of latencies.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    count: u64,
    sum_micros: u128,
    min: TimeDelta,
    max: TimeDelta,
    histogram: Box<[u64; BUCKETS]>,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            count: 0,
            sum_micros: 0,
            min: TimeDelta::from_micros(u64::MAX),
            max: TimeDelta::ZERO,
            histogram: Box::new([0; BUCKETS]),
        }
    }

    /// Bucket index for a latency: two buckets per binary order of
    /// magnitude (the second at sqrt(2)·2^k).
    fn bucket(latency: TimeDelta) -> usize {
        let v = latency.as_micros();
        if v == 0 {
            return 0;
        }
        let log2 = 63 - v.leading_zeros() as usize;
        // Sub-bucket: is v past the midpoint 1.5 * 2^log2?
        let half = usize::from(v >= (1u64 << log2) + (1u64 << log2) / 2);
        (log2 * 2 + half + 1).min(BUCKETS - 1)
    }

    /// Representative (upper-bound) value of a bucket, in microseconds.
    fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            return 0;
        }
        let log2 = (index - 1) / 2;
        let half = (index - 1) % 2;
        if half == 0 {
            (1u64 << log2) + (1u64 << log2) / 2
        } else {
            1u64 << (log2 + 1)
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: TimeDelta) {
        self.count += 1;
        self.sum_micros += latency.as_micros() as u128;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        self.histogram[Self::bucket(latency)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean latency, or `None` if no observations.
    pub fn mean(&self) -> Option<TimeDelta> {
        if self.count == 0 {
            None
        } else {
            Some(TimeDelta::from_micros(
                (self.sum_micros / self.count as u128) as u64,
            ))
        }
    }

    /// Exact minimum.
    pub fn min(&self) -> Option<TimeDelta> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum.
    pub fn max(&self) -> Option<TimeDelta> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q ∈ [0, 1]` from the histogram (upper bound of
    /// the containing bucket, clamped to the exact max).
    pub fn quantile(&self, q: f64) -> Option<TimeDelta> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.histogram.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = TimeDelta::from_micros(Self::bucket_upper(i));
                return Some(upper.min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Merges another recorder into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.histogram.iter_mut().zip(other.histogram.iter()) {
            *a += b;
        }
    }

    /// Collapses the recorder into a serializable summary.
    pub fn summarize(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ms: self.mean().map_or(f64::NAN, |d| d.as_millis_f64()),
            min_ms: self.min().map_or(f64::NAN, |d| d.as_millis_f64()),
            max_ms: self.max().map_or(f64::NAN, |d| d.as_millis_f64()),
            p50_ms: self.quantile(0.50).map_or(f64::NAN, |d| d.as_millis_f64()),
            p90_ms: self.quantile(0.90).map_or(f64::NAN, |d| d.as_millis_f64()),
            p95_ms: self.quantile(0.95).map_or(f64::NAN, |d| d.as_millis_f64()),
            p99_ms: self.quantile(0.99).map_or(f64::NAN, |d| d.as_millis_f64()),
        }
    }
}

/// Serializable latency summary (one Fig. 7 data point).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of output tuples observed.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Minimum latency in milliseconds.
    pub min_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
    /// Median latency in milliseconds (histogram-approximate).
    pub p50_ms: f64,
    /// 90th-percentile latency in milliseconds (histogram-approximate).
    pub p90_ms: f64,
    /// 95th-percentile latency in milliseconds (histogram-approximate).
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds (histogram-approximate).
    pub p99_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> TimeDelta {
        TimeDelta::from_micros(v)
    }

    #[test]
    fn empty_recorder() {
        let r = LatencyRecorder::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), None);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.quantile(0.5), None);
    }

    #[test]
    fn exact_stats() {
        let mut r = LatencyRecorder::new();
        for v in [10, 20, 30] {
            r.record(us(v));
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean(), Some(us(20)));
        assert_eq!(r.min(), Some(us(10)));
        assert_eq!(r.max(), Some(us(30)));
    }

    #[test]
    fn zero_latency_supported() {
        let mut r = LatencyRecorder::new();
        r.record(TimeDelta::ZERO);
        assert_eq!(r.mean(), Some(TimeDelta::ZERO));
        assert_eq!(r.quantile(0.5), Some(TimeDelta::ZERO));
    }

    #[test]
    fn quantiles_are_bucket_bounded() {
        let mut r = LatencyRecorder::new();
        // 99 fast observations, 1 slow.
        for _ in 0..99 {
            r.record(us(100));
        }
        r.record(us(1_000_000));
        let p50 = r.quantile(0.5).unwrap().as_micros();
        assert!((100..=200).contains(&p50), "p50={p50}");
        let p999 = r.quantile(0.999).unwrap().as_micros();
        assert!(p999 >= 500_000, "p999={p999}");
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.record(us(v * 13));
        }
        let qs: Vec<u64> = [0.1, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| r.quantile(q).unwrap().as_micros())
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [1u64, 3, 7, 100, 1_000, 123_456, 10_000_000] {
            let b = LatencyRecorder::bucket(us(v));
            let upper = LatencyRecorder::bucket_upper(b);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert!(
                (upper as f64) <= v as f64 * 2.0,
                "bucket too coarse for {v}: upper {upper}"
            );
        }
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(us(10));
        b.record(us(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(us(20)));
        assert_eq!(a.max(), Some(us(30)));
    }
}
