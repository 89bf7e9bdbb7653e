//! Estimators: medians, nearest-rank percentiles, the slice estimator and
//! the quartile spread the acceptance rule is stated in.
//!
//! Whole-run rates on the reference host moved ±20 % between runs while the
//! median over fixed-work slices stayed within ±2 %, so every reported rate
//! and percentile is a **median across slices** with the first and the last
//! slice dropped (ramp-up and drain).

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q ∈ [0, 1]` of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its nearest-rank percentiles.
pub fn percentiles(samples: &mut [f64], qs: &[f64]) -> Option<Vec<f64>> {
    samples.sort_by(f64::total_cmp);
    qs.iter().map(|&q| percentile_sorted(samples, q)).collect()
}

/// The slice estimator: drops the first and the last slice (when at least
/// three exist) and returns the median of the rest with the number of
/// slices it rests on.
pub fn slice_median(per_slice: &[f64]) -> Option<(f64, usize)> {
    let kept = if per_slice.len() >= 3 {
        &per_slice[1..per_slice.len() - 1]
    } else {
        per_slice
    };
    median(kept).map(|m| (m, kept.len()))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentiles(&mut v, &[0.5, 0.9, 0.99, 1.0]).unwrap();
        assert_eq!(p, vec![50.0, 90.0, 99.0, 100.0]);
        assert_eq!(percentile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn slice_median_drops_the_ends() {
        // The ramp-up and drain slices are outliers; the estimator must
        // not see them.
        let slices = [1.0, 100.0, 101.0, 102.0, 5000.0];
        assert_eq!(slice_median(&slices), Some((101.0, 3)));
        // Too few slices to trim: use what there is.
        assert_eq!(slice_median(&[10.0, 20.0]), Some((15.0, 2)));
        assert_eq!(slice_median(&[]), None);
    }

    #[test]
    fn slice_median_is_robust_to_one_stalled_slice() {
        let mut slices = vec![100.0; 21];
        slices[7] = 20.0; // one hypervisor stall
        let (m, n) = slice_median(&slices).unwrap();
        assert_eq!((m, n), (100.0, 19));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        let s = relative_spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
