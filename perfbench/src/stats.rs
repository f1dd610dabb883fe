//! Order statistics for wall-clock samples.
//!
//! A pass does deterministic CPU-bound work, so machine noise only ever
//! adds time: a low quantile of the per-pass wall is the steady estimate
//! of the true cost on a shared box, and every wall-based metric is
//! computed from the first decile. The README ("Why the first decile")
//! has the measurements that chose it over the minimum and the lower
//! quartile. The median and a high percentile are reported beside it,
//! never gated.

/// Quantile `q` (0..=1) of an unsorted sample, linearly interpolated
/// between the two nearest order statistics. Empty samples read 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The first decile: the wall-time estimator.
pub fn wall(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

/// The highest quantile that still has at least ten samples beyond it,
/// never below the median (with fewer than twenty samples there is no
/// such tail, and the median is the honest answer).
pub fn hi_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method) — the acceptance rule for this
/// benchmark is stated in those terms, so `compare` uses the same ones.
/// Needs at least two samples; fewer read as a zero-width distribution.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let k = (i + 1) * (n + 1);
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the acceptance rule bounds.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_and_ignores_order() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }

    #[test]
    fn wall_shrugs_off_a_slow_majority() {
        // Noise only adds time: two thirds of the passes landing 40%
        // late move the median, not the first decile.
        let mut s = vec![100.0; 10];
        s.extend([140.0; 20]);
        assert_eq!(wall(&s), 100.0);
        assert_eq!(quantile(&s, 0.5), 140.0);
    }

    #[test]
    fn hi_quantile_keeps_ten_samples_beyond() {
        assert_eq!(hi_quantile(5), 0.5);
        assert_eq!(hi_quantile(19), 0.5);
        assert_eq!(hi_quantile(20), 0.5);
        assert_eq!(hi_quantile(100), 0.9);
        assert_eq!(hi_quantile(1000), 0.99);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
