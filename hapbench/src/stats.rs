//! Order statistics for latency samples and run-to-run comparisons.

/// Percentile of an ascending-sorted sample by nearest rank: the smallest
/// value with at least `p` of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentiles a latency report may use, highest first.
pub const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.90, 0.75];

/// The highest of p99/p90/p75 with at least ten samples beyond it, or
/// `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let (n, m) = (4i64, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

/// [`median`], or 0 for an empty sample (a class a short run never saw).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// [`percentile`], or 0 for an empty sample.
pub fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p)
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_statistics_module() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // The exclusive method extrapolates on tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 4.0, 1.0, 8.0, 2.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn median_and_quartiles_agree_with_a_sorted_reference() {
        let mut rng = crate::rng::SplitMix64::new(3);
        for n in 2..40 {
            let values: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let reference = sorted(&values);
            let mid = if n % 2 == 1 {
                reference[n / 2]
            } else {
                (reference[n / 2 - 1] + reference[n / 2]) / 2.0
            };
            assert_eq!(median(&values), mid);
            let q = quartiles(&values);
            assert_eq!(q[1], mid, "the middle quartile is the median (n={n})");
            assert!(q[0] <= q[1] && q[1] <= q[2]);
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1000), Some(0.99));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                let beyond = n - rank(n, p);
                assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
                for higher in TAIL_CANDIDATES.into_iter().filter(|&h| h > p) {
                    assert!(n - rank(n, higher) < 10, "n={n}: p{higher} also qualifies");
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
