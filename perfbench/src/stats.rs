//! Summary statistics the benchmark reports: medians, quartiles, the tail
//! percentile rule, open-loop lateness and the failure share.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values` by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`, so spreads
/// computed here match spreads computed over the printed results.
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Python's formula verbatim: clamp the order statistic, then
        // interpolate (or extrapolate, for tiny samples) from it.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile: the smallest sample with at least a `p`
/// share of the samples at or below it. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The standard percentiles a tail may be reported at, highest first.
/// The list stops at p95: on the two-vCPU shared host the benchmark was
/// sized on, the p99 of a 10 µs query moved by a quarter between runs
/// (far beyond any usable bound) while p95 moved by a few percent.
const TAIL_CANDIDATES: [f64; 3] = [0.95, 0.9, 0.5];

/// Number of samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest standard percentile (p95, p90, p50) that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it at a sample count of `n`. With
/// fewer than 20 samples no percentile qualifies and the median is used.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| {
            let rank = (p * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= TAIL_MIN_BEYOND
        })
        .unwrap_or(0.5)
}

/// The tail of `values` by [`tail_percentile`], as `(percentile, value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len());
    percentile(values, p).map(|v| (p, v))
}

/// How late an open-loop operation started: the time from when it was
/// due until it started, zero when it started on time or early.
pub fn lateness(due: Instant, started: Instant) -> Duration {
    started.saturating_duration_since(due)
}

/// Failed operations as a share of attempted ones. A run that attempted
/// nothing measured nothing, so it counts as wholly failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 168 advances: p95 leaves 8 beyond, p90 leaves 16.
        assert_eq!(tail_percentile(168), 0.9);
        // p95 needs 10 beyond: 200 samples leave exactly 10.
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.9);
        assert_eq!(tail_percentile(1_000_000), 0.95);
        // p90 needs 100 samples; p50 needs 20.
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(99), 0.5);
        assert_eq!(tail_percentile(20), 0.5);
        // Too few for any: fall back to the median.
        assert_eq!(tail_percentile(5), 0.5);
        assert_eq!(tail_percentile(0), 0.5);
        let v: Vec<f64> = (1..=168).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.9, 152.0)));
    }

    #[test]
    fn lateness_counts_from_due_time() {
        let base = Instant::now();
        let due = base + Duration::from_millis(10);
        assert_eq!(
            lateness(due, base + Duration::from_millis(15)),
            Duration::from_millis(5)
        );
        assert_eq!(lateness(due, due), Duration::ZERO);
        // Starting early is not negative lateness.
        assert_eq!(lateness(due, base), Duration::ZERO);
    }

    #[test]
    fn failed_share_handles_zero_attempts() {
        assert_eq!(failed_share(0, 0), 1.0);
        assert_eq!(failed_share(0, 10), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
