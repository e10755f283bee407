//! Summary statistics for timing samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the figure is one or two outliers, not a property of the run.
const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics. Panics on an empty slice or a NaN sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The sample on the good side of a timing distribution (the smallest
/// latency, the largest rate): what the run did when the host left it
/// alone. Host noise in the sandbox only ever slows work down, so this
/// end of the distribution repeats from run to run and the middle does
/// not.
pub fn best(samples: &[f64], lower_is_better: bool) -> f64 {
    assert!(!samples.is_empty(), "best of no samples");
    let pick = if lower_is_better { f64::min } else { f64::max };
    samples.iter().copied().reduce(pick).expect("not empty")
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even p75 has fewer (n < 40).
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= MIN_BEYOND * 100)
}

/// `|a − b|` as a share of the smaller magnitude — the run-to-run
/// difference `--self-check` holds against a metric's bound.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 75.0), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_ignores_one_sided_noise() {
        let quiet: Vec<f64> = (0..20).map(|i| 700.0 + i as f64).collect();
        let mut noisy = quiet.clone();
        for v in noisy.iter_mut().skip(2) {
            *v *= 1.6; // the host slows all but the first two items
        }
        assert!((median(&noisy) / median(&quiet) - 1.0).abs() > 0.5);
        assert_eq!(best(&noisy, true), best(&quiet, true));
        let rates: Vec<f64> = noisy.iter().map(|ms| 1e3 / ms).collect();
        assert_eq!(best(&rates, false), 1e3 / 700.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn relative_gap_is_symmetric_and_handles_zero() {
        assert_eq!(relative_gap(100.0, 110.0), relative_gap(110.0, 100.0));
        assert!((relative_gap(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }
}
