//! Summary statistics with the benchmark's reporting rules.
//!
//! A timing is reported as its median plus the highest percentile (at most
//! the 99th) that still has at least [`TAIL_SAMPLES_BEYOND`] samples beyond
//! it, together with the sample count, so a short run never reports a tail
//! that rests on one or two samples.

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The reported view of one sample population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The value at the tail percentile.
    pub tail: f64,
    /// The tail percentile actually reported, in percent (≤ 99).
    pub tail_pct: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Index into `n` ascending samples of the highest percentile at or below
/// the 99th with at least [`TAIL_SAMPLES_BEYOND`] samples after it; `None`
/// when `n` is too small for any such percentile.
#[must_use]
pub fn tail_index(n: usize) -> Option<usize> {
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    Some(p99.min(n - 1 - TAIL_SAMPLES_BEYOND))
}

/// Nearest-rank quantile `q` in `[0, 1]` of ascending `sorted` samples.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of `values` (nearest rank); 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Summarizes `values`. When there are too few samples for the tail rule
/// the tail is the maximum and `tail_pct` is 100, which callers print as a
/// warning rather than a percentile.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail, tail_pct) = match tail_index(n) {
        Some(i) => (sorted[i], (i + 1) as f64 * 100.0 / n as f64),
        None => (sorted.last().copied().unwrap_or(0.0), 100.0),
    };
    Summary {
        n,
        p50: quantile_sorted(&sorted, 0.5),
        tail,
        tail_pct,
        mean: mean(&sorted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in 11..5000 {
            let i = tail_index(n).expect("enough samples");
            assert!(n - 1 - i >= TAIL_SAMPLES_BEYOND, "n={n} i={i}");
            // It is the highest such index, capped at the 99th percentile.
            let p99 = (n * 99).div_ceil(100) - 1;
            assert!(i == p99 || n - 1 - i == TAIL_SAMPLES_BEYOND, "n={n} i={i}");
        }
        assert_eq!(tail_index(10), None);
        assert_eq!(tail_index(0), None);
        // With 1000 samples the 99th percentile has exactly ten beyond it.
        assert_eq!(tail_index(1000), Some(989));
        // With 100 samples only the 89th percentile qualifies.
        assert_eq!(tail_index(100), Some(89));
        // Large populations report the true 99th percentile.
        assert_eq!(tail_index(10_000), Some(9899));
    }

    #[test]
    fn summary_reports_rank_values() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        // 200 samples: index min(197, 189) = 189 → value 190, 95th pct.
        assert_eq!(s.tail, 190.0);
        assert!((s.tail_pct - 95.0).abs() < 1e-12);
        assert!((s.mean - 100.5).abs() < 1e-12);
    }

    #[test]
    fn small_populations_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.tail_pct, 100.0);
        assert_eq!(summarize(&[]).n, 0);
    }
}
