//! Percentile and median-over-reps arithmetic.
//!
//! A metric's reported value is the **median over reps** of a per-rep
//! statistic (a percentile, a ratio, a count). The summary also keeps the
//! min and max over reps — `compare` calls a pair *unresolved* when that
//! range is wider than the metric's bound — and the sample count behind
//! the per-rep statistic, so a reader can tell a p99 of 64 samples from a
//! p99 of 20 000.

use serde::{Deserialize, Serialize};

/// Nearest-rank percentile (`0 < p <= 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle samples of an even-sized set (the
/// same definition as Python's `statistics.median`, which the driver
/// applies to this benchmark's outputs).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// One metric on one workload, summarized over reps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Median over reps of the per-rep statistic — the metric's value.
    pub median: f64,
    /// Smallest per-rep statistic.
    pub min: f64,
    /// Largest per-rep statistic.
    pub max: f64,
    /// Number of reps summarized.
    pub reps: u64,
    /// Samples behind the per-rep statistic (smallest over reps).
    pub samples: u64,
}

/// Summarize `(statistic, samples)` pairs, one per rep.
pub fn summarize(per_rep: &[(f64, u64)]) -> Summary {
    let values: Vec<f64> = per_rep.iter().map(|&(v, _)| v).collect();
    Summary {
        median: median(&values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        reps: per_rep.len() as u64,
        samples: per_rep.iter().map(|&(_, n)| n).min().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        // 64 samples: the p99 rank is ceil(63.36) = 64, the maximum.
        let s: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 64.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn summary_is_median_min_max_over_reps() {
        let s = summarize(&[(10.0, 700), (30.0, 650), (20.0, 720)]);
        assert_eq!(
            s,
            Summary {
                median: 20.0,
                min: 10.0,
                max: 30.0,
                reps: 3,
                samples: 650
            }
        );
    }
}
