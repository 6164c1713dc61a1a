//! Order statistics over per-op host times.
//!
//! Every statistic here is one sample of the run, counted from the top:
//! `from_top(sorted, k)` is the sample with exactly `k` samples beyond
//! it. The median is the sample with `floor((n - 1) / 2)` samples beyond
//! it (the upper median when `n` is even); the tail is the sample with
//! [`TAIL_BEYOND`] samples beyond it — the highest percentile that still
//! rests on at least that many samples.

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The sample with exactly `k` samples beyond it in ascending `sorted`,
/// or `None` when there are not `k + 1` samples.
#[must_use]
pub fn from_top(sorted: &[f64], k: usize) -> Option<f64> {
    sorted.len().checked_sub(k + 1).map(|i| sorted[i])
}

/// Median, tail and sample count of one run's per-op times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples the statistics rest on.
    pub n: usize,
    /// Median (upper median for even `n`).
    pub p50: f64,
    /// The sample with [`TAIL_BEYOND`] samples beyond it.
    pub tail: f64,
    /// Percentile rank of `tail`: `100 * (n - TAIL_BEYOND) / n`.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when there are too few
    /// samples for a tail.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = from_top(&sorted, TAIL_BEYOND)?;
        Some(Summary {
            n,
            p50: from_top(&sorted, (n - 1) / 2)?,
            tail,
            tail_pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        })
    }
}

/// The median of `values` (mean of the middle two for even counts), for
/// aggregating repeated whole measurements such as set-up times.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_top_counts_samples_beyond() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(from_top(&sorted, 0), Some(4.0));
        assert_eq!(from_top(&sorted, 3), Some(1.0));
        assert_eq!(from_top(&sorted, 4), None);
    }

    #[test]
    fn median_is_upper_for_even_counts() {
        let odd = Summary::of(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(odd.p50, 6.0);
        let even = Summary::of(&(1..=12).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(even.p50, 7.0, "six samples lie below, five beyond");
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_and_states_its_rank() {
        // Shuffled input: the summary sorts.
        let samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.tail, 89.0, "samples 90..=99 lie beyond it");
        assert_eq!(s.tail_pct, 90.0);
        // The smallest run with a tail: eleven samples, tail = minimum.
        let s = Summary::of(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.tail, s.tail_pct), (0.0, 100.0 / 11.0));
        assert!(
            Summary::of(&[1.0; 10]).is_none(),
            "ten samples cannot have ten beyond"
        );
    }

    #[test]
    fn median_of_repeats_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
