//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p * n)`.  A percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a tail figure never rests on a
//! handful of outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The mean over `groups` of each group's median, skipping empty groups (`None` when every
/// group is empty).  Every group weighs the same however many samples it holds, and a few
/// outliers in a group do not move its median.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = groups.iter().filter_map(|g| median(g)).collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// The 1-based nearest rank of percentile `p` (in `0..=1`) among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps `0.99 * 1000` at rank 990 whichever way the product rounds.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n).min(n)
}

/// Whether `n` samples support percentile `p` under the ten-samples-beyond rule.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && beyond(p, n) >= MIN_BEYOND
}

/// The highest percentile of `ladder` (sorted descending) that `n` samples support.
pub fn highest_supported(ladder: &[f64], n: usize) -> Option<f64> {
    ladder.iter().copied().find(|&p| supported(p, n))
}

/// Nearest-rank percentile of `samples` (unsorted; `None` when empty).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The median as the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(0.99, 999));
        assert_eq!(beyond(0.99, 999), 9);
        assert!(supported(0.99, 1000));
        assert_eq!(beyond(0.99, 1000), 10);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supported(0.95, 199));
        assert!(supported(0.95, 200));
    }

    #[test]
    fn highest_supported_walks_down_the_ladder() {
        let ladder = [0.99, 0.95, 0.9, 0.5];
        assert_eq!(highest_supported(&ladder, 5000), Some(0.99));
        assert_eq!(highest_supported(&ladder, 500), Some(0.95));
        assert_eq!(highest_supported(&ladder, 100), Some(0.9));
        assert_eq!(highest_supported(&ladder, 20), Some(0.5));
        assert_eq!(highest_supported(&ladder, 19), None);
        assert_eq!(highest_supported(&ladder, 0), None);
    }

    #[test]
    fn mean_of_medians_weighs_groups_equally() {
        let groups = vec![vec![1.0, 2.0, 100.0], vec![], vec![4.0]];
        assert_eq!(mean_of_medians(&groups), Some(3.0));
        assert_eq!(mean_of_medians(&[vec![], vec![]]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
