//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of ascending `sorted`.
///
/// Returns `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie above
/// the chosen rank: such a tail is too thin to be a percentile of the
/// distribution rather than of a handful of outliers.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_distribution() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), Some(500));
        assert_eq!(percentile(&s, 0.99), Some(990));
        assert_eq!(percentile(&s, 0.001), Some(1));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly 10 above rank 990.
        let s: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&s, 0.99).is_some());
        // 999 samples: rank 990 leaves 9 above, too thin.
        assert_eq!(percentile(&s[..999], 0.99), None);
        // p999 needs 10 000 samples.
        let big: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&big, 0.999), Some(9_990));
        assert_eq!(percentile(&big[..9_999], 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
