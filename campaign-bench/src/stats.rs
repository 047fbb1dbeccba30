//! Order statistics for reported timings.

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in percent) of `sorted`, which must be
/// sorted ascending and non-empty.
fn nearest_rank(sorted: &[f64], q: u32) -> f64 {
    let n = sorted.len();
    let rank = (q as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The tail percentile a timing is reported at: the highest of p99, p95,
/// p90 and p50 that leaves at least ten samples above its nearest rank,
/// with its value. Fewer than twenty samples leave no percentile with ten
/// beyond it; the median is reported then, and the sample count beside it
/// says how little it rests on. `None` for no samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = [99, 95, 90, 50]
        .into_iter()
        .find(|&q| n - (q as usize * n).div_ceil(100) >= 10)
        .unwrap_or(50);
    Some((q, nearest_rank(&v, q)))
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 above it.
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
        // 999 samples: rank 990 leaves only 9, so p95 (rank 950).
        assert_eq!(tail(&ramp(999)), Some((95, 950.0)));
        assert_eq!(tail(&ramp(200)), Some((95, 190.0)));
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail(&ramp(99)), Some((50, 50.0)));
        assert_eq!(tail(&ramp(20)), Some((50, 10.0)));
    }

    #[test]
    fn tail_falls_back_to_median_below_twenty_samples() {
        assert_eq!(tail(&ramp(19)), Some((50, 10.0)));
        assert_eq!(tail(&[7.0]), Some((50, 7.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(tail(&v), Some((90, 90.0)));
    }
}
