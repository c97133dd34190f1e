//! Order statistics over timing samples.

/// Median of `v` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// The highest of a few fixed percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` when fewer than
/// 40 samples exist (not even the 75th percentile has ten beyond it).
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Percentiles in tenths, so ranks are exact integers.
    [999usize, 990, 950, 900, 750].into_iter().find_map(|p10| {
        let rank = (p10 * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (p10 as f64 / 10.0, s[rank - 1]))
    })
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[1.0; 15]), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
