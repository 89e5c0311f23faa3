//! Order statistics for pass times. The quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//! spreads this benchmark prints match the ones computed over its output.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile; `NaN`s for no samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            let m = n + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                // `delta` may leave 0..=4 after clamping: Python then
                // extrapolates, and so does this.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

/// The highest whole percentile `p` (nearest-rank) that still has at least
/// ten samples above its rank, with its value. `None` below 11 samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    let p = 100 * (n - 10) / n;
    let rank = (p * n).div_ceil(100).max(1);
    Some((p as u32, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&xs)[1], median(&xs));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        // p66 of 30 samples is rank 20; ranks 21..=30 lie beyond it.
        assert_eq!(tail_percentile(&xs), Some((66, 20.0)));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((9, 1.0)));
    }
}
