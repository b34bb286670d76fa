//! Summary statistics for latency samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile — the same cut points as
/// Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The percentile ladder a tail is reported on, in per mille.
const LADDER: [u64; 4] = [500, 900, 990, 999];

/// The highest ladder percentile with at least ten samples beyond it, and
/// its value (nearest rank). `None` with fewer than twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as u64;
    let pm = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| n - rank(n, pm) >= 10)?;
    Some((pm as f64 / 10.0, nearest_rank(values, pm)))
}

/// Nearest-rank percentile `p` (0–100, resolved to per mille); 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    nearest_rank(values, (p * 10.0).round() as u64)
}

/// 1-based nearest rank of per-mille `pm` among `n` samples, in integers
/// so that e.g. p99.9 of 10 000 samples is exactly rank 9 990.
fn rank(n: u64, pm: u64) -> u64 {
    (n * pm).div_ceil(1000).clamp(1, n.max(1))
}

fn nearest_rank(values: &[f64], pm: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len() as u64, pm) as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail(&v).map(|t| t.0),
            Some(90.0),
            "999 samples leave 9.99 beyond p99"
        );
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.0), Some(50.0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
