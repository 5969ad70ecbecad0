//! Order statistics over timing samples.

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q` in `[0, 1]`). `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Quartiles the way Python's `statistics.quantiles(xs, n=4)` gives
/// them (the default "exclusive" method), so the spread printed here
/// is the one a reader recomputes from the raw values.
pub fn quartiles_exclusive(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = (n + 1) as f64;
    let cut = |i: f64| {
        let j = ((i * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = i * m / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1.0), cut(2.0), cut(3.0)))
}

/// The highest of p99/p90/p75 that has at least ten samples beyond
/// it, as `(label, value)`; `None` below forty samples, where no
/// percentile would describe a tail.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    if xs.len() < 40 {
        return None;
    }
    [("p99", 99), ("p90", 90), ("p75", 75)]
        .into_iter()
        .find(|(_, pct)| xs.len() * (100 - pct) >= 1000)
        .and_then(|(label, pct)| quantile(xs, pct as f64 / 100.0).map(|v| (label, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0, 3.0]), Some((1.0, 2.0, 3.0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..39).map(f64::from).collect();
        assert!(tail(&xs).is_none());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some("p90"));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some("p99"));
    }
}
