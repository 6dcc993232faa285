//! Order statistics that only claim what the sample supports.

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The nearest-rank `p`th percentile (0 < p < 100) of `xs`, or `None`
/// unless at least ten samples lie beyond it: a tail figure resting on
/// fewer samples does not repeat.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The highest of p99.9, p99, p90 and p50 that the sample supports, with
/// its label.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(xs, p).map(|v| (p, v)))
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
