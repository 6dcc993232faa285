//! Z-normalization and basic statistics for time series.
//!
//! The UCR-suite methodology (Rakthanmanon et al., the paper's reference
//! \[24\]) z-normalizes every subsequence before distance computation; the
//! datasets crate uses these utilities when formalizing series "with
//! different lengths" as the paper's experimental setup does.

/// Mean of a slice. Returns `0.0` for an empty slice.
///
/// Computed incrementally (Welford), so a constant series of any
/// representable magnitude yields that constant exactly — a naive
/// `sum / n` overflows to `inf` for values near `f64::MAX`.
pub fn mean(xs: &[f64]) -> f64 {
    let mut m = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        m += (x - m) / (i + 1) as f64;
    }
    m
}

/// Population standard deviation. Returns `0.0` for slices shorter than 1.
///
/// Uses Welford's single-pass update, which is overflow-immune for
/// constant and near-constant series regardless of magnitude.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut m = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - m;
        m += delta / (i + 1) as f64;
        m2 += delta * (x - m);
    }
    (m2 / xs.len() as f64).sqrt()
}

/// Mean and population standard deviation in one Welford pass —
/// bitwise `(mean(xs), std_dev(xs))`: the running mean takes the same
/// operations in both folds, so fusing them changes no bit.
pub fn moments(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut m = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - m;
        m += delta / (i + 1) as f64;
        m2 += delta * (x - m);
    }
    (m, (m2 / xs.len() as f64).sqrt())
}

/// What [`z_normalize_in_place`] measured: the statistics it normalized
/// with and whether the degenerate rule zeroed the series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZStats {
    /// Bitwise [`mean`] of the input.
    pub mean: f64,
    /// Bitwise [`std_dev`] of the input.
    pub std_dev: f64,
    /// `true` when the series was mapped to all zeros.
    pub degenerate: bool,
}

/// Z-normalizes a series in place: zero mean, unit variance. Returns
/// the statistics used, so callers that report them need no second fold.
///
/// Degenerate inputs never produce `NaN`/`Inf`:
///
/// * a constant series (σ = 0) maps to all zeros — UCR-suite practice —
///   at *any* magnitude, including values near `f64::MAX` where naive
///   mean/variance accumulation overflows;
/// * a near-constant series whose σ is below numerical resolution
///   relative to its mean (σ ≤ 1e-12·max(1, |mean|)) also maps to zeros
///   instead of amplifying cancellation noise;
/// * if the statistics themselves are not finite (e.g. a series mixing
///   `±f64::MAX`, whose variance is unrepresentable), the series maps to
///   zeros rather than propagating `Inf`.
///
/// The first rule needs no check of its own: the Welford fold of a
/// bitwise-constant finite series sets the mean to its first value
/// exactly and then adds only zero deltas, so σ is exactly 0 and the
/// floor fires (a constant `±∞` or `NaN` series has non-finite
/// statistics). An empty series is degenerate and stays empty.
pub fn z_normalize_in_place(xs: &mut [f64]) -> ZStats {
    let (m, s) = moments(xs);
    let degenerate = !m.is_finite() || !s.is_finite() || s <= 1e-12 * m.abs().max(1.0);
    if degenerate {
        xs.fill(0.0);
    } else {
        xs.iter_mut().for_each(|x| *x = (*x - m) / s);
    }
    ZStats {
        mean: m,
        std_dev: s,
        degenerate,
    }
}

/// Returns a z-normalized copy of a series.
///
/// ```
/// use mda_distance::znorm::z_normalized;
/// let z = z_normalized(&[1.0, 2.0, 3.0]);
/// assert!(z[0] < 0.0 && z[1].abs() < 1e-12 && z[2] > 0.0);
/// ```
pub fn z_normalized(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    z_normalize_in_place(&mut v);
    v
}

/// Linearly resamples a series to `target_len` points, preserving endpoints.
///
/// Used to "formalize the sequences with different lengths" (Section 4.1 of
/// the paper) from datasets with a fixed native length.
///
/// # Panics
///
/// Panics if `xs` is empty or `target_len` is zero.
pub fn resample(xs: &[f64], target_len: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "cannot resample an empty series");
    assert!(target_len > 0, "target length must be positive");
    if target_len == 1 {
        return vec![xs[0]];
    }
    if xs.len() == 1 {
        return vec![xs[0]; target_len];
    }
    let scale = (xs.len() - 1) as f64 / (target_len - 1) as f64;
    (0..target_len)
        .map(|i| {
            let t = i as f64 * scale;
            let lo = t.floor() as usize;
            let hi = (lo + 1).min(xs.len() - 1);
            let frac = t - lo as f64;
            xs[lo] * (1.0 - frac) + xs[hi] * frac
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn z_normalized_has_zero_mean_unit_variance() {
        let z = z_normalized(&[3.0, 7.0, 1.0, -4.0, 2.5]);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_maps_to_zeros() {
        assert_eq!(z_normalized(&[5.0, 5.0, 5.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn huge_constant_series_maps_to_zeros_not_nan() {
        // Regression: the naive sum overflowed to inf for values near
        // f64::MAX, turning (x - mean) / sigma into NaN.
        for v in [1.0e308, f64::MAX, -1.0e308, 1.0e-308] {
            let z = z_normalized(&[v; 4]);
            assert_eq!(z, vec![0.0; 4], "constant {v} must map to zeros");
        }
    }

    #[test]
    fn mean_of_huge_constant_does_not_overflow() {
        assert_eq!(mean(&[1.0e308; 3]), 1.0e308);
        assert_eq!(std_dev(&[1.0e308; 3]), 0.0);
        assert_eq!(mean(&[f64::MAX, f64::MAX]), f64::MAX);
    }

    #[test]
    fn unrepresentable_variance_maps_to_zeros_not_inf() {
        // ±f64::MAX has a variance beyond f64 range; the output must be
        // the degenerate all-zeros series, never Inf/NaN.
        let z = z_normalized(&[f64::MAX, -f64::MAX]);
        assert!(z.iter().all(|x| x.is_finite()), "{z:?}");
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn near_constant_large_scale_is_not_amplified() {
        // Sigma below numerical resolution at this magnitude: cancellation
        // noise must not be blown up to unit variance.
        let z = z_normalized(&[1.0e9, 1.0e9 + 1.0e-5, 1.0e9 - 1.0e-5]);
        assert!(z.iter().all(|x| x.is_finite()));
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn signed_zero_series_maps_to_zeros() {
        assert_eq!(z_normalized(&[-0.0, 0.0, -0.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_element_and_empty_series_are_safe() {
        assert_eq!(z_normalized(&[42.0]), vec![0.0]);
        assert_eq!(z_normalized(&[]), Vec::<f64>::new());
    }

    #[test]
    fn normalization_never_emits_non_finite_across_magnitudes() {
        for exp in (-300i32..=300).step_by(50) {
            let scale = 10.0f64.powi(exp);
            let z = z_normalized(&[scale, 2.0 * scale, -scale, 0.5 * scale]);
            assert!(
                z.iter().all(|x| x.is_finite()),
                "scale 1e{exp} emitted non-finite: {z:?}"
            );
        }
    }

    #[test]
    fn resample_preserves_endpoints() {
        let xs = [0.0, 1.0, 4.0, 9.0];
        for len in [2, 3, 4, 7, 40] {
            let r = resample(&xs, len);
            assert_eq!(r.len(), len);
            assert_eq!(r[0], 0.0);
            assert_eq!(*r.last().unwrap(), 9.0);
        }
    }

    #[test]
    fn resample_identity_length_is_identity() {
        let xs = [0.5, -1.0, 2.0];
        assert_eq!(resample(&xs, 3), xs.to_vec());
    }

    #[test]
    fn resample_linear_interpolation() {
        // Doubling a linear ramp stays on the ramp.
        let xs = [0.0, 2.0];
        let r = resample(&xs, 3);
        assert_eq!(r, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn resample_to_one_takes_first() {
        assert_eq!(resample(&[7.0, 8.0], 1), vec![7.0]);
    }
}
