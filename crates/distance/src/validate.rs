//! Input validation shared by the mining drivers.
//!
//! The DP kernels themselves are IEEE-754-total: a NaN or infinity flows
//! through `min`/`abs` arithmetic without panicking and yields a NaN/∞
//! distance. The *drivers* (search, motif, k-NN, k-medoids) are not: they
//! rank windows by comparing bounds and distances, and a NaN there used to
//! either panic (`partial_cmp(..).expect(..)`) or poison every comparison so
//! the driver fabricated a nonsense answer. Rejecting non-finite input at the
//! driver boundary turns both failure modes into a typed
//! [`DistanceError::InvalidParameter`].

use crate::error::DistanceError;

/// Returns [`DistanceError::InvalidParameter`] naming `name` if any element
/// of `xs` is NaN or infinite.
pub(crate) fn ensure_finite(name: &'static str, xs: &[f64]) -> Result<(), DistanceError> {
    if let Some(i) = xs.iter().position(|v| !v.is_finite()) {
        return Err(DistanceError::InvalidParameter {
            name,
            reason: format!("element {i} is {}; every element must be finite", xs[i]),
        });
    }
    Ok(())
}

/// [`ensure_finite`] and the largest magnitude of `xs` (0 when empty) in
/// one walk; the error, when there is one, is [`ensure_finite`]'s. Four
/// independent accumulators let the loop vectorize instead of waiting on
/// one serial `max` chain.
pub(crate) fn finite_max_abs(name: &'static str, xs: &[f64]) -> Result<f64, DistanceError> {
    let mut max = [0.0f64; 4];
    let mut bad = [false; 4];
    let mut fold = |l: usize, x: f64| {
        let a = x.abs();
        bad[l] |= !x.is_finite();
        if a > max[l] {
            max[l] = a;
        }
    };
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        for (l, &x) in c.iter().enumerate() {
            fold(l, x);
        }
    }
    for (l, &x) in chunks.remainder().iter().enumerate() {
        fold(l, x);
    }
    if bad.contains(&true) {
        ensure_finite(name, xs)?;
    }
    Ok(max.into_iter().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_slices_pass() {
        assert!(ensure_finite("xs", &[]).is_ok());
        assert!(ensure_finite("xs", &[0.0, -1.5, f64::MAX, f64::MIN_POSITIVE]).is_ok());
    }

    #[test]
    fn finite_max_abs_is_the_fold_or_the_same_error() {
        let cases: [&[f64]; 8] = [
            &[],
            &[-0.0],
            &[0.5, -3.0, 2.0],
            &[f64::MIN, 1.0, f64::MIN_POSITIVE],
            &[1.0, 2.0, -7.5, 0.25, 3.0, -0.0, 6.0, 1.0, -9.0],
            &[1.0, f64::NEG_INFINITY, f64::NAN],
            &[-2.0, 1.0, 0.0, 4.0, 3.0, f64::NAN, f64::INFINITY],
            &[0.0, 0.0, 0.0, 0.0, 0.0, f64::INFINITY],
        ];
        for xs in cases {
            let want = ensure_finite("xs", xs)
                .map(|()| xs.iter().fold(0.0f64, |m, x| m.max(x.abs())).to_bits());
            assert_eq!(finite_max_abs("xs", xs).map(f64::to_bits), want, "{xs:?}");
        }
    }

    #[test]
    fn non_finite_elements_are_named() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ensure_finite("query", &[0.0, bad, 1.0]).unwrap_err();
            match err {
                DistanceError::InvalidParameter { name, reason } => {
                    assert_eq!(name, "query");
                    assert!(reason.contains("element 1"), "reason: {reason}");
                }
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
    }
}
