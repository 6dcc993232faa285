//! Property tests for the one z-normalization body. `moments` must be
//! bit for bit the two independent reference folds `mean` and `std_dev`,
//! and `z_normalize_in_place` must equal a z written out here from those
//! folds and the documented degenerate rule: a bitwise-constant series,
//! non-finite statistics, or σ ≤ 1e-12·max(1, |mean|) maps to all zeros.
//! The library body has no constant-series test of its own (the floor
//! implies it); the reference keeps it, so these tests pin that the
//! implication holds.
//!
//! Series are random walks, `0.0`/`-0.0` plateaus, constants near
//! ±1e308, mixes of `±f64::MAX`, near-constant series under the 1e-12
//! floor, and the lengths 0 and 1.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mda_distance::znorm::{mean, moments, std_dev, z_normalize_in_place, z_normalized};

/// The documented rule, written out independently of the library body.
fn reference(xs: &[f64]) -> (Vec<f64>, bool) {
    let (m, s) = (mean(xs), std_dev(xs));
    let constant = xs.windows(2).all(|p| p[0].to_bits() == p[1].to_bits());
    let degenerate = constant || !m.is_finite() || !s.is_finite() || s <= 1e-12 * m.abs().max(1.0);
    let z = if degenerate {
        vec![0.0; xs.len()]
    } else {
        xs.iter().map(|x| (x - m) / s).collect()
    };
    (z, degenerate)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn check(xs: &[f64]) -> Result<(), TestCaseError> {
    let (m, s) = moments(xs);
    prop_assert_eq!(m.to_bits(), mean(xs).to_bits(), "mean of {:?}", xs);
    prop_assert_eq!(s.to_bits(), std_dev(xs).to_bits(), "std_dev of {:?}", xs);

    let (z_ref, degenerate_ref) = reference(xs);
    let mut z = xs.to_vec();
    let stats = z_normalize_in_place(&mut z);
    prop_assert_eq!(bits(&z), bits(&z_ref), "z of {:?}", xs);
    prop_assert_eq!(stats.mean.to_bits(), m.to_bits());
    prop_assert_eq!(stats.std_dev.to_bits(), s.to_bits());
    prop_assert_eq!(
        stats.degenerate,
        degenerate_ref,
        "degenerate flag of {:?}",
        xs
    );
    prop_assert_eq!(bits(&z_normalized(xs)), bits(&z_ref));
    Ok(())
}

/// The running sum of `steps`, shifted by `offset`.
fn random_walk(offset: f64, steps: Vec<f64>) -> Vec<f64> {
    let mut x = offset;
    steps
        .into_iter()
        .map(|s| {
            x += s;
            x
        })
        .collect()
}

/// Runs of `0.0` and `-0.0`, with an occasional other level.
fn signed_zero_plateaus(runs: Vec<(usize, usize)>) -> Vec<f64> {
    const LEVELS: [f64; 5] = [0.0, -0.0, 0.0, -0.0, 1.5];
    runs.into_iter()
        .flat_map(|(level, run)| std::iter::repeat_n(LEVELS[level], run))
        .collect()
}

/// The sign picked by `sel` (0 → +, 1 → −).
fn signed(sel: u8, magnitude: f64) -> f64 {
    if sel == 0 {
        magnitude
    } else {
        -magnitude
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_walks_match_reference_folds(
        offset in -1.0e6..1.0e6f64,
        steps in proptest::collection::vec(-1.0..1.0f64, 0..300),
    ) {
        check(&random_walk(offset, steps))?;
    }

    #[test]
    fn signed_zero_plateaus_match_reference_folds(
        runs in proptest::collection::vec((0usize..5, 1usize..20), 1..12),
    ) {
        check(&signed_zero_plateaus(runs))?;
    }

    /// A constant within a factor of two of ±1e308, or ±`f64::MAX`.
    #[test]
    fn huge_constants_match_reference_folds(
        sign in 0u8..2,
        factor in 0.5..1.75f64,
        at_max in 0u8..4,
        len in 0usize..40,
    ) {
        let magnitude = if at_max == 0 { f64::MAX } else { 1.0e308 * factor };
        check(&vec![signed(sign, magnitude); len])?;
    }

    /// `±f64::MAX` mixed with ordinary values: the variance overflows.
    #[test]
    fn max_mixes_match_reference_folds(
        picks in proptest::collection::vec((0u8..4, -10.0..10.0f64), 1..30),
    ) {
        let xs: Vec<f64> = picks
            .into_iter()
            .map(|(k, v)| match k {
                0 => f64::MAX,
                1 => -f64::MAX,
                2 => 0.0,
                _ => v,
            })
            .collect();
        check(&xs)?;
    }

    /// ±jitter around a large base, with σ ≈ 1e-13·|base|: under the
    /// floor, yet far above one ULP, so the series is not bitwise
    /// constant.
    #[test]
    fn near_constants_under_the_floor_match_reference_folds(
        exp in 6i32..15,
        sign in 0u8..2,
        len in 2usize..64,
    ) {
        let base = signed(sign, 10.0f64.powi(exp));
        let jitter = base.abs() * 1.0e-13;
        let xs: Vec<f64> = (0..len)
            .map(|i| base + if i % 2 == 0 { jitter } else { -jitter })
            .collect();
        check(&xs)?;
        prop_assert!(z_normalize_in_place(&mut xs.clone()).degenerate);
    }
}

#[test]
fn edge_lengths_and_named_cases_match_reference_folds() {
    let cases: [&[f64]; 10] = [
        &[],
        &[42.0],
        &[-0.0],
        &[f64::MAX],
        &[-1.0e308],
        &[1.0e308, 1.0e308, 1.0e308],
        &[f64::MAX, -f64::MAX],
        &[0.0, -0.0, 0.0],
        &[1.0e9, 1.0e9 + 1.0e-5, 1.0e9 - 1.0e-5],
        &[3.0, 7.0, 1.0, -4.0, 2.5],
    ];
    for xs in cases {
        check(xs).unwrap_or_else(|e| panic!("{xs:?}: {e:?}"));
    }
    // The degenerate rule fires exactly where documented on these.
    let degenerate = |xs: &[f64]| z_normalize_in_place(&mut xs.to_vec()).degenerate;
    assert!(degenerate(&[]));
    assert!(degenerate(&[42.0]));
    assert!(degenerate(&[f64::MAX, -f64::MAX]));
    assert!(degenerate(&[1.0e9, 1.0e9 + 1.0e-5, 1.0e9 - 1.0e-5]));
    assert!(!degenerate(&[3.0, 7.0, 1.0, -4.0, 2.5]));
}
