//! Property tests for the DTW lower-bound cascade: every bound must be
//! admissible (never exceed the exact DTW distance) on random and
//! adversarial inputs, and tight (exactly zero) at the identity pair.
//!
//! Admissibility is the safety property the pruned subsequence search and
//! the conformance harness lean on: an inadmissible bound silently drops
//! true nearest neighbours, which no downstream test would catch.

use proptest::prelude::*;

use mda_distance::dtw::Band;
use mda_distance::lower_bounds::{envelope, lb_keogh, lb_kim, Cascade, PruneDecision};
use mda_distance::{DpScratch, Dtw, Weights};

fn full_dtw(p: &[f64], q: &[f64]) -> f64 {
    Dtw::new().distance(p, q).unwrap()
}

fn banded_dtw(p: &[f64], q: &[f64], r: usize) -> f64 {
    Dtw::new()
        .with_band(Band::SakoeChiba(r))
        .distance(p, q)
        .unwrap()
}

fn value() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn series(len: impl prop::collection::IntoSizeRange) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(value(), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lb_kim_is_admissible_on_random_mixed_lengths(
        p in series(1..24usize),
        q in series(1..24usize),
    ) {
        let lb = lb_kim(&p, &q).unwrap();
        let d = full_dtw(&p, &q);
        prop_assert!(lb <= d + 1e-9, "LB_Kim {lb} > DTW {d}");
    }

    #[test]
    fn lb_keogh_is_admissible_on_random_equal_lengths(
        pq in (1usize..24).prop_flat_map(|n| (series(n), series(n))),
        r in 0usize..12,
    ) {
        let (p, q) = pq;
        let lb = lb_keogh(&p, &q, r).unwrap();
        let d = banded_dtw(&p, &q, r);
        prop_assert!(lb <= d + 1e-9, "r={r}: LB_Keogh {lb} > DTW {d}");
    }

    #[test]
    fn bounds_are_tight_at_identity(p in series(1..24usize), r in 0usize..8) {
        prop_assert_eq!(lb_kim(&p, &p).unwrap(), 0.0);
        prop_assert_eq!(lb_keogh(&p, &p, r).unwrap(), 0.0);
        prop_assert_eq!(full_dtw(&p, &p), 0.0);
    }

    #[test]
    fn envelope_contains_series_and_keogh_matches_definition(
        q in series(1..20usize),
        r in 0usize..8,
    ) {
        let (u, l) = envelope(&q, r).unwrap();
        for i in 0..q.len() {
            prop_assert!(l[i] <= q[i] && q[i] <= u[i]);
        }
        // Against itself the series never leaves its own envelope.
        prop_assert_eq!(lb_keogh(&q, &q, r).unwrap(), 0.0);
    }

    #[test]
    fn cascade_is_faithful(
        pq in (2usize..16).prop_flat_map(|n| (series(n), series(n))),
        r in 1usize..6,
        best in 0.0f64..200.0,
    ) {
        let (p, q) = pq;
        let d = banded_dtw(&p, &q, r);
        match Cascade::new(&p, r)
            .decide(&q, best, &mut DpScratch::new())
            .unwrap()
        {
            // A computed value must be the exact banded DTW distance.
            PruneDecision::Computed(v) => prop_assert_eq!(v.to_bits(), d.to_bits()),
            // A prune must be justified: the bound (admissible, so <= d)
            // exceeded the best-so-far, hence d does too.
            PruneDecision::PrunedByKim(b) | PruneDecision::PrunedByKeogh(b) => {
                prop_assert!(b > best);
                prop_assert!(b <= d + 1e-9, "pruning bound {b} > DTW {d}");
            }
            PruneDecision::AbandonedEarly => prop_assert!(d > best),
        }
    }
}

/// A value that is `±1e308` one time in four, so point costs overflow.
fn overflowing_value() -> impl Strategy<Value = f64> {
    (0u8..8, value()).prop_map(|(sel, x)| match sel {
        0 => 1e308,
        1 => -1e308,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The early-abandon kernel at an infinite budget is bitwise the
    /// wavefront distance, errors included: uniform weights, and pairwise
    /// weights with zeros, where `0 * inf` makes NaN cells. At a finite
    /// budget it returns the distance exactly when it is within budget.
    #[test]
    fn early_abandon_at_infinity_equals_distance_bitwise(
        p in prop::collection::vec(overflowing_value(), 1..18usize),
        q in prop::collection::vec(overflowing_value(), 1..18usize),
        r in 0usize..10,
        weights in prop::collection::vec(0u8..4, 18 * 18),
        budget in 0.0f64..4000.0,
    ) {
        let band = if r == 9 { Band::Full } else { Band::SakoeChiba(r) };
        let (m, n) = (p.len(), q.len());
        let w: Vec<f64> = weights[..m * n].iter().map(|&w| f64::from(w) * 0.5).collect();
        let mut scratch = DpScratch::new();
        for dtw in [
            Dtw::new().with_band(band),
            Dtw::new().with_band(band).with_weights(Weights::per_pair(m, n, w).unwrap()),
        ] {
            let exact = dtw.distance_with(&p, &q, &mut scratch);
            let abandoned = dtw.distance_early_abandon_with(&p, &q, f64::INFINITY, &mut scratch);
            match (&exact, abandoned) {
                (Ok(d), Ok(Some(v))) => prop_assert_eq!(d.to_bits(), v.to_bits()),
                (Err(a), Err(b)) => prop_assert_eq!(a, &b),
                (e, a) => prop_assert!(false, "distance {e:?} vs early abandon {a:?}"),
            }
            if let Ok(d) = exact {
                let within = dtw.distance_early_abandon_with(&p, &q, budget, &mut scratch).unwrap();
                prop_assert_eq!(within.map(f64::to_bits), (d <= budget).then_some(d.to_bits()));
            }
        }
    }
}

/// Adversarial fixed shapes that historically break lower bounds:
/// constants, isolated spikes, mixed lengths and extreme magnitudes.
#[test]
fn adversarial_shapes_stay_admissible() {
    let spike = |n: usize, at: usize, h: f64| {
        let mut v = vec![0.0; n];
        v[at] = h;
        v
    };
    let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
        // Constant vs constant, same and different levels.
        (vec![3.0; 8], vec![3.0; 8]),
        (vec![-2.0; 8], vec![5.0; 8]),
        // Constant vs spike at every position of a short series.
        (vec![0.0; 5], spike(5, 0, 40.0)),
        (vec![0.0; 5], spike(5, 2, 40.0)),
        (vec![0.0; 5], spike(5, 4, -40.0)),
        // Spike vs shifted spike (warping absorbs the shift).
        (spike(9, 2, 10.0), spike(9, 6, 10.0)),
        // Mixed lengths, including the degenerate 1-element side.
        (vec![1.0], (0..24).map(|i| (i as f64 * 0.4).sin()).collect()),
        (vec![0.5, -0.5], vec![0.5, 0.0, 0.0, 0.0, -0.5]),
        // Extreme magnitudes (well inside f64 but far outside encodable
        // analog range — the digital bounds must still be exact).
        (
            vec![1.0e15, -1.0e15, 1.0e15],
            vec![-1.0e15, 1.0e15, -1.0e15],
        ),
    ];
    for (p, q) in &cases {
        let d = full_dtw(p, q);
        let kim = lb_kim(p, q).unwrap();
        assert!(kim <= d + 1e-9, "LB_Kim {kim} > DTW {d} on {p:?} vs {q:?}");
        if p.len() == q.len() {
            for r in 0..p.len() {
                let keogh = lb_keogh(p, q, r).unwrap();
                let db = banded_dtw(p, q, r);
                assert!(
                    keogh <= db + 1e-9,
                    "LB_Keogh {keogh} > banded DTW {db} (r={r}) on {p:?} vs {q:?}"
                );
            }
        }
    }
}

#[test]
fn bounds_are_exactly_zero_at_identity_for_adversarial_shapes() {
    let shapes: Vec<Vec<f64>> = vec![
        vec![7.5; 12],
        vec![0.0, 0.0, 100.0, 0.0],
        vec![1.0e15, -1.0e15],
        vec![42.0],
    ];
    for p in &shapes {
        assert_eq!(lb_kim(p, p).unwrap(), 0.0, "{p:?}");
        for r in 0..3 {
            assert_eq!(lb_keogh(p, p, r).unwrap(), 0.0, "{p:?} r={r}");
        }
    }
}
