//! Property tests for the lane-batched early-abandoning DTW kernel: every
//! lane of `Dtw::distance_early_abandon_lanes` must be bitwise what
//! `Dtw::distance_early_abandon_with` returns for that candidate alone —
//! the same distance bits, the same abandonment, or the same error.
//!
//! Cases cover one to `LANES` live lanes, budgets below, at and above a
//! lane's true distance (and 0, `+inf` and NaN), candidates that tie on a coarse
//! value grid or duplicate each other or the query, radii from 0 to far
//! past the length, lengths 1–40, and candidate lengths other than the
//! query's (where a narrow band admits no warping path).

use proptest::prelude::*;

use mda_distance::dtw::{Band, LANES};
use mda_distance::{DistanceError, DpScratch, Dtw, Weights};

/// A value on a half-unit grid (ties are common) or a continuous one.
fn value(grid: bool) -> impl Strategy<Value = f64> {
    (-6i32..=6, -20.0..20.0).prop_map(move |(g, x)| if grid { g as f64 * 0.5 } else { x })
}

#[derive(Debug)]
struct Case {
    query: Vec<f64>,
    candidates: Vec<Vec<f64>>,
    radius: usize,
    /// Which lane's distance sets the budget, and how: 0 below it, 1 at
    /// it, 2 above it, 3 `+inf`.
    budget: (usize, u8),
}

/// `equal` draws the candidates at the query's length; otherwise they
/// share another length from 1 to 40.
fn case() -> impl Strategy<Value = Case> {
    (1usize..=40, 1usize..=40, 1usize..=LANES, 0u8..2, 0u8..2).prop_flat_map(
        |(m, other, live, equal, grid)| {
            let n = if equal == 1 { m } else { other };
            let grid = grid == 1;
            (
                prop::collection::vec(value(grid), m),
                prop::collection::vec(prop::collection::vec(value(grid), n), live),
                // (copy from, copy to) pairs; `live` as the source means
                // the query, copied only where the lengths agree.
                prop::collection::vec((0usize..live + 1, 0usize..live), 0..3),
                0usize..n + 3,
                (0usize..live, 0u8..4),
            )
                .prop_map(move |(query, mut candidates, dups, r, budget)| {
                    for (from, to) in dups {
                        if from < live {
                            candidates[to] = candidates[from].clone();
                        } else if query.len() == n {
                            candidates[to] = query.clone();
                        }
                    }
                    // The largest draw stands for an effectively infinite band.
                    let radius = if r == n + 2 { usize::MAX } else { r };
                    Case {
                        query,
                        candidates,
                        radius,
                        budget,
                    }
                })
        },
    )
}

/// The scalar kernel on each candidate in turn, stopping at the first
/// error, as the lane kernel promises to report it.
fn scalar(
    dtw: &Dtw,
    query: &[f64],
    candidates: &[&[f64]],
    budget: f64,
) -> Result<[Option<u64>; LANES], DistanceError> {
    let mut out = [None; LANES];
    for (o, c) in out.iter_mut().zip(candidates) {
        *o = dtw
            .distance_early_abandon_with(query, c, budget, &mut DpScratch::new())?
            .map(f64::to_bits);
    }
    Ok(out)
}

fn lanes(
    dtw: &Dtw,
    query: &[f64],
    candidates: &[&[f64]],
    budget: f64,
    scratch: &mut DpScratch,
) -> Result<[Option<u64>; LANES], DistanceError> {
    dtw.distance_early_abandon_lanes(query, candidates, budget, scratch)
        .map(|out| out.map(|d| d.map(f64::to_bits)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_lane_is_bitwise_the_scalar_kernel(case in case()) {
        let dtw = Dtw::new().with_band(Band::SakoeChiba(case.radius));
        let candidates: Vec<&[f64]> = case.candidates.iter().map(Vec::as_slice).collect();
        let (lane, mode) = case.budget;
        let d = dtw.distance(&case.query, candidates[lane]).unwrap_or(f64::INFINITY);
        let budget = match mode {
            0 if d > 0.0 && d.is_finite() => f64::from_bits(d.to_bits() - 1),
            0 => d * 0.5,
            1 => d,
            2 => d * 1.5 + 0.25,
            _ => f64::INFINITY,
        };
        // One scratch for every call, first dirtied by a pass over another
        // shape, so stale lane rows would show.
        let mut scratch = DpScratch::new();
        let long: Vec<f64> = (0..45).map(|i| (i as f64 * 0.7).sin()).collect();
        let _ = dtw.distance_early_abandon_lanes(&long, &[&long[1..]], f64::INFINITY, &mut scratch);
        // A NaN budget abandons nothing and accepts nothing.
        for budget in [budget, f64::INFINITY, 0.0, f64::NAN] {
            prop_assert_eq!(
                lanes(&dtw, &case.query, &candidates, budget, &mut scratch),
                scalar(&dtw, &case.query, &candidates, budget),
                "budget {}", budget
            );
        }
    }
}

#[test]
fn weighted_lanes_score_one_candidate_at_a_time() {
    let query = [0.2, 1.3, -0.4, 0.8];
    let candidates: [&[f64]; 3] = [
        &[0.0, 1.0, 0.0, 1.0],
        &[1.0, 1.0, 1.0, 1.0],
        &[0.2, 1.2, -0.4, 0.8],
    ];
    let w = Weights::per_pair(4, 4, (0..16).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
    let dtw = Dtw::new().with_band(Band::SakoeChiba(1)).with_weights(w);
    for budget in [0.0, 1.0, 3.0, f64::INFINITY] {
        assert_eq!(
            lanes(&dtw, &query, &candidates, budget, &mut DpScratch::new()),
            scalar(&dtw, &query, &candidates, budget),
            "budget {budget}"
        );
    }
}

#[test]
fn malformed_batches_are_typed_errors() {
    let dtw = Dtw::new().with_band(Band::SakoeChiba(2));
    let mut scratch = DpScratch::new();
    let q = [0.0, 1.0, 2.0];
    let too_many = [&q[..]; LANES + 1];
    for batch in [&[][..], &too_many[..]] {
        assert!(matches!(
            dtw.distance_early_abandon_lanes(&q, batch, 1.0, &mut scratch),
            Err(DistanceError::InvalidParameter {
                name: "candidates",
                ..
            })
        ));
    }
    assert_eq!(
        dtw.distance_early_abandon_lanes(&q, &[&q, &q[..2]], 1.0, &mut scratch),
        Err(DistanceError::LengthMismatch { left: 3, right: 2 })
    );
    assert_eq!(
        dtw.distance_early_abandon_lanes(&[], &[&q], 1.0, &mut scratch),
        Err(DistanceError::EmptySequence)
    );
    assert_eq!(
        dtw.distance_early_abandon_lanes(&q, &[&[], &[]], 1.0, &mut scratch),
        Err(DistanceError::EmptySequence)
    );
}
