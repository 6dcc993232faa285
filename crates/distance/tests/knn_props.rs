//! Property tests for the pruned banded-DTW kNN scan: on every corpus it
//! must answer bitwise what the exhaustive `KnnClassifier::classify`
//! answers — label, score bits and nearest index, or the same error — and
//! its prune statistics must partition the training set.
//!
//! Corpora mix equal and unequal lengths (unequal ones meet bands too
//! narrow to admit a warping path), values on a coarse grid (so distances
//! tie), duplicated series, every `k` from 1 to one past the corpus size,
//! and radii from 0 to far beyond the series length.

use proptest::prelude::*;

use mda_distance::dtw::Band;
use mda_distance::mining::{banded_dtw_knn, KnnClassifier};
use mda_distance::{BatchEngine, DistanceError, DpScratch, Dtw};

/// A value on a half-unit grid (ties are common) or a continuous one.
fn value(grid: bool) -> impl Strategy<Value = f64> {
    (-6i32..=6, -50.0..50.0).prop_map(move |(g, x)| if grid { g as f64 * 0.5 } else { x })
}

#[derive(Debug)]
struct Case {
    query: Vec<f64>,
    train: Vec<Vec<f64>>,
    labels: Vec<usize>,
    k: usize,
    radius: usize,
}

/// `equal` draws every instance at the query's length; otherwise lengths
/// range from 1 to a few past it.
fn case() -> impl Strategy<Value = Case> {
    (1usize..14, 1usize..12, 0u8..2, 0u8..2).prop_flat_map(|(len, n, equal, grid)| {
        let (equal, grid) = (equal == 1, grid == 1);
        let instance = (1usize..len + 4).prop_flat_map(move |l| {
            prop::collection::vec(value(grid), if equal { len } else { l })
        });
        (
            prop::collection::vec(value(grid), len),
            prop::collection::vec(instance, n),
            prop::collection::vec(0usize..3, n),
            // (copy from, copy to) pairs; `n` as the source means the query.
            prop::collection::vec((0usize..n + 1, 0usize..n), 0..4),
            1usize..n + 2,
            0usize..len + 5,
        )
            .prop_map(move |(query, mut train, labels, dups, k, r)| {
                for (from, to) in dups {
                    let copy = train.get(from).unwrap_or(&query).clone();
                    if equal || from == n {
                        train[to] = copy;
                    }
                }
                // The largest draw stands for an effectively infinite band.
                let radius = if r == len + 4 { usize::MAX } else { r };
                Case {
                    query,
                    train,
                    labels,
                    k,
                    radius,
                }
            })
    })
}

fn exhaustive(case: &Case, radius: usize) -> Result<(usize, u64, usize), DistanceError> {
    let mut clf = KnnClassifier::new(
        Box::new(Dtw::new().with_band(Band::SakoeChiba(radius))),
        case.k,
    )
    .with_engine(BatchEngine::serial());
    clf.fit_all(case.labels.iter().copied().zip(case.train.iter().cloned()));
    clf.classify(&case.query)
        .map(|c| (c.label, c.score.to_bits(), c.nearest_index))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn pruned_knn_equals_exhaustive_classifier_bitwise(case in case()) {
        // One scratch across radii: the cached query envelope must follow
        // the radius.
        let mut scratch = DpScratch::new();
        for radius in [case.radius, 0, 1, usize::MAX] {
            let want = exhaustive(&case, radius);
            let got = banded_dtw_knn(
                &case.query,
                &case.train,
                |i| case.labels[i],
                case.k,
                radius,
                &mut scratch,
            );
            match got {
                Ok((c, stats)) => {
                    prop_assert_eq!(
                        Ok((c.label, c.score.to_bits(), c.nearest_index)),
                        want,
                        "radius {}", radius
                    );
                    prop_assert_eq!(stats.instances(), case.train.len());
                }
                Err(e) => prop_assert_eq!(Err(e), want, "radius {}", radius),
            }
        }
    }
}

/// Instances whose DTW overflows `f64` or whose band admits no path fail
/// the exhaustive classifier; the pruned scan must report the same
/// lowest-indexed failure even where their bounds would prune them.
#[test]
fn failing_instances_report_the_classifier_error() {
    let query = vec![0.0, 0.5, 1.0, 0.5];
    let near = vec![0.0, 0.5, 1.0, 0.6];
    let huge = vec![f64::MAX; 4];
    let short = vec![0.0, 1.0];
    let big = vec![1e300; 4];
    let corpora: Vec<Vec<Vec<f64>>> = vec![
        vec![near.clone(), huge.clone()],
        vec![near.clone(), short.clone(), huge.clone()],
        vec![near.clone(), huge, short.clone()],
        vec![near.clone(), big.clone(), near.clone()],
        vec![big, near.clone()],
        vec![near, short],
    ];
    for train in &corpora {
        for radius in [0, 1, 4] {
            for k in [1, 2] {
                let case = Case {
                    query: query.clone(),
                    train: train.clone(),
                    labels: (0..train.len()).collect(),
                    k,
                    radius,
                };
                let want = exhaustive(&case, radius);
                let got = banded_dtw_knn(&query, train, |i| i, k, radius, &mut DpScratch::new())
                    .map(|(c, _)| (c.label, c.score.to_bits(), c.nearest_index));
                assert_eq!(got, want, "train {train:?} radius {radius} k {k}");
            }
        }
    }
}

/// Empty and non-finite inputs are rejected as the classifier rejects
/// them.
#[test]
fn invalid_inputs_match_the_classifier() {
    let empty: [Vec<f64>; 0] = [];
    let err = banded_dtw_knn(&[1.0], &empty, |i| i, 1, 2, &mut DpScratch::new()).unwrap_err();
    assert!(matches!(
        err,
        DistanceError::InvalidParameter { name: "train", .. }
    ));
    for (query, train) in [
        (vec![f64::NAN, 1.0], vec![vec![0.0, 1.0]]),
        (
            vec![0.0, 1.0],
            vec![vec![0.0, 1.0], vec![f64::INFINITY, 1.0]],
        ),
        (vec![], vec![vec![0.0, 1.0]]),
        (vec![0.0, 1.0], vec![vec![0.0, 1.0], vec![]]),
    ] {
        let case = Case {
            query: query.clone(),
            train: train.clone(),
            labels: vec![0; train.len()],
            k: 1,
            radius: 1,
        };
        let got = banded_dtw_knn(&query, &train, |_| 0, 1, 1, &mut DpScratch::new())
            .map(|(c, _)| (c.label, c.score.to_bits(), c.nearest_index));
        assert_eq!(got, exhaustive(&case, 1), "{query:?} vs {train:?}");
    }
}
