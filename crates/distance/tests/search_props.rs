//! Property tests for the pruned subsequence search: over arbitrary finite
//! inputs the cascaded search must return exactly the brute-force answer
//! (same offset, same distance to the last bit of its computation), and the
//! pruning statistics must partition the window count.
//!
//! This is the end-to-end safety net over the whole tentpole stack —
//! wavefront kernels, Lemire envelopes, cached-envelope cascade, forced
//! scout computation — because any admissibility or identity bug in any
//! layer shows up here as a wrong offset or distance.

use std::sync::Arc;

use proptest::prelude::*;

use mda_acam::{AcamPrefilter, FaultPlan, MarginPolicy};
use mda_distance::lower_bounds::{lb_kim, Cascade, PruneDecision};
use mda_distance::mining::prefilter::CandidateFilter;
use mda_distance::mining::search::Match;
use mda_distance::mining::search::BLOCK;
use mda_distance::mining::{BlockSummary, SearchStats, SubsequenceSearch};
use mda_distance::znorm::z_normalized;
use mda_distance::{Band, BatchEngine, DistanceError, DistanceKind, DpScratch, Dtw};

fn value() -> impl Strategy<Value = f64> {
    -1.0e3..1.0e3
}

fn series(len: impl prop::collection::IntoSizeRange) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(value(), len)
}

/// The aCAM pre-filter axis: a tuned array, a variation-widened array, and
/// a fault-seeded array. All three may only ever reject certified-prunable
/// windows, so every variant must reproduce the unfiltered run bitwise.
fn filter_variants() -> Vec<(&'static str, Arc<dyn CandidateFilter>)> {
    vec![
        ("tuned", Arc::new(AcamPrefilter::tuned())),
        (
            "variation",
            Arc::new(AcamPrefilter::new(MarginPolicy::paper_defaults(17))),
        ),
        (
            "faulty",
            Arc::new(
                AcamPrefilter::tuned().with_fault_plan(FaultPlan::Seeded { seed: 5, rate: 0.2 }),
            ),
        ),
    ]
}

fn check_agreement(query: &[f64], haystack: &[f64], window: usize, radius: usize) {
    let s = SubsequenceSearch::new(window, radius);
    let (pruned, stats) = s.run(query, haystack).unwrap();
    let brute = s.run_brute_force(query, haystack).unwrap();
    assert_eq!(
        pruned.offset, brute.offset,
        "offset mismatch (window {window}, radius {radius})"
    );
    assert!(
        (pruned.distance - brute.distance).abs() <= 1e-9,
        "distance mismatch: pruned {} vs brute {}",
        pruned.distance,
        brute.distance
    );
    assert!(pruned.distance.is_finite(), "match must be real");
    assert_eq!(
        stats.windows,
        stats.pruned_by_prefilter
            + stats.pruned_by_kim
            + stats.pruned_by_keogh
            + stats.abandoned_early
            + stats.full_computations,
        "stats must partition the windows: {stats:?}"
    );
    assert_eq!(stats.pruned_by_prefilter, 0, "no filter installed");
    assert_eq!(stats.windows, haystack.len() - window + 1);

    for (name, filter) in filter_variants() {
        let fs = SubsequenceSearch::new(window, radius).with_prefilter(filter);
        let (fmatch, fstats) = fs.run(query, haystack).unwrap();
        assert_eq!(
            fmatch.offset, pruned.offset,
            "{name}: filtered offset drifted (window {window}, radius {radius})"
        );
        assert_eq!(
            fmatch.distance.to_bits(),
            pruned.distance.to_bits(),
            "{name}: filtered distance not bitwise-identical: {} vs {}",
            fmatch.distance,
            pruned.distance
        );
        // aCAM-rejected + cascade-examined windows must account for every
        // window exactly once.
        assert_eq!(
            fstats.windows,
            fstats.pruned_by_prefilter
                + fstats.pruned_by_kim
                + fstats.pruned_by_keogh
                + fstats.abandoned_early
                + fstats.full_computations,
            "{name}: filtered stats must partition the windows: {fstats:?}"
        );
        assert_eq!(fstats.windows, stats.windows, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_search_equals_brute_force_on_random_inputs(
        input in (2usize..10).prop_flat_map(|w| {
            (Just(w), series(w), series(w..w + 40), 0usize..4)
        }),
    ) {
        let (window, query, haystack, radius) = input;
        check_agreement(&query, &haystack, window, radius);
    }

    #[test]
    fn pruned_search_equals_brute_force_with_z_normalization(
        input in (3usize..8).prop_flat_map(|w| {
            (Just(w), series(w), series(w..w + 24))
        }),
    ) {
        let (window, query, haystack) = input;
        let s = SubsequenceSearch::new(window, 1).with_z_normalization(true);
        let (pruned, _) = s.run(&query, &haystack).unwrap();
        let brute = s.run_brute_force(&query, &haystack).unwrap();
        prop_assert_eq!(pruned.offset, brute.offset);
        prop_assert!((pruned.distance - brute.distance).abs() <= 1e-9);
        // The pre-filter programs on the z-normalized query and senses
        // z-normalized windows, so the identity must hold here too.
        let fs = SubsequenceSearch::new(window, 1)
            .with_z_normalization(true)
            .with_prefilter(Arc::new(AcamPrefilter::tuned()));
        let (fmatch, _) = fs.run(&query, &haystack).unwrap();
        prop_assert_eq!(fmatch.offset, pruned.offset);
        prop_assert_eq!(fmatch.distance.to_bits(), pruned.distance.to_bits());
    }

    #[test]
    fn planted_exact_match_is_always_found(
        input in (4usize..9).prop_flat_map(|w| {
            (Just(w), series(3 * w), 0usize..3)
        }),
        frac in 0.0f64..1.0,
    ) {
        let (window, haystack, radius) = input;
        // Plant the query verbatim somewhere in the haystack: the search
        // must find a zero-distance window (the planted offset or another
        // exact copy at a lower offset).
        let at = ((haystack.len() - window) as f64 * frac) as usize;
        let query = haystack[at..at + window].to_vec();
        let s = SubsequenceSearch::new(window, radius);
        let (m, _) = s.run(&query, &haystack).unwrap();
        prop_assert_eq!(m.distance, 0.0);
        prop_assert!(m.offset <= at);
    }
}

/// Adversarial fixed shapes: constants (every window ties), a planted exact
/// match inside an otherwise hostile haystack, and an all-far haystack where
/// every window should be prunable against the scout.
#[test]
fn adversarial_shapes_agree_with_brute_force() {
    let ramp: Vec<f64> = (0..48).map(|i| i as f64 * 0.3).collect();
    let mut planted = vec![9.0; 48];
    for (i, v) in planted.iter_mut().enumerate().skip(20).take(6) {
        *v = (i as f64 * 0.5).sin();
    }
    let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
        // Constant vs constant: all windows tie exactly.
        (vec![1.0; 6], vec![0.0; 30]),
        (vec![0.0; 6], vec![0.0; 30]),
        // Constant query over a ramp: unique best at one end.
        (vec![0.0; 6], ramp.clone()),
        (vec![14.1; 6], ramp),
        // Planted match in an all-far haystack.
        ((20..26).map(|i| (i as f64 * 0.5).sin()).collect(), planted),
        // Spiky query vs flat haystack.
        (vec![0.0, 100.0, 0.0, -100.0, 0.0, 0.0], vec![0.0; 25]),
    ];
    for (query, haystack) in &cases {
        for radius in [0, 1, 3] {
            check_agreement(query, haystack, query.len(), radius);
        }
    }
}

/// A radius near `usize::MAX` is a full-matrix band: the envelope passes
/// saturate instead of overflowing, and the pruned search answers exactly
/// as brute force does.
#[test]
fn huge_radius_search_equals_brute_force() {
    let haystack: Vec<f64> = (0..80).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
    let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.41 + 0.3).cos()).collect();
    for radius in [usize::MAX, usize::MAX - 7] {
        let s = SubsequenceSearch::new(16, radius);
        let (pruned, _) = s.run(&query, &haystack).unwrap();
        let brute = s.run_brute_force(&query, &haystack).unwrap();
        assert_eq!(pruned.offset, brute.offset, "radius {radius}");
        assert_eq!(pruned.distance.to_bits(), brute.distance.to_bits());
    }
}

/// The tuned filter must actually reject windows on hostile data (the
/// identity tests alone would pass for a filter that admits everything).
#[test]
fn tuned_prefilter_rejects_windows_on_hostile_haystack() {
    let mut hay = vec![9.0; 64];
    for (i, v) in hay.iter_mut().enumerate().skip(30).take(8) {
        *v = (i as f64 * 0.5).sin();
    }
    let query: Vec<f64> = (30..38).map(|i| (i as f64 * 0.5).sin()).collect();
    let s = SubsequenceSearch::new(8, 1).with_prefilter(Arc::new(AcamPrefilter::tuned()));
    let (m, stats) = s.run(&query, &hay).unwrap();
    assert_eq!(m.offset, 30);
    assert_eq!(m.distance, 0.0);
    assert!(
        stats.pruned_by_prefilter > 0,
        "the match line should have rejected far windows: {stats:?}"
    );
}

/// kNN with the aCAM filter must classify bitwise-identically to the
/// unfiltered classifier, for both supported kinds (DTW, MD) across k.
#[test]
fn filtered_knn_is_bitwise_identical() {
    use mda_distance::mining::KnnClassifier;
    use mda_distance::{Distance, Dtw, Manhattan};

    let train: Vec<(usize, Vec<f64>)> = (0..24)
        .map(|t| {
            let label = t % 3;
            let series = (0..12)
                .map(|i| (i as f64 * (0.3 + label as f64 * 0.2) + t as f64 * 0.05).sin())
                .collect();
            (label, series)
        })
        .collect();
    let queries: Vec<Vec<f64>> = (0..6)
        .map(|qi| {
            (0..12)
                .map(|i| (i as f64 * 0.4 + qi as f64 * 0.31).sin())
                .collect()
        })
        .collect();
    let distances: Vec<fn() -> Box<dyn Distance + Send + Sync>> =
        vec![|| Box::new(Dtw::new()), || Box::new(Manhattan::new())];
    for make in &distances {
        for k in [1, 3, 5] {
            let mut plain = KnnClassifier::new(make(), k);
            plain.fit_all(train.clone());
            for (name, _) in filter_variants() {
                // Rebuild per variant: filters are programmed per classify.
                let filter: Box<dyn CandidateFilter> = match name {
                    "tuned" => Box::new(AcamPrefilter::tuned()),
                    "variation" => Box::new(AcamPrefilter::new(MarginPolicy::paper_defaults(17))),
                    _ => Box::new(
                        AcamPrefilter::tuned()
                            .with_fault_plan(FaultPlan::Seeded { seed: 5, rate: 0.2 }),
                    ),
                };
                let mut filtered = KnnClassifier::new(make(), k).with_candidate_filter(filter);
                filtered.fit_all(train.clone());
                for q in &queries {
                    let a = plain.classify(q).unwrap();
                    let b = filtered.classify(q).unwrap();
                    assert_eq!(a.label, b.label, "{name} k={k}");
                    assert_eq!(a.nearest_index, b.nearest_index, "{name} k={k}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name} k={k}");
                }
            }
        }
    }
}

/// The engine chunk sizes the partition properties sweep: every window its
/// own chunk, an odd size, the default, and one chunk for the whole haystack.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, usize::MAX];

/// The series shapes the partition properties cover.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A random walk: the shape of real sensor traces, where neighbouring
    /// windows overlap in value and the cascade's thresholds matter.
    Walk,
    /// Plateaus of a few shared levels (runs of 1..6 points): whole
    /// stretches are constant and many windows tie each other exactly.
    Plateaus,
    /// Values at ±1e300 beside ordinary ones: bounds and DTW sums that lose
    /// every small term to rounding.
    Huge,
}

/// Turns raw draws `(selector, step)` into a series of `shape`.
fn shaped(shape: Shape, draws: &[(usize, f64)], run: usize) -> Vec<f64> {
    match shape {
        Shape::Walk => draws
            .iter()
            .scan(0.0, |level, &(_, step)| {
                *level += step;
                Some(*level)
            })
            .collect(),
        Shape::Plateaus => (0..draws.len())
            .map(|i| [-2.0, 0.0, 0.0, 1.5][draws[i / run].0])
            .collect(),
        Shape::Huge => draws
            .iter()
            .map(|&(k, x)| [1e300, -1e300, x, x * 1e300][k])
            .collect(),
    }
}

/// `(query, haystack, window, radius)` of one shape: the query is either
/// cut from the haystack or drawn fresh.
fn search_case(shape: Shape) -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize, usize)> {
    let draws = |len: usize| prop::collection::vec((0usize..4, -1.0f64..1.0), len);
    (2usize..12, 0usize..140, 0usize..4).prop_flat_map(move |(window, extra, radius)| {
        (
            draws(window),
            draws(window + extra),
            (1usize..6, 0usize..2, 0..=extra),
        )
            .prop_map(move |(fresh, haystack, (run, cut, at))| {
                let haystack = shaped(shape, &haystack, run);
                let query = if cut == 1 {
                    haystack[at..at + window].to_vec()
                } else {
                    shaped(shape, &fresh, run)
                };
                (query, haystack, window, radius)
            })
    })
}

/// Runs the search at every chunk size on 1 and 3 threads and checks:
/// (a) the match is `run_brute_force`'s, bitwise; (b) the statistics
/// partition the windows; (c) they are identical across thread counts; and
/// (d) the one-chunk run, whose threshold is never looser than a 64-window
/// chunk's, prunes no later than it does.
fn check_partitions(query: &[f64], haystack: &[f64], window: usize, radius: usize) {
    let brute = SubsequenceSearch::new(window, radius)
        .run_brute_force(query, haystack)
        .unwrap();
    let mut per_chunk = Vec::new();
    for chunk in CHUNK_SIZES {
        let mut reference: Option<SearchStats> = None;
        for threads in [1, 3] {
            let engine = BatchEngine::serial()
                .with_threads(threads)
                .with_chunk_size(chunk);
            let (m, stats) = SubsequenceSearch::new(window, radius)
                .with_engine(engine)
                .run(query, haystack)
                .unwrap();
            let at = format!("chunk {chunk}, {threads} threads");
            assert_eq!(
                (m.offset, m.distance.to_bits()),
                (brute.offset, brute.distance.to_bits()),
                "{at}: match differs from brute force"
            );
            assert_eq!(
                stats.windows,
                stats.pruned_by_prefilter
                    + stats.pruned_by_kim
                    + stats.pruned_by_keogh
                    + stats.abandoned_early
                    + stats.full_computations,
                "{at}: stats must partition the windows: {stats:?}"
            );
            assert_eq!(stats.windows, haystack.len() - window + 1, "{at}");
            match reference {
                None => reference = Some(stats),
                Some(r) => assert_eq!(stats, r, "{at}: stats depend on threads"),
            }
        }
        per_chunk.push((chunk, reference.expect("two thread counts ran")));
    }
    let of = |size| per_chunk.iter().find(|(c, _)| *c == size).unwrap().1;
    let (chunked, one) = (of(64), of(usize::MAX));
    let cumulative = |s: SearchStats| {
        [
            s.pruned_by_kim,
            s.pruned_by_kim + s.pruned_by_keogh,
            s.pruned_by_kim + s.pruned_by_keogh + s.abandoned_early,
        ]
    };
    for (a, b) in cumulative(one).into_iter().zip(cumulative(chunked)) {
        assert!(a >= b, "one chunk pruned later: {one:?} vs {chunked:?}");
    }
    assert!(
        one.full_computations <= chunked.full_computations,
        "one chunk computed more: {one:?} vs {chunked:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_on_random_walks(case in search_case(Shape::Walk)) {
        let (query, haystack, window, radius) = case;
        check_partitions(&query, &haystack, window, radius);
    }

    #[test]
    fn partitions_on_plateaus(case in search_case(Shape::Plateaus)) {
        let (query, haystack, window, radius) = case;
        check_partitions(&query, &haystack, window, radius);
    }

    #[test]
    fn partitions_at_huge_magnitudes(case in search_case(Shape::Huge)) {
        let (query, haystack, window, radius) = case;
        check_partitions(&query, &haystack, window, radius);
    }
}

/// Constant series: every window ties every other, at every chunk size.
#[test]
fn partitions_on_constant_series() {
    for (q, h) in [(1.0, 0.0), (0.0, 0.0), (-3.5, 2.0)] {
        for window in [2, 5, 9] {
            for radius in [0, 1, 3] {
                check_partitions(&vec![q; window], &vec![h; 150], window, radius);
            }
        }
    }
}

/// One search configuration of the sweep properties.
#[derive(Debug, Clone, Copy)]
struct Config {
    window: usize,
    radius: usize,
    z_normalize: bool,
    prefilter: bool,
    chunk: usize,
}

impl Config {
    fn search(self) -> SubsequenceSearch {
        let search = SubsequenceSearch::new(self.window, self.radius)
            .with_z_normalization(self.z_normalize)
            .with_engine(BatchEngine::serial().with_chunk_size(self.chunk));
        if self.prefilter {
            search.with_prefilter(Arc::new(AcamPrefilter::tuned()))
        } else {
            search
        }
    }
}

/// The crate's input check, element by element: the first NaN or
/// infinity of `xs`, named.
fn ensure_finite(name: &'static str, xs: &[f64]) -> Result<(), DistanceError> {
    match xs.iter().position(|x| !x.is_finite()) {
        Some(i) => Err(DistanceError::InvalidParameter {
            name,
            reason: format!("element {i} is {}; every element must be finite", xs[i]),
        }),
        None => Ok(()),
    }
}

/// The search as specified, built from public parts window by window, for
/// a haystack at least a window long: `ensure_finite` on the query and
/// then the haystack, the scout as the `total_cmp` first minimum of
/// `lb_kim` over every built window, its banded DTW as each chunk's
/// starting threshold, then per window the pre-filter and
/// `Cascade::decide`.
fn reference_search(
    c: Config,
    query: &[f64],
    haystack: &[f64],
) -> Result<(Match, SearchStats), DistanceError> {
    ensure_finite("query", query)?;
    ensure_finite("haystack", haystack)?;
    let query = if c.z_normalize {
        z_normalized(query)
    } else {
        query.to_vec()
    };
    let window_at = |off: usize| {
        let w = &haystack[off..off + c.window];
        if c.z_normalize {
            z_normalized(w)
        } else {
            w.to_vec()
        }
    };
    let windows = haystack.len() - c.window + 1;
    let mut scout = (0, f64::INFINITY);
    for off in 0..windows {
        let kim = lb_kim(&query, &window_at(off))?;
        if off == 0 || kim.total_cmp(&scout.1).is_lt() {
            scout = (off, kim);
        }
    }
    let dtw = Dtw::new().with_band(Band::SakoeChiba(c.radius));
    let best_ub = dtw.distance(&query, &window_at(scout.0))?;
    let predicate = c
        .prefilter
        .then(|| AcamPrefilter::tuned().program(DistanceKind::Dtw, &query, c.radius, best_ub))
        .flatten();
    let cascade = Cascade::new(&query, c.radius);
    let mut scratch = DpScratch::new();
    let mut stats = SearchStats {
        windows,
        ..SearchStats::default()
    };
    let mut best = Match {
        offset: 0,
        distance: f64::INFINITY,
    };
    let mut start = 0;
    while start < windows {
        let end = start.saturating_add(c.chunk).min(windows);
        let mut threshold = best_ub;
        for off in start..end {
            let window = window_at(off);
            let d = if off == scout.0 {
                best_ub
            } else if predicate.as_ref().is_some_and(|p| !p.admit(&window)) {
                stats.pruned_by_prefilter += 1;
                continue;
            } else {
                match cascade.decide(&window, threshold, &mut scratch)? {
                    PruneDecision::Computed(d) => d,
                    PruneDecision::PrunedByKim(_) => {
                        stats.pruned_by_kim += 1;
                        continue;
                    }
                    PruneDecision::PrunedByKeogh(_) => {
                        stats.pruned_by_keogh += 1;
                        continue;
                    }
                    PruneDecision::AbandonedEarly => {
                        stats.abandoned_early += 1;
                        continue;
                    }
                }
            };
            stats.full_computations += 1;
            threshold = threshold.min(d);
            // Chunks reduce in order, ties to the lowest offset: the same
            // strict `<` over the windows in offset order.
            if d < best.distance {
                best = Match {
                    offset: off,
                    distance: d,
                };
            }
        }
        start = end;
    }
    Ok((best, stats))
}

/// Runs `c` and the reference on the same input and demands the same
/// result: the match to the bit and the statistics exactly, or the same
/// error.
fn check_sweep(c: Config, query: &[f64], haystack: &[f64]) {
    let got = c.search().run(query, haystack);
    let want = reference_search(c, query, haystack);
    let bits = |r: &Result<(Match, SearchStats), DistanceError>| {
        r.clone().map(|(m, s)| (m.offset, m.distance.to_bits(), s))
    };
    assert_eq!(
        bits(&got),
        bits(&want),
        "{c:?}\nquery {query:?}\nhaystack {haystack:?}"
    );
}

/// Values of the sweep cases: ±1e308 one time in eight each, where an
/// LB_Kim of two such elements overflows to +∞; one of -0.5, 0 and 0.5
/// half the time, so LB_Kim ties between windows of different DTW; an
/// ordinary draw otherwise.
fn sweep_value() -> impl Strategy<Value = f64> {
    (0usize..8, -4.0f64..4.0).prop_map(|(k, x)| match k {
        0 => 1e308,
        1 => -1e308,
        2..=5 => (x / 4.0).round() * 0.5,
        _ => x,
    })
}

/// `(query, haystack, window)`: a haystack that is constant, periodic
/// (LB_Kim ties between whole families of windows), a random walk, or the
/// raw draws; and a query of the window's length cut from the haystack, or
/// drawn fresh with the window's length, three points more, or one point.
fn sweep_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize)> {
    (1usize..10, 0usize..40, 0usize..4, 0usize..4, 1usize..5).prop_flat_map(
        |(window, extra, shape, query_kind, period)| {
            let len = window + extra;
            (
                prop::collection::vec(sweep_value(), len),
                prop::collection::vec(sweep_value(), window + 3),
                0..=extra,
            )
                .prop_map(move |(draws, fresh, at)| {
                    let haystack: Vec<f64> = match shape {
                        0 => vec![draws[0]; len],
                        1 => (0..len).map(|i| draws[i % period]).collect(),
                        2 => draws
                            .iter()
                            .scan(0.0, |x, d| {
                                *x += d.clamp(-1.0, 1.0);
                                Some(*x)
                            })
                            .collect(),
                        _ => draws,
                    };
                    let query = match query_kind {
                        0 => haystack[at..at + window].to_vec(),
                        1 => fresh[..window].to_vec(),
                        2 => fresh.clone(),
                        _ => fresh[..1].to_vec(),
                    };
                    (query, haystack, window)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The block scout and the block-pruning scan decide every window as
    /// the window-by-window reference does, on every route.
    #[test]
    fn sweep_matches_the_reference_search(
        case in sweep_case(),
        radius in 0usize..4,
        z_normalize in 0usize..2,
        prefilter in 0usize..2,
        chunk in 0usize..3,
    ) {
        let (query, haystack, window) = case;
        let (z_normalize, prefilter) = (z_normalize == 1, prefilter == 1);
        let chunk = [1, 7, usize::MAX][chunk];
        let c = Config {
            window,
            radius,
            z_normalize,
            prefilter,
            chunk,
        };
        check_sweep(c, &query, &haystack);
    }

    /// A haystack of `w … 2w − 2` points whose windows' end elements leave
    /// a middle gap: a NaN or ±∞ at the head, in the gap or at the tail
    /// (with possibly a second one later) fails with `ensure_finite`'s
    /// error, naming the first bad element.
    #[test]
    fn non_finite_haystacks_fail_like_ensure_finite(
        window in 2usize..12,
        extra in 0usize..12,
        draws in prop::collection::vec(-4.0f64..4.0, 20),
        query in prop::collection::vec(-4.0f64..4.0, 11),
        bad in 0usize..3,
        place in 0usize..3,
        second in 0usize..24,
        query_len in 0usize..4,
        z_normalize in 0usize..2,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad];
        let query = &query[..[1, 2, 5, 11][query_len]];
        let z_normalize = z_normalize == 1;
        let len = window + extra % (window - 1);
        let windows = len - window + 1;
        let mut haystack = draws[..len].to_vec();
        let first_bad = match place {
            0 => 0,
            1 if windows < window - 1 => windows + extra % (window - 1 - windows),
            _ => len - 1,
        };
        haystack[first_bad] = bad;
        // Half the cases put a second bad element at or after the first.
        if second < 12 {
            haystack[(first_bad + second).min(len - 1)] = bad;
        }
        // A band as wide as any length difference: every DTW is defined.
        let c = Config {
            window,
            radius: 12,
            z_normalize,
            prefilter: false,
            chunk: usize::MAX,
        };
        let err = c.search().run(query, &haystack).unwrap_err();
        let want = reference_search(c, query, &haystack).map(|_| ());
        prop_assert_eq!(&Err(err.clone()), &want);
        // `run_brute_force` checks its input with the crate's own
        // `ensure_finite` before any DTW.
        prop_assert_eq!(&err, &c.search().run_brute_force(query, &haystack).unwrap_err());
        let named = format!("element {first_bad} is");
        let names_it = matches!(
            &err,
            DistanceError::InvalidParameter { name: "haystack", reason } if reason.contains(&named)
        );
        prop_assert!(names_it, "{:?} should name {}", err, named);
        // The same haystack made finite searches like the reference.
        haystack[first_bad] = 0.5;
        for x in haystack.iter_mut().filter(|x| !x.is_finite()) {
            *x = -0.5;
        }
        check_sweep(c, query, &haystack);
    }
}

/// LB_Kim overflows to +∞ on finite elements at ±1e308: that is not an
/// error, and the search goes on to prune those windows by LB_Kim exactly
/// as the reference does.
#[test]
fn kim_overflow_on_finite_haystacks_is_not_an_error() {
    let mut haystack: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
    for i in [3, 10, 17, 24, 31] {
        haystack[i] = if i % 2 == 0 { 1e308 } else { -1e308 };
    }
    let query = [-1e308, 0.2, 0.4, 0.1, 1e308];
    let kim = lb_kim(&query, &haystack[10..15]).unwrap();
    assert_eq!(kim, f64::INFINITY, "the pinned window's bound overflows");
    for window in [5, 7] {
        for chunk in [1, usize::MAX] {
            let c = Config {
                window,
                radius: 1,
                z_normalize: false,
                prefilter: false,
                chunk,
            };
            check_sweep(c, &query, &haystack);
            let (_, stats) = c.search().run(&query, &haystack).unwrap();
            assert!(stats.pruned_by_kim > 0, "{c:?}: {stats:?}");
        }
    }
}

/// Windows that tie for the smallest LB_Kim but differ in DTW: the scout
/// must be the first of them, whatever their distance. A later scout
/// starts from a different threshold, which moves windows between cascade
/// stages. (`block_pins.rs` pins ties across block edges.)
#[test]
fn tied_bounds_keep_the_first_window_as_scout() {
    let query = [0.0, 5.0, 5.0, 0.0];
    // Each planted window has ends 0 (LB_Kim 0) and interior `v`; every
    // other window has an end at 9.
    let planted = |len: usize, at: [(usize, f64); 2]| {
        let mut haystack = vec![9.0; len];
        for (off, v) in at {
            haystack[off..off + 4].copy_from_slice(&[0.0, v, v, 0.0]);
        }
        haystack
    };
    for haystack in [
        planted(12, [(1, 3.0), (5, 5.0)]),
        planted(16, [(5, 3.0), (10, 5.0)]),
        planted(14, [(2, 3.0), (9, 5.0)]),
    ] {
        for chunk in [1, usize::MAX] {
            let c = Config {
                window: 4,
                radius: 0,
                z_normalize: false,
                prefilter: false,
                chunk,
            };
            check_sweep(c, &query, &haystack);
        }
    }
}

/// `(query, haystack, window)` over several blocks: a random walk that
/// jumps every 48 points (so whole blocks sit far from the query), with
/// ±1e308 and signed-zero runs mixed in, and a query cut from it or drawn
/// fresh with the window's length.
fn block_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize)> {
    (1usize..90, 0usize..260, 0usize..2).prop_flat_map(|(window, extra, fresh)| {
        let len = window + extra;
        (
            prop::collection::vec(sweep_value(), len),
            prop::collection::vec(-4.0f64..4.0, window),
            0..=extra,
        )
            .prop_map(move |(draws, drawn, at)| {
                let mut x = 0.0;
                let haystack: Vec<f64> = draws
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        x += d.clamp(-1.0, 1.0) + if i % 48 == 47 { 20.0 } else { 0.0 };
                        if d.abs() > 1e300 {
                            *d
                        } else if i % 97 < 5 {
                            [0.0, -0.0][i % 2]
                        } else {
                            x
                        }
                    })
                    .collect();
                let query = if fresh == 1 {
                    drawn
                } else {
                    haystack[at..at + window].to_vec()
                };
                (query, haystack, window)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A block's LB_Kim bound is never above the LB_Kim of any window it
    /// covers, bit for bit, and there is one bound per block of windows.
    #[test]
    fn block_bounds_never_exceed_a_covered_windows_kim(
        case in block_case(),
        ends in prop::collection::vec(sweep_value(), 2),
    ) {
        let (_, haystack, window) = case;
        let bounds = BlockSummary::new(&haystack).kim_bounds(ends[0], ends[1], window);
        let windows = haystack.len() - window + 1;
        prop_assert_eq!(bounds.len(), windows.div_ceil(BLOCK));
        for off in 0..windows {
            let kim = lb_kim(&ends, &haystack[off..off + window]).unwrap();
            prop_assert!(
                bounds[off / BLOCK] <= kim,
                "window {} bound {} above LB_Kim {}", off, bounds[off / BLOCK], kim
            );
        }
    }

    /// Over several blocks, at chunk sizes around the block length, the
    /// block route decides every window as the reference does.
    #[test]
    fn block_route_matches_the_reference_search(
        case in block_case(),
        radius in 0usize..4,
        prefilter in 0usize..2,
        chunk in 0usize..6,
    ) {
        let (query, haystack, window) = case;
        let c = Config {
            window,
            radius,
            z_normalize: false,
            prefilter: prefilter == 1,
            chunk: [1, 7, 63, 64, 65, usize::MAX][chunk],
        };
        check_sweep(c, &query, &haystack);
    }
}

/// A summary that does not describe the haystack it is given is refused,
/// and a prebuilt one answers as `run` does.
#[test]
fn prebuilt_summaries_answer_like_run() {
    let haystack: Vec<f64> = (0..300).map(|i| (i as f64 * 0.13).sin() * 3.0).collect();
    let query = haystack[150..182].to_vec();
    let search = SubsequenceSearch::new(32, 2);
    let summary = BlockSummary::new(&haystack);
    let got = search
        .run_with_summary(&query, &haystack, &summary)
        .unwrap();
    assert_eq!(got, search.run(&query, &haystack).unwrap());
    let short = BlockSummary::new(&haystack[..299]);
    let err = search
        .run_with_summary(&query, &haystack, &short)
        .unwrap_err();
    assert!(
        matches!(
            err,
            DistanceError::InvalidParameter {
                name: "summary",
                ..
            }
        ),
        "{err:?}"
    );
}

/// The scout examines a block whose bound equals the best LB_Kim found so
/// far, not only those below it: block 2's windows (offsets 128…191) all
/// have LB_Kim 2, as do block 5's, whose bound is only 1, so block 5 is
/// examined first, and the first minimum, offset 128, is found only by
/// examining block 2 on the tie. The two scouts' DTWs differ (3 and 2.5),
/// so a later scout would start from another threshold.
#[test]
fn a_block_bound_tying_the_best_kim_is_examined() {
    let mut haystack = vec![10.0; 64 * 7];
    haystack[128..=193].fill(1.0);
    for (i, x) in haystack[320..=385].iter_mut().enumerate() {
        *x = [0.5, 0.5, 1.5, 1.5][i % 4];
    }
    let query = [0.0, 0.0, 0.0];
    let bounds = BlockSummary::new(&haystack).kim_bounds(0.0, 0.0, 3);
    assert_eq!((bounds[2], bounds[5]), (2.0, 1.0));
    for chunk in [1, usize::MAX] {
        let c = Config {
            window: 3,
            radius: 0,
            z_normalize: false,
            prefilter: false,
            chunk,
        };
        check_sweep(c, &query, &haystack);
        assert_eq!(c.search().run(&query, &haystack).unwrap().0.offset, 320);
    }
}
