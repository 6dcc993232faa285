//! k-nearest-neighbour classification over time series.
//!
//! 1-NN with an elastic distance is the standard strong baseline in
//! time-series classification and the workload behind the paper's
//! vehicle-classification (DTW) and iris-authentication (HamD) motivating
//! examples.

use std::collections::BinaryHeap;

use crate::batch::BatchEngine;
use crate::dtw::{Band, Dtw, LANES};
use crate::error::DistanceError;
use crate::lower_bounds::{envelope, lb_keogh_envelope, lb_kim};
use crate::mining::prefilter::CandidateFilter;
use crate::scratch::DpScratch;
use crate::validate::{ensure_finite, finite_max_abs};
use crate::Distance;

/// A labelled training instance.
#[derive(Debug, Clone)]
struct Instance {
    label: usize,
    series: Vec<f64>,
}

/// Outcome of classifying one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Classified {
    /// The predicted class label.
    pub label: usize,
    /// Distance (or negated similarity) to the deciding neighbour.
    pub score: f64,
    /// Index of the nearest training instance.
    pub nearest_index: usize,
}

/// Ranks training instances by score and takes the k-NN vote: the final
/// step of [`KnnClassifier::classify`], shared with callers that evaluate
/// the distances themselves (the server's coalesced kNN).
///
/// `raw[i]` is instance `i`'s distance, or its similarity when `invert` is
/// set; `label_of(i)` is its label. Similarities are negated as
/// `0.0 - raw`, so a zero similarity scores `+0.0`. Scores sort with
/// `total_cmp`, ties going to the lower index. The `k` nearest (`k` is
/// clamped to `1..=raw.len()`) vote by majority, and a tied vote goes to
/// the single nearest instance's label.
///
/// # Panics
///
/// Panics if `raw` is empty.
pub fn rank_and_vote(
    raw: &[f64],
    invert: bool,
    k: usize,
    label_of: impl Fn(usize) -> usize,
) -> Classified {
    assert!(!raw.is_empty(), "kNN vote over no training instances");
    let mut scored: Vec<(usize, f64)> = raw
        .iter()
        .map(|&r| if invert { 0.0 - r } else { r })
        .enumerate()
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    let k = k.clamp(1, scored.len());
    let mut votes = std::collections::HashMap::new();
    for &(idx, _) in &scored[..k] {
        *votes.entry(label_of(idx)).or_insert(0usize) += 1;
    }
    let nearest = scored[0];
    let best_count = *votes.values().max().expect("k >= 1");
    let winners: Vec<usize> = votes
        .iter()
        .filter(|(_, &c)| c == best_count)
        .map(|(&l, _)| l)
        .collect();
    let label = if winners.len() == 1 {
        winners[0]
    } else {
        label_of(nearest.0)
    };
    Classified {
        label,
        score: nearest.1,
        nearest_index: nearest.0,
    }
}

/// How [`banded_dtw_knn`] disposed of each training instance. The four
/// counts partition the training set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KnnStats {
    /// Instances of another length than the query, skipped because their
    /// LB_Kim exceeded the running k-th best distance.
    pub pruned_by_kim: usize,
    /// Instances of the query's length, skipped because their LB_Keogh
    /// exceeded the running k-th best distance.
    pub pruned_by_keogh: usize,
    /// Instances whose DTW was abandoned row-wise.
    pub abandoned_early: usize,
    /// Instances whose DTW ran to the end.
    pub full_computations: usize,
}

impl KnnStats {
    /// Training instances scanned.
    pub fn instances(&self) -> usize {
        self.pruned_by_kim + self.pruned_by_keogh + self.abandoned_early + self.full_computations
    }
}

/// Exact k-NN classification under uniform-weight Sakoe–Chiba DTW of
/// radius `radius`, pruned with the UCR suite's bounds and early
/// abandoning. The answer and any error are bitwise what
/// [`KnnClassifier::classify`] returns for a
/// `Dtw::new().with_band(Band::SakoeChiba(radius))` classifier fitted
/// with `train` (labels `label_of(i)`), which evaluates every instance.
///
/// The query is enveloped once. Every instance gets a lower bound: its
/// LB_Keogh against the query envelope when its length is the query's,
/// LB_Kim otherwise. Instances are scanned in bound order (ties by index)
/// against the running k-th best distance: the scan stops at the first
/// bound strictly above it, and every DTW before that early-abandons
/// against it. Instances of the query's length go in runs of up to
/// [`LANES`] consecutive survivors (no more than the heap of the `k` best
/// lacks while it fills) through [`Dtw::distance_early_abandon_lanes`],
/// all against the k-th best at the start of the run; the k-th best only
/// falls, so a lane abandoned against it is farther than the final one
/// too. Skipped instances are provably farther than the final k-th best,
/// so they enter [`rank_and_vote`] as `+inf` placeholders without
/// changing its top `k`. Instances whose DTW could fail (empty, a band
/// with no warping path, or values large enough to overflow) are
/// evaluated exhaustively, in index order, after every instance is
/// checked finite, so the lowest-indexed error is the one returned. `k`
/// is clamped to `1..=train.len()`.
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for an empty training set or a
/// non-finite query or instance, and the DTW error of the lowest-indexed
/// failing instance.
pub fn banded_dtw_knn<S: AsRef<[f64]>>(
    query: &[f64],
    train: &[S],
    label_of: impl Fn(usize) -> usize,
    k: usize,
    radius: usize,
    scratch: &mut DpScratch,
) -> Result<(Classified, KnnStats), DistanceError> {
    if train.is_empty() {
        return Err(DistanceError::InvalidParameter {
            name: "train",
            reason: "classifier has no training data".into(),
        });
    }
    let query_max = finite_max_abs("query", query)?;
    let band = Band::SakoeChiba(radius);
    let dtw = Dtw::new().with_band(band);
    let k = k.clamp(1, train.len());
    let mut scan = Scan {
        raw: vec![f64::INFINITY; train.len()],
        stats: KnnStats::default(),
        best: BinaryHeap::with_capacity(k + 1),
        k,
    };
    // An empty query has no envelope and never reaches the LB_Keogh arm.
    let (upper, lower) = envelope(query, radius).unwrap_or_default();
    let m = query.len();
    let mut exhaustive = Vec::new();
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(train.len());
    for (i, s) in train.iter().enumerate() {
        let s = s.as_ref();
        let n = s.len();
        // Each point cost is at most `query_max + max|s|`, and a path sums
        // fewer than m + n of them; the factor 2 absorbs rounding.
        let overflow_free =
            ((query_max + finite_max_abs("train", s)?) * (2 * (m + n)) as f64).is_finite();
        if m == 0 || n == 0 || !band.admits_path(m, n) || !overflow_free {
            exhaustive.push(i);
        } else if m == n {
            order.push((lb_keogh_envelope(s, &upper, &lower), i));
        } else {
            order.push((lb_kim(query, s)?, i));
        }
    }
    for i in exhaustive {
        let d = dtw.distance_with(query, train[i].as_ref(), scratch)?;
        scan.record(i, Some(d));
    }
    // Stable: equal bounds stay in index order.
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut pos = 0;
    while pos < order.len() {
        let kth = scan.kth();
        if order[pos].0 > kth {
            // Every later bound is at least this one.
            for &(_, j) in &order[pos..] {
                if train[j].as_ref().len() == m {
                    scan.stats.pruned_by_keogh += 1;
                } else {
                    scan.stats.pruned_by_kim += 1;
                }
            }
            break;
        }
        // The survivors of the query's length from here on: up to LANES,
        // but while the heap fills only as many as it lacks, so the first
        // k run to the end as in a one-at-a-time scan and every later run
        // meets a finite k-th best.
        let width = match k - scan.best.len() {
            0 => LANES,
            missing => missing.min(LANES),
        };
        let mut run: [&[f64]; LANES] = [&[]; LANES];
        let mut len = 0;
        for &(bound, i) in order[pos..].iter().take(width) {
            let s = train[i].as_ref();
            if bound > kth || s.len() != m {
                break;
            }
            run[len] = s;
            len += 1;
        }
        if len == 0 {
            let i = order[pos].1;
            let d = dtw.distance_early_abandon_with(query, train[i].as_ref(), kth, scratch)?;
            scan.record(i, d);
            pos += 1;
            continue;
        }
        let lanes = dtw.distance_early_abandon_lanes(query, &run[..len], kth, scratch)?;
        for (&(_, i), d) in order[pos..pos + len].iter().zip(lanes) {
            scan.record(i, d);
        }
        pos += len;
    }
    Ok((rank_and_vote(&scan.raw, false, k, label_of), scan.stats))
}

/// The state of one [`banded_dtw_knn`] scan.
struct Scan {
    /// Each instance's distance, `+inf` until it is computed in full.
    raw: Vec<f64>,
    stats: KnnStats,
    /// The `k` smallest distances so far, as a max-heap of bit patterns:
    /// distances are never negative or -0.0, and non-negative f64s order
    /// like their bits.
    best: BinaryHeap<u64>,
    k: usize,
}

impl Scan {
    /// The running k-th best distance, `+inf` before `k` are known.
    fn kth(&self) -> f64 {
        match self.best.peek() {
            Some(&bits) if self.best.len() == self.k => f64::from_bits(bits),
            _ => f64::INFINITY,
        }
    }

    /// Records instance `i`'s DTW: its distance, or `None` if abandoned.
    fn record(&mut self, i: usize, d: Option<f64>) {
        let Some(d) = d else {
            self.stats.abandoned_early += 1;
            return;
        };
        self.raw[i] = d;
        self.stats.full_computations += 1;
        self.best.push(d.to_bits());
        if self.best.len() > self.k {
            self.best.pop();
        }
    }
}

/// A k-NN classifier parameterised by any [`Distance`].
///
/// For similarity functions (LCS) the neighbour ordering is inverted
/// automatically, so "nearest" always means "most similar".
///
/// ```
/// use mda_distance::{Manhattan, mining::KnnClassifier};
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let mut knn = KnnClassifier::new(Box::new(Manhattan::new()), 1);
/// knn.fit(0, vec![0.0, 0.0, 0.0]);
/// knn.fit(1, vec![5.0, 5.0, 5.0]);
/// assert_eq!(knn.classify(&[0.2, -0.1, 0.1])?.label, 0);
/// # Ok(())
/// # }
/// ```
pub struct KnnClassifier {
    distance: Box<dyn Distance + Send + Sync>,
    k: usize,
    train: Vec<Instance>,
    engine: BatchEngine,
    prefilter: Option<Box<dyn CandidateFilter>>,
}

impl std::fmt::Debug for KnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnClassifier")
            .field("kind", &self.distance.kind())
            .field("k", &self.k)
            .field("train_size", &self.train.len())
            .field("engine", &self.engine)
            .field("prefilter", &self.prefilter.is_some())
            .finish()
    }
}

impl KnnClassifier {
    /// Creates a classifier with the given distance and neighbour count `k`.
    /// Distance batches run on a default (all-cores) [`BatchEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(distance: Box<dyn Distance + Send + Sync>, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KnnClassifier {
            distance,
            k,
            train: Vec::new(),
            engine: BatchEngine::new(),
            prefilter: None,
        }
    }

    /// Replaces the batch engine (e.g. [`BatchEngine::serial`] for
    /// single-threaded runs). Results are identical for every engine
    /// configuration; only wall-clock time changes.
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a stage-0 candidate pre-filter (e.g. an aCAM array model),
    /// consulted per training instance before its distance is evaluated.
    /// The first `k` instances seed a certified pruning threshold; a
    /// filter rejection then proves the instance is outside the final
    /// neighbour set, so the classification (label, score, nearest index)
    /// stays bitwise-identical with or without a filter.
    #[must_use]
    pub fn with_candidate_filter(mut self, filter: Box<dyn CandidateFilter>) -> Self {
        self.prefilter = Some(filter);
        self
    }

    /// Adds one labelled training series.
    pub fn fit(&mut self, label: usize, series: Vec<f64>) {
        self.train.push(Instance { label, series });
    }

    /// Adds many labelled training series.
    pub fn fit_all<I: IntoIterator<Item = (usize, Vec<f64>)>>(&mut self, items: I) {
        for (label, series) in items {
            self.fit(label, series);
        }
    }

    /// Number of stored training instances.
    pub fn train_size(&self) -> usize {
        self.train.len()
    }

    /// Classifies a query by majority vote over its `k` nearest neighbours
    /// (ties broken by the single nearest neighbour's label).
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if no training data has
    /// been fitted or the query or a training series contains a NaN or
    /// infinity, or any error from the underlying distance.
    pub fn classify(&self, query: &[f64]) -> Result<Classified, DistanceError> {
        if self.train.is_empty() {
            return Err(DistanceError::InvalidParameter {
                name: "train",
                reason: "classifier has no training data".into(),
            });
        }
        ensure_finite("query", query)?;
        for inst in &self.train {
            ensure_finite("train", &inst.series)?;
        }
        let invert = self.distance.is_similarity();
        // Stage 0: with a pre-filter installed (and scores that are plain
        // distances), the first k instances are evaluated up front and the
        // largest of their distances becomes the programmed threshold. The
        // final k-th best score can only be <= that threshold, so a filter
        // rejection — certified `distance > threshold` — proves the
        // instance lands strictly past position k in the sort below and
        // its exact score is never consulted.
        let head = self.k.min(self.train.len());
        let predicate = match &self.prefilter {
            Some(filter) if !invert && self.train.len() > head => {
                let mut scratch = DpScratch::new();
                let mut threshold = f64::NEG_INFINITY;
                for inst in &self.train[..head] {
                    let raw = self
                        .distance
                        .evaluate_with(query, &inst.series, &mut scratch)?;
                    threshold = threshold.max(raw);
                }
                if threshold.is_finite() && threshold >= 0.0 {
                    filter.program(self.distance.kind(), query, query.len(), threshold)
                } else {
                    None
                }
            }
            _ => None,
        };
        // One distance per training instance, sharded over the engine's
        // workers; they come back in training-index order, which is the
        // order `rank_and_vote` breaks score ties by.
        let raw = self
            .engine
            .try_map_with(&self.train, DpScratch::new, |scratch, idx, inst| {
                if idx >= head {
                    if let Some(p) = &predicate {
                        if !p.admit(&inst.series) {
                            // Certified out of the neighbour set: an +inf
                            // placeholder sorts after every finite score, of
                            // which the k head instances guarantee at least k.
                            return Ok(f64::INFINITY);
                        }
                    }
                }
                self.distance.evaluate_with(query, &inst.series, scratch)
            })?;
        Ok(rank_and_vote(&raw, invert, self.k, |i| self.train[i].label))
    }

    /// Leave-one-out accuracy over the training set — the standard UCR
    /// evaluation protocol.
    ///
    /// # Errors
    ///
    /// Propagates distance errors.
    pub fn leave_one_out_accuracy(&self) -> Result<f64, DistanceError> {
        if self.train.len() < 2 {
            return Err(DistanceError::InvalidParameter {
                name: "train",
                reason: "leave-one-out needs at least two instances".into(),
            });
        }
        for inst in &self.train {
            ensure_finite("train", &inst.series)?;
        }
        let invert = self.distance.is_similarity();
        // One work item per held-out query; each worker scans the full train
        // set serially (deterministic strict-< argmin, ties to lowest index).
        let hits = self
            .engine
            .try_map_with(&self.train, DpScratch::new, |scratch, qi, q| {
                let mut best: Option<(usize, f64)> = None;
                for (ti, t) in self.train.iter().enumerate() {
                    if ti == qi {
                        continue;
                    }
                    let raw = self.distance.evaluate_with(&q.series, &t.series, scratch)?;
                    let score = if invert { 0.0 - raw } else { raw };
                    if best.is_none_or(|(_, b)| score < b) {
                        best = Some((ti, score));
                    }
                }
                let (bi, _) = best.expect("at least one other instance");
                Ok(usize::from(self.train[bi].label == q.label))
            })?;
        let correct: usize = hits.iter().sum();
        Ok(correct as f64 / self.train.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtw, Lcs, Manhattan};

    fn two_class_data() -> Vec<(usize, Vec<f64>)> {
        vec![
            (0, vec![0.0, 0.1, 0.0, -0.1]),
            (0, vec![0.1, 0.0, -0.1, 0.0]),
            (1, vec![5.0, 5.1, 4.9, 5.0]),
            (1, vec![4.9, 5.0, 5.1, 5.0]),
        ]
    }

    #[test]
    fn one_nn_separates_well_separated_classes() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        assert_eq!(knn.classify(&[0.05, 0.05, 0.0, 0.0]).unwrap().label, 0);
        assert_eq!(knn.classify(&[5.05, 4.95, 5.0, 5.0]).unwrap().label, 1);
    }

    #[test]
    fn k3_majority_vote() {
        let mut knn = KnnClassifier::new(Box::new(Manhattan::new()), 3);
        knn.fit(0, vec![0.0, 0.0]);
        knn.fit(0, vec![0.2, 0.2]);
        knn.fit(1, vec![0.3, 0.3]);
        knn.fit(1, vec![10.0, 10.0]);
        // Nearest 3 of query (0.25, 0.25): the two 0s and one 1 -> class 0.
        assert_eq!(knn.classify(&[0.1, 0.1]).unwrap().label, 0);
    }

    #[test]
    fn similarity_function_inverts_ordering() {
        // With LCS, the training series sharing MORE elements must win.
        let mut knn = KnnClassifier::new(Box::new(Lcs::new(0.05)), 1);
        knn.fit(0, vec![1.0, 2.0, 3.0, 4.0]);
        knn.fit(1, vec![9.0, 8.0, 7.0, 6.0]);
        assert_eq!(knn.classify(&[1.0, 2.0, 3.0, 9.9]).unwrap().label, 0);
    }

    #[test]
    fn leave_one_out_perfect_on_separated_data() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        assert_eq!(knn.leave_one_out_accuracy().unwrap(), 1.0);
    }

    #[test]
    fn empty_classifier_errors() {
        let knn = KnnClassifier::new(Box::new(Manhattan::new()), 1);
        assert!(knn.classify(&[0.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let _ = KnnClassifier::new(Box::new(Manhattan::new()), 0);
    }

    /// The identity filter must leave the classification bitwise as the
    /// unfiltered run produced it.
    #[test]
    fn admit_all_filter_changes_nothing() {
        use crate::mining::prefilter::AdmitAll;
        for k in [1, 3] {
            let mut plain = KnnClassifier::new(Box::new(Dtw::new()), k);
            plain.fit_all(two_class_data());
            let mut filtered = KnnClassifier::new(Box::new(Dtw::new()), k)
                .with_candidate_filter(Box::new(AdmitAll));
            filtered.fit_all(two_class_data());
            for query in [[0.05, 0.05, 0.0, 0.0], [5.05, 4.95, 5.0, 5.0]] {
                assert_eq!(
                    plain.classify(&query).unwrap(),
                    filtered.classify(&query).unwrap()
                );
            }
        }
    }

    /// Regression: a NaN query or training series used to panic in the
    /// score sort (`partial_cmp(..).expect("scores are finite")`).
    #[test]
    fn non_finite_inputs_are_typed_errors_not_panics() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = knn.classify(&[0.0, bad, 0.0, 0.0]).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "query", .. }),
                "{err:?}"
            );
        }
        knn.fit(0, vec![0.0, f64::NAN, 0.0, 0.0]);
        let err = knn.classify(&[0.0; 4]).unwrap_err();
        assert!(
            matches!(err, DistanceError::InvalidParameter { name: "train", .. }),
            "{err:?}"
        );
        assert!(knn.leave_one_out_accuracy().is_err());
    }
}
