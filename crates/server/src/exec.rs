//! Decomposition of protocol requests into engine work items, and the
//! per-item kernel the dispatcher maps over a coalesced batch.
//!
//! Every compute request flattens into [`WorkItem`]s — the unit the
//! coalescing dispatcher shards across the [`BatchEngine`]'s workers:
//!
//! * `distance` → one pair item;
//! * `batch` → one pair item per input pair;
//! * `knn` → a single item that classifies the query against the whole
//!   training set *serially inside one worker*: on the exact digital route
//!   with a Sakoe–Chiba band it runs the pruned banded-DTW scan
//!   ([`banded_dtw_knn`]), otherwise it evaluates every instance through
//!   its routed backend in index order; both end in the library's
//!   [`rank_and_vote`], so the answer is bitwise
//!   `KnnClassifier::classify`'s;
//! * `search` → a single item that runs the full pruned subsequence
//!   search serially inside one worker, as **one chunk**
//!   (`BatchEngine::serial().with_chunk_size(usize::MAX)`): the
//!   best-so-far tightens across the whole haystack. The item carries the
//!   haystack's [`BlockSummary`] — the resident series' own, or one built
//!   here for an inline haystack. The match is bitwise
//!   `SubsequenceSearch::run`'s at any chunk size; the `SearchStats` the
//!   item reports (and `/metrics` exports) are the one-chunk partition.
//!
//! kNN and search parallelize across concurrent requests, not within one,
//! so a coalesced batch never oversubscribes the host. Admission and the
//! batch budget still count a kNN item as its training-set size
//! ([`WorkItem::weight`]).
//!
//! Item evaluation calls the same entry points the library's mining
//! drivers use, with the same per-worker [`DpScratch`], so a value served
//! over the wire is bitwise identical to the value a direct library call
//! produces.
//!
//! [`BatchEngine`]: mda_distance::BatchEngine

use std::sync::Arc;
use std::time::Instant;

use mda_distance::mining::{
    banded_dtw_knn, rank_and_vote, BlockSummary, Classified, KnnStats, SearchStats,
    SubsequenceSearch,
};
use mda_distance::{BatchEngine, DistanceError, DistanceKind, DpScratch};
use mda_routing::{evaluate_routed, BackendId, PairRequest};

use crate::datasets::{DatasetStore, ResolveError};
use crate::protocol::{ErrorCode, Request, TrainInstance};

/// Distance-function parameters carried by a pair or kNN item.
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    /// Which of the six functions.
    pub kind: DistanceKind,
    /// Match threshold override (LCS/EdD/HamD); `None` = paper default 0.1.
    pub threshold: Option<f64>,
    /// Sakoe–Chiba radius (DTW); `None` = full matrix.
    pub band: Option<usize>,
    /// The answer path this item was routed to. [`BackendId::DigitalExact`]
    /// out of [`decompose`]; the event loop overrides it with the router's
    /// per-request decision before admission.
    pub backend: BackendId,
}

impl PairSpec {
    fn request(&self) -> PairRequest {
        PairRequest {
            kind: self.kind,
            threshold: self.threshold,
            band: self.band,
        }
    }
}

/// One unit of engine work.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// Evaluate one distance pair.
    Pair {
        /// Function and parameters.
        spec: PairSpec,
        /// First series (shared, not cloned per item).
        p: Arc<[f64]>,
        /// Second series.
        q: Arc<[f64]>,
    },
    /// Classify one query against a training set.
    Knn {
        /// Function and parameters.
        spec: PairSpec,
        /// Neighbour count.
        k: usize,
        /// The query series.
        query: Arc<[f64]>,
        /// Training series (a resident dataset's own handles).
        series: Arc<[Arc<[f64]>]>,
        /// Training labels, index-aligned with `series`.
        labels: Arc<[usize]>,
    },
    /// Run one full subsequence search.
    Search {
        /// The query series.
        query: Arc<[f64]>,
        /// The series to scan.
        haystack: Arc<[f64]>,
        /// The haystack's block summary.
        summary: Arc<BlockSummary>,
        /// Window length.
        window: usize,
        /// Sakoe–Chiba radius.
        band: usize,
    },
}

impl WorkItem {
    /// What the item counts for against the queue capacity and the batch
    /// budget: a kNN item weighs one per training instance, as many pair
    /// items as it replaces; every other item weighs one.
    pub fn weight(&self) -> usize {
        match self {
            WorkItem::Knn { series, .. } => series.len(),
            WorkItem::Pair { .. } | WorkItem::Search { .. } => 1,
        }
    }
}

/// Outcome of one executed work item.
#[derive(Debug, Clone, Copy)]
pub enum ItemOutcome {
    /// A distance value.
    Value(f64),
    /// A kNN classification.
    Knn {
        /// The predicted label.
        label: usize,
        /// Distance (or negated similarity) to the nearest neighbour.
        score: f64,
        /// Index of the nearest training instance.
        nearest_index: usize,
        /// The pruned scan's partition of the training set (all zero when
        /// every instance was evaluated).
        stats: KnnStats,
    },
    /// A search match.
    Match {
        /// Best window start offset.
        offset: usize,
        /// Its banded DTW distance.
        distance: f64,
        /// The search's partition of the windows.
        stats: SearchStats,
    },
}

impl ItemOutcome {
    fn knn(c: Classified, stats: KnnStats) -> Self {
        ItemOutcome::Knn {
            label: c.label,
            score: c.score,
            nearest_index: c.nearest_index,
            stats,
        }
    }
}

/// How a job folds its item outcomes back into one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assemble {
    /// One item, reply its outcome (`distance`, `knn`, `search`).
    Single,
    /// Reply all values in item order (`batch`).
    Values,
}

/// A compute request decomposed into engine work.
#[derive(Debug, Clone)]
pub struct Decomposed {
    /// The flattened work items.
    pub items: Vec<WorkItem>,
    /// The reduction to apply to their outcomes.
    pub assemble: Assemble,
}

impl Decomposed {
    /// The routing problem size: the longest series among the pair and kNN
    /// items (0 for search-only jobs, which route separately).
    pub fn max_pair_len(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                WorkItem::Pair { p, q, .. } => p.len().max(q.len()),
                WorkItem::Knn { query, series, .. } => {
                    series.iter().map(|s| s.len()).fold(query.len(), usize::max)
                }
                WorkItem::Search { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Points every pair and kNN item at `backend` — applying the router's
    /// per-request decision before the job is admitted.
    pub fn route_to(&mut self, backend: BackendId) {
        for item in &mut self.items {
            if let WorkItem::Pair { spec, .. } | WorkItem::Knn { spec, .. } = item {
                spec.backend = backend;
            }
        }
    }
}

/// Flattens a compute request into work items, resolving any resident
/// dataset references against `store`. Returns `Ok(None)` for non-compute
/// ops (ping/metrics/dataset management), which never enter the queue, and
/// a typed [`ResolveError`] (`not_found` / `stale_version`) when a dataset
/// reference cannot be resolved — resolution happens *before* admission, so
/// a bad reference never occupies queue capacity.
///
/// Resolution clones `Arc` handles to the stored series — no samples are
/// copied and the bits a query sees are exactly the bits uploaded, which is
/// what keeps the resident path bitwise identical to inline corpora. A
/// `knn` with no training data is refused here too (`bad_request`).
pub fn decompose(req: Request, store: &DatasetStore) -> Result<Option<Decomposed>, ResolveError> {
    match req {
        Request::Ping
        | Request::Metrics
        | Request::UploadDataset { .. }
        | Request::ListDatasets
        | Request::DropDataset { .. }
        | Request::OpenStream { .. }
        | Request::PushPoints { .. }
        | Request::Subscribe { .. }
        | Request::CloseStream { .. } => Ok(None),
        Request::Distance {
            kind,
            p,
            q,
            threshold,
            band,
            ..
        } => Ok(Some(Decomposed {
            items: vec![WorkItem::Pair {
                spec: PairSpec {
                    kind,
                    threshold,
                    band,
                    backend: BackendId::DigitalExact,
                },
                p: p.into(),
                q: q.into(),
            }],
            assemble: Assemble::Single,
        })),
        Request::Batch {
            kind,
            pairs,
            query,
            dataset,
            threshold,
            band,
            ..
        } => {
            let spec = PairSpec {
                kind,
                threshold,
                band,
                backend: BackendId::DigitalExact,
            };
            let items = if let Some(dref) = dataset {
                // Resident form: the query series vs every dataset series.
                let resolved = store.resolve(&dref)?;
                let query: Arc<[f64]> = query
                    .ok_or_else(|| ResolveError {
                        code: ErrorCode::BadRequest,
                        message: "batch with `dataset` requires `query`".into(),
                    })?
                    .into();
                resolved
                    .series
                    .iter()
                    .map(|s| WorkItem::Pair {
                        spec,
                        p: Arc::clone(&query),
                        q: Arc::clone(s),
                    })
                    .collect()
            } else {
                pairs
                    .into_iter()
                    .map(|(p, q)| WorkItem::Pair {
                        spec,
                        p: p.into(),
                        q: q.into(),
                    })
                    .collect()
            };
            Ok(Some(Decomposed {
                items,
                assemble: Assemble::Values,
            }))
        }
        Request::Knn {
            kind,
            k,
            query,
            train,
            dataset,
            threshold,
            band,
            ..
        } => {
            let (series, labels) = if let Some(dref) = dataset {
                // Resident form: training set is the dataset (labels included).
                let resolved = store.resolve(&dref)?;
                (resolved.series, resolved.labels)
            } else {
                let labels: Arc<[usize]> = train.iter().map(|t| t.label).collect();
                let series: Arc<[Arc<[f64]>]> = train
                    .into_iter()
                    .map(|TrainInstance { series, .. }| series.into())
                    .collect();
                (series, labels)
            };
            if series.is_empty() {
                return Err(ResolveError {
                    code: ErrorCode::BadRequest,
                    message: "classifier has no training data".into(),
                });
            }
            Ok(Some(Decomposed {
                items: vec![WorkItem::Knn {
                    spec: PairSpec {
                        kind,
                        threshold,
                        band,
                        backend: BackendId::DigitalExact,
                    },
                    k,
                    query: query.into(),
                    series,
                    labels,
                }],
                assemble: Assemble::Single,
            }))
        }
        Request::Search {
            query,
            haystack,
            dataset,
            series_index,
            window,
            band,
            ..
        } => {
            let (haystack, summary) = if let Some(dref) = dataset {
                // Resident form: scan one series of the dataset, with the
                // summary built at upload.
                let resolved = store.resolve(&dref)?;
                let s = resolved
                    .series
                    .get(series_index)
                    .ok_or_else(|| ResolveError {
                        code: ErrorCode::NotFound,
                        message: format!(
                        "series_index {series_index} out of range for dataset \"{}\" ({} series)",
                        resolved.name,
                        resolved.series.len()
                    ),
                    })?;
                (Arc::clone(s), Arc::clone(&resolved.summaries[series_index]))
            } else {
                let summary = Arc::new(BlockSummary::new(&haystack));
                (haystack.into(), summary)
            };
            Ok(Some(Decomposed {
                items: vec![WorkItem::Search {
                    query: query.into(),
                    haystack,
                    summary,
                    window,
                    band,
                }],
                assemble: Assemble::Single,
            }))
        }
    }
}

/// What one work item cost its routed backends, for the server's
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTally {
    /// Analog evaluations that silently fell back to a digital recompute
    /// (counted even when the item fails).
    pub fallbacks: u64,
    /// Evaluations routed to the behavioural analog backend.
    pub analog: u64,
    /// Wall time the dispatcher spent on the item when it was routed to
    /// the behavioural analog backend, ns (0 on every other route, which
    /// is never timed).
    pub analog_ns: u64,
}

/// Executes one work item through its routed backend. Returns the
/// outcome together with its [`RouteTally`]. Errors are per-item values —
/// a failing item never aborts the coalesced batch it shares with other
/// requests.
///
/// Pair items, and the instances of a kNN item off the pruned path,
/// dispatch through [`evaluate_routed`]: on the default
/// [`BackendId::DigitalExact`] route that is the exact `Distance`
/// constructors the digital reference library uses — bitwise identical to
/// a direct call — while analog routes carry the saturation/encoding
/// fallback guard. A kNN item reports its lowest-indexed instance error.
pub fn execute_item_routed(
    item: &WorkItem,
    scratch: &mut DpScratch,
) -> (Result<ItemOutcome, DistanceError>, RouteTally) {
    let analog = match item {
        WorkItem::Pair { spec, .. } if spec.backend == BackendId::Analog => 1,
        WorkItem::Knn { spec, series, .. } if spec.backend == BackendId::Analog => {
            series.len() as u64
        }
        _ => 0,
    };
    let start = (analog > 0).then(Instant::now);
    let (outcome, fallbacks) = route_item(item, scratch);
    let analog_ns = start.map_or(0, |s| {
        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    (
        outcome,
        RouteTally {
            fallbacks,
            analog,
            analog_ns,
        },
    )
}

/// [`execute_item_routed`] without the timing: the outcome and the
/// fallback count.
fn route_item(
    item: &WorkItem,
    scratch: &mut DpScratch,
) -> (Result<ItemOutcome, DistanceError>, u64) {
    match item {
        WorkItem::Pair { spec, p, q } => {
            match evaluate_routed(spec.backend, &spec.request(), p, q, scratch) {
                Ok(routed) => (
                    Ok(ItemOutcome::Value(routed.value)),
                    u64::from(routed.fell_back),
                ),
                Err(e) => (Err(e), 0),
            }
        }
        WorkItem::Knn {
            spec,
            k,
            query,
            series,
            labels,
        } => {
            let label_of = |i: usize| labels[i];
            if let (BackendId::DigitalExact, DistanceKind::Dtw, Some(r)) =
                (spec.backend, spec.kind, spec.band)
            {
                let outcome = banded_dtw_knn(query, series, label_of, *k, r, scratch)
                    .map(|(c, stats)| ItemOutcome::knn(c, stats));
                return (outcome, 0);
            }
            let req = spec.request();
            let mut fallbacks = 0;
            let mut raw = Vec::with_capacity(series.len());
            let mut first_err = None;
            for s in series.iter() {
                match evaluate_routed(spec.backend, &req, query, s, scratch) {
                    Ok(routed) => {
                        fallbacks += u64::from(routed.fell_back);
                        raw.push(routed.value);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            let outcome = match first_err {
                Some(e) => Err(e),
                None => Ok(ItemOutcome::knn(
                    rank_and_vote(&raw, spec.kind.is_similarity(), *k, label_of),
                    KnnStats::default(),
                )),
            };
            (outcome, fallbacks)
        }
        WorkItem::Search {
            query,
            haystack,
            summary,
            window,
            band,
        } => {
            // Serial engine: the item already runs on an engine worker. One
            // chunk: the best-so-far tightens across the whole haystack.
            let search = SubsequenceSearch::new(*window, *band)
                .with_engine(BatchEngine::serial().with_chunk_size(usize::MAX));
            let outcome = search
                .run_with_summary(query, haystack, summary)
                .map(|(m, stats)| ItemOutcome::Match {
                    offset: m.offset,
                    distance: m.distance,
                    stats,
                });
            (outcome, 0)
        }
    }
}

/// [`execute_item_routed`] without the tally.
pub fn execute_item(
    item: &WorkItem,
    scratch: &mut DpScratch,
) -> Result<ItemOutcome, DistanceError> {
    execute_item_routed(item, scratch).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use mda_distance::dtw::Band;
    use mda_distance::{Distance, Dtw};

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.4 + phase).sin()).collect()
    }

    #[test]
    fn pair_item_matches_direct_evaluation() {
        let p = series(16, 0.0);
        let q = series(16, 0.7);
        let mut scratch = DpScratch::new();
        for kind in DistanceKind::ALL {
            let item = WorkItem::Pair {
                spec: PairSpec {
                    kind,
                    threshold: None,
                    band: None,
                    backend: BackendId::DigitalExact,
                },
                p: p.clone().into(),
                q: q.clone().into(),
            };
            let ItemOutcome::Value(served) = execute_item(&item, &mut scratch).unwrap() else {
                panic!("pair item must yield a value");
            };
            let direct = mda_distance::boxed_distance(kind).evaluate(&p, &q).unwrap();
            assert_eq!(served.to_bits(), direct.to_bits(), "{kind}");
        }
    }

    #[test]
    fn banded_dtw_spec_is_honoured() {
        let p = series(24, 0.0);
        let q = series(24, 1.1);
        let mut scratch = DpScratch::new();
        let item = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Dtw,
                threshold: None,
                band: Some(2),
                backend: BackendId::DigitalExact,
            },
            p: p.clone().into(),
            q: q.clone().into(),
        };
        let ItemOutcome::Value(served) = execute_item(&item, &mut scratch).unwrap() else {
            panic!()
        };
        let direct = Dtw::new()
            .with_band(Band::SakoeChiba(2))
            .evaluate(&p, &q)
            .unwrap();
        assert_eq!(served.to_bits(), direct.to_bits());
    }

    fn knn_request(kind: DistanceKind, k: usize, band: Option<usize>) -> Request {
        Request::Knn {
            kind,
            k,
            query: vec![0.0],
            train: [(0, 1.0), (1, 0.5), (0, 2.0)]
                .into_iter()
                .map(|(label, x)| TrainInstance {
                    label,
                    series: vec![x],
                })
                .collect(),
            dataset: None,
            threshold: None,
            band,
            deadline_ms: None,
            accuracy: None,
        }
    }

    #[test]
    fn knn_is_one_item_sharing_the_query_and_resident_series() {
        let store = DatasetStore::new(u64::MAX);
        let up = store
            .upload("train", vec![3, 5], vec![vec![0.0, 1.0], vec![9.0, 9.0]])
            .unwrap();
        let req = Request::Knn {
            kind: DistanceKind::Manhattan,
            k: 1,
            query: vec![0.0, 1.0],
            train: Vec::new(),
            dataset: Some(crate::protocol::DatasetRef::by_id(&up.dataset_id)),
            threshold: None,
            band: None,
            deadline_ms: None,
            accuracy: None,
        };
        let d = decompose(req, &store).unwrap().unwrap();
        assert_eq!(d.assemble, Assemble::Single);
        let [item @ WorkItem::Knn {
            k,
            query,
            series,
            labels,
            ..
        }] = d.items.as_slice()
        else {
            panic!("one knn item expected");
        };
        assert_eq!((*k, &labels[..], item.weight()), (1, &[3usize, 5][..], 2));
        // No samples copied: the item holds the store's own handles, and
        // the dispatcher's clone of the item shares the query.
        let resolved = store
            .resolve(&crate::protocol::DatasetRef::by_name("train"))
            .unwrap();
        assert!(Arc::ptr_eq(series, &resolved.series));
        assert!(Arc::ptr_eq(labels, &resolved.labels));
        let WorkItem::Knn { query: cloned, .. } = item.clone() else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(query, &cloned),
            "query must be shared, not cloned"
        );
    }

    #[test]
    fn knn_item_ranks_and_votes_like_the_classifier() {
        // Distances 1.0 (label 0), 0.5 (label 1), 2.0 (label 0), k=3:
        // votes 0:2, 1:1 → label 0; nearest is index 1 (score 0.5). The
        // banded DTW request takes the pruned scan and must agree.
        let store = DatasetStore::new(u64::MAX);
        let mut scratch = DpScratch::new();
        for (kind, band) in [
            (DistanceKind::Manhattan, None),
            (DistanceKind::Dtw, Some(0)),
        ] {
            let d = decompose(knn_request(kind, 3, band), &store)
                .unwrap()
                .unwrap();
            let outcome = execute_item(&d.items[0], &mut scratch).unwrap();
            let ItemOutcome::Knn {
                label,
                score,
                nearest_index,
                stats,
            } = outcome
            else {
                panic!("knn outcome expected, got {outcome:?}");
            };
            assert_eq!((label, score, nearest_index), (0, 0.5, 1), "{kind}");
            let expected = if band.is_some() { 3 } else { 0 };
            assert_eq!(stats.instances(), expected, "{kind}");
        }
    }

    #[test]
    fn knn_without_training_data_is_bad_request() {
        let store = DatasetStore::new(u64::MAX);
        let Request::Knn { kind, k, query, .. } = knn_request(DistanceKind::Dtw, 1, Some(2)) else {
            unreachable!()
        };
        let err = decompose(
            Request::Knn {
                kind,
                k,
                query,
                train: Vec::new(),
                dataset: None,
                threshold: None,
                band: Some(2),
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.message, "classifier has no training data");
    }

    #[test]
    fn item_errors_stay_per_item() {
        let mut scratch = DpScratch::new();
        let bad = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Manhattan,
                threshold: None,
                band: None,
                backend: BackendId::DigitalExact,
            },
            p: vec![0.0].into(),
            q: vec![0.0, 1.0].into(),
        };
        assert!(execute_item(&bad, &mut scratch).is_err());
    }

    #[test]
    fn control_ops_do_not_decompose() {
        let store = DatasetStore::new(u64::MAX);
        assert!(decompose(Request::Ping, &store).unwrap().is_none());
        assert!(decompose(Request::Metrics, &store).unwrap().is_none());
        assert!(decompose(Request::ListDatasets, &store).unwrap().is_none());
        assert!(decompose(Request::Subscribe { stream_id: 1 }, &store)
            .unwrap()
            .is_none());
    }

    #[test]
    fn resident_knn_answers_identically_to_inline_train() {
        let store = DatasetStore::new(u64::MAX);
        let train: Vec<Vec<f64>> = (0..9).map(|i| series(8, i as f64 * 0.3)).collect();
        let labels: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let up = store
            .upload("train", labels.clone(), train.clone())
            .unwrap();
        let mut scratch = DpScratch::new();
        // Banded DTW takes the pruned scan; unbanded DTW evaluates every
        // instance. Both must match the exhaustive library classifier.
        for band in [Some(2), None] {
            let knn = |train: Vec<TrainInstance>, dataset| Request::Knn {
                kind: DistanceKind::Dtw,
                k: 3,
                query: series(8, 0.1),
                train,
                dataset,
                threshold: None,
                band,
                deadline_ms: None,
                accuracy: None,
            };
            let resident = decompose(
                knn(
                    Vec::new(),
                    Some(crate::protocol::DatasetRef::by_id(&up.dataset_id)),
                ),
                &store,
            )
            .unwrap()
            .unwrap();
            let inline_train = train
                .iter()
                .zip(&labels)
                .map(|(s, &label)| TrainInstance {
                    label,
                    series: s.clone(),
                })
                .collect();
            let inline = decompose(knn(inline_train, None), &store).unwrap().unwrap();
            let answer =
                |d: &Decomposed, scratch: &mut DpScratch| match execute_item(&d.items[0], scratch)
                    .unwrap()
                {
                    ItemOutcome::Knn {
                        label,
                        score,
                        nearest_index,
                        ..
                    } => (label, score.to_bits(), nearest_index),
                    other => panic!("knn outcome expected, got {other:?}"),
                };
            let mut dtw = Dtw::new();
            if let Some(r) = band {
                dtw = dtw.with_band(Band::SakoeChiba(r));
            }
            let mut clf = mda_distance::mining::KnnClassifier::new(Box::new(dtw), 3);
            clf.fit_all(labels.iter().copied().zip(train.iter().cloned()));
            let c = clf.classify(&series(8, 0.1)).unwrap();
            let direct = (c.label, c.score.to_bits(), c.nearest_index);
            assert_eq!(answer(&resident, &mut scratch), direct, "band {band:?}");
            assert_eq!(answer(&inline, &mut scratch), direct, "band {band:?}");
        }
    }

    #[test]
    fn resident_resolution_errors_are_typed_and_pre_admission() {
        let store = DatasetStore::new(u64::MAX);
        store.upload("d", vec![0], vec![vec![1.0, 2.0]]).unwrap();
        // Unknown id → not_found.
        let err = decompose(
            Request::Search {
                query: vec![1.0],
                haystack: Vec::new(),
                dataset: Some(crate::protocol::DatasetRef::by_id("missing")),
                series_index: 0,
                window: 1,
                band: 0,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        // series_index past the end → not_found naming the range.
        let err = decompose(
            Request::Search {
                query: vec![1.0],
                haystack: Vec::new(),
                dataset: Some(crate::protocol::DatasetRef::by_name("d")),
                series_index: 9,
                window: 1,
                band: 0,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        assert!(err.message.contains("series_index 9"), "{}", err.message);
        // Batch resident form without a query → bad_request.
        let err = decompose(
            Request::Batch {
                kind: DistanceKind::Manhattan,
                pairs: Vec::new(),
                query: None,
                dataset: Some(crate::protocol::DatasetRef::by_name("d")),
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }
}
