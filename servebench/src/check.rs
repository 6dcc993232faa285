//! Correctness gates, computed after the timed phases on the same inputs:
//! exact answers must equal direct library calls bit for bit, tolerance
//! answers must fall within their ε and name their route, and stream events
//! must be epoch-contiguous and equal a from-scratch pipeline replay.

use std::collections::HashMap;

use mda_distance::dtw::Band;
use mda_distance::lower_bounds::PruneDecision;
use mda_distance::mining::{Classified, KnnClassifier, SubsequenceSearch};
use mda_distance::{boxed_distance, BatchEngine, Dtw};
use mda_server::protocol::{MatchRecord, ResponseBody, StreamEventBody, StreamEventState};
use mda_streaming::{certified_bound, Output, PushResult, StreamConfig, StreamPipeline, Value};

use crate::drive::{Push, Query, Received, Sent, Streams, Upload};
use crate::gen::{Inputs, PairCase, KNN_K, MINING_BAND, SERIES_LEN, STREAMS};
use crate::trace::Tracer;

/// Operations attempted and failed, with the first few failures spelled
/// out.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Errors, wrong answers, missing replies and missed events.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Gate {
    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }
}

/// Checks open-loop pair requests; `case(input)` is the pair that request
/// carried.
pub fn pairs<'a>(gate: &mut Gate, sent: &[Sent], case: &dyn Fn(usize) -> &'a PairCase) {
    for s in sent {
        gate.attempted += 1;
        let c = case(s.input);
        let Some((_, reply)) = &s.reply else {
            gate.fail(|| format!("no reply to {} pair #{}", c.kind, s.input));
            continue;
        };
        let ResponseBody::Distance { value } = reply.body else {
            gate.fail(|| format!("{} pair #{} answered {:?}", c.kind, s.input, reply.body));
            continue;
        };
        let reference = boxed_distance(c.kind)
            .evaluate(&c.p, &c.q)
            .expect("generated pairs are well shaped");
        let ok = match c.tolerance {
            None => value.to_bits() == reference.to_bits(),
            Some(eps) => reply.route.is_some() && (value - reference).abs() <= eps,
        };
        if !ok {
            gate.fail(|| {
                format!(
                    "{} pair #{} answered {value:e}, reference {reference:e}, ε {:?}, route {:?}",
                    c.kind, s.input, c.tolerance, reply.route
                )
            });
        }
    }
}

/// Summed [`mda_distance::mining::SearchStats`] of the reference searches.
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchTotals {
    /// Searches run.
    pub searches: f64,
    /// Windows examined.
    pub windows: f64,
    /// LB_Kim prunes.
    pub pruned_kim: f64,
    /// LB_Keogh prunes.
    pub pruned_keogh: f64,
    /// Early-abandoned DTWs.
    pub abandoned: f64,
    /// Full DTWs.
    pub full_dtw: f64,
}

/// Checks closed-loop kNN and search answers and the re-uploads. Every
/// search query is distinct, so each gets its own reference run; those
/// runs are the served queries' own search work, traced on `t` as
/// `search.run` spans.
pub fn mining(
    gate: &mut Gate,
    inputs: &Inputs,
    queries: &[Query],
    uploads: &[Upload],
    t: &mut Tracer,
) -> SearchTotals {
    let clf = knn_classifier(inputs);
    let knn_refs: Vec<Classified> = inputs
        .knn_queries
        .iter()
        .map(|q| clf.classify(q).expect("generated queries are finite"))
        .collect();
    let mut totals = SearchTotals::default();
    let mut search_refs: HashMap<usize, (usize, f64)> = HashMap::new();
    for q in queries.iter().filter(|q| !q.knn) {
        let (query, h, _) = inputs.search_query(q.input);
        let (m, stats) = t.span("search.run", q.input as u64, |_| {
            SubsequenceSearch::new(SERIES_LEN, MINING_BAND)
                .with_engine(BatchEngine::serial())
                .run(&query, &inputs.haystacks[h])
                .expect("generated queries are finite")
        });
        totals.searches += 1.0;
        totals.windows += stats.windows as f64;
        totals.pruned_kim += stats.pruned_by_kim as f64;
        totals.pruned_keogh += stats.pruned_by_keogh as f64;
        totals.abandoned += stats.abandoned_early as f64;
        totals.full_dtw += stats.full_computations as f64;
        search_refs.insert(q.input, (m.offset, m.distance));
    }
    for q in queries {
        gate.attempted += 1;
        let ok = match (&q.reply, q.knn) {
            (
                Some(ResponseBody::Knn {
                    label,
                    score,
                    nearest_index,
                }),
                true,
            ) => {
                let want = &knn_refs[q.input % knn_refs.len()];
                want.label == *label
                    && want.score.to_bits() == score.to_bits()
                    && want.nearest_index == *nearest_index
            }
            (Some(ResponseBody::Search { offset, distance }), false) => {
                let want = search_refs[&q.input];
                want.0 == *offset && want.1.to_bits() == distance.to_bits()
            }
            _ => false,
        };
        if !ok {
            gate.fail(|| {
                format!(
                    "{} query #{} answered {:?}",
                    if q.knn { "knn" } else { "search" },
                    q.input,
                    q.reply
                )
            });
        }
    }
    for u in uploads {
        gate.attempted += 1;
        if !u.ok {
            gate.fail(|| format!("upload of staging version {} failed", u.version));
        }
    }
    totals
}

/// The direct-library kNN classifier over the resident corpus.
pub fn knn_classifier(inputs: &Inputs) -> KnnClassifier {
    let mut clf = KnnClassifier::new(
        Box::new(Dtw::new().with_band(Band::SakoeChiba(MINING_BAND))),
        KNN_K,
    );
    clf.fit_all(
        inputs
            .corpus_version(1)
            .into_iter()
            .map(|e| (e.label, e.series)),
    );
    clf
}

/// Expected events of every stream, indexed by epoch − 1, from a
/// from-scratch replay of every point pushed so far.
pub fn stream_replay(inputs: &Inputs, streams: &Streams) -> Vec<Vec<StreamEventBody>> {
    STREAMS
        .iter()
        .enumerate()
        .map(|(s, &(window, band))| {
            let mut pipeline = StreamPipeline::new(StreamConfig {
                window,
                band,
                query: inputs.stream_queries[s].clone(),
                threshold: None,
            })
            .expect("stream configurations are valid");
            let mut events = Vec::new();
            for b in 0..streams.batches[s] {
                for x in inputs.stream_batch(s, b) {
                    let result = pipeline.push(x).expect("generated points are finite");
                    events.push(event_of(streams.ids[s], &result));
                }
            }
            events
        })
        .collect()
}

/// Checks one round of pushes and the subscriber's events: per stream,
/// epochs must run contiguously over `from + 1 ..= to`, and each event
/// must equal the replayed one.
pub fn stream(
    gate: &mut Gate,
    expected: &[Vec<StreamEventBody>],
    ids: &[u64],
    (from, to): (&[u64], &[u64]),
    pushes: &[Push],
    received: &Received,
) {
    for p in pushes {
        gate.attempted += 1;
        if !p.acked {
            gate.fail(|| {
                format!(
                    "push to stream {} batch {} not acknowledged",
                    p.stream, p.batch
                )
            });
        }
    }
    let mut next: Vec<u64> = from.iter().map(|e| e + 1).collect();
    for (_, event) in &received.events {
        let Some(s) = ids.iter().position(|&id| id == event.stream_id) else {
            gate.fail(|| format!("event for unknown stream {}", event.stream_id));
            continue;
        };
        let want = expected[s].get((event.epoch as usize).wrapping_sub(1));
        if event.epoch != next[s] || want != Some(event) {
            gate.fail(|| {
                format!(
                    "stream {s} event at epoch {} (expected epoch {}) differs from replay",
                    event.epoch, next[s]
                )
            });
        }
        next[s] = event.epoch + 1;
    }
    for s in 0..ids.len() {
        gate.attempted += to[s] - from[s];
        for _ in next[s]..=to[s] {
            gate.fail(|| format!("stream {s} missed events up to epoch {}", to[s]));
        }
    }
}

/// The event a subscriber should receive for one push, built from the
/// pipeline's public outputs.
fn event_of(stream_id: u64, result: &PushResult) -> StreamEventBody {
    let state = match (
        result.stats.value(),
        result.matcher.value(),
        result.tracker.value(),
    ) {
        (Some(Value::Stats(sf)), Some(Value::Match(mf)), Some(Value::Track(tf))) => {
            StreamEventState::Ready {
                mean: sf.mean,
                std_dev: sf.std_dev,
                decision: decision_name(mf.decision).to_string(),
                bound: certified_bound(mf.decision, mf.threshold),
                threshold: mf.threshold,
                motif: tf.motif.map(|b| MatchRecord {
                    epoch: b.epoch,
                    distance: b.distance,
                }),
                discord: tf.discord.map(|b| MatchRecord {
                    epoch: b.epoch,
                    distance: b.distance,
                }),
            }
        }
        _ => match result.tracker {
            Output::Warming { seen, burn_in } => StreamEventState::Warming { seen, burn_in },
            Output::Ready(_) => StreamEventState::Warming {
                seen: result.epoch,
                burn_in: result.epoch,
            },
        },
    };
    StreamEventBody {
        stream_id,
        epoch: result.epoch,
        state,
    }
}

fn decision_name(decision: PruneDecision) -> &'static str {
    match decision {
        PruneDecision::PrunedByKim(_) => "pruned_kim",
        PruneDecision::PrunedByKeogh(_) => "pruned_keogh",
        PruneDecision::AbandonedEarly => "abandoned",
        PruneDecision::Computed(_) => "computed",
    }
}
