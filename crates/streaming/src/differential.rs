//! The differential gate: streaming = batch, at every push.
//!
//! [`check_series`] drives a [`StreamPipeline`] point by point and, at
//! each push, recomputes every operator output *from scratch* over the
//! current window with the library's batch code paths — `z_normalized`,
//! `envelope`, the UCR cascade with a fresh scratch — and demands bitwise
//! equality. Fold state (best-so-far, motif/discord) is replayed by an
//! independent reference fold. This is the correctness spine of the
//! streaming tier: the conformance harness's `streaming_differential`
//! layer and the `streaming` bench's fatal identity gate both call it.

use mda_distance::lower_bounds::{envelope, Cascade, PruneDecision};
use mda_distance::{znorm, DpScratch};

use crate::error::StreamError;
use crate::ops::{certified_bound, BestMatch, PruneFrameStats, Value};
use crate::pipeline::{StreamConfig, StreamPipeline};

/// A streaming-vs-batch disagreement at one push.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// 1-based push epoch where the gate failed.
    pub epoch: u64,
    /// Which operator disagreed.
    pub operator: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential mismatch at epoch {} in `{}`: {}",
            self.epoch, self.operator, self.detail
        )
    }
}

impl std::error::Error for Mismatch {}

/// Why a differential run failed: the stream rejected input, or the
/// gate found a disagreement.
#[derive(Debug)]
pub enum DifferentialError {
    /// Construction or push failed with a typed stream error.
    Stream(StreamError),
    /// The gate fired.
    Mismatch(Mismatch),
}

impl std::fmt::Display for DifferentialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DifferentialError::Stream(e) => write!(f, "{e}"),
            DifferentialError::Mismatch(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DifferentialError {}

impl From<StreamError> for DifferentialError {
    fn from(e: StreamError) -> Self {
        DifferentialError::Stream(e)
    }
}

impl From<Mismatch> for DifferentialError {
    fn from(m: Mismatch) -> Self {
        DifferentialError::Mismatch(m)
    }
}

/// Aggregate statistics from a clean differential run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DifferentialReport {
    /// Total points pushed.
    pub pushes: u64,
    /// Pushes answered while warming.
    pub warming: u64,
    /// The batch cascade's decisions over the warm pushes.
    pub cascade: PruneFrameStats,
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn decision_eq(a: PruneDecision, b: PruneDecision) -> bool {
    use PruneDecision::*;
    match (a, b) {
        (PrunedByKim(x), PrunedByKim(y))
        | (PrunedByKeogh(x), PrunedByKeogh(y))
        | (Computed(x), Computed(y)) => bits_eq(x, y),
        (AbandonedEarly, AbandonedEarly) => true,
        _ => false,
    }
}

fn best_eq(a: Option<BestMatch>, b: Option<BestMatch>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.epoch == y.epoch && bits_eq(x.distance, y.distance),
        _ => false,
    }
}

fn mismatch(epoch: u64, operator: &'static str, detail: String) -> DifferentialError {
    DifferentialError::Mismatch(Mismatch {
        epoch,
        operator,
        detail,
    })
}

fn slices_bitwise_eq(a: &[f64], b: &[f64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(usize::MAX);
    }
    a.iter().zip(b).position(|(x, y)| !bits_eq(*x, *y))
}

/// Runs `points` through a fresh pipeline under `config`, gating every
/// push against from-scratch batch recomputation.
///
/// # Errors
///
/// A typed [`DifferentialError`]: either the stream rejected input, or —
/// the interesting case — the gate found streaming ≠ batch.
pub fn check_series(
    config: &StreamConfig,
    points: &[f64],
) -> Result<DifferentialReport, DifferentialError> {
    let mut pipeline = StreamPipeline::new(config.clone())?;
    let w = config.window;
    let mut report = DifferentialReport::default();
    // Independent reference folds (never read from the pipeline).
    let mut ref_best: Option<BestMatch> = None;
    let mut ref_motif: Option<BestMatch> = None;
    let mut ref_discord: Option<BestMatch> = None;
    for (i, &x) in points.iter().enumerate() {
        let epoch = (i + 1) as u64;
        let result = pipeline.push(x)?;
        report.pushes += 1;
        if i + 1 < w {
            if result.ready() {
                return Err(mismatch(
                    epoch,
                    "window",
                    format!("emitted before burn-in ({} of {w} points)", i + 1),
                ));
            }
            report.warming += 1;
            continue;
        }
        if !result.ready() {
            return Err(mismatch(
                epoch,
                "window",
                format!("still warming after burn-in ({} points)", i + 1),
            ));
        }
        let window_ref = &points[i + 1 - w..=i];

        // Window: the ring must reproduce the slice exactly.
        let Some(Value::Window(wf)) = result.window.value() else {
            return Err(mismatch(epoch, "window", "non-window frame".into()));
        };
        if let Some(at) = slices_bitwise_eq(&wf.points, window_ref) {
            return Err(mismatch(
                epoch,
                "window",
                format!("ring contents diverge from stream slice at slot {at}"),
            ));
        }

        // Z-normalization: bitwise against the batch path.
        let Some(Value::Stats(sf)) = result.stats.value() else {
            return Err(mismatch(epoch, "znorm", "non-stats frame".into()));
        };
        let z_ref = znorm::z_normalized(window_ref);
        if let Some(at) = slices_bitwise_eq(&sf.z, &z_ref) {
            return Err(mismatch(
                epoch,
                "znorm",
                format!("z output differs from batch z_normalized at slot {at}"),
            ));
        }
        if !bits_eq(sf.mean, znorm::mean(window_ref))
            || !bits_eq(sf.std_dev, znorm::std_dev(window_ref))
        {
            return Err(mismatch(
                epoch,
                "znorm",
                format!(
                    "stats differ from batch: mean {} vs {}, std {} vs {}",
                    sf.mean,
                    znorm::mean(window_ref),
                    sf.std_dev,
                    znorm::std_dev(window_ref)
                ),
            ));
        }

        // Envelope: bitwise against the batch Lemire pass.
        let Some(Value::Envelope(ef)) = result.envelope.value() else {
            return Err(mismatch(epoch, "envelope", "non-envelope frame".into()));
        };
        let (upper_ref, lower_ref) =
            envelope(window_ref, config.band).map_err(StreamError::from)?;
        if let Some(at) = slices_bitwise_eq(&ef.upper, &upper_ref) {
            return Err(mismatch(
                epoch,
                "envelope",
                format!("upper envelope differs from batch at slot {at}"),
            ));
        }
        if let Some(at) = slices_bitwise_eq(&ef.lower, &lower_ref) {
            return Err(mismatch(
                epoch,
                "envelope",
                format!("lower envelope differs from batch at slot {at}"),
            ));
        }

        // Matcher: replay the cascade from scratch with the reference
        // fold's threshold, a fresh cascade (query envelope rebuilt) and a
        // cold scratch.
        let Some(Value::Match(mf)) = result.matcher.value() else {
            return Err(mismatch(epoch, "matcher", "non-match frame".into()));
        };
        let pruning = config
            .threshold
            .unwrap_or(f64::INFINITY)
            .min(ref_best.map_or(f64::INFINITY, |b| b.distance));
        if !bits_eq(mf.threshold, pruning) {
            return Err(mismatch(
                epoch,
                "matcher",
                format!(
                    "pruning threshold diverged: streaming {} vs batch fold {pruning}",
                    mf.threshold
                ),
            ));
        }
        let decision_ref = Cascade::new(&config.query, config.band)
            .decide(window_ref, pruning, &mut DpScratch::new())
            .map_err(StreamError::from)?;
        if !decision_eq(mf.decision, decision_ref) {
            return Err(mismatch(
                epoch,
                "matcher",
                format!(
                    "cascade decision diverged: streaming {:?} vs batch {decision_ref:?}",
                    mf.decision
                ),
            ));
        }
        if let PruneDecision::Computed(d) = decision_ref {
            if ref_best.is_none_or(|b| d < b.distance) {
                ref_best = Some(BestMatch { epoch, distance: d });
            }
        }
        if !best_eq(mf.best, ref_best) {
            return Err(mismatch(
                epoch,
                "matcher",
                format!(
                    "best-so-far diverged: streaming {:?} vs batch fold {ref_best:?}",
                    mf.best
                ),
            ));
        }

        // Tracker: independent fold over the reference decisions.
        let Some(Value::Track(tf)) = result.tracker.value() else {
            return Err(mismatch(epoch, "tracker", "non-track frame".into()));
        };
        if let PruneDecision::Computed(d) = decision_ref {
            if ref_motif.is_none_or(|b| d < b.distance) {
                ref_motif = Some(BestMatch { epoch, distance: d });
            }
        }
        let bound = certified_bound(decision_ref, pruning);
        if ref_discord.is_none_or(|b| bound > b.distance) {
            ref_discord = Some(BestMatch {
                epoch,
                distance: bound,
            });
        }
        if !best_eq(tf.motif, ref_motif) || !best_eq(tf.discord, ref_discord) {
            return Err(mismatch(
                epoch,
                "tracker",
                format!(
                    "fold diverged: streaming motif {:?} discord {:?} vs batch {ref_motif:?} / {ref_discord:?}",
                    tf.motif, tf.discord
                ),
            ));
        }

        report.cascade.record(decision_ref);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, step: f64, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * step + phase).sin()).collect()
    }

    #[test]
    fn clean_run_reports_cascade_mix() {
        let config = StreamConfig {
            window: 16,
            band: 2,
            query: wave(16, 0.4, 0.0),
            threshold: Some(2.0),
        };
        let mut points = wave(200, 0.37, 1.3);
        // Plant the query itself so at least one window computes.
        points[100..116].copy_from_slice(&config.query);
        let report = check_series(&config, &points).unwrap();
        assert_eq!(report.pushes, 200);
        assert_eq!(report.warming, 15);
        assert!(report.cascade.computed >= 1, "{report:?}");
        assert_eq!(report.warming + report.cascade.total(), report.pushes);
    }

    #[test]
    fn constant_and_degenerate_streams_pass_the_gate() {
        for value in [0.0, -0.0, 5.0, 1.0e9] {
            let config = StreamConfig {
                window: 8,
                band: 1,
                query: vec![value; 8],
                threshold: None,
            };
            let points = vec![value; 40];
            check_series(&config, &points).unwrap();
        }
    }

    #[test]
    fn gate_runs_across_window_sizes_and_bands() {
        for w in [1usize, 2, 3, 5, 9, 17] {
            for band in [0usize, 1, w / 2, w] {
                let config = StreamConfig {
                    window: w,
                    band,
                    query: wave(w, 0.5, 0.2),
                    threshold: Some(1.5),
                };
                let points = wave(4 * w + 7, 0.31, 2.0);
                check_series(&config, &points).unwrap_or_else(|e| panic!("w={w} band={band}: {e}"));
            }
        }
    }
}
