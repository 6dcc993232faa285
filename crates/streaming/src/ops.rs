//! The five pipeline stages and the typed frames they emit.
//!
//! [`crate::pipeline::StreamPipeline`] steps the stages in a fixed order
//! on every push: window → z-norm and envelope → matcher → tracker. Each
//! stage carries typed state across pushes; until the window has filled,
//! every slot of the push result is [`Output::Warming`]. The correctness
//! contract is *differential*: once warm, every emitted frame equals a
//! from-scratch batch recomputation over the current window — bitwise,
//! because each stage either runs the batch code path on the same bytes
//! (z-normalization) or maintains state that is provably bit-identical
//! to the batch result (Lemire envelopes via [`SlidingExtremum`], the
//! UCR cascade via a [`Cascade`] built once for the query + maintained
//! candidate envelope). The gate is enforced by [`crate::differential`],
//! property tests, and the conformance harness's `streaming_differential`
//! layer.

use std::collections::VecDeque;
use std::sync::Arc;

use mda_distance::lower_bounds::{slice_extremum, Cascade, PruneDecision, SlidingExtremum};
use mda_distance::{znorm, DpScratch};

use crate::error::StreamError;
use crate::window::SlidingWindow;

/// The materialized sliding window: the source frame every other stage
/// derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFrame {
    /// Window contents, oldest first (length = configured window).
    pub points: Arc<Vec<f64>>,
}

/// Sliding z-normalization output.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsFrame {
    /// Window mean — bitwise the batch `znorm::mean` of the window.
    pub mean: f64,
    /// Window population σ — bitwise the batch `znorm::std_dev`.
    pub std_dev: f64,
    /// `true` when the degenerate rule of `znorm::z_normalize_in_place`
    /// fired (bitwise-constant window, σ under the Welford relative
    /// floor, or non-finite statistics) and `z` is therefore all zeros.
    pub degenerate: bool,
    /// The z-normalized window — bitwise the batch `z_normalized`.
    pub z: Arc<Vec<f64>>,
}

/// Incrementally maintained Sakoe–Chiba envelope of the current window.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeFrame {
    /// Upper envelope — bitwise the batch `envelope(window, r).0`.
    pub upper: Arc<Vec<f64>>,
    /// Lower envelope — bitwise the batch `envelope(window, r).1`.
    pub lower: Arc<Vec<f64>>,
}

/// A best-so-far record: which push produced it and its distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestMatch {
    /// The 1-based push epoch whose window produced this record.
    pub epoch: u64,
    /// Its exact banded DTW distance (or admissible bound, for discords).
    pub distance: f64,
}

/// Online subsequence-matching output for one push.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchFrame {
    /// What the UCR cascade decided for this window.
    pub decision: PruneDecision,
    /// The pruning threshold in effect (configured threshold ∧ best so
    /// far) — recorded so a batch recompute can replay the decision.
    pub threshold: f64,
    /// Best (lowest-distance) computed match so far, if any.
    pub best: Option<BestMatch>,
}

/// Best-so-far motif/discord tracker output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackFrame {
    /// Lowest exactly-computed distance so far (earliest epoch on ties).
    pub motif: Option<BestMatch>,
    /// Largest admissible lower bound so far: the window provably at
    /// least this far from the query (earliest epoch on ties).
    pub discord: Option<BestMatch>,
}

/// A typed stage output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// From the window stage.
    Window(WindowFrame),
    /// From the z-norm stage.
    Stats(StatsFrame),
    /// From the envelope stage.
    Envelope(EnvelopeFrame),
    /// From the matcher stage.
    Match(MatchFrame),
    /// From the tracker stage.
    Track(TrackFrame),
}

/// What a stage emitted for one pushed point.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The window has not filled yet; every stage reports the same
    /// progress.
    Warming {
        /// Points seen so far.
        seen: u64,
        /// Points required before the stages emit values (the window).
        burn_in: u64,
    },
    /// A warm, differentially-gated frame.
    Ready(Value),
}

impl Output {
    /// `true` once the stage emits values.
    pub fn is_ready(&self) -> bool {
        matches!(self, Output::Ready(_))
    }

    /// The carried value, if warm.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Output::Ready(v) => Some(v),
            Output::Warming { .. } => None,
        }
    }
}

/// Window stage: maintains the ring buffer and materializes the window.
#[derive(Debug)]
pub(crate) struct WindowStage {
    window: SlidingWindow,
    points: Arc<Vec<f64>>,
}

impl WindowStage {
    /// A window over the last `capacity` points (`capacity` ≥ 1, enforced
    /// by [`crate::pipeline::StreamConfig::validate`]).
    pub(crate) fn new(capacity: usize) -> Self {
        WindowStage {
            window: SlidingWindow::new(capacity),
            points: Arc::new(Vec::with_capacity(capacity)),
        }
    }

    /// Appends `point`; the materialized window once it is full.
    pub(crate) fn push(&mut self, point: f64) -> Option<WindowFrame> {
        self.window.push(point);
        if !self.window.is_full() {
            return None;
        }
        // `make_mut` reuses the buffer unless a caller still holds the
        // previous frame, in which case it clones rather than mutating
        // bytes out from under them.
        self.window.copy_into(Arc::make_mut(&mut self.points));
        Some(WindowFrame {
            points: Arc::clone(&self.points),
        })
    }
}

/// Z-norm stage: one pass of the batch body `znorm::z_normalize_in_place`
/// over a copy of the window, which also yields the frame's statistics
/// and degenerate flag — bit for bit the batch result.
#[derive(Debug)]
pub(crate) struct ZNormStage {
    z: Arc<Vec<f64>>,
}

impl ZNormStage {
    /// A z-normalizer for windows of `window` points.
    pub(crate) fn new(window: usize) -> Self {
        ZNormStage {
            z: Arc::new(Vec::with_capacity(window)),
        }
    }

    /// Normalizes the current window.
    pub(crate) fn frame(&mut self, points: &[f64]) -> StatsFrame {
        let z = Arc::make_mut(&mut self.z);
        z.clear();
        z.extend_from_slice(points);
        let stats = znorm::z_normalize_in_place(z);
        StatsFrame {
            mean: stats.mean,
            std_dev: stats.std_dev,
            degenerate: stats.degenerate,
            z: Arc::clone(&self.z),
        }
    }
}

/// Envelope stage: the incremental Lemire envelope of the sliding window.
///
/// Interior entries (`r ≤ i ≤ w-1-r`) are stream-absolute extrema over a
/// fixed span of `2r + 1` points: each is finalized exactly once by the
/// [`SlidingExtremum`] monotonic deques as the closing point arrives, in
/// O(1) amortized. Only the ≤ 2r window-clamped border entries shift
/// meaning as the window slides; those are recomputed per frame with
/// [`slice_extremum`], which replicates the batch deque's tie-breaking —
/// so the assembled envelope is bitwise the batch `envelope(window, r)`.
#[derive(Debug)]
pub(crate) struct EnvelopeStage {
    radius: usize,
    window: usize,
    smax: SlidingExtremum,
    smin: SlidingExtremum,
    fin_upper: VecDeque<f64>,
    fin_lower: VecDeque<f64>,
    upper: Arc<Vec<f64>>,
    lower: Arc<Vec<f64>>,
}

impl EnvelopeStage {
    /// An envelope maintainer for band radius `radius` over windows of
    /// `window` points.
    pub(crate) fn new(window: usize, radius: usize) -> Self {
        EnvelopeStage {
            radius,
            window,
            smax: SlidingExtremum::new_max(2 * radius + 1),
            smin: SlidingExtremum::new_min(2 * radius + 1),
            fin_upper: VecDeque::with_capacity(window + 1),
            fin_lower: VecDeque::with_capacity(window + 1),
            upper: Arc::new(Vec::with_capacity(window)),
            lower: Arc::new(Vec::with_capacity(window)),
        }
    }

    /// Feeds the deques the `epoch`-th point; runs on every push,
    /// burn-in included.
    pub(crate) fn advance(&mut self, epoch: u64, point: f64) {
        let idx = epoch - 1; // 0-based absolute stream index
        self.smax.push(idx, point);
        self.smin.push(idx, point);
        if idx >= 2 * self.radius as u64 {
            // The span around center idx - r is complete: finalize it.
            self.fin_upper
                .push_back(self.smax.extremum().unwrap_or(point));
            self.fin_lower
                .push_back(self.smin.extremum().unwrap_or(point));
            if self.fin_upper.len() > self.window {
                self.fin_upper.pop_front();
                self.fin_lower.pop_front();
            }
        }
    }

    /// Assembles the envelope of the full window `pts`, which must end at
    /// the point last passed to [`EnvelopeStage::advance`].
    pub(crate) fn frame(&mut self, pts: &[f64]) -> EnvelopeFrame {
        let (w, r) = (pts.len(), self.radius);
        let fin_len = self.fin_upper.len();
        let upper = Arc::make_mut(&mut self.upper);
        let lower = Arc::make_mut(&mut self.lower);
        upper.clear();
        upper.resize(w, 0.0);
        lower.clear();
        lower.resize(w, 0.0);
        for i in 0..w {
            if i < r || i + r > w - 1 {
                let lo = i.saturating_sub(r);
                let hi = (i + r).min(w - 1);
                upper[i] = slice_extremum(&pts[lo..=hi], true);
                lower[i] = slice_extremum(&pts[lo..=hi], false);
            } else {
                // Finalized centers run to idx - r; the window starts at
                // absolute index idx - w + 1, so window slot i maps to
                // ring position fin_len - 1 - ((idx - r) - (idx - w + 1 + i)).
                let pos = fin_len + r + i - w;
                upper[i] = self.fin_upper[pos];
                lower[i] = self.fin_lower[pos];
            }
        }
        EnvelopeFrame {
            upper: Arc::clone(&self.upper),
            lower: Arc::clone(&self.lower),
        }
    }
}

/// Matcher stage: the UCR cascade against a fixed query.
///
/// Carries the query's [`Cascade`] (query envelope built once, in
/// [`MatcherStage::new`]) and the best-so-far pruning threshold across
/// pushes, and reads the envelope stage's candidate envelope. The
/// expensive banded DTW re-runs only when the new point invalidates the
/// pruning certificate — when the window's lower bounds fall below the
/// carried threshold; every other push settles in the O(1)/O(w) bound
/// layers.
#[derive(Debug)]
pub(crate) struct MatcherStage {
    cascade: Cascade,
    threshold: f64,
    scratch: DpScratch,
    best: Option<BestMatch>,
}

impl MatcherStage {
    /// A matcher for `query` (length = window) at band `radius`, pruning
    /// against `threshold` (`None` = unbounded: every window computes
    /// until a best-so-far forms).
    pub(crate) fn new(query: &[f64], radius: usize, threshold: Option<f64>) -> Self {
        MatcherStage {
            cascade: Cascade::new(query, radius),
            threshold: threshold.unwrap_or(f64::INFINITY),
            scratch: DpScratch::new(),
            best: None,
        }
    }

    /// Decides the `epoch`-th window `pts` with its envelope `env`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Kernel`] if the cascade rejects its inputs.
    pub(crate) fn frame(
        &mut self,
        epoch: u64,
        pts: &[f64],
        env: &EnvelopeFrame,
    ) -> Result<MatchFrame, StreamError> {
        let pruning = self
            .threshold
            .min(self.best.map_or(f64::INFINITY, |b| b.distance));
        let decision = self.cascade.decide_with_envelope(
            pts,
            pruning,
            &env.upper,
            &env.lower,
            &mut self.scratch,
        )?;
        if let PruneDecision::Computed(d) = decision {
            if self.best.is_none_or(|b| d < b.distance) {
                self.best = Some(BestMatch { epoch, distance: d });
            }
        }
        Ok(MatchFrame {
            decision,
            threshold: pruning,
            best: self.best,
        })
    }
}

/// Counts of cascade outcomes over warm pushes — shared by replay
/// reports and the `streaming` bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneFrameStats {
    /// Full banded DTW runs.
    pub computed: u64,
    /// LB_Kim prunes.
    pub pruned_kim: u64,
    /// LB_Keogh prunes (either direction).
    pub pruned_keogh: u64,
    /// Early-abandoned DP runs.
    pub abandoned: u64,
}

impl PruneFrameStats {
    /// Tallies one cascade decision.
    pub fn record(&mut self, decision: PruneDecision) {
        match decision {
            PruneDecision::Computed(_) => self.computed += 1,
            PruneDecision::PrunedByKim(_) => self.pruned_kim += 1,
            PruneDecision::PrunedByKeogh(_) => self.pruned_keogh += 1,
            PruneDecision::AbandonedEarly => self.abandoned += 1,
        }
    }

    /// Total warm pushes tallied.
    pub fn total(&self) -> u64 {
        self.computed + self.pruned_kim + self.pruned_keogh + self.abandoned
    }
}

/// The admissible lower bound a cascade decision certifies: exact for
/// computed windows, the bound value for pruned ones, and the pruning
/// threshold for early-abandoned DP runs (abandonment proves d > τ).
pub fn certified_bound(decision: PruneDecision, threshold: f64) -> f64 {
    match decision {
        PruneDecision::Computed(d) => d,
        PruneDecision::PrunedByKim(v) | PruneDecision::PrunedByKeogh(v) => v,
        PruneDecision::AbandonedEarly => threshold,
    }
}

/// Tracker stage: a best-so-far motif/discord fold over matcher frames.
#[derive(Debug, Default)]
pub(crate) struct TrackerStage {
    motif: Option<BestMatch>,
    discord: Option<BestMatch>,
}

impl TrackerStage {
    /// Folds in the `epoch`-th matcher frame.
    pub(crate) fn frame(&mut self, epoch: u64, m: &MatchFrame) -> TrackFrame {
        if let PruneDecision::Computed(d) = m.decision {
            if self.motif.is_none_or(|b| d < b.distance) {
                self.motif = Some(BestMatch { epoch, distance: d });
            }
        }
        let bound = certified_bound(m.decision, m.threshold);
        if self.discord.is_none_or(|b| bound > b.distance) {
            self.discord = Some(BestMatch {
                epoch,
                distance: bound,
            });
        }
        TrackFrame {
            motif: self.motif,
            discord: self.discord,
        }
    }
}
