//! Incremental operators: the typed nodes of the streaming DAG.
//!
//! Each operator consumes one pushed point per step (plus the outputs of
//! its parent nodes), carries typed state across steps, and declares an
//! explicit `burn_in` — it emits [`Output::Warming`] until its window has
//! filled. The correctness contract is *differential*: once warm, every
//! emitted frame equals a from-scratch batch recomputation over the
//! current window — bitwise, because each operator either feeds the exact
//! batch code path with the same bytes (z-normalization) or maintains
//! state that is provably bit-identical to the batch result (Lemire
//! envelopes via [`SlidingExtremum`], the UCR cascade via a [`Cascade`]
//! built once for the query + maintained candidate envelope). The gate is enforced
//! by [`crate::differential`], property tests, and the conformance
//! harness's `streaming_differential` layer.

use std::sync::Arc;

use mda_distance::lower_bounds::{slice_extremum, Cascade, PruneDecision, SlidingExtremum};
use mda_distance::{znorm, DpScratch};

use crate::error::StreamError;
use crate::window::{SlidingWindow, WelfordState};

/// The materialized sliding window: the source frame every other
/// operator derives from.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFrame {
    /// Window contents, oldest first (length = configured window).
    pub points: Arc<Vec<f64>>,
    /// The point appended this step.
    pub appended: f64,
    /// The point evicted this step (`None` on the step the window fills).
    pub evicted: Option<f64>,
}

/// Sliding z-normalization output.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsFrame {
    /// Window mean — bitwise the batch `znorm::mean` of the window.
    pub mean: f64,
    /// Window population σ — bitwise the batch `znorm::std_dev`.
    pub std_dev: f64,
    /// `true` when the degenerate rules of `z_normalize_in_place` fired
    /// (bitwise-constant window, σ under the Welford relative floor, or
    /// non-finite statistics) and `z` is therefore all zeros.
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

/// A typed operator output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// From [`WindowOp`].
    Window(WindowFrame),
    /// From [`ZNormOp`].
    Stats(StatsFrame),
    /// From [`EnvelopeOp`].
    Envelope(EnvelopeFrame),
    /// From [`MatcherOp`].
    Match(MatchFrame),
    /// From [`TrackerOp`].
    Track(TrackFrame),
}

/// What a node emitted for one pushed point.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The node (or one of its ancestors) has not finished burn-in.
    Warming {
        /// Points seen so far.
        seen: u64,
        /// Points required before the node emits values.
        burn_in: u64,
    },
    /// A warm, differentially-gated frame.
    Ready(Value),
}

impl Output {
    /// `true` once the node emits values.
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

/// Per-push context handed to every operator.
#[derive(Debug, Clone, Copy)]
pub struct PushCtx {
    /// 1-based count of points pushed to the DAG so far.
    pub epoch: u64,
    /// The point pushed this step (validated finite by the DAG).
    pub point: f64,
}

/// One node of the streaming DAG.
///
/// `apply` runs on *every* push — including during burn-in, so stateful
/// operators can fill their windows — and receives its parents' outputs
/// for the same push, in wiring order.
pub trait Operator: Send {
    /// Stable node label (used in frames, metrics, and mismatch reports).
    fn name(&self) -> &'static str;
    /// Number of points before this node emits `Ready` outputs.
    fn burn_in(&self) -> u64;
    /// Advances the node by one pushed point.
    ///
    /// # Errors
    ///
    /// Typed [`StreamError`] — operators never panic on domain input.
    fn apply(&mut self, ctx: &PushCtx, inputs: &[&Output]) -> Result<Output, StreamError>;
}

fn wiring_error(op: &'static str, expected: &str) -> StreamError {
    StreamError::InvalidParameter(format!("operator `{op}` wired to a non-{expected} parent"))
}

/// Source node: maintains the ring buffer and materializes the window.
#[derive(Debug)]
pub struct WindowOp {
    window: SlidingWindow,
    points: Arc<Vec<f64>>,
}

impl WindowOp {
    /// A window over the last `capacity` points (`capacity` ≥ 1, enforced
    /// by [`crate::pipeline::StreamConfig::validate`]).
    pub fn new(capacity: usize) -> Self {
        WindowOp {
            window: SlidingWindow::new(capacity),
            points: Arc::new(Vec::with_capacity(capacity)),
        }
    }
}

impl Operator for WindowOp {
    fn name(&self) -> &'static str {
        "window"
    }

    fn burn_in(&self) -> u64 {
        self.window.capacity() as u64
    }

    fn apply(&mut self, ctx: &PushCtx, _inputs: &[&Output]) -> Result<Output, StreamError> {
        let evicted = self.window.push(ctx.point);
        if !self.window.is_full() {
            return Ok(Output::Warming {
                seen: self.window.len() as u64,
                burn_in: self.burn_in(),
            });
        }
        // `make_mut` reuses the buffer unless a caller still holds the
        // previous frame, in which case it clones rather than mutating
        // bytes out from under them.
        self.window.copy_into(Arc::make_mut(&mut self.points));
        Ok(Output::Ready(Value::Window(WindowFrame {
            points: Arc::clone(&self.points),
            appended: ctx.point,
            evicted,
        })))
    }
}

/// Sliding-window z-normalization.
///
/// The O(1) add/evict [`WelfordState`] monitors the window as it slides;
/// emitted statistics re-fold the materialized window through the exact
/// batch code path (`znorm::mean` / `znorm::std_dev` /
/// `z_normalize_in_place`) so the frame is bit-for-bit the batch result —
/// the frame is O(w) to write regardless, and the downdating monitor can
/// drift by ULPs (see [`WelfordState::evict`]).
#[derive(Debug)]
pub struct ZNormOp {
    monitor: WelfordState,
    burn_in: u64,
    z: Arc<Vec<f64>>,
}

impl ZNormOp {
    /// A z-normalizer for windows of `window` points.
    pub fn new(window: usize) -> Self {
        ZNormOp {
            monitor: WelfordState::new(),
            burn_in: window as u64,
            z: Arc::new(Vec::with_capacity(window)),
        }
    }

    /// The O(1) sliding accumulators (monitoring-grade: ULP drift).
    pub fn monitor(&self) -> &WelfordState {
        &self.monitor
    }
}

impl Operator for ZNormOp {
    fn name(&self) -> &'static str {
        "znorm"
    }

    fn burn_in(&self) -> u64 {
        self.burn_in
    }

    fn apply(&mut self, ctx: &PushCtx, inputs: &[&Output]) -> Result<Output, StreamError> {
        self.monitor.add(ctx.point);
        let frame = match inputs.first() {
            Some(Output::Ready(Value::Window(f))) => f,
            Some(Output::Warming { .. }) => {
                return Ok(Output::Warming {
                    seen: ctx.epoch.min(self.burn_in),
                    burn_in: self.burn_in,
                })
            }
            _ => return Err(wiring_error("znorm", "window")),
        };
        if let Some(evicted) = frame.evicted {
            self.monitor.evict(evicted);
        }
        let pts = frame.points.as_slice();
        let mean = znorm::mean(pts);
        let std_dev = znorm::std_dev(pts);
        let first = pts[0].to_bits();
        let constant = pts.iter().all(|x| x.to_bits() == first);
        let degenerate = constant
            || !mean.is_finite()
            || !std_dev.is_finite()
            || std_dev <= 1e-12 * mean.abs().max(1.0);
        let z = Arc::make_mut(&mut self.z);
        z.clear();
        z.extend_from_slice(pts);
        znorm::z_normalize_in_place(z);
        Ok(Output::Ready(Value::Stats(StatsFrame {
            mean,
            std_dev,
            degenerate,
            z: Arc::clone(&self.z),
        })))
    }
}

/// Incremental Lemire envelope of the sliding window.
///
/// Interior entries (`r ≤ i ≤ w-1-r`) are stream-absolute extrema over a
/// fixed span of `2r + 1` points: each is finalized exactly once by the
/// [`SlidingExtremum`] monotonic deques as the closing point arrives, in
/// O(1) amortized. Only the ≤ 2r window-clamped border entries shift
/// meaning as the window slides; those are recomputed per emission with
/// [`slice_extremum`], which replicates the batch deque's tie-breaking —
/// so the assembled envelope is bitwise the batch `envelope(window, r)`.
#[derive(Debug)]
pub struct EnvelopeOp {
    radius: usize,
    window: usize,
    smax: SlidingExtremum,
    smin: SlidingExtremum,
    fin_upper: std::collections::VecDeque<f64>,
    fin_lower: std::collections::VecDeque<f64>,
    upper: Arc<Vec<f64>>,
    lower: Arc<Vec<f64>>,
}

impl EnvelopeOp {
    /// An envelope maintainer for band radius `radius` over windows of
    /// `window` points.
    pub fn new(window: usize, radius: usize) -> Self {
        EnvelopeOp {
            radius,
            window,
            smax: SlidingExtremum::new_max(2 * radius + 1),
            smin: SlidingExtremum::new_min(2 * radius + 1),
            fin_upper: std::collections::VecDeque::with_capacity(window + 1),
            fin_lower: std::collections::VecDeque::with_capacity(window + 1),
            upper: Arc::new(Vec::with_capacity(window)),
            lower: Arc::new(Vec::with_capacity(window)),
        }
    }
}

impl Operator for EnvelopeOp {
    fn name(&self) -> &'static str {
        "envelope"
    }

    fn burn_in(&self) -> u64 {
        self.window as u64
    }

    fn apply(&mut self, ctx: &PushCtx, inputs: &[&Output]) -> Result<Output, StreamError> {
        let idx = ctx.epoch - 1; // 0-based absolute stream index
        self.smax.push(idx, ctx.point);
        self.smin.push(idx, ctx.point);
        if idx >= 2 * self.radius as u64 {
            // The span around center idx - r is complete: finalize it.
            self.fin_upper
                .push_back(self.smax.extremum().unwrap_or(ctx.point));
            self.fin_lower
                .push_back(self.smin.extremum().unwrap_or(ctx.point));
            if self.fin_upper.len() > self.window {
                self.fin_upper.pop_front();
                self.fin_lower.pop_front();
            }
        }
        let frame = match inputs.first() {
            Some(Output::Ready(Value::Window(f))) => f,
            Some(Output::Warming { .. }) => {
                return Ok(Output::Warming {
                    seen: ctx.epoch.min(self.burn_in()),
                    burn_in: self.burn_in(),
                })
            }
            _ => return Err(wiring_error("envelope", "window")),
        };
        let pts = frame.points.as_slice();
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
        Ok(Output::Ready(Value::Envelope(EnvelopeFrame {
            upper: Arc::clone(&self.upper),
            lower: Arc::clone(&self.lower),
        })))
    }
}

/// Online subsequence matcher: the UCR cascade against a fixed query.
///
/// Carries the query's [`Cascade`] (query envelope built once, in
/// [`MatcherOp::new`]), the incrementally maintained candidate envelope
/// (parent node), and the
/// best-so-far pruning threshold across pushes. The expensive banded DTW
/// re-runs only when the new point invalidates the pruning certificate —
/// when the window's lower bounds fall below the carried threshold; every
/// other push settles in the O(1)/O(w) bound layers.
#[derive(Debug)]
pub struct MatcherOp {
    cascade: Cascade,
    threshold: f64,
    scratch: DpScratch,
    best: Option<BestMatch>,
}

impl MatcherOp {
    /// A matcher for `query` (length = window) at band `radius`, pruning
    /// against `threshold` (`None` = unbounded: every window computes
    /// until a best-so-far forms).
    pub fn new(query: Vec<f64>, radius: usize, threshold: Option<f64>) -> Self {
        MatcherOp {
            cascade: Cascade::new(&query, radius),
            threshold: threshold.unwrap_or(f64::INFINITY),
            scratch: DpScratch::new(),
            best: None,
        }
    }

    /// Best computed match so far.
    pub fn best(&self) -> Option<BestMatch> {
        self.best
    }
}

impl Operator for MatcherOp {
    fn name(&self) -> &'static str {
        "matcher"
    }

    fn burn_in(&self) -> u64 {
        self.cascade.query().len() as u64
    }

    fn apply(&mut self, ctx: &PushCtx, inputs: &[&Output]) -> Result<Output, StreamError> {
        let (window, env) = match (inputs.first(), inputs.get(1)) {
            (Some(Output::Ready(Value::Window(w))), Some(Output::Ready(Value::Envelope(e)))) => {
                (w, e)
            }
            (Some(Output::Warming { .. }), _) | (_, Some(Output::Warming { .. })) => {
                return Ok(Output::Warming {
                    seen: ctx.epoch.min(self.burn_in()),
                    burn_in: self.burn_in(),
                })
            }
            _ => return Err(wiring_error("matcher", "window+envelope")),
        };
        let pruning = self
            .threshold
            .min(self.best.map_or(f64::INFINITY, |b| b.distance));
        let decision = self.cascade.decide_with_envelope(
            &window.points,
            pruning,
            &env.upper,
            &env.lower,
            &mut self.scratch,
        )?;
        if let PruneDecision::Computed(d) = decision {
            if self.best.is_none_or(|b| d < b.distance) {
                self.best = Some(BestMatch {
                    epoch: ctx.epoch,
                    distance: d,
                });
            }
        }
        Ok(Output::Ready(Value::Match(MatchFrame {
            decision,
            threshold: pruning,
            best: self.best,
        })))
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

/// Best-so-far motif/discord tracker: a pure fold over matcher frames.
#[derive(Debug)]
pub struct TrackerOp {
    burn_in: u64,
    motif: Option<BestMatch>,
    discord: Option<BestMatch>,
}

impl TrackerOp {
    /// A tracker warming with the `window`-point matcher above it.
    pub fn new(window: usize) -> Self {
        TrackerOp {
            burn_in: window as u64,
            motif: None,
            discord: None,
        }
    }
}

impl Operator for TrackerOp {
    fn name(&self) -> &'static str {
        "tracker"
    }

    fn burn_in(&self) -> u64 {
        self.burn_in
    }

    fn apply(&mut self, ctx: &PushCtx, inputs: &[&Output]) -> Result<Output, StreamError> {
        let frame = match inputs.first() {
            Some(Output::Ready(Value::Match(m))) => m,
            Some(Output::Warming { .. }) => {
                return Ok(Output::Warming {
                    seen: ctx.epoch.min(self.burn_in),
                    burn_in: self.burn_in,
                })
            }
            _ => return Err(wiring_error("tracker", "match")),
        };
        if let PruneDecision::Computed(d) = frame.decision {
            if self.motif.is_none_or(|b| d < b.distance) {
                self.motif = Some(BestMatch {
                    epoch: ctx.epoch,
                    distance: d,
                });
            }
        }
        let bound = certified_bound(frame.decision, frame.threshold);
        if self.discord.is_none_or(|b| bound > b.distance) {
            self.discord = Some(BestMatch {
                epoch: ctx.epoch,
                distance: bound,
            });
        }
        Ok(Output::Ready(Value::Track(TrackFrame {
            motif: self.motif,
            discord: self.discord,
        })))
    }
}
