//! Lower bounds for DTW — the software optimizations of Rakthanmanon et al.
//! (the paper's reference \[24\]) that the accelerator competes against.
//!
//! The two classic cascading bounds are provided:
//!
//! * [`lb_kim`] — O(1) bound from first/last elements;
//! * [`lb_keogh`] — O(n) bound from the Sakoe–Chiba envelope.
//!
//! Both are *admissible*: they never exceed the true banded DTW distance, so
//! a search can safely prune any candidate whose bound already exceeds the
//! best-so-far. Envelopes are computed in O(n) with Lemire's monotonic-deque
//! streaming min/max (independent of the band radius).
//!
//! [`Cascade`] is the UCR pipeline for one query and the one decision body
//! of every scan (search, motif, streaming, the pruned backend). Built once
//! per (query, radius), it owns the query's envelope, so a scan evaluating
//! thousands of candidates envelopes the query exactly once. Every LB_Keogh
//! sum runs through one loop that can stop once the partial sum crosses a
//! pruning threshold. The `kernels` bench measures the pruning power that
//! the paper's CPU baseline relies on.

use std::collections::VecDeque;

use crate::dtw::{Band, Dtw};
use crate::error::DistanceError;
use crate::scratch::DpScratch;

/// LB_Kim (simplified, as used by the UCR suite): the distance contributed by
/// the first and last aligned pairs, which every warping path must pay.
///
/// Uses the L1 point cost to match the paper's DTW formulation (Eq. 2 uses
/// `|Pi - Qj|`).
///
/// # Errors
///
/// Returns [`DistanceError::EmptySequence`] if either input is empty.
pub fn lb_kim(p: &[f64], q: &[f64]) -> Result<f64, DistanceError> {
    if p.is_empty() || q.is_empty() {
        return Err(DistanceError::EmptySequence);
    }
    if p.len() == 1 && q.len() == 1 {
        // The first and last aligned pair are the same cell; count it once.
        return Ok((p[0] - q[0]).abs());
    }
    Ok(kim_ends(p[0], p[p.len() - 1], q[0], q[q.len() - 1]))
}

/// The crate's one LB_Kim expression for two series that are not both a
/// single point, from their end elements: [`lb_kim`] and the subsequence
/// search's haystack sweep both compute it here, so their bounds are
/// bitwise equal. With finite inputs it is never NaN and never `-0.0`.
#[inline(always)]
pub(crate) fn kim_ends(p_first: f64, p_last: f64, q_first: f64, q_last: f64) -> f64 {
    (p_first - q_first).abs() + (p_last - q_last).abs()
}

/// One Lemire streaming min/max pass: `out[i] = max(q[i-r ..= i+r])` when
/// `max` is true, `min` otherwise. O(n) amortized — every index enters and
/// leaves the monotonic deque at most once. `deque` is a reusable index
/// buffer; `out` must already have length `q.len()`.
///
/// The returned extremum is always an element of the window, so ties between
/// `0.0` and `-0.0` may resolve to either sign; envelopes are only ever used
/// in comparisons, where the two compare equal.
fn lemire_pass(q: &[f64], r: usize, out: &mut [f64], deque: &mut Vec<usize>, max: bool) {
    let n = q.len();
    debug_assert_eq!(out.len(), n);
    deque.clear();
    let mut head = 0usize;
    let mut next = 0usize;
    for (i, slot) in out.iter_mut().enumerate() {
        // Admit every index that enters the window ending at i + r,
        // evicting dominated entries from the back. Saturating: `r` may be
        // as large as `usize::MAX`.
        let hi = i.saturating_add(r).min(n - 1);
        while next <= hi {
            let x = q[next];
            while deque.len() > head {
                let back = q[deque[deque.len() - 1]];
                let dominated = if max { back <= x } else { back >= x };
                if !dominated {
                    break;
                }
                deque.pop();
            }
            deque.push(next);
            next += 1;
        }
        // Expire indices that fell out of the window starting at i - r.
        while deque[head].saturating_add(r) < i {
            head += 1;
        }
        *slot = q[deque[head]];
    }
}

/// Fills `upper`/`lower` with the band-`r` Sakoe–Chiba envelope of `q` using
/// two Lemire passes over a shared index deque.
pub(crate) fn envelope_into(
    q: &[f64],
    r: usize,
    upper: &mut Vec<f64>,
    lower: &mut Vec<f64>,
    deque: &mut Vec<usize>,
) {
    let n = q.len();
    upper.clear();
    upper.resize(n, 0.0);
    lower.clear();
    lower.resize(n, 0.0);
    lemire_pass(q, r, upper, deque, true);
    lemire_pass(q, r, lower, deque, false);
}

/// The upper/lower Sakoe–Chiba envelope of a series for band radius `r`:
/// `upper[i] = max(q[i-r ..= i+r])`, `lower[i] = min(q[i-r ..= i+r])`.
///
/// Computed in O(n) with Lemire's monotonic deque regardless of `r` (the
/// previous implementation folded over each window, costing O(n·r)).
///
/// # Errors
///
/// Returns [`DistanceError::EmptySequence`] if the input is empty.
pub fn envelope(q: &[f64], r: usize) -> Result<(Vec<f64>, Vec<f64>), DistanceError> {
    if q.is_empty() {
        return Err(DistanceError::EmptySequence);
    }
    let mut upper = Vec::new();
    let mut lower = Vec::new();
    envelope_into(q, r, &mut upper, &mut lower, &mut Vec::new());
    Ok((upper, lower))
}

/// The LB_Keogh sum for `p` against a precomputed envelope: the L1 cost of
/// the parts of `p` that fall outside `[lower[i], upper[i]]`.
///
/// Split out of [`lb_keogh`] so callers that already hold an envelope skip
/// the envelope pass. Bitwise the in-order `Iterator::sum` of the terms.
pub fn lb_keogh_envelope(p: &[f64], upper: &[f64], lower: &[f64]) -> f64 {
    keogh_sum(p, upper, lower, f64::INFINITY)
}

/// Terms per stop check in [`keogh_sum`].
const KEOGH_BLOCK: usize = 16;

/// The crate's one LB_Keogh loop: sums the terms in order from `-0.0`, as
/// `Iterator::sum` does, and returns the first partial sum above `stop`,
/// checked every [`KEOGH_BLOCK`] terms. Terms are non-negative and adding
/// one never lowers an fp sum, so a partial sum above `stop` is admissible
/// and `keogh_sum(..) > stop` is exactly the full sum's decision.
fn keogh_sum(p: &[f64], upper: &[f64], lower: &[f64], stop: f64) -> f64 {
    let mut sum = -0.0;
    for ((p, u), l) in p
        .chunks(KEOGH_BLOCK)
        .zip(upper.chunks(KEOGH_BLOCK))
        .zip(lower.chunks(KEOGH_BLOCK))
    {
        for ((&x, &u), &l) in p.iter().zip(u).zip(l) {
            sum += keogh_term(x, u, l);
        }
        if sum > stop {
            break;
        }
    }
    sum
}

/// One LB_Keogh term: the L1 distance from `x` to `[l, u]`. Never negative.
///
/// `x - u` if `x > u`, else `l - x` if `x < l`, else `0.0` (so a NaN `x`
/// gives `0.0`, and `x > u` wins when `l > u`). Both candidate terms are
/// computed and the comparisons only select between them, so the
/// compiler emits no data-dependent branch in the summing loops.
#[inline]
pub(crate) fn keogh_term(x: f64, u: f64, l: f64) -> f64 {
    let below = if x < l { l - x } else { 0.0 };
    if x > u {
        x - u
    } else {
        below
    }
}

/// LB_Keogh: the L1 cost of the parts of `p` that fall outside the band-`r`
/// envelope of `q`. Admissible for equal-length banded DTW with L1 point
/// costs (in both directions: enveloping `q` and summing over `p`, or the
/// reverse, each lower-bound the same banded DTW).
///
/// # Errors
///
/// Returns [`DistanceError::LengthMismatch`] for unequal lengths or
/// [`DistanceError::EmptySequence`] for empty inputs.
pub fn lb_keogh(p: &[f64], q: &[f64], r: usize) -> Result<f64, DistanceError> {
    if p.len() != q.len() {
        return Err(DistanceError::LengthMismatch {
            left: p.len(),
            right: q.len(),
        });
    }
    let (upper, lower) = envelope(q, r)?;
    Ok(lb_keogh_envelope(p, &upper, &lower))
}

/// The element the Lemire pass behind [`envelope`] selects for a window:
/// the *latest* occurrence of the extremum. Split out publicly so
/// incremental envelope maintainers (the streaming tier) can recompute
/// window-clamped border entries with exactly the deque's tie-breaking —
/// equal values keep the later index, so `0.0`/`-0.0` ties resolve to the
/// same bits.
pub fn slice_extremum(xs: &[f64], max: bool) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut cur = xs[0];
    for &x in &xs[1..] {
        let dominated = if max { cur <= x } else { cur >= x };
        if dominated {
            cur = x;
        }
    }
    cur
}

/// Streaming monotonic deque over an absolute-indexed point stream: after
/// pushing index `i`, [`extremum`](Self::extremum) is the max (or min) of
/// the last `span` points — the Lemire pass of [`envelope`] restated as an
/// O(1)-amortized online structure.
///
/// This is the public incremental-envelope hook for the streaming tier:
/// with `span = 2r + 1`, reading the extremum after pushing index `c + r`
/// yields the Sakoe–Chiba envelope entry centred at `c`, bit-for-bit the
/// value the batch pass computes (same domination rule, so ties select the
/// same element; see [`slice_extremum`]).
#[derive(Debug, Clone)]
pub struct SlidingExtremum {
    deque: VecDeque<(u64, f64)>,
    span: u64,
    max: bool,
}

impl SlidingExtremum {
    /// A sliding **max** over the last `span` pushed points.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn new_max(span: usize) -> Self {
        assert!(span > 0, "span must be positive");
        SlidingExtremum {
            deque: VecDeque::new(),
            span: span as u64,
            max: true,
        }
    }

    /// A sliding **min** over the last `span` pushed points.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn new_min(span: usize) -> Self {
        assert!(span > 0, "span must be positive");
        SlidingExtremum {
            deque: VecDeque::new(),
            span: span as u64,
            max: false,
        }
    }

    /// Admits the point at absolute stream `index` (indices must be pushed
    /// in increasing order) and expires entries older than the span.
    pub fn push(&mut self, index: u64, value: f64) {
        debug_assert!(
            self.deque.back().is_none_or(|&(i, _)| i < index),
            "indices must be strictly increasing"
        );
        while let Some(&(_, back)) = self.deque.back() {
            let dominated = if self.max {
                back <= value
            } else {
                back >= value
            };
            if !dominated {
                break;
            }
            self.deque.pop_back();
        }
        self.deque.push_back((index, value));
        let min_index = (index + 1).saturating_sub(self.span);
        while let Some(&(front, _)) = self.deque.front() {
            if front >= min_index {
                break;
            }
            self.deque.pop_front();
        }
    }

    /// The extremum of the last `span` pushed points (`None` before any
    /// push).
    pub fn extremum(&self) -> Option<f64> {
        self.deque.front().map(|&(_, v)| v)
    }
}

/// Result of a cascading lower-bound test against a pruning threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneDecision {
    /// LB_Kim already exceeded the threshold — candidate skipped in O(1).
    PrunedByKim(f64),
    /// LB_Keogh exceeded the threshold — candidate skipped in O(n).
    PrunedByKeogh(f64),
    /// The DTW computation started but was abandoned row-wise once every
    /// cell exceeded the threshold.
    AbandonedEarly,
    /// Bounds were below the threshold; the full DTW was computed.
    Computed(f64),
}

impl PruneDecision {
    /// The distance value or bound this decision carries
    /// (`f64::INFINITY` for an early-abandoned computation).
    pub fn value(self) -> f64 {
        match self {
            PruneDecision::PrunedByKim(v)
            | PruneDecision::PrunedByKeogh(v)
            | PruneDecision::Computed(v) => v,
            PruneDecision::AbandonedEarly => f64::INFINITY,
        }
    }

    /// `true` if the full DTW computation was avoided.
    pub fn pruned(self) -> bool {
        !matches!(self, PruneDecision::Computed(_))
    }
}

/// The UCR cascade for one query at one band radius — the pipeline the
/// paper's related work (and its CPU baseline) uses for subsequence
/// search. Built once, it owns the query's Lemire envelope, and
/// [`decide`](Self::decide) runs every candidate through
///
/// 1. LB_Kim — O(1);
/// 2. LB_Keogh of the candidate against the query envelope — O(n), no
///    envelope pass;
/// 3. LB_Keogh of the query against the candidate's envelope — O(n), only
///    reached when layer 2 fails to prune;
/// 4. early-abandoning banded DTW.
///
/// Layers 2 and 3 need equal lengths and are skipped otherwise. Every
/// bound is admissible, so a candidate whose DTW is at most the threshold
/// always reaches layer 4 and comes back [`PruneDecision::Computed`].
///
/// [`decide`](Self::decide) sums each LB_Keogh in full, so a Keogh prune
/// carries the whole bound (the streaming matcher reports it). Scans that
/// read nothing but the decision stop each sum once it crosses the
/// threshold instead; they get the same decision for every candidate, and
/// a Keogh prune then carries the partial sum that crossed.
///
/// ```
/// use mda_distance::lower_bounds::{Cascade, PruneDecision};
/// use mda_distance::DpScratch;
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let cascade = Cascade::new(&[0.0, 1.0, 0.0, 1.0], 1);
/// let mut scratch = DpScratch::new();
/// let near = cascade.decide(&[0.0, 0.9, 0.1, 1.0], 5.0, &mut scratch)?;
/// let far = cascade.decide(&[9.0, 9.0, 9.0, 9.0], 5.0, &mut scratch)?;
/// assert!(matches!(near, PruneDecision::Computed(_)));
/// assert!(matches!(far, PruneDecision::PrunedByKim(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cascade {
    query: Vec<f64>,
    radius: usize,
    dtw: Dtw,
    upper: Vec<f64>,
    lower: Vec<f64>,
}

impl Cascade {
    /// The cascade for `query` at Sakoe–Chiba radius `radius`; envelopes
    /// the query (two O(n) Lemire passes). An empty query is accepted
    /// here and rejected by every [`decide`](Self::decide).
    pub fn new(query: &[f64], radius: usize) -> Self {
        let (mut upper, mut lower) = (Vec::new(), Vec::new());
        envelope_into(query, radius, &mut upper, &mut lower, &mut Vec::new());
        Cascade {
            query: query.to_vec(),
            radius,
            dtw: Dtw::new().with_band(Band::SakoeChiba(radius)),
            upper,
            lower,
        }
    }

    /// The query this cascade was built for.
    pub fn query(&self) -> &[f64] {
        &self.query
    }

    /// Runs `candidate` through the cascade against `best_so_far`,
    /// computing the candidate envelope of layer 3 into `scratch`.
    ///
    /// # Errors
    ///
    /// [`DistanceError::EmptySequence`] if the query or the candidate is
    /// empty, and any error of the banded DTW.
    pub fn decide(
        &self,
        candidate: &[f64],
        best_so_far: f64,
        scratch: &mut DpScratch,
    ) -> Result<PruneDecision, DistanceError> {
        self.run(candidate, best_so_far, f64::INFINITY, None, scratch)
    }

    /// [`decide`](Self::decide) for scans that read only the decision:
    /// each LB_Keogh sum stops once it crosses `threshold`, so a Keogh
    /// prune carries that partial sum (still an admissible bound). Every
    /// decision's variant, and a computed distance's bits, are
    /// [`decide`](Self::decide)'s.
    #[inline]
    pub(crate) fn screen(
        &self,
        candidate: &[f64],
        threshold: f64,
        scratch: &mut DpScratch,
    ) -> Result<PruneDecision, DistanceError> {
        self.run(candidate, threshold, threshold, None, scratch)
    }

    /// [`decide`](Self::decide) for callers that already hold the
    /// candidate's envelope — the streaming tier maintains it
    /// incrementally with [`SlidingExtremum`] deques as the window slides.
    /// When `upper`/`lower` are bitwise `envelope(candidate, radius)`, the
    /// decision is bitwise [`decide`](Self::decide)'s.
    ///
    /// # Errors
    ///
    /// [`DistanceError::LengthMismatch`] if the envelope length differs
    /// from the candidate's, plus everything [`decide`](Self::decide) can
    /// return.
    pub fn decide_with_envelope(
        &self,
        candidate: &[f64],
        best_so_far: f64,
        upper: &[f64],
        lower: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<PruneDecision, DistanceError> {
        if upper.len() != candidate.len() || lower.len() != candidate.len() {
            return Err(DistanceError::LengthMismatch {
                left: upper.len().min(lower.len()),
                right: candidate.len(),
            });
        }
        let envelope = Some((upper, lower));
        self.run(candidate, best_so_far, f64::INFINITY, envelope, scratch)
    }

    /// The one decision body. Each LB_Keogh sum stops once it crosses
    /// `stop` (see [`keogh_sum`]); `supplied` is the candidate envelope, or
    /// `None` to compute it into `scratch`. Always inlined: the scans call
    /// `screen` once per window, and as an out-of-line call this body cost
    /// servebench's search mix about a quarter more CPU per query (median,
    /// on a 2-core x86-64 host).
    #[inline(always)]
    fn run(
        &self,
        candidate: &[f64],
        best_so_far: f64,
        stop: f64,
        supplied: Option<(&[f64], &[f64])>,
        scratch: &mut DpScratch,
    ) -> Result<PruneDecision, DistanceError> {
        let kim = lb_kim(&self.query, candidate)?;
        if kim > best_so_far {
            return Ok(PruneDecision::PrunedByKim(kim));
        }
        if self.query.len() == candidate.len() {
            let keogh_q = keogh_sum(candidate, &self.upper, &self.lower, stop);
            if keogh_q > best_so_far {
                return Ok(PruneDecision::PrunedByKeogh(keogh_q));
            }
            let keogh_c = match supplied {
                Some((upper, lower)) => keogh_sum(&self.query, upper, lower, stop),
                None => {
                    envelope_into(
                        candidate,
                        self.radius,
                        &mut scratch.ce_upper,
                        &mut scratch.ce_lower,
                        &mut scratch.deque,
                    );
                    keogh_sum(&self.query, &scratch.ce_upper, &scratch.ce_lower, stop)
                }
            };
            if keogh_c > best_so_far {
                return Ok(PruneDecision::PrunedByKeogh(keogh_c));
            }
        }
        match self
            .dtw
            .distance_early_abandon_with(&self.query, candidate, best_so_far, scratch)?
        {
            Some(d) => Ok(PruneDecision::Computed(d)),
            None => Ok(PruneDecision::AbandonedEarly),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The branchy form of [`keogh_term`], kept as its reference.
    fn keogh_term_branchy(x: f64, u: f64, l: f64) -> f64 {
        if x > u {
            x - u
        } else if x < l {
            l - x
        } else {
            0.0
        }
    }

    /// A special value (NaN, ±0, ±inf, extremes), a half-unit grid value
    /// (so `x`, `u` and `l` tie often) or a continuous one.
    fn term_input() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 9] = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        (0usize..3, 0usize..SPECIAL.len(), -4i32..=4, -4.0..4.0).prop_map(|(kind, s, g, x)| {
            match kind {
                0 => SPECIAL[s],
                1 => g as f64 * 0.5,
                _ => x,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The branch-free term is bitwise the branchy one on every input,
        /// `lower > upper`, NaN and signed zeros included.
        #[test]
        fn keogh_term_is_bitwise_the_branchy_form(
            x in term_input(),
            u in term_input(),
            l in term_input(),
        ) {
            prop_assert_eq!(
                keogh_term(x, u, l).to_bits(),
                keogh_term_branchy(x, u, l).to_bits(),
                "x {} u {} l {}", x, u, l
            );
        }
    }

    #[test]
    fn keogh_term_edge_cases() {
        assert_eq!(keogh_term(f64::NAN, 1.0, -1.0).to_bits(), 0.0f64.to_bits());
        // lower > upper: above the upper bound wins.
        assert_eq!(keogh_term(2.0, 1.0, 3.0), 1.0);
        assert_eq!(keogh_term(0.5, 1.0, 3.0), 2.5);
        assert_eq!(keogh_term(-0.0, 0.0, 0.0).to_bits(), 0.0f64.to_bits());
    }

    fn banded_dtw(p: &[f64], q: &[f64], r: usize) -> f64 {
        Dtw::new()
            .with_band(Band::SakoeChiba(r))
            .distance(p, q)
            .unwrap()
    }

    /// The pre-Lemire O(n·r) reference envelope: a fold over each window.
    fn envelope_reference(q: &[f64], r: usize) -> (Vec<f64>, Vec<f64>) {
        let n = q.len();
        let mut upper = vec![0.0; n];
        let mut lower = vec![0.0; n];
        for i in 0..n {
            let lo = i.saturating_sub(r);
            let hi = (i + r).min(n - 1);
            let window = &q[lo..=hi];
            upper[i] = window.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            lower[i] = window.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        }
        (upper, lower)
    }

    #[test]
    fn lb_kim_is_admissible() {
        let p: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).sin()).collect();
        let q: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5 + 0.8).cos()).collect();
        for r in [1, 2, 4, 8] {
            assert!(lb_kim(&p, &q).unwrap() <= banded_dtw(&p, &q, r) + 1e-9);
        }
    }

    #[test]
    fn lb_keogh_is_admissible() {
        let p: Vec<f64> = (0..24).map(|i| (i as f64 * 0.3).sin() * 2.0).collect();
        let q: Vec<f64> = (0..24)
            .map(|i| (i as f64 * 0.31).sin() * 1.5 + 0.2)
            .collect();
        for r in [1, 2, 5, 10] {
            let lb = lb_keogh(&p, &q, r).unwrap();
            let d = banded_dtw(&p, &q, r);
            assert!(lb <= d + 1e-9, "r={r}: LB_Keogh {lb} > DTW {d}");
        }
    }

    #[test]
    fn envelope_sandwiches_series() {
        let q: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let (u, l) = envelope(&q, 2).unwrap();
        for i in 0..q.len() {
            assert!(l[i] <= q[i] && q[i] <= u[i]);
        }
    }

    #[test]
    fn envelope_widens_with_radius() {
        let q: Vec<f64> = (0..12).map(|i| ((i * i) as f64 % 7.0) - 3.0).collect();
        let (u1, l1) = envelope(&q, 1).unwrap();
        let (u3, l3) = envelope(&q, 3).unwrap();
        for i in 0..q.len() {
            assert!(u3[i] >= u1[i] && l3[i] <= l1[i]);
        }
    }

    #[test]
    fn lemire_envelope_matches_windowed_fold() {
        // The O(n) deque pass must agree with the O(n·r) reference on every
        // length/radius combination, including r = 0 and r >= n.
        let q: Vec<f64> = (0..37)
            .map(|i| ((i * 7919 % 101) as f64 - 50.0) * 0.3)
            .collect();
        for len in [1usize, 2, 3, 5, 16, 37] {
            let s = &q[..len];
            for r in [0usize, 1, 2, 3, 7, len, len + 5] {
                let (u, l) = envelope(s, r).unwrap();
                let (ru, rl) = envelope_reference(s, r);
                assert_eq!(u, ru, "upper mismatch len={len} r={r}");
                assert_eq!(l, rl, "lower mismatch len={len} r={r}");
            }
        }
    }

    #[test]
    fn huge_radius_envelope_equals_whole_series_envelope() {
        let q: Vec<f64> = (0..23).map(|i| ((i * 13 % 7) as f64 - 3.0) * 0.7).collect();
        let whole = envelope(&q, q.len()).unwrap();
        for r in [usize::MAX, usize::MAX - 1, usize::MAX / 2] {
            assert_eq!(envelope(&q, r).unwrap(), whole, "r={r}");
        }
        // The cascade envelopes both sides at the same radius.
        let p: Vec<f64> = q.iter().map(|x| x * 0.5 + 0.1).collect();
        let huge = Cascade::new(&p, usize::MAX)
            .decide(&q, f64::INFINITY, &mut DpScratch::new())
            .unwrap();
        let full = Cascade::new(&p, q.len())
            .decide(&q, f64::INFINITY, &mut DpScratch::new())
            .unwrap();
        assert_eq!(huge, full);
    }

    #[test]
    fn lemire_envelope_handles_plateaus_and_duplicates() {
        let q = [2.0, 2.0, 2.0, -1.0, -1.0, 5.0, 5.0, 0.0];
        for r in [0, 1, 2, 4] {
            let (u, l) = envelope(&q, r).unwrap();
            let (ru, rl) = envelope_reference(&q, r);
            assert_eq!(u, ru, "r={r}");
            assert_eq!(l, rl, "r={r}");
        }
    }

    #[test]
    fn identical_series_have_zero_bounds() {
        let p = [0.4, 1.0, -0.2];
        assert_eq!(lb_kim(&p, &p).unwrap(), 0.0);
        assert_eq!(lb_keogh(&p, &p, 1).unwrap(), 0.0);
    }

    #[test]
    fn cascade_prunes_obvious_non_matches() {
        let p = [0.0, 0.0, 0.0, 0.0];
        let far = [100.0, 100.0, 100.0, 100.0];
        let d = Cascade::new(&p, 1)
            .decide(&far, 1.0, &mut DpScratch::new())
            .unwrap();
        assert!(d.pruned());
        assert!(matches!(d, PruneDecision::PrunedByKim(_)));
    }

    #[test]
    fn cascade_computes_close_matches() {
        let p = [0.0, 1.0, 0.0, 1.0];
        let q = [0.1, 0.9, 0.1, 0.9];
        let d = Cascade::new(&p, 1)
            .decide(&q, 100.0, &mut DpScratch::new())
            .unwrap();
        assert!(!d.pruned());
        assert!((d.value() - banded_dtw(&p, &q, 1)).abs() < 1e-12);
    }

    #[test]
    fn cascade_keogh_layer_triggers() {
        // First/last match (defeats Kim) but the middle is far away.
        let p = [0.0, 50.0, 50.0, 0.0];
        let q = [0.0, 0.0, 0.0, 0.0];
        let d = Cascade::new(&p, 0)
            .decide(&q, 10.0, &mut DpScratch::new())
            .unwrap();
        assert!(matches!(d, PruneDecision::PrunedByKeogh(_)));
    }

    #[test]
    fn sliding_extremum_matches_batch_envelope_interior() {
        // With span = 2r + 1, the deque read after pushing index c + r is
        // exactly the batch envelope entry centred at c, bit for bit —
        // including 0.0 / -0.0 plateaus, where both sides keep the later
        // occurrence.
        let q: Vec<f64> = (0..64)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => -0.0,
                k => ((i * 131 % 17) as f64 - 8.0) * 0.25 * k as f64,
            })
            .collect();
        for r in [0usize, 1, 2, 5, 9] {
            let (bu, bl) = envelope(&q, r).unwrap();
            let mut smax = SlidingExtremum::new_max(2 * r + 1);
            let mut smin = SlidingExtremum::new_min(2 * r + 1);
            for (s, &x) in q.iter().enumerate() {
                smax.push(s as u64, x);
                smin.push(s as u64, x);
                if s >= 2 * r && s < q.len() {
                    let c = s - r;
                    assert_eq!(smax.extremum().unwrap().to_bits(), bu[c].to_bits());
                    assert_eq!(smin.extremum().unwrap().to_bits(), bl[c].to_bits());
                }
            }
        }
    }

    #[test]
    fn slice_extremum_matches_envelope_borders() {
        let q = [2.0, -0.0, 0.0, 2.0, -3.0, 2.0, 0.5];
        for r in [0usize, 1, 2, 3, 10] {
            let (bu, bl) = envelope(&q, r).unwrap();
            for i in 0..q.len() {
                let lo = i.saturating_sub(r);
                let hi = (i + r).min(q.len() - 1);
                let w = &q[lo..=hi];
                assert_eq!(slice_extremum(w, true).to_bits(), bu[i].to_bits());
                assert_eq!(slice_extremum(w, false).to_bits(), bl[i].to_bits());
            }
        }
    }

    /// Bits of a decision: variant and value.
    fn decision_bits(d: PruneDecision) -> (u8, u64) {
        match d {
            PruneDecision::PrunedByKim(v) => (0, v.to_bits()),
            PruneDecision::PrunedByKeogh(v) => (1, v.to_bits()),
            PruneDecision::AbandonedEarly => (2, 0),
            PruneDecision::Computed(v) => (3, v.to_bits()),
        }
    }

    /// Query/candidate pairs of length 24: phase-shifted sines, random
    /// walks, plateaus with `0.0`/`-0.0` ties, and constants.
    fn cascade_inputs() -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut walk = move || {
            let mut x = 0.0;
            (0..24)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    x += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    x
                })
                .collect::<Vec<f64>>()
        };
        let plateau = |k: usize| -> Vec<f64> {
            (0..24)
                .map(|i| match (i / k) % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => 1.5,
                })
                .collect()
        };
        let mut inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..12)
            .map(|phase| {
                let p = (0..24)
                    .map(|i| (i as f64 * 0.35 + phase as f64).sin() * 2.0)
                    .collect();
                let q = (0..24)
                    .map(|i| (i as f64 * 0.33 + phase as f64 * 0.5).cos() * 1.5)
                    .collect();
                (p, q)
            })
            .collect();
        for _ in 0..4 {
            inputs.push((walk(), walk()));
        }
        inputs.push((plateau(2), plateau(3)));
        inputs.push((plateau(4), plateau(4)));
        inputs.push((vec![2.0; 24], vec![2.0; 24]));
        inputs.push((vec![2.0; 24], vec![-1.0; 24]));
        inputs
    }

    /// The three entries decide alike: a supplied envelope bitwise as a
    /// computed one, and `screen` with the same variant and computed bits
    /// as `decide`, its Keogh prunes carrying a partial sum that crosses
    /// the threshold without passing the full bound.
    #[test]
    fn every_entry_decides_like_decide() {
        let mut scratch = DpScratch::new();
        let mut stopped_early = 0;
        for (case, (p, q)) in cascade_inputs().iter().enumerate() {
            for r in [0usize, 1, 3, 6] {
                let cascade = Cascade::new(p, r);
                let (cu, cl) = envelope(q, r).unwrap();
                for best in [0.0, 0.1, 2.0, 25.0, 72.0, f64::INFINITY] {
                    let at = format!("case={case} r={r} best={best}");
                    let computed = cascade.decide(q, best, &mut scratch).unwrap();
                    let want = decision_bits(computed);
                    let supplied = cascade
                        .decide_with_envelope(q, best, &cu, &cl, &mut scratch)
                        .unwrap();
                    assert_eq!(decision_bits(supplied), want, "{at}");
                    let screened = cascade.screen(q, best, &mut scratch).unwrap();
                    match (screened, computed) {
                        (PruneDecision::PrunedByKeogh(s), PruneDecision::PrunedByKeogh(d)) => {
                            assert!(best < s && s <= d, "{at}");
                            stopped_early += usize::from(s < d);
                        }
                        _ => assert_eq!(decision_bits(screened), want, "{at}"),
                    }
                }
            }
        }
        assert!(stopped_early > 0, "no Keogh sum stopped at a block check");
    }

    /// The block-checked sum is bitwise the in-order `Iterator::sum` at
    /// `stop = +∞`, and decides exactly as the full sum does at every
    /// stop — thresholds equal to the full sum, one ulp either side, and
    /// every partial sum where a block check fires included.
    #[test]
    fn keogh_sum_decides_like_the_full_sum() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        assert_eq!(
            lb_keogh_envelope(&[], &[], &[]).to_bits(),
            (-0.0f64).to_bits()
        );
        for len in [1, 5, 15, 16, 17, 32, 40, 128] {
            for scale in [1.0, 1e-3, 1e300] {
                let q: Vec<f64> = (0..len).map(|_| next() * scale).collect();
                let p: Vec<f64> = (0..len).map(|_| next() * scale * 3.0).collect();
                let (upper, lower) = envelope(&q, 2).unwrap();
                let terms = || (0..len).map(|i| keogh_term(p[i], upper[i], lower[i]));
                let full: f64 = terms().sum();
                assert_eq!(
                    lb_keogh_envelope(&p, &upper, &lower).to_bits(),
                    full.to_bits(),
                    "len {len} scale {scale}: stop = +inf is the plain sum"
                );
                let mut thresholds = vec![
                    0.0,
                    full,
                    f64::from_bits(full.to_bits().saturating_sub(1)),
                    f64::from_bits(full.to_bits() + 1),
                    f64::INFINITY,
                ];
                thresholds.extend(terms().scan(-0.0, |sum, t| {
                    *sum += t;
                    Some(*sum)
                }));
                for t in thresholds {
                    let partial = keogh_sum(&p, &upper, &lower, t);
                    assert_eq!(
                        partial > t,
                        full > t,
                        "len {len} scale {scale} threshold {t} full {full}"
                    );
                    assert!(partial <= full, "a partial sum never passes the full one");
                }
            }
        }
    }

    #[test]
    fn candidate_envelope_length_mismatch_is_typed() {
        let err = Cascade::new(&[0.0, 1.0], 1)
            .decide_with_envelope(
                &[0.0, 2.0],
                f64::INFINITY,
                &[0.0],
                &[0.0],
                &mut DpScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, DistanceError::LengthMismatch { .. }));
    }

    #[test]
    fn empty_query_fails_in_lb_kim() {
        let err = Cascade::new(&[], 2)
            .decide(&[1.0], f64::INFINITY, &mut DpScratch::new())
            .unwrap_err();
        assert_eq!(err, DistanceError::EmptySequence);
    }

    #[test]
    fn cascade_candidate_envelope_layer_triggers() {
        // Kim passes (endpoints agree) and the candidate stays inside the
        // wide query envelope, but the query escapes the candidate's narrow
        // envelope — only the reversed Keogh layer can prune this shape.
        let p = [0.0, 9.0, -9.0, 0.0]; // query: wide envelope at r=1
        let q = [0.0, 0.5, -0.5, 0.0]; // candidate: narrow envelope
        let r = 1;
        let threshold = 10.0;
        let kim = lb_kim(&p, &q).unwrap();
        assert!(kim <= threshold);
        let keogh_query_dir = lb_keogh(&q, &p, r).unwrap();
        assert!(
            keogh_query_dir <= threshold,
            "query-envelope layer must not prune ({keogh_query_dir})"
        );
        let keogh_cand_dir = lb_keogh(&p, &q, r).unwrap();
        assert!(
            keogh_cand_dir > threshold,
            "candidate-envelope layer must prune ({keogh_cand_dir})"
        );
        let d = Cascade::new(&p, r)
            .decide(&q, threshold, &mut DpScratch::new())
            .unwrap();
        assert!(matches!(d, PruneDecision::PrunedByKeogh(v) if v == keogh_cand_dir));
    }
}
