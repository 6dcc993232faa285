//! Subsequence similarity search under DTW — the workload for which
//! "the computation of distance function takes up to more than 99% of the
//! runtime" (Section 1, citing Rakthanmanon et al.).
//!
//! Slides a query over a long series and returns the best-matching window.
//! Every window that passes the stage-0 pre-filter is decided by the
//! query's [`Cascade`], the one decision body of the crate's scans; this
//! module adds the scout, the pre-filter, the chunked reduction and the
//! [`BlockSummary`] that bounds LB_Kim for 64 windows at a time.

use std::sync::Arc;

use crate::batch::BatchEngine;
use crate::dtw::{Band, Dtw};
use crate::error::DistanceError;
use crate::lower_bounds::{kim_ends, lb_kim, Cascade, PruneDecision};
use crate::mining::prefilter::CandidateFilter;
use crate::scratch::DpScratch;
use crate::validate::ensure_finite;
use crate::znorm::{z_normalize_in_place, z_normalized};
use crate::DistanceKind;

/// Statistics from one search run — used by the benches to report pruning
/// power alongside wall-clock numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Windows examined in total.
    pub windows: usize,
    /// Windows rejected by the stage-0 candidate pre-filter (one analog
    /// match-line cycle each), before any digital lower bound ran.
    pub pruned_by_prefilter: usize,
    /// Windows discarded by LB_Kim (O(1) each).
    pub pruned_by_kim: usize,
    /// Windows discarded by LB_Keogh (O(n) each).
    pub pruned_by_keogh: usize,
    /// Windows whose DTW was abandoned row-wise mid-computation.
    pub abandoned_early: usize,
    /// Windows that required a full DTW computation (O(n·r) each).
    pub full_computations: usize,
}

impl SearchStats {
    /// Fraction of windows that avoided the full DTW.
    pub fn prune_rate(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        (self.pruned_by_prefilter
            + self.pruned_by_kim
            + self.pruned_by_keogh
            + self.abandoned_early) as f64
            / self.windows as f64
    }
}

/// Best match found by a search.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Start offset of the best window in the haystack.
    pub offset: usize,
    /// Banded DTW distance of the best window.
    pub distance: f64,
}

/// The placeholder every scan starts from.
const NO_MATCH: Match = Match {
    offset: 0,
    distance: f64::INFINITY,
};

/// Sliding-window DTW subsequence search with cascading lower bounds.
///
/// ```
/// use mda_distance::mining::SubsequenceSearch;
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let haystack: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
/// let query: Vec<f64> = haystack[20..28].to_vec();
/// let search = SubsequenceSearch::new(8, 1);
/// let (best, _stats) = search.run(&query, &haystack)?;
/// assert_eq!(best.offset, 20);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SubsequenceSearch {
    window: usize,
    band_radius: usize,
    z_normalize: bool,
    engine: BatchEngine,
    prefilter: Option<Arc<dyn CandidateFilter>>,
}

impl std::fmt::Debug for SubsequenceSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubsequenceSearch")
            .field("window", &self.window)
            .field("band_radius", &self.band_radius)
            .field("z_normalize", &self.z_normalize)
            .field("engine", &self.engine)
            .field("prefilter", &self.prefilter.is_some())
            .finish()
    }
}

impl SubsequenceSearch {
    /// Creates a search over windows of `window` elements with Sakoe–Chiba
    /// radius `band_radius`. Window batches run on a default (all-cores)
    /// [`BatchEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, band_radius: usize) -> Self {
        assert!(window > 0, "window must be positive");
        SubsequenceSearch {
            window,
            band_radius,
            z_normalize: false,
            engine: BatchEngine::new(),
            prefilter: None,
        }
    }

    /// Replaces the batch engine. The best match (and the pruning
    /// statistics) are identical for every thread count; only wall-clock
    /// time changes.
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables UCR-suite-style z-normalization of the query and every
    /// window before comparison.
    #[must_use]
    pub fn with_z_normalization(mut self, enabled: bool) -> Self {
        self.z_normalize = enabled;
        self
    }

    /// Installs a stage-0 candidate pre-filter (e.g. an aCAM array model),
    /// consulted per window before any digital lower bound. Because the
    /// [`CandidateFilter`] contract only permits certified rejections, the
    /// returned match and every surviving window's decision are
    /// bitwise-identical with or without a filter; only the pruning
    /// statistics shift between stages.
    #[must_use]
    pub fn with_prefilter(mut self, filter: Arc<dyn CandidateFilter>) -> Self {
        self.prefilter = Some(filter);
        self
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Copies the window at `offset` into `buf`, z-normalizing if enabled,
    /// so workers reuse one buffer instead of allocating per window.
    fn window_into<'a>(
        &self,
        haystack: &'a [f64],
        offset: usize,
        buf: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        let window = &haystack[offset..offset + self.window];
        if self.z_normalize {
            buf.clear();
            buf.extend_from_slice(window);
            z_normalize_in_place(buf);
            buf
        } else {
            window
        }
    }

    /// The query check of both drivers: rejects a haystack shorter than
    /// the window and any NaN or infinity in the query, then returns the
    /// query as compared — z-normalized if enabled. The haystack's
    /// finiteness is each driver's next check.
    fn prepared_query(&self, query: &[f64], haystack: &[f64]) -> Result<Vec<f64>, DistanceError> {
        if haystack.len() < self.window {
            return Err(DistanceError::InvalidParameter {
                name: "haystack",
                reason: format!(
                    "haystack length {} shorter than window {}",
                    haystack.len(),
                    self.window
                ),
            });
        }
        ensure_finite("query", query)?;
        Ok(if self.z_normalize {
            z_normalized(query)
        } else {
            query.to_vec()
        })
    }

    /// Runs the search, returning the best match and pruning statistics.
    ///
    /// Builds the haystack's [`BlockSummary`] and runs
    /// [`run_with_summary`](Self::run_with_summary); a caller that searches
    /// one haystack many times can build the summary once and call that
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if the haystack is shorter
    /// than the window or either input contains a NaN or infinity, or
    /// propagates distance errors.
    pub fn run(
        &self,
        query: &[f64],
        haystack: &[f64],
    ) -> Result<(Match, SearchStats), DistanceError> {
        self.run_with_summary(query, haystack, &BlockSummary::new(haystack))
    }

    /// Runs the search over a haystack whose [`BlockSummary`] is already
    /// built, returning the best match and pruning statistics. The result
    /// is bitwise [`run`](Self::run)'s.
    ///
    /// A **scout** window — the first window of smallest LB_Kim — is
    /// picked before the scan, and its full banded DTW is the starting
    /// pruning threshold. For a raw (not z-normalized) query of at least
    /// two points the summary bounds LB_Kim for each block of
    /// [`BLOCK`] windows at once (see [`BlockSummary`]), so the scout
    /// examines only the block of least bound and the blocks whose bound
    /// does not exceed the best LB_Kim found; otherwise every window is
    /// built to bound it.
    ///
    /// Then one scan per engine chunk folds every window's decision into
    /// a per-chunk partial, tightening the threshold as it goes. On the
    /// raw route without a pre-filter, a block whose bound exceeds the
    /// threshold when the scan reaches it is pruned by LB_Kim whole: the
    /// threshold only falls, so each of its windows would have been. Every
    /// other window meets the pre-filter, if any, and then the query's
    /// [`Cascade`] (built once per search), whose LB_Keogh sums stop once
    /// they cross the threshold. The partials reduce in chunk order, ties
    /// to the lowest offset, exactly like the serial scan.
    ///
    /// Chunk boundaries depend only on the engine's chunk size, so match and
    /// statistics are identical for every thread count. A single chunk
    /// (`with_chunk_size(usize::MAX)`) carries the best-so-far across the
    /// whole haystack; the match is the same at every chunk size, only the
    /// statistics shift between stages.
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if the summary was built
    /// from a series of another length, the haystack is shorter than the
    /// window or either input contains a NaN or infinity, or propagates
    /// distance errors.
    pub fn run_with_summary(
        &self,
        query: &[f64],
        haystack: &[f64],
        summary: &BlockSummary,
    ) -> Result<(Match, SearchStats), DistanceError> {
        if summary.len != haystack.len() {
            return Err(DistanceError::InvalidParameter {
                name: "summary",
                reason: format!(
                    "summary of {} samples for a haystack of {}",
                    summary.len,
                    haystack.len()
                ),
            });
        }
        let query = self.prepared_query(query, haystack)?;
        if !summary.finite {
            ensure_finite("haystack", haystack)?;
        }
        let windows = haystack.len() - self.window + 1;
        let dtw = Dtw::new().with_band(Band::SakoeChiba(self.band_radius));

        // Scout: LB_Kim is admissible, so the window with the smallest bound
        // is the best guess at the match (first minimum on ties).
        let mut buf = Vec::new();
        // Block bounds read LB_Kim off raw haystack elements: not for
        // z-normalized windows, and not for a one-point query, whose bound
        // against a one-point window counts the one cell once.
        let ends =
            (!self.z_normalize && query.len() > 1).then(|| (query[0], query[query.len() - 1]));
        let (scout_off, bounds) = match ends {
            Some((first, last)) => {
                let bounds = summary.kim_bounds(first, last, self.window);
                let scout = block_scout(first, last, haystack, self.window, &bounds);
                (scout, bounds)
            }
            None => {
                let mut scout = (0, f64::INFINITY);
                for off in 0..windows {
                    let kim = lb_kim(&query, self.window_into(haystack, off, &mut buf))?;
                    if off == 0 || kim.total_cmp(&scout.1).is_lt() {
                        scout = (off, kim);
                    }
                }
                (scout.0, Vec::new())
            }
        };
        let best_ub = dtw.distance(&query, self.window_into(haystack, scout_off, &mut buf))?;

        // Program the stage-0 pre-filter for the (z-normalized) query at the
        // scout threshold. A rejection certifies
        // `LB_Keogh(window) > best_ub >= threshold`, i.e. a window the
        // cascade would have discarded at its Keogh layer without touching
        // the threshold — so skipping it leaves every other window's
        // decision bitwise-unchanged.
        let predicate = self.prefilter.as_ref().and_then(|filter| {
            filter.program(DistanceKind::Dtw, &query, self.band_radius, best_ub)
        });
        let cascade = Cascade::new(&query, self.band_radius);
        // Whole blocks are pruned only without a pre-filter, which must see
        // every window before LB_Kim does.
        let skippable = if predicate.is_none() {
            &bounds[..]
        } else {
            &[]
        };

        // Fused scan: every chunk starts from the scout threshold and
        // tightens it window by window. The true best window always
        // survives: its distance is <= every threshold the scan can hold.
        let partials = self.engine.try_map_ranges(
            windows,
            || (DpScratch::new(), Vec::new()),
            |(scratch, buf), range| {
                let mut stats = SearchStats {
                    windows: range.len(),
                    ..SearchStats::default()
                };
                let mut best = NO_MATCH;
                let mut threshold = best_ub;
                let mut start = range.start;
                while start < range.end {
                    let block = start / BLOCK;
                    let end = ((block + 1) * BLOCK).min(range.end);
                    if skippable.get(block).is_some_and(|&b| b > threshold) {
                        // Never the scout's block: every threshold is a
                        // computed DTW, at least its window's LB_Kim, at
                        // least the scout's, at least this bound.
                        debug_assert_ne!(block, scout_off / BLOCK, "scout block pruned");
                        stats.pruned_by_kim += end - start;
                        start = end;
                        continue;
                    }
                    for off in start..end {
                        let d = if off == scout_off {
                            // The scout's full DTW is already known. Reusing
                            // it (instead of cascading, which a tightened
                            // threshold could abandon) guarantees at least
                            // one computed window, so the match is a real,
                            // fully evaluated window.
                            best_ub
                        } else {
                            let window = self.window_into(haystack, off, buf);
                            if predicate.as_ref().is_some_and(|p| !p.admit(window)) {
                                stats.pruned_by_prefilter += 1;
                                continue;
                            }
                            match cascade.screen(window, threshold, scratch)? {
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
                        if d < threshold {
                            threshold = d;
                        }
                        if d < best.distance {
                            best = Match {
                                offset: off,
                                distance: d,
                            };
                        }
                    }
                    start = end;
                }
                Ok((stats, best))
            },
        )?;

        // Ordered reduction. The scout window is always computed, so `best`
        // is never the infinite placeholder on return.
        let mut stats = SearchStats::default();
        let mut best = NO_MATCH;
        for (part, m) in partials {
            stats.windows += part.windows;
            stats.pruned_by_prefilter += part.pruned_by_prefilter;
            stats.pruned_by_kim += part.pruned_by_kim;
            stats.pruned_by_keogh += part.pruned_by_keogh;
            stats.abandoned_early += part.abandoned_early;
            stats.full_computations += part.full_computations;
            if m.distance < best.distance {
                best = m;
            }
        }
        debug_assert!(best.distance.is_finite(), "scout window must be computed");
        Ok((best, stats))
    }

    /// Brute-force search without any pruning — used to verify that the
    /// cascading bounds never change the answer, and as the unoptimized
    /// baseline in the benches.
    ///
    /// # Errors
    ///
    /// Same as [`SubsequenceSearch::run`].
    pub fn run_brute_force(&self, query: &[f64], haystack: &[f64]) -> Result<Match, DistanceError> {
        let query = self.prepared_query(query, haystack)?;
        ensure_finite("haystack", haystack)?;
        let dtw = Dtw::new().with_band(Band::SakoeChiba(self.band_radius));
        let mut buf = Vec::new();
        let mut best = NO_MATCH;
        for offset in 0..=(haystack.len() - self.window) {
            let d = dtw.distance(&query, self.window_into(haystack, offset, &mut buf))?;
            if d < best.distance {
                best = Match {
                    offset,
                    distance: d,
                };
            }
        }
        Ok(best)
    }
}

/// Samples per block of a [`BlockSummary`], and windows per block of its
/// LB_Kim bounds.
pub const BLOCK: usize = 64;

/// Lanes of [`BlockSummary::new`]'s pass: independent min/max chains
/// over a block. Two (one SSE2 register each) measured fastest on x86-64:
/// wider arrays made the compiler spill them to the stack.
const SUMMARY_LANES: usize = 2;

/// A series summarized per block of [`BLOCK`] samples: each block's
/// smallest and largest element, and whether every element is finite.
///
/// It costs two `f64` per 64 samples (about 3 % of the series) and one
/// branch-free pass to build, so a server keeps one beside each resident
/// series. [`SubsequenceSearch::run_with_summary`] reads it in two ways:
///
/// - the finite flag stands in for the haystack's NaN/infinity check;
/// - for a query with end elements `first` and `last` and a window of `w`
///   samples, the windows starting in block `b` have their first element
///   in sample block `b` and their last in the one or two sample blocks
///   covering `[64·b + w − 1, 64·b + 63 + w − 1]`. With
///   `gap(x, [lo, hi])` the distance from `x` to the interval (`lo − x`,
///   `x − hi` or `0`), the block's bound is
///   `gap(first, head block) + gap(last, tail blocks)`. Rounded
///   subtraction and addition are monotone, so with finite inputs the
///   bound is never above any of the block's windows' LB_Kim bits, and
///   one comparison decides LB_Kim for 64 windows.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Samples summarized.
    len: usize,
    /// Per block, its smallest element.
    lo: Vec<f64>,
    /// Per block, its largest element.
    hi: Vec<f64>,
    /// Whether every element is finite.
    finite: bool,
}

impl BlockSummary {
    /// Summarizes `series` in one branch-free pass.
    pub fn new(series: &[f64]) -> Self {
        let blocks = series.len().div_ceil(BLOCK);
        let mut lo = Vec::with_capacity(blocks);
        let mut hi = Vec::with_capacity(blocks);
        // `x * 0.0` is `±0.0` for every finite `x` and NaN otherwise, so the
        // sums stay zero exactly when every element is finite.
        let mut poison = [0.0f64; SUMMARY_LANES];
        let mut whole = series.chunks_exact(BLOCK);
        for block in &mut whole {
            let mut min = [f64::INFINITY; SUMMARY_LANES];
            let mut max = [f64::NEG_INFINITY; SUMMARY_LANES];
            for xs in block.chunks_exact(SUMMARY_LANES) {
                for l in 0..SUMMARY_LANES {
                    min[l] = least(min[l], xs[l]);
                    max[l] = greatest(max[l], xs[l]);
                    poison[l] += xs[l] * 0.0;
                }
            }
            lo.push(min.into_iter().fold(f64::INFINITY, least));
            hi.push(max.into_iter().fold(f64::NEG_INFINITY, greatest));
        }
        let rest = whole.remainder();
        if !rest.is_empty() {
            lo.push(rest.iter().copied().fold(f64::INFINITY, least));
            hi.push(rest.iter().copied().fold(f64::NEG_INFINITY, greatest));
            poison[0] += rest.iter().map(|x| x * 0.0).sum::<f64>();
        }
        BlockSummary {
            len: series.len(),
            lo,
            hi,
            finite: poison.iter().all(|&p| p == 0.0),
        }
    }

    /// A lower bound on LB_Kim for each block of [`BLOCK`] windows of
    /// `window` samples (block `b` holds the windows starting at
    /// `64·b … 64·b + 63`), against a query of at least two points with
    /// ends `first`/`last`; see the type's documentation. With a finite
    /// series and finite ends, entry `b` is never above any of those
    /// windows' [`lb_kim`] bits.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or longer than the series.
    pub fn kim_bounds(&self, first: f64, last: f64, window: usize) -> Vec<f64> {
        assert!(
            (1..=self.len).contains(&window),
            "window {window} outside 1..={}",
            self.len
        );
        let windows = self.len - window + 1;
        (0..windows.div_ceil(BLOCK))
            .map(|b| {
                let first_tail = (b * BLOCK + window - 1) / BLOCK;
                let last_tail = ((b * BLOCK + BLOCK).min(windows) - 1 + window - 1) / BLOCK;
                let tail_lo = self.lo[first_tail].min(self.lo[last_tail]);
                let tail_hi = self.hi[first_tail].max(self.hi[last_tail]);
                gap(first, self.lo[b], self.hi[b]) + gap(last, tail_lo, tail_hi)
            })
            .collect()
    }
}

/// The smaller of two finite values, as one compare-select (SSE2 `minpd`).
#[inline(always)]
fn least(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The larger of two finite values, as one compare-select.
#[inline(always)]
fn greatest(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// The distance from `x` to `[lo, hi]` under rounding: `lo − x`, `x − hi`
/// or zero. Never above `|x − y|` rounded, for any `y` in the interval.
fn gap(x: f64, lo: f64, hi: f64) -> f64 {
    (lo - x).max(x - hi).max(0.0)
}

/// The offset of the first window of smallest LB_Kim against a query of
/// at least two points with ends `first`/`last`, each bound read from the
/// window's own first and last elements with [`lb_kim`]'s expression.
///
/// It examines the block of least bound (the first, on ties), then every
/// other block whose bound is not above the smallest LB_Kim found so far,
/// keeping the least `(bound, offset)`. A block it passes over holds only
/// windows whose bound is above that smallest one, so this is the
/// `total_cmp` first minimum over every window: with finite inputs a bound
/// is never NaN or `-0.0`.
fn block_scout(first: f64, last: f64, haystack: &[f64], window: usize, bounds: &[f64]) -> usize {
    let windows = haystack.len() - window + 1;
    let examine = |b: usize, best: &mut (f64, usize)| {
        let range = b * BLOCK..(b * BLOCK + BLOCK).min(windows);
        let heads = &haystack[range.clone()];
        let tails = &haystack[range.start + window - 1..range.end + window - 1];
        // The block's own first minimum: its windows come in offset order.
        let mut first_min = (f64::INFINITY, usize::MAX);
        for (off, (&h, &t)) in range.zip(heads.iter().zip(tails)) {
            let kim = kim_ends(first, last, h, t);
            if kim < first_min.0 || first_min.1 == usize::MAX {
                first_min = (kim, off);
            }
        }
        if first_min.0 < best.0 || (first_min.0 == best.0 && first_min.1 < best.1) {
            *best = first_min;
        }
    };
    let mut lead = 0;
    for (b, &bound) in bounds.iter().enumerate() {
        if bound < bounds[lead] {
            lead = b;
        }
    }
    let mut best = (f64::INFINITY, usize::MAX);
    examine(lead, &mut best);
    for (b, &bound) in bounds.iter().enumerate() {
        if b != lead && bound <= best.0 {
            examine(b, &mut best);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn haystack() -> Vec<f64> {
        (0..128)
            .map(|i| (i as f64 * 0.3).sin() * (1.0 + i as f64 / 128.0))
            .collect()
    }

    #[test]
    fn finds_exact_planted_match() {
        let hay = haystack();
        let query = hay[40..56].to_vec();
        let s = SubsequenceSearch::new(16, 2);
        let (m, _) = s.run(&query, &hay).unwrap();
        assert_eq!(m.offset, 40);
        assert_eq!(m.distance, 0.0);
    }

    #[test]
    fn pruned_and_brute_force_agree() {
        let hay = haystack();
        let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.29 + 0.4).sin()).collect();
        let s = SubsequenceSearch::new(16, 2);
        let (pruned, stats) = s.run(&query, &hay).unwrap();
        let brute = s.run_brute_force(&query, &hay).unwrap();
        assert_eq!(pruned.offset, brute.offset);
        assert!((pruned.distance - brute.distance).abs() < 1e-12);
        assert_eq!(stats.windows, hay.len() - 16 + 1);
    }

    #[test]
    fn pruning_actually_happens_on_structured_data() {
        let mut hay = vec![0.0; 200];
        // One matching region, the rest flat at a large offset.
        for (i, v) in hay.iter_mut().enumerate() {
            *v = if (80..96).contains(&i) {
                ((i - 80) as f64 * 0.5).sin()
            } else {
                7.0
            };
        }
        let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).sin()).collect();
        let s = SubsequenceSearch::new(16, 1);
        let (m, stats) = s.run(&query, &hay).unwrap();
        assert_eq!(m.offset, 80);
        assert!(
            stats.prune_rate() > 0.5,
            "prune rate {}",
            stats.prune_rate()
        );
    }

    #[test]
    fn z_normalized_search_is_amplitude_invariant() {
        let hay: Vec<f64> = haystack().iter().map(|x| x * 10.0 + 3.0).collect();
        let query: Vec<f64> = haystack()[40..56].to_vec();
        let s = SubsequenceSearch::new(16, 2).with_z_normalization(true);
        let (m, _) = s.run(&query, &hay).unwrap();
        assert_eq!(m.offset, 40);
        assert!(m.distance < 1e-9);
    }

    #[test]
    fn short_haystack_rejected() {
        let s = SubsequenceSearch::new(16, 1);
        assert!(s.run(&[0.0; 16], &[0.0; 8]).is_err());
    }

    /// Regression: a NaN anywhere in the input used to panic inside the
    /// scout pass (`partial_cmp(..).expect("finite bounds")`). It must be a
    /// typed error instead — for both the pruned and brute-force paths.
    #[test]
    fn non_finite_inputs_are_typed_errors_not_panics() {
        let s = SubsequenceSearch::new(4, 1);
        let good = vec![0.0, 1.0, 2.0, 1.0, 0.0, -1.0, 0.5, 1.5];
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = good.clone();
            bad[3] = bad_value;

            // NaN/∞ in the query.
            let err = s.run(&bad[..4], &good).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "query", .. }),
                "query case: {err:?}"
            );
            // NaN/∞ in the haystack.
            let err = s.run(&good[..4], &bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    DistanceError::InvalidParameter {
                        name: "haystack",
                        ..
                    }
                ),
                "haystack case: {err:?}"
            );
            // NaN/∞ in both (query is validated first).
            let err = s.run(&bad[..4], &bad).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "query", .. }),
                "both case: {err:?}"
            );
            assert!(s.run_brute_force(&bad[..4], &good).is_err());
            assert!(s.run_brute_force(&good[..4], &bad).is_err());
        }
    }

    /// Regression: when every window ties the scout threshold exactly, the
    /// search must still return a real, fully computed window — never the
    /// fabricated `Match { offset: 0, distance: ∞ }` placeholder.
    #[test]
    fn equal_threshold_tie_returns_real_match() {
        // Constant query vs constant haystack: every window has the exact
        // same DTW distance as the scout threshold (8 cells × |1 - 0| = 8).
        let s = SubsequenceSearch::new(8, 1);
        let (m, stats) = s.run(&[1.0; 8], &[0.0; 32]).unwrap();
        assert!(m.distance.is_finite());
        assert_eq!(m.distance, 8.0);
        assert_eq!(m.offset, 0);
        assert!(
            stats.full_computations >= 1,
            "at least the scout window must be Computed, stats: {stats:?}"
        );
        let brute = s.run_brute_force(&[1.0; 8], &[0.0; 32]).unwrap();
        assert_eq!((m.offset, m.distance), (brute.offset, brute.distance));
    }

    #[test]
    fn stats_partition_windows() {
        let hay = haystack();
        let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.31).cos()).collect();
        let (_, stats) = SubsequenceSearch::new(16, 2).run(&query, &hay).unwrap();
        assert_eq!(
            stats.windows,
            stats.pruned_by_prefilter
                + stats.pruned_by_kim
                + stats.pruned_by_keogh
                + stats.abandoned_early
                + stats.full_computations
        );
        assert_eq!(stats.pruned_by_prefilter, 0, "no filter installed");
    }

    /// The identity filter must leave the match AND the statistics exactly
    /// as the unfiltered run produced them — it admits everything, so every
    /// window still flows through the cascade.
    #[test]
    fn admit_all_prefilter_changes_nothing() {
        use crate::mining::prefilter::AdmitAll;
        use std::sync::Arc;
        let hay = haystack();
        let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.31).cos()).collect();
        let plain = SubsequenceSearch::new(16, 2);
        let filtered = plain.clone().with_prefilter(Arc::new(AdmitAll));
        let (m0, s0) = plain.run(&query, &hay).unwrap();
        let (m1, s1) = filtered.run(&query, &hay).unwrap();
        assert_eq!(m0, m1);
        assert_eq!(s0, s1);
    }
}
