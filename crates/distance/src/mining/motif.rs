//! Motif discovery — the "frequency pattern mining" task of the paper's
//! Section 1.
//!
//! A *motif* is the most similar pair of non-overlapping subsequences in a
//! series: the primitive behind frequent-pattern mining on time series.
//! The classic brute-force algorithm compares all O(n²) window pairs; the
//! pruned variant rejects candidates with the cascading DTW lower bounds,
//! and both must return identical answers (tested below and in
//! `tests/motif_props.rs`).

use crate::batch::BatchEngine;
use crate::dtw::{Band, Dtw};
use crate::error::DistanceError;
use crate::lower_bounds::{lb_kim, Cascade, PruneDecision};
use crate::scratch::DpScratch;
use crate::validate::ensure_finite;

/// A discovered motif: the best-matching pair of non-overlapping windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Motif {
    /// Start offset of the first occurrence.
    pub first: usize,
    /// Start offset of the second occurrence.
    pub second: usize,
    /// Banded DTW distance between the two occurrences.
    pub distance: f64,
}

/// Statistics from a pruned motif search. Like
/// [`SearchStats`](crate::mining::SearchStats) they are tallied per engine
/// chunk, so they depend on the chunk size but never on the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotifStats {
    /// Window pairs considered.
    pub pairs: usize,
    /// Pairs discarded by a lower bound.
    pub pruned: usize,
    /// Pairs fully evaluated with DTW.
    pub full_computations: usize,
}

/// Motif discovery over sliding windows with a DTW distance.
///
/// ```
/// use mda_distance::mining::MotifDiscovery;
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// // A ramp background (no exact repeats) with one bump planted twice.
/// let mut xs: Vec<f64> = (0..64).map(|i| i as f64 * 0.2).collect();
/// for i in 0..8 {
///     let bump = ((i as f64) * 0.8).sin() * 20.0;
///     xs[10 + i] = bump;
///     xs[40 + i] = bump;
/// }
/// let motif = MotifDiscovery::new(8, 1).find(&xs)?;
/// assert_eq!((motif.first, motif.second), (10, 40));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MotifDiscovery {
    window: usize,
    band_radius: usize,
    stride: usize,
    engine: BatchEngine,
}

impl MotifDiscovery {
    /// Discovery over windows of `window` points with Sakoe–Chiba radius
    /// `band_radius`, stride 1. Pair batches run on a default (all-cores)
    /// [`BatchEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, band_radius: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MotifDiscovery {
            window,
            band_radius,
            stride: 1,
            engine: BatchEngine::new(),
        }
    }

    /// Replaces the batch engine. The discovered motif (and the pruning
    /// statistics) are identical for every thread count; only wall-clock
    /// time changes.
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the window stride (coarser = faster, may miss offsets).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    #[must_use]
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// The one input check of both drivers: rejects a series that cannot
    /// hold two non-overlapping windows or that holds a NaN or infinity.
    /// Returns the window count (window `i` starts at `i * stride`) and the
    /// index gap: windows `i < j` overlap unless `j >= i + gap`.
    fn grid(&self, xs: &[f64]) -> Result<(usize, usize), DistanceError> {
        if xs.len() < 2 * self.window {
            return Err(DistanceError::InvalidParameter {
                name: "series",
                reason: format!(
                    "need at least two non-overlapping windows of {}, got length {}",
                    self.window,
                    xs.len()
                ),
            });
        }
        ensure_finite("series", xs)?;
        Ok((
            (xs.len() - self.window) / self.stride + 1,
            self.window.div_ceil(self.stride),
        ))
    }

    /// The placeholder every scan starts from.
    fn no_motif(&self) -> Motif {
        Motif {
            first: 0,
            second: self.window,
            distance: f64::INFINITY,
        }
    }

    /// Finds the motif with cascading lower-bound pruning.
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if the series cannot hold
    /// two non-overlapping windows or contains a NaN or infinity.
    pub fn find(&self, xs: &[f64]) -> Result<Motif, DistanceError> {
        Ok(self.find_with_stats(xs)?.0)
    }

    /// Finds the motif, also returning pruning statistics.
    ///
    /// A serial O(1)-per-pair LB_Kim **scout pass** picks the most
    /// promising pair (first minimum in pair order); its full banded DTW
    /// is the starting pruning threshold. Then one fused scan per engine
    /// chunk of first windows builds one [`Cascade`] per first window, runs
    /// every later non-overlapping window through it (each LB_Keogh sum
    /// stopping once it crosses the threshold, since only the decision is
    /// read) and folds the decisions into a `(MotifStats, Motif)` partial,
    /// tightening the threshold as it goes. The partials reduce in chunk
    /// order, ties to the lowest pair, exactly like the brute-force scan.
    /// No pair list is built.
    ///
    /// Chunk boundaries depend only on the engine's chunk size, so motif
    /// and statistics are identical for every thread count; the motif is
    /// the same at every chunk size, only the statistics shift.
    ///
    /// # Errors
    ///
    /// Same as [`MotifDiscovery::find`].
    pub fn find_with_stats(&self, xs: &[f64]) -> Result<(Motif, MotifStats), DistanceError> {
        let (count, gap) = self.grid(xs)?;
        let win = |i: usize| &xs[i * self.stride..i * self.stride + self.window];
        // Only these first windows have a later non-overlapping partner.
        let firsts = count.saturating_sub(gap);

        // Scout: LB_Kim is admissible, so the pair with the smallest bound
        // is the best guess at the motif (first minimum on ties).
        let mut scout: Option<((usize, usize), f64)> = None;
        for i in 0..firsts {
            for j in i + gap..count {
                let kim = lb_kim(win(i), win(j))?;
                if scout.is_none_or(|(_, best)| kim.total_cmp(&best).is_lt()) {
                    scout = Some(((i, j), kim));
                }
            }
        }
        let Some((scout, _)) = scout else {
            return Ok((self.no_motif(), MotifStats::default()));
        };
        let best_ub = Dtw::new()
            .with_band(Band::SakoeChiba(self.band_radius))
            .distance(win(scout.0), win(scout.1))?;

        // Fused scan: every chunk starts from the scout threshold and
        // tightens it pair by pair. The true motif always survives: its
        // distance is <= every threshold the scan can hold.
        let partials = self
            .engine
            .try_map_ranges(firsts, DpScratch::new, |scratch, range| {
                let mut stats = MotifStats::default();
                let mut best = self.no_motif();
                let mut threshold = best_ub;
                for i in range {
                    let cascade = Cascade::new(win(i), self.band_radius);
                    stats.pairs += count - gap - i;
                    for j in i + gap..count {
                        let d = if (i, j) == scout {
                            // The scout's full DTW is already known. Reusing
                            // it (instead of cascading, which a tightened
                            // threshold could abandon) guarantees at least
                            // one computed pair, so the motif is real.
                            best_ub
                        } else {
                            match cascade.screen(win(j), threshold, scratch)? {
                                PruneDecision::Computed(d) => d,
                                _ => {
                                    stats.pruned += 1;
                                    continue;
                                }
                            }
                        };
                        stats.full_computations += 1;
                        if d < threshold {
                            threshold = d;
                        }
                        if d < best.distance {
                            best = Motif {
                                first: i * self.stride,
                                second: j * self.stride,
                                distance: d,
                            };
                        }
                    }
                }
                Ok((stats, best))
            })?;

        // Ordered reduction. The scout pair is always computed, so `best`
        // is never the infinite placeholder on return.
        let mut stats = MotifStats::default();
        let mut best = self.no_motif();
        for (part, m) in partials {
            stats.pairs += part.pairs;
            stats.pruned += part.pruned;
            stats.full_computations += part.full_computations;
            if m.distance < best.distance {
                best = m;
            }
        }
        debug_assert!(best.distance.is_finite(), "scout pair must be computed");
        Ok((best, stats))
    }

    /// Brute-force reference (no pruning) — must agree with
    /// [`MotifDiscovery::find`].
    ///
    /// # Errors
    ///
    /// Same as [`MotifDiscovery::find`].
    pub fn find_brute_force(&self, xs: &[f64]) -> Result<Motif, DistanceError> {
        let (count, gap) = self.grid(xs)?;
        let win = |i: usize| &xs[i * self.stride..i * self.stride + self.window];
        let dtw = Dtw::new().with_band(Band::SakoeChiba(self.band_radius));
        let mut best = self.no_motif();
        for i in 0..count {
            for j in i + gap..count {
                let d = dtw.distance(win(i), win(j))?;
                if d < best.distance {
                    best = Motif {
                        first: i * self.stride,
                        second: j * self.stride,
                        distance: d,
                    };
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_series() -> Vec<f64> {
        // Aperiodic background (ramp + irrational-frequency sine) so no two
        // background windows repeat exactly; the planted bump pair is the
        // unique motif.
        let mut xs: Vec<f64> = (0..96)
            .map(|i| i as f64 * 0.15 + (i as f64 * 0.618).sin() * 0.4)
            .collect();
        for i in 0..10 {
            let bump = (i as f64 * 0.7).sin() * 30.0;
            xs[12 + i] = bump;
            xs[70 + i] = bump + 0.01;
        }
        xs
    }

    #[test]
    fn finds_planted_motif() {
        let motif = MotifDiscovery::new(10, 1).find(&planted_series()).unwrap();
        assert_eq!(motif.first, 12);
        assert_eq!(motif.second, 70);
        assert!(motif.distance < 0.2);
    }

    #[test]
    fn pruned_agrees_with_brute_force() {
        let d = MotifDiscovery::new(10, 2);
        let xs = planted_series();
        let (pruned, stats) = d.find_with_stats(&xs).unwrap();
        let brute = d.find_brute_force(&xs).unwrap();
        assert_eq!((pruned.first, pruned.second), (brute.first, brute.second));
        assert!((pruned.distance - brute.distance).abs() < 1e-12);
        assert_eq!(stats.pairs, stats.pruned + stats.full_computations);
        assert!(stats.pruned > 0, "expected some pruning");
    }

    #[test]
    fn occurrences_never_overlap() {
        let motif = MotifDiscovery::new(16, 1).find(&planted_series()).unwrap();
        assert!(motif.second >= motif.first + 16);
    }

    #[test]
    fn stride_reduces_pair_count() {
        let xs = planted_series();
        let (_, dense) = MotifDiscovery::new(10, 1).find_with_stats(&xs).unwrap();
        let (_, strided) = MotifDiscovery::new(10, 1)
            .with_stride(4)
            .find_with_stats(&xs)
            .unwrap();
        assert!(strided.pairs < dense.pairs / 4);
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(MotifDiscovery::new(10, 1).find(&[0.0; 15]).is_err());
    }

    /// Regression: a NaN in the series used to panic inside the scout pass.
    #[test]
    fn non_finite_series_is_typed_error_not_panic() {
        let d = MotifDiscovery::new(4, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xs = vec![0.0; 16];
            xs[7] = bad;
            let err = d.find(&xs).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "series", .. }),
                "{err:?}"
            );
            assert!(d.find_brute_force(&xs).is_err());
        }
    }

    /// Regression: when every pair ties the scout threshold exactly, the
    /// discovery must still return a real, fully computed pair.
    #[test]
    fn all_tied_pairs_return_real_motif() {
        let d = MotifDiscovery::new(4, 1);
        let (m, stats) = d.find_with_stats(&[2.0; 16]).unwrap();
        assert!(m.distance.is_finite());
        assert_eq!(m.distance, 0.0);
        assert!(m.second >= m.first + 4);
        assert!(stats.full_computations >= 1, "stats: {stats:?}");
    }
}
