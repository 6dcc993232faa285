//! Dynamic time warping (DTW), Eq. 2 of the paper.
//!
//! ```text
//! D[i][j] = w[i][j] * |P[i] - Q[j]| + min(D[i][j-1], D[i-1][j], D[i-1][j-1])
//! D[0][0] = 0,  D[0][j] = D[i][0] = inf
//! DTW(P, Q) = D[n][m]
//! ```
//!
//! Supports the Sakoe–Chiba band constraint the paper adopts from
//! Rakthanmanon et al. (the "UCR suite"), and per-cell weights for weighted
//! DTW (Jeong et al.).
//!
//! Two serial layouts of the same recurrence are used:
//!
//! * [`Dtw::distance_with`] walks the matrix **anti-diagonally** (wavefront
//!   order). Cells on one anti-diagonal have no data dependencies between
//!   them — exactly the property the paper's memristor array exploits to
//!   evaluate a whole diagonal of PEs at once (Section 3.3) — so the inner
//!   loop is a straight-line min/add over contiguous slices that the
//!   compiler can autovectorize, unlike row-major order whose `D[i][j-1]`
//!   term serializes the row.
//! * [`Dtw::distance_early_abandon_with`] stays **row-major**, because early
//!   abandonment is a per-row decision, but iterates only the admissible
//!   column segment of each row ([`Band::row_range`]) and keeps `left`
//!   in a register, with `min(up, diag)` computed off the row's serial
//!   chain.
//!
//! * [`Dtw::distance_early_abandon_lanes`] is the row-major kernel over
//!   [`LANES`] equal-length candidates at once: the candidates sit
//!   transposed and each DP cell is `[f64; LANES]`, so the row's serial
//!   chain advances every lane in one vector step.
//!
//! All produce bitwise-identical results to the full-matrix reference
//! ([`Dtw::matrix`]). The wavefront keeps the per-cell operation order
//! `cost + min(min(left, up), diag)` exactly; the early-abandon kernel
//! regroups the `min`, which is exact because no cell is ever `-0.0` and
//! `f64::min` skips a NaN cell (possible only with weights) however it is
//! grouped.

use std::cmp::Ordering;

use crate::error::DistanceError;
use crate::matrix::{DpMatrix, PathStep};
use crate::scratch::DpScratch;
use crate::weights::Weights;
use crate::{Distance, DistanceKind};

/// `floor(a / b)` for `b > 0`.
#[inline]
fn floor_div(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

/// `ceil(a / b)` for `b > 0`.
#[inline]
fn ceil_div(a: i128, b: i128) -> i128 {
    -((-a).div_euclid(b))
}

/// Global path constraint for DTW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Band {
    /// No constraint: the warping path may wander anywhere in the matrix.
    #[default]
    Full,
    /// Sakoe–Chiba band of half-width `r`: cell `(i, j)` is admissible only
    /// if `|i - j| <= r` (after the usual length-difference correction for
    /// unequal lengths). The paper's power analysis uses `r = 5% * n`.
    SakoeChiba(usize),
}

impl Band {
    /// The paper's default band for the power analysis: `R = 5% * n`,
    /// rounded up so the band is never empty.
    pub fn five_percent(n: usize) -> Band {
        Band::SakoeChiba((n as f64 * 0.05).ceil().max(1.0) as usize)
    }

    /// Is cell `(i, j)` (1-based DP coordinates) inside the band for an
    /// `m x n` comparison?
    ///
    /// The diagonal is corrected for unequal lengths: row `i` maps onto the
    /// "ideal" column `i * n / m` and the band allows `±r` around it. The
    /// comparison `|j - i*n/m| <= r` is evaluated exactly in integers as
    /// `|j*m - i*n| <= r*m`, so cells exactly on the band edge are admitted
    /// regardless of sequence length — the previous float formulation leaned
    /// on a `1e-12` fudge whose slack is overtaken by `i*n` rounding once
    /// products exceed 2^53.
    #[inline]
    pub fn admissible(self, i: usize, j: usize, m: usize, n: usize) -> bool {
        match self {
            Band::Full => true,
            Band::SakoeChiba(r) => {
                let jm = j as i128 * m as i128;
                let i_n = i as i128 * n as i128;
                (jm - i_n).abs() <= r as i128 * m as i128
            }
        }
    }

    /// The inclusive range of admissible columns `(j_lo, j_hi)` in row `i`
    /// (1-based DP coordinates) for an `m x n` comparison. `j_lo > j_hi`
    /// means the row has no admissible cell.
    ///
    /// The admissible cells of a row are contiguous (the band predicate is
    /// an interval in `j*m`), and both endpoints are non-decreasing in `i`,
    /// which the row-major kernels rely on when recycling DP rows. The range
    /// is derived from the same exact integer predicate as
    /// [`Band::admissible`]: `j_lo = ceil((i*n - r*m) / m)`,
    /// `j_hi = floor((i*n + r*m) / m)`, clamped to `[1, n]`. For equal
    /// lengths that is `[i - r, i + r]`, computed with saturating `usize`
    /// arithmetic instead of `i128` division.
    #[inline]
    pub fn row_range(self, i: usize, m: usize, n: usize) -> (usize, usize) {
        match self {
            Band::Full => (1, n),
            // Equal lengths: the ideal column is `i` itself.
            Band::SakoeChiba(r) if m == n => {
                (i.saturating_sub(r).max(1), i.saturating_add(r).min(n))
            }
            Band::SakoeChiba(r) => {
                let i_n = i as i128 * n as i128;
                let rm = r as i128 * m as i128;
                let lo = ceil_div(i_n - rm, m as i128).max(1) as usize;
                let hi = floor_div(i_n + rm, m as i128).min(n as i128).max(0) as usize;
                (lo, hi)
            }
        }
    }

    /// The inclusive range of admissible rows `(i_lo, i_hi)` on the
    /// anti-diagonal `k = i + j` (interior cells only, `1 <= i <= m`,
    /// `1 <= j <= n`) for an `m x n` comparison. `i_lo > i_hi` means the
    /// diagonal has no admissible interior cell.
    ///
    /// Substituting `j = k - i` into the band predicate gives
    /// `|k*m - i*(m+n)| <= r*m`, an interval in `i`, intersected with the
    /// structural range `[max(1, k-n), min(m, k-1)]`.
    #[inline]
    pub fn diag_range(self, k: usize, m: usize, n: usize) -> (usize, usize) {
        let ilo = k.saturating_sub(n).max(1);
        let ihi = m.min(k.saturating_sub(1));
        match self {
            Band::Full => (ilo, ihi),
            // Equal lengths: `|k - 2i| <= r`.
            Band::SakoeChiba(r) if m == n => (
                (k.saturating_sub(r).div_ceil(2)).max(ilo),
                (k.saturating_add(r) / 2).min(ihi),
            ),
            Band::SakoeChiba(r) => {
                let km = k as i128 * m as i128;
                let rm = r as i128 * m as i128;
                let den = (m + n) as i128;
                let lo = ceil_div(km - rm, den).max(ilo as i128) as usize;
                let hi = floor_div(km + rm, den).min(ihi as i128).max(0) as usize;
                (lo, hi)
            }
        }
    }

    /// Does the band admit a complete warping path from `(1, 1)` to
    /// `(m, n)` for an `m x n` comparison? Exactly when it does not, the
    /// DTW kernels fail with a "band too narrow" error. O(1) for equal
    /// lengths, O(m) otherwise: each row's segment must be non-empty and
    /// reachable from the row above, whose segment ends no more than one
    /// column before it starts.
    pub fn admits_path(self, m: usize, n: usize) -> bool {
        if m == n {
            // Every band holds the main diagonal.
            return true;
        }
        let mut prev_hi = 0; // row 0 holds only D[0][0]
        for i in 1..=m {
            let (lo, hi) = self.row_range(i, m, n);
            if lo > hi || lo > prev_hi + 1 {
                return false;
            }
            prev_hi = hi;
        }
        prev_hi == n
    }

    /// Number of admissible cells for an `m x n` comparison — the count of
    /// PEs that must be powered on the accelerator.
    pub fn active_cells(self, m: usize, n: usize) -> usize {
        (1..=m)
            .map(|i| {
                let (lo, hi) = self.row_range(i, m, n);
                (hi + 1).saturating_sub(lo)
            })
            .sum()
    }
}

/// Dynamic time warping distance.
///
/// ```
/// use mda_distance::{Dtw, Distance};
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// // A shifted copy of a ramp warps onto itself with zero cost at the
/// // overlapping portion.
/// let d = Dtw::new().evaluate(&[0.0, 1.0, 2.0, 3.0], &[0.0, 0.0, 1.0, 2.0, 3.0])?;
/// assert_eq!(d, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dtw {
    band: Band,
    weights: Weights,
}

/// Anti-diagonal (wavefront) evaluation of Eq. 2 using three rotating
/// diagonal buffers from `scratch`. Generic over the weight lookup so the
/// uniform-weight case monomorphizes to a closed-form `1.0` the optimizer
/// folds away, leaving a branch-free min/add loop over contiguous slices.
///
/// Returns `D[m][n]`, which is non-finite iff the band admits no complete
/// warping path. Bitwise-identical to the row-major reference: each cell
/// still computes `cost + left.min(up).min(diag)` in that order.
fn wavefront_dtw<F: Fn(usize, usize) -> f64>(
    p: &[f64],
    q: &[f64],
    band: Band,
    scratch: &mut DpScratch,
    wpair: &F,
) -> f64 {
    let (m, n) = (p.len(), q.len());
    // Diagonal k stores cell (i, j = k - i) at slot i; slots 0..=m.
    let ([mut d0, mut d1, mut d2], rev) = scratch.wavefront(m + 1, f64::INFINITY, q);
    // d0 holds diagonal k-2, d1 holds k-1, d2 receives k. w* track the slot
    // ranges each buffer has valid (non-INF) data in, so recycled buffers
    // can be wiped in O(band width) instead of O(m).
    d0[0] = 0.0; // D[0][0]
    let (mut w0, mut w1, mut w2) = ((0usize, 0usize), (1usize, 0usize), (1usize, 0usize));
    for k in 2..=(m + n) {
        // Wipe the stale diagonal (k - 3) this buffer last held: afterwards
        // every slot outside the freshly written range reads as INF, which
        // is exactly the value of boundary and out-of-band cells.
        if w2.0 <= w2.1 {
            d2[w2.0..=w2.1].fill(f64::INFINITY);
        }
        let (lo, hi) = band.diag_range(k, m, n);
        if lo <= hi {
            let w = hi - lo + 1;
            // Reversed q makes both series read forward along the diagonal:
            // q[j-1] = q[k-i-1] = rev[i + n - k].
            let dst = &mut d2[lo..lo + w];
            let lefts = &d1[lo..lo + w]; // D[i][j-1]
            let ups = &d1[lo - 1..lo - 1 + w]; // D[i-1][j]
            let diags = &d0[lo - 1..lo - 1 + w]; // D[i-1][j-1]
            let ps = &p[lo - 1..lo - 1 + w];
            let qs = &rev[lo + n - k..lo + n - k + w];
            for t in 0..w {
                let i = lo + t;
                let cost = wpair(i - 1, k - i - 1) * (ps[t] - qs[t]).abs();
                let best = lefts[t].min(ups[t]).min(diags[t]);
                dst[t] = if best.is_finite() {
                    cost + best
                } else {
                    f64::INFINITY
                };
            }
        }
        w2 = (lo, hi);
        // Rotate: (k-1, k, stale) become (k-2, k-1, target) of the next k.
        let (td, tw) = (d0, w0);
        d0 = d1;
        w0 = w1;
        d1 = d2;
        w1 = w2;
        d2 = td;
        w2 = tw;
    }
    d1[m] // diagonal m + n, cell (m, n)
}

/// `min` as one compare-select: exact when neither operand is NaN and no
/// zero is `-0.0`.
#[inline(always)]
fn select_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Row-major early-abandoning evaluation of Eq. 2 over the admissible
/// segment of each row, using two recycled rows from `scratch`. Returns
/// `None` as soon as every cell of a row exceeds `best_so_far` (DP values
/// only grow down the matrix, so such a row can never recover), and
/// `D[m][n]` otherwise, which is non-finite iff the band admits no
/// complete warping path.
///
/// Per cell, `min(up, diag)` and the point cost depend only on the
/// previous row, so the serial chain along the row is `left → min → add`.
/// `UNIFORM` (every weight 1) cells are `+0.0`, positive or `+inf` for
/// finite inputs — never NaN or `-0.0` — so a plain compare-select is an
/// exact `min` there and an infinite `best` already yields an infinite
/// cell. Weighted cells keep `f64::min`, which skips the NaN that a zero
/// weight times an overflowed `|p - q|` makes, and the wavefront's finite
/// test.
fn early_abandon_dtw<const UNIFORM: bool, F: Fn(usize, usize) -> f64>(
    p: &[f64],
    q: &[f64],
    band: Band,
    best_so_far: f64,
    scratch: &mut DpScratch,
    wpair: &F,
) -> Option<f64> {
    let (m, n) = (p.len(), q.len());
    let (mut prev, mut curr) = scratch.rows(n + 1, f64::INFINITY);
    prev[0] = 0.0;
    // Slot ranges each row buffer holds valid data in (row 0: slot 0).
    let mut w_prev = (0usize, 0usize);
    let mut w_curr = (1usize, 0usize);
    for (i, &pi) in (1..=m).zip(p) {
        // Wipe the stale row i-2 this buffer last held; every slot
        // outside the segment written below then reads as INF.
        if w_curr.0 <= w_curr.1 {
            curr[w_curr.0..=w_curr.1].fill(f64::INFINITY);
        }
        let (lo, hi) = band.row_range(i, m, n);
        let mut row_min = f64::INFINITY;
        if lo <= hi {
            // D[i][lo-1] is a boundary or out-of-band cell.
            let mut left = f64::INFINITY;
            let cells = curr[lo..=hi]
                .iter_mut()
                .zip(&prev[lo..=hi]) // D[i-1][j]
                .zip(&prev[lo - 1..hi]) // D[i-1][j-1]
                .zip(&q[lo - 1..hi]);
            for (j, (((out, &up), &diag), &qj)) in (lo..).zip(cells) {
                left = if UNIFORM {
                    select_min(left, select_min(up, diag)) + (pi - qj).abs()
                } else {
                    let cost = wpair(i - 1, j - 1) * (pi - qj).abs();
                    let best = left.min(up.min(diag));
                    if best.is_finite() {
                        cost + best
                    } else {
                        f64::INFINITY
                    }
                };
                *out = left;
                row_min = if UNIFORM {
                    select_min(row_min, left)
                } else {
                    row_min.min(left)
                };
            }
        }
        if row_min > best_so_far {
            return None;
        }
        w_curr = (lo, hi);
        std::mem::swap(&mut prev, &mut curr);
        std::mem::swap(&mut w_prev, &mut w_curr);
    }
    Some(prev[n])
}

/// Candidates [`Dtw::distance_early_abandon_lanes`] scores in one pass.
pub const LANES: usize = 4;

/// [`early_abandon_dtw`] with uniform weights over one to [`LANES`]
/// candidates of one length. The candidates sit transposed in `scratch`
/// (slot `j` holds element `j` of each) and each DP cell is
/// `[f64; LANES]`. Every lane does the scalar kernel's cell operations in
/// its order and keeps its own row minimum, so its value is bitwise the
/// scalar kernel's. Lanes past `candidates.len()` start dead, a lane dies
/// once its row minimum exceeds `best_so_far`, and the pass stops once
/// every lane is dead. Returns each live lane's `D[m][n]` and `None` for a
/// dead one. The lane loops are plain arrays, which the compiler
/// vectorizes.
fn early_abandon_dtw_lanes(
    p: &[f64],
    candidates: &[&[f64]],
    band: Band,
    best_so_far: f64,
    scratch: &mut DpScratch,
) -> [Option<f64>; LANES] {
    let (m, n) = (p.len(), candidates[0].len());
    let mut live: [bool; LANES] = std::array::from_fn(|l| l < candidates.len());
    let (mut prev, mut curr, qs) = scratch.lanes(n + 1, f64::INFINITY, candidates);
    prev[0] = [0.0; LANES];
    for (i, &pi) in (1..=m).zip(p) {
        let (lo, hi) = band.row_range(i, m, n);
        if lo > hi {
            // Every warping path crosses every row, so `D[m][n]` is +inf
            // in each lane this all-inf row does not abandon.
            let abandoned = f64::INFINITY > best_so_far;
            return std::array::from_fn(|l| (live[l] && !abandoned).then_some(f64::INFINITY));
        }
        // The next row reads slots `lo' - 1 ..= hi'` of this one, and both
        // ends only grow: `lo..=hi` is written below and no earlier row in
        // this buffer reached past `hi`, so only the stale slot `lo - 1`
        // must become the out-of-band +inf.
        curr[lo - 1] = [f64::INFINITY; LANES];
        let mut left = [f64::INFINITY; LANES];
        let mut row_min = [f64::INFINITY; LANES];
        let cells = curr[lo..=hi]
            .iter_mut()
            .zip(&prev[lo..=hi])
            .zip(&prev[lo - 1..hi])
            .zip(&qs[lo - 1..hi]);
        for (((out, up), diag), qj) in cells {
            for l in 0..LANES {
                left[l] = select_min(left[l], select_min(up[l], diag[l])) + (pi - qj[l]).abs();
                row_min[l] = select_min(row_min[l], left[l]);
            }
            *out = left;
        }
        // The scalar kernel's test, `row_min > best_so_far`: a NaN on
        // either side abandons nothing.
        for (alive, row_min) in live.iter_mut().zip(row_min) {
            *alive &= row_min.partial_cmp(&best_so_far) != Some(Ordering::Greater);
        }
        if live == [false; LANES] {
            return [None; LANES];
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    std::array::from_fn(|l| live[l].then_some(prev[n][l]))
}

/// The error the DTW kernels return when the band admits no complete
/// warping path.
fn band_too_narrow(m: usize, n: usize) -> DistanceError {
    DistanceError::InvalidParameter {
        name: "band",
        reason: format!("band too narrow: no admissible warping path for lengths {m} and {n}"),
    }
}

impl Dtw {
    /// DTW with no band constraint and uniform weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the global path constraint.
    #[must_use]
    pub fn with_band(mut self, band: Band) -> Self {
        self.band = band;
        self
    }

    /// Sets per-cell weights (weighted DTW).
    #[must_use]
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// The configured band.
    pub fn band(&self) -> Band {
        self.band
    }

    /// The configured weights.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Computes the full DP matrix (including the infinite boundary row and
    /// column). Cell `(i, j)` of the result is `D[i][j]` of Eq. 2.
    ///
    /// This row-major full-matrix form is the semantic reference the
    /// wavefront kernels are checked against (bitwise, by the `kernels`
    /// bench identity gate).
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::EmptySequence`] for empty inputs or
    /// [`DistanceError::WeightShape`] if the weights don't cover `m x n`.
    pub fn matrix(&self, p: &[f64], q: &[f64]) -> Result<DpMatrix, DistanceError> {
        if p.is_empty() || q.is_empty() {
            return Err(DistanceError::EmptySequence);
        }
        let (m, n) = (p.len(), q.len());
        self.weights.check_pair_shape(m, n)?;

        let mut d = DpMatrix::filled(m + 1, n + 1, f64::INFINITY);
        d.set(0, 0, 0.0);
        for i in 1..=m {
            for j in 1..=n {
                if !self.band.admissible(i, j, m, n) {
                    continue;
                }
                let cost = self.weights.pair(i - 1, j - 1) * (p[i - 1] - q[j - 1]).abs();
                let best = d.at(i, j - 1).min(d.at(i - 1, j)).min(d.at(i - 1, j - 1));
                if best.is_finite() {
                    d.set(i, j, cost + best);
                }
            }
        }
        Ok(d)
    }

    /// Computes the DTW distance using O(n) memory (three anti-diagonal
    /// buffers, wavefront order).
    ///
    /// This is the variant benchmarked as the CPU baseline — what an
    /// optimized software implementation (the paper's MSVC `-O2` C code)
    /// would use. Bitwise-identical to [`Dtw::matrix`]'s final value.
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn distance(&self, p: &[f64], q: &[f64]) -> Result<f64, DistanceError> {
        self.distance_with(p, q, &mut DpScratch::new())
    }

    /// [`Dtw::distance`] with caller-provided scratch buffers: batch
    /// workloads reuse one [`DpScratch`] per worker thread instead of
    /// allocating DP buffers per pair.
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn distance_with(
        &self,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, DistanceError> {
        if p.is_empty() || q.is_empty() {
            return Err(DistanceError::EmptySequence);
        }
        let (m, n) = (p.len(), q.len());
        self.weights.check_pair_shape(m, n)?;

        let v = match &self.weights {
            Weights::Uniform => wavefront_dtw(p, q, self.band, scratch, &|_, _| 1.0),
            w => wavefront_dtw(p, q, self.band, scratch, &|i, j| w.pair(i, j)),
        };
        if v.is_finite() {
            Ok(v)
        } else {
            Err(band_too_narrow(m, n))
        }
    }

    /// Computes the DTW distance with **early abandoning**: if every cell of
    /// some DP row already exceeds `best_so_far`, no warping path can beat
    /// it, and the computation stops, returning `None`.
    ///
    /// This is the row-wise abandoning of the UCR suite (the paper's
    /// reference \[24\]); [`crate::lower_bounds::Cascade`] tries the
    /// cheaper LB_Kim/LB_Keogh first and calls this as its final stage.
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn distance_early_abandon(
        &self,
        p: &[f64],
        q: &[f64],
        best_so_far: f64,
    ) -> Result<Option<f64>, DistanceError> {
        self.distance_early_abandon_with(p, q, best_so_far, &mut DpScratch::new())
    }

    /// [`Dtw::distance_early_abandon`] with caller-provided scratch rows.
    ///
    /// Stays row-major (abandonment is a per-row decision) and touches only
    /// the admissible column segment of each row ([`Band::row_range`]),
    /// wiping just the segment the recycled row buffer held before. The
    /// cell `D[i][j-1]` is carried in a register, so the row's serial
    /// dependency chain is one `min` and one `add` per cell. With finite
    /// inputs, a result is bitwise the value [`Dtw::distance_with`]
    /// returns.
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn distance_early_abandon_with(
        &self,
        p: &[f64],
        q: &[f64],
        best_so_far: f64,
        scratch: &mut DpScratch,
    ) -> Result<Option<f64>, DistanceError> {
        if p.is_empty() || q.is_empty() {
            return Err(DistanceError::EmptySequence);
        }
        let (m, n) = (p.len(), q.len());
        self.weights.check_pair_shape(m, n)?;

        let v = match &self.weights {
            Weights::Uniform => {
                early_abandon_dtw::<true, _>(p, q, self.band, best_so_far, scratch, &|_, _| 1.0)
            }
            w => early_abandon_dtw::<false, _>(p, q, self.band, best_so_far, scratch, &|i, j| {
                w.pair(i, j)
            }),
        };
        let Some(v) = v else {
            return Ok(None);
        };
        if !v.is_finite() {
            return Err(band_too_narrow(m, n));
        }
        Ok((v <= best_so_far).then_some(v))
    }

    /// [`Dtw::distance_early_abandon_with`] for one to [`LANES`] candidates
    /// of one length in a single row-major pass: lane `l` of the result is
    /// bitwise what `distance_early_abandon_with(p, candidates[l],
    /// best_so_far, scratch)` returns, and lanes past `candidates.len()` are
    /// `None`. With uniform weights the candidates advance together, each
    /// DP cell holding every lane's value, and the pass stops once every
    /// lane is abandoned; weighted DTW scores them one at a time.
    ///
    /// # Errors
    ///
    /// [`DistanceError::InvalidParameter`] for no or more than [`LANES`]
    /// candidates, [`DistanceError::LengthMismatch`] for candidates of
    /// different lengths, and otherwise the error of the first candidate
    /// whose scalar call fails.
    pub fn distance_early_abandon_lanes(
        &self,
        p: &[f64],
        candidates: &[&[f64]],
        best_so_far: f64,
        scratch: &mut DpScratch,
    ) -> Result<[Option<f64>; LANES], DistanceError> {
        if candidates.is_empty() || candidates.len() > LANES {
            return Err(DistanceError::InvalidParameter {
                name: "candidates",
                reason: format!("{} candidates; a pass takes 1 to {LANES}", candidates.len()),
            });
        }
        let n = candidates[0].len();
        if let Some(c) = candidates.iter().find(|c| c.len() != n) {
            return Err(DistanceError::LengthMismatch {
                left: n,
                right: c.len(),
            });
        }
        let mut out = [None; LANES];
        if !matches!(self.weights, Weights::Uniform) {
            for (o, q) in out.iter_mut().zip(candidates) {
                *o = self.distance_early_abandon_with(p, q, best_so_far, scratch)?;
            }
            return Ok(out);
        }
        if p.is_empty() || n == 0 {
            return Err(DistanceError::EmptySequence);
        }
        let lanes = early_abandon_dtw_lanes(p, candidates, self.band, best_so_far, scratch);
        for (o, v) in out.iter_mut().zip(lanes) {
            let Some(v) = v else { continue };
            if !v.is_finite() {
                return Err(band_too_narrow(p.len(), n));
            }
            *o = (v <= best_so_far).then_some(v);
        }
        Ok(out)
    }

    /// The path-length-normalized DTW distance: `DTW(P, Q) / |path|`.
    ///
    /// Normalization makes distances comparable across sequence lengths — a
    /// common post-processing step in classification pipelines (the
    /// accelerator's ADC read-out can be scaled identically in digital).
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn normalized_distance(&self, p: &[f64], q: &[f64]) -> Result<f64, DistanceError> {
        let path = self.warping_path(p, q)?;
        let d = self.distance(p, q)?;
        Ok(d / path.len() as f64)
    }

    /// Recovers an optimal warping path from the DP matrix, as a sequence of
    /// `(i, j)` steps from `(1, 1)` to `(m, n)`.
    ///
    /// # Errors
    ///
    /// Same as [`Dtw::matrix`].
    pub fn warping_path(&self, p: &[f64], q: &[f64]) -> Result<Vec<PathStep>, DistanceError> {
        let d = self.matrix(p, q)?;
        let (mut i, mut j) = (p.len(), q.len());
        let mut path = vec![(i, j)];
        while (i, j) != (1, 1) {
            let diag = if i > 1 && j > 1 {
                d.at(i - 1, j - 1)
            } else {
                f64::INFINITY
            };
            let up = if i > 1 { d.at(i - 1, j) } else { f64::INFINITY };
            let left = if j > 1 { d.at(i, j - 1) } else { f64::INFINITY };
            // Prefer the diagonal on ties — shortest path, matching the
            // accelerator's analog min which has no tie-break preference but
            // produces the same scalar distance.
            if diag <= up && diag <= left {
                i -= 1;
                j -= 1;
            } else if up <= left {
                i -= 1;
            } else {
                j -= 1;
            }
            path.push((i, j));
        }
        path.reverse();
        Ok(path)
    }
}

impl Distance for Dtw {
    fn evaluate(&self, p: &[f64], q: &[f64]) -> Result<f64, DistanceError> {
        self.distance(p, q)
    }

    fn evaluate_with(
        &self,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, DistanceError> {
        self.distance_with(p, q, scratch)
    }

    fn kind(&self) -> DistanceKind {
        DistanceKind::Dtw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_have_zero_distance() {
        let p = [1.0, 2.0, 3.0, 2.5];
        assert_eq!(Dtw::new().distance(&p, &p).unwrap(), 0.0);
    }

    #[test]
    fn single_elements_reduce_to_absolute_difference() {
        assert_eq!(Dtw::new().distance(&[3.0], &[5.5]).unwrap(), 2.5);
    }

    #[test]
    fn known_small_example() {
        // P = [0, 1], Q = [0, 1, 1]: the extra 1 warps onto P's 1 for free.
        assert_eq!(
            Dtw::new().distance(&[0.0, 1.0], &[0.0, 1.0, 1.0]).unwrap(),
            0.0
        );
        // P = [0, 2], Q = [1]: both elements align to 1 -> |0-1| + |2-1| = 2.
        assert_eq!(Dtw::new().distance(&[0.0, 2.0], &[1.0]).unwrap(), 2.0);
    }

    #[test]
    fn symmetric_for_equal_band() {
        let p = [0.1, 0.9, 0.4, -0.3, 0.0];
        let q = [0.0, 1.0, 0.5, -0.5, 0.2];
        let dtw = Dtw::new();
        assert_eq!(dtw.distance(&p, &q).unwrap(), dtw.distance(&q, &p).unwrap());
    }

    #[test]
    fn matrix_final_value_matches_distance() {
        let p = [0.0, 1.5, 0.3, 2.2];
        let q = [0.1, 1.2, 0.0];
        let dtw = Dtw::new();
        let m = dtw.matrix(&p, &q).unwrap();
        assert!((m.final_value() - dtw.distance(&p, &q).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn wavefront_matches_matrix_bitwise() {
        // The anti-diagonal kernel must reproduce the row-major reference
        // exactly (same op order per cell), across lengths, length skews and
        // band radii — including bands so narrow some rows are empty.
        let series: Vec<f64> = (0..40)
            .map(|i| ((i * 37 % 17) as f64 - 8.0) * 0.37 + ((i * 11 % 5) as f64) * 0.11)
            .collect();
        for (m, n) in [
            (1usize, 1usize),
            (1, 7),
            (7, 1),
            (2, 2),
            (5, 5),
            (8, 3),
            (3, 8),
            (17, 17),
            (17, 40),
            (40, 17),
        ] {
            let p = &series[..m];
            let q = &series[40 - n..];
            for band in [
                Band::Full,
                Band::SakoeChiba(0),
                Band::SakoeChiba(1),
                Band::SakoeChiba(2),
                Band::SakoeChiba(5),
                Band::SakoeChiba(50),
            ] {
                let dtw = Dtw::new().with_band(band);
                let reference = dtw.matrix(p, q).unwrap().final_value();
                match dtw.distance(p, q) {
                    Ok(v) => assert_eq!(
                        v.to_bits(),
                        reference.to_bits(),
                        "m={m} n={n} band={band:?}: wavefront {v} != reference {reference}"
                    ),
                    Err(_) => assert!(
                        !reference.is_finite(),
                        "m={m} n={n} band={band:?}: wavefront errored but reference finite"
                    ),
                }
            }
        }
    }

    #[test]
    fn wavefront_matches_matrix_bitwise_weighted() {
        let p = [0.2, 1.3, -0.4, 0.8, 0.0];
        let q = [0.0, 1.0, 0.0, 1.0];
        let w = Weights::per_pair(5, 4, (0..20).map(|i| 0.5 + (i % 3) as f64).collect()).unwrap();
        for band in [Band::Full, Band::SakoeChiba(1), Band::SakoeChiba(2)] {
            let dtw = Dtw::new().with_band(band).with_weights(w.clone());
            let reference = dtw.matrix(&p, &q).unwrap().final_value();
            match dtw.distance(&p, &q) {
                Ok(v) => assert_eq!(v.to_bits(), reference.to_bits(), "band={band:?}"),
                Err(_) => assert!(!reference.is_finite(), "band={band:?}"),
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_clean() {
        // A large evaluation must not leave state that corrupts a smaller
        // one (and vice versa) when the same scratch is reused.
        let mut scratch = DpScratch::new();
        let big_p: Vec<f64> = (0..33).map(|i| (i as f64 * 0.21).sin()).collect();
        let big_q: Vec<f64> = (0..29).map(|i| (i as f64 * 0.19).cos()).collect();
        let small_p = [0.5, -1.0];
        let small_q = [0.25];
        let dtw = Dtw::new();
        let b1 = dtw.distance(&big_p, &big_q).unwrap();
        let s1 = dtw.distance(&small_p, &small_q).unwrap();
        for _ in 0..3 {
            assert_eq!(dtw.distance_with(&big_p, &big_q, &mut scratch).unwrap(), b1);
            assert_eq!(
                dtw.distance_with(&small_p, &small_q, &mut scratch).unwrap(),
                s1
            );
        }
    }

    #[test]
    fn row_and_diag_ranges_match_admissible() {
        // The closed-form ranges must enumerate exactly the admissible
        // cells, for every small (m, n, r) and for the full band.
        for m in 1usize..=12 {
            for n in 1usize..=12 {
                let mut bands = vec![Band::Full];
                bands.extend((0usize..=6).map(Band::SakoeChiba));
                for band in bands {
                    for i in 1..=m {
                        let (lo, hi) = band.row_range(i, m, n);
                        for j in 1..=n {
                            assert_eq!(
                                lo <= j && j <= hi,
                                band.admissible(i, j, m, n),
                                "row_range {band:?} m={m} n={n} cell ({i}, {j})"
                            );
                        }
                    }
                    for k in 2..=(m + n) {
                        let (lo, hi) = band.diag_range(k, m, n);
                        for i in 1..=m {
                            let in_range = lo <= i && i <= hi;
                            let interior = k > i && k - i <= n;
                            let admissible = interior && band.admissible(i, k - i, m, n);
                            assert_eq!(
                                in_range, admissible,
                                "diag_range {band:?} m={m} n={n} k={k} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn admits_path_agrees_with_the_matrix() {
        for m in 1usize..=12 {
            for n in 1usize..=12 {
                let mut bands = vec![Band::Full];
                bands.extend((0usize..=6).map(Band::SakoeChiba));
                for band in bands {
                    let d = Dtw::new()
                        .with_band(band)
                        .matrix(&vec![0.0; m], &vec![0.0; n])
                        .unwrap();
                    assert_eq!(
                        band.admits_path(m, n),
                        d.final_value().is_finite(),
                        "{band:?} m={m} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn band_constraint_never_decreases_distance() {
        let p: Vec<f64> = (0..20).map(|i| ((i as f64) * 0.7).sin()).collect();
        let q: Vec<f64> = (0..20).map(|i| ((i as f64) * 0.7 + 1.0).sin()).collect();
        let full = Dtw::new().distance(&p, &q).unwrap();
        for r in 1..20 {
            let banded = Dtw::new()
                .with_band(Band::SakoeChiba(r))
                .distance(&p, &q)
                .unwrap();
            assert!(
                banded >= full - 1e-12,
                "banded DTW (r={r}) must be >= unconstrained DTW"
            );
        }
    }

    #[test]
    fn wide_band_equals_full() {
        let p = [0.0, 1.0, 0.5, 0.2, 0.9];
        let q = [0.1, 0.8, 0.6, 0.0, 1.0];
        let full = Dtw::new().distance(&p, &q).unwrap();
        let wide = Dtw::new()
            .with_band(Band::SakoeChiba(5))
            .distance(&p, &q)
            .unwrap();
        assert_eq!(full, wide);
    }

    #[test]
    fn weighted_dtw_scales_costs() {
        let p = [0.0, 1.0];
        let q = [1.0, 1.0];
        // Unweighted: |0-1| + min path = 1.0
        let unweighted = Dtw::new().distance(&p, &q).unwrap();
        assert_eq!(unweighted, 1.0);
        // Double every weight: distance doubles.
        let w = Weights::per_pair(2, 2, vec![2.0; 4]).unwrap();
        let weighted = Dtw::new().with_weights(w).distance(&p, &q).unwrap();
        assert_eq!(weighted, 2.0);
    }

    #[test]
    fn normalized_distance_is_scale_stable() {
        // Doubling the length of a pair (by repetition) roughly preserves
        // the normalized distance while the raw distance doubles.
        let p = [0.0, 1.0, 0.0, 1.0];
        let q = [0.2, 0.8, 0.2, 0.8];
        let p2: Vec<f64> = p.iter().chain(&p).copied().collect();
        let q2: Vec<f64> = q.iter().chain(&q).copied().collect();
        let dtw = Dtw::new();
        let raw1 = dtw.distance(&p, &q).unwrap();
        let raw2 = dtw.distance(&p2, &q2).unwrap();
        assert!(raw2 > raw1 * 1.5);
        let n1 = dtw.normalized_distance(&p, &q).unwrap();
        let n2 = dtw.normalized_distance(&p2, &q2).unwrap();
        assert!((n1 - n2).abs() < n1 * 0.5, "normalized {n1} vs {n2}");
    }

    #[test]
    fn early_abandon_agrees_with_full_distance() {
        let p: Vec<f64> = (0..16).map(|i| (i as f64 * 0.45).sin() * 2.0).collect();
        let q: Vec<f64> = (0..16)
            .map(|i| (i as f64 * 0.45 + 0.7).sin() * 2.0)
            .collect();
        let dtw = Dtw::new();
        let full = dtw.distance(&p, &q).unwrap();
        // Generous budget: must return the exact value.
        assert_eq!(
            dtw.distance_early_abandon(&p, &q, full + 1.0).unwrap(),
            Some(full)
        );
        // Exact budget: still returned (<=).
        assert_eq!(
            dtw.distance_early_abandon(&p, &q, full).unwrap(),
            Some(full)
        );
        // Budget below the true distance: abandoned.
        assert_eq!(
            dtw.distance_early_abandon(&p, &q, full * 0.5).unwrap(),
            None
        );
    }

    #[test]
    fn early_abandon_never_false_abandons() {
        // Across a sweep of budgets, abandoning must happen exactly when the
        // true distance exceeds the budget.
        let p: Vec<f64> = (0..12).map(|i| ((i * 3) % 7) as f64 * 0.4).collect();
        let q: Vec<f64> = (0..12).map(|i| ((i * 5) % 6) as f64 * 0.5).collect();
        let dtw = Dtw::new().with_band(Band::SakoeChiba(3));
        let full = dtw.distance(&p, &q).unwrap();
        for k in 0..10 {
            let budget = full * (0.2 + 0.2 * k as f64);
            let result = dtw.distance_early_abandon(&p, &q, budget).unwrap();
            if budget >= full {
                assert_eq!(result, Some(full), "budget {budget}");
            } else {
                assert_eq!(result, None, "budget {budget}");
            }
        }
    }

    #[test]
    fn early_abandon_matches_distance_on_unequal_lengths_and_bands() {
        // The segment-walking early-abandon kernel must agree exactly with
        // the wavefront distance when given an infinite budget, including on
        // skewed shapes and narrow bands.
        let series: Vec<f64> = (0..30)
            .map(|i| ((i * 13 % 23) as f64 - 11.0) * 0.29)
            .collect();
        for (m, n) in [(1usize, 1usize), (4, 9), (9, 4), (15, 15), (30, 7)] {
            let p = &series[..m];
            let q = &series[30 - n..];
            for band in [Band::Full, Band::SakoeChiba(2), Band::SakoeChiba(6)] {
                let dtw = Dtw::new().with_band(band);
                match dtw.distance(p, q) {
                    Ok(full) => {
                        let ea = dtw
                            .distance_early_abandon(p, q, f64::INFINITY)
                            .unwrap()
                            .unwrap();
                        assert_eq!(ea.to_bits(), full.to_bits(), "m={m} n={n} band={band:?}");
                    }
                    Err(_) => {
                        assert!(
                            dtw.distance_early_abandon(p, q, f64::INFINITY).is_err(),
                            "m={m} n={n} band={band:?}: error paths must agree"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warping_path_endpoints_and_monotonicity() {
        let p = [0.0, 1.0, 2.0, 1.0];
        let q = [0.0, 2.0, 1.0];
        let path = Dtw::new().warping_path(&p, &q).unwrap();
        assert_eq!(*path.first().unwrap(), (1, 1));
        assert_eq!(*path.last().unwrap(), (4, 3));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0, "path must be monotone");
            assert!(i1 - i0 <= 1 && j1 - j0 <= 1, "path must be contiguous");
        }
    }

    #[test]
    fn path_cost_equals_distance() {
        let p = [0.2, 1.3, -0.4, 0.8, 0.0];
        let q = [0.0, 1.0, 0.0, 1.0];
        let dtw = Dtw::new();
        let path = dtw.warping_path(&p, &q).unwrap();
        let cost: f64 = path.iter().map(|&(i, j)| (p[i - 1] - q[j - 1]).abs()).sum();
        assert!((cost - dtw.distance(&p, &q).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            Dtw::new().distance(&[], &[1.0]).unwrap_err(),
            DistanceError::EmptySequence
        );
    }

    #[test]
    fn too_narrow_band_on_unequal_lengths_is_an_error_not_infinity() {
        // m = 10 vs n = 1: with the diagonal correction a radius-1 band still
        // admits a path, so pick an extreme case via admissibility itself.
        let p = vec![0.0; 4];
        let q = vec![0.0; 4];
        // Radius 0 still admits the main diagonal for equal lengths.
        let d = Dtw::new()
            .with_band(Band::SakoeChiba(0))
            .distance(&p, &q)
            .unwrap();
        assert_eq!(d, 0.0);
    }

    #[test]
    fn five_percent_band_matches_paper_power_analysis() {
        // R = 5% * n, minimum 1.
        assert_eq!(Band::five_percent(128), Band::SakoeChiba(7));
        assert_eq!(Band::five_percent(40), Band::SakoeChiba(2));
        assert_eq!(Band::five_percent(10), Band::SakoeChiba(1));
    }

    #[test]
    fn active_cells_counts_band_area() {
        // Full band over 4x4 = 16 cells.
        assert_eq!(Band::Full.active_cells(4, 4), 16);
        // Radius-0 band over equal lengths = the diagonal.
        assert_eq!(Band::SakoeChiba(0).active_cells(4, 4), 4);
        let r1 = Band::SakoeChiba(1).active_cells(4, 4);
        assert!(r1 > 4 && r1 < 16);
    }

    #[test]
    fn band_edge_is_exact_on_unequal_lengths() {
        // For every small (m, n, r), admissibility must equal the exact
        // rational predicate |j - i*n/m| <= r — in particular cells landing
        // exactly ON the edge are in, and one past it are out.
        for m in 1usize..=12 {
            for n in 1usize..=12 {
                for r in 0usize..=6 {
                    let band = Band::SakoeChiba(r);
                    for i in 1..=m {
                        for j in 1..=n {
                            let exact = (j as i64 * m as i64 - i as i64 * n as i64).abs()
                                <= r as i64 * m as i64;
                            assert_eq!(
                                band.admissible(i, j, m, n),
                                exact,
                                "m={m} n={n} r={r} cell ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn band_edge_exact_at_large_lengths() {
        // Products i*n beyond 2^53 lose integer precision in f64; the exact
        // integer predicate must still classify edge cells correctly. Cell
        // (i, j) with j*m - i*n == r*m sits exactly on the edge; j+1 is out.
        let (m, n, r) = (123_456_791usize, 987_654_321usize, 5usize);
        let i = m / 2;
        // Pick the exact-edge column for this row: j*m = i*n + r*m requires
        // divisibility, so instead test the outermost admissible column and
        // its neighbour straddling the edge.
        let num = i as i128 * n as i128;
        let rm = r as i128 * m as i128;
        let j_in = ((num + rm) / m as i128) as usize; // floor -> inside
        let j_out = j_in + 1; // strictly past the upper edge
        let band = Band::SakoeChiba(r);
        assert!(band.admissible(i, j_in, m, n));
        assert!(!band.admissible(i, j_out, m, n));
        // row_range must agree with the straddle.
        let (lo, hi) = band.row_range(i, m, n);
        assert!(lo <= j_in && j_in <= hi);
        assert!(j_out > hi);
    }

    #[test]
    fn wide_band_equals_full_on_unequal_lengths() {
        // r >= max(m, n) admits every cell, so banded == unbanded even when
        // the lengths differ.
        let p = [0.0, 1.0, 0.5, 0.2, 0.9, -0.3, 0.7];
        let q = [0.1, 0.8, 0.6, 0.0];
        let (m, n) = (p.len(), q.len());
        let r = m.max(n);
        assert_eq!(
            Band::SakoeChiba(r).active_cells(m, n),
            Band::Full.active_cells(m, n)
        );
        let full = Dtw::new().distance(&p, &q).unwrap();
        let banded = Dtw::new()
            .with_band(Band::SakoeChiba(r))
            .distance(&p, &q)
            .unwrap();
        assert_eq!(full, banded);
    }
}
