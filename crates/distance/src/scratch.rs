//! Reusable dynamic-programming scratch buffers.
//!
//! The DP kernels ([`crate::Dtw::distance`] and friends) need a handful of
//! working rows per evaluation. Allocating them per pair is invisible for a
//! single distance call but dominates small-kernel batch workloads (millions
//! of pairs in a motif search). A [`DpScratch`] owns every working buffer the
//! kernels and the pruning cascade need and hands them out re-initialized, so
//! a worker thread can stream an arbitrary number of pairs through one set of
//! allocations:
//!
//! * two (row-major early abandoning) or three (anti-diagonal wavefront)
//!   DP rows,
//! * a reversed copy of the second series, so wavefront kernels read both
//!   series forward along an anti-diagonal,
//! * two lane rows and a transposed candidate block for the lane-batched
//!   early-abandoning DTW kernel ([`crate::Dtw::distance_early_abandon_lanes`]),
//! * candidate-envelope and deque buffers for the O(n) Lemire envelope pass
//!   of the UCR pruning cascade. The query's envelope is not here: a
//!   [`Cascade`](crate::lower_bounds::Cascade) owns it, built once per
//!   query.

use crate::dtw::LANES;

/// One DP cell, or one candidate element, of every lane of the
/// lane-batched kernel.
type LaneCell = [f64; LANES];

/// Reusable DP buffer set shared by the kernels and the pruning cascade.
///
/// ```
/// use mda_distance::{Dtw, DpScratch};
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let dtw = Dtw::new();
/// let mut scratch = DpScratch::new();
/// // Both calls reuse the same backing allocations.
/// let a = dtw.distance_with(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0], &mut scratch)?;
/// let b = dtw.distance_with(&[0.0, 1.0], &[2.0, 3.0], &mut scratch)?;
/// assert_eq!(a, 0.0);
/// assert_eq!(b, 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    pub(crate) prev: Vec<f64>,
    pub(crate) curr: Vec<f64>,
    /// Third row for the anti-diagonal wavefront kernels (diagonal `k - 2`).
    pub(crate) diag: Vec<f64>,
    /// Reversed copy of the second series for wavefront kernels.
    pub(crate) rev: Vec<f64>,
    /// DP rows of the lane-batched kernel: cell `j` holds every lane's
    /// `D[i][j]`.
    pub(crate) lane_prev: Vec<LaneCell>,
    pub(crate) lane_curr: Vec<LaneCell>,
    /// The lane-batched kernel's candidates, transposed: slot `j` holds
    /// element `j` of every candidate.
    pub(crate) lane_q: Vec<LaneCell>,
    /// Candidate envelope buffers (recomputed per candidate, reused).
    pub(crate) ce_upper: Vec<f64>,
    pub(crate) ce_lower: Vec<f64>,
    /// Index deque for the Lemire monotonic-deque envelope pass.
    pub(crate) deque: Vec<usize>,
}

impl DpScratch {
    /// An empty scratch; buffers grow on first use and are retained
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for sequences up to `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        DpScratch {
            prev: Vec::with_capacity(n + 2),
            curr: Vec::with_capacity(n + 2),
            diag: Vec::with_capacity(n + 2),
            rev: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Two rows of `len` elements, every cell set to `fill`. Reuses the
    /// backing allocations; only grows when `len` exceeds the capacity.
    pub fn rows(&mut self, len: usize, fill: f64) -> (&mut Vec<f64>, &mut Vec<f64>) {
        self.prev.clear();
        self.prev.resize(len, fill);
        self.curr.clear();
        self.curr.resize(len, fill);
        (&mut self.prev, &mut self.curr)
    }

    /// Three wavefront diagonals of `len` elements plus a reversed copy of
    /// `q`, every diagonal cell set to `fill`.
    pub(crate) fn wavefront(
        &mut self,
        len: usize,
        fill: f64,
        q: &[f64],
    ) -> ([&mut Vec<f64>; 3], &[f64]) {
        for buf in [&mut self.prev, &mut self.curr, &mut self.diag] {
            buf.clear();
            buf.resize(len, fill);
        }
        self.rev.clear();
        self.rev.extend(q.iter().rev());
        ([&mut self.prev, &mut self.curr, &mut self.diag], &self.rev)
    }

    /// Two lane rows of `len` cells, every lane set to `fill`, and the
    /// `candidates` (one to [`LANES`], all of one length) transposed: slot
    /// `j` holds element `j` of each, and lanes past `candidates.len()`
    /// repeat the last candidate.
    pub(crate) fn lanes(
        &mut self,
        len: usize,
        fill: f64,
        candidates: &[&[f64]],
    ) -> (&mut Vec<LaneCell>, &mut Vec<LaneCell>, &[LaneCell]) {
        for buf in [&mut self.lane_prev, &mut self.lane_curr] {
            buf.clear();
            buf.resize(len, [fill; LANES]);
        }
        let last = candidates.len() - 1;
        self.lane_q.clear();
        self.lane_q.extend(
            (0..candidates[0].len()).map(|j| std::array::from_fn(|l| candidates[l.min(last)][j])),
        );
        (&mut self.lane_prev, &mut self.lane_curr, &self.lane_q)
    }

    /// Current row capacity (elements held without reallocating).
    pub fn capacity(&self) -> usize {
        self.prev.capacity().min(self.curr.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_reinitialized_each_time() {
        let mut s = DpScratch::new();
        {
            let (prev, curr) = s.rows(4, f64::INFINITY);
            prev[0] = 0.0;
            curr[3] = 7.0;
        }
        let (prev, curr) = s.rows(4, f64::INFINITY);
        assert!(prev.iter().all(|v| v.is_infinite()));
        assert!(curr.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn capacity_is_retained_across_smaller_requests() {
        let mut s = DpScratch::new();
        s.rows(100, 0.0);
        let cap = s.capacity();
        s.rows(5, 0.0);
        assert_eq!(
            s.capacity(),
            cap,
            "shrinking a request must not shrink capacity"
        );
    }

    #[test]
    fn with_capacity_presizes() {
        let s = DpScratch::with_capacity(64);
        assert!(s.capacity() >= 65);
    }

    #[test]
    fn wavefront_reinitializes_and_reverses() {
        let mut s = DpScratch::new();
        {
            let ([d0, _, _], rev) = s.wavefront(5, f64::INFINITY, &[1.0, 2.0, 3.0]);
            assert_eq!(rev, &[3.0, 2.0, 1.0]);
            d0[0] = 0.0;
        }
        let ([d0, d1, d2], _) = s.wavefront(5, f64::INFINITY, &[4.0]);
        assert!(d0.iter().all(|v| v.is_infinite()));
        assert!(d1.iter().all(|v| v.is_infinite()));
        assert!(d2.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn lanes_transpose_and_pad_with_the_last_candidate() {
        let mut s = DpScratch::new();
        {
            let (prev, _, _) = s.lanes(3, f64::INFINITY, &[&[1.0, 2.0], &[3.0, 4.0]]);
            prev[0] = [0.0; LANES];
        }
        let (prev, curr, qs) = s.lanes(3, f64::INFINITY, &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(prev
            .iter()
            .chain(curr.iter())
            .flatten()
            .all(|v| v.is_infinite()));
        let mut want = [[3.0, 4.0]; LANES];
        want[0] = [1.0, 2.0];
        for (j, slot) in qs.iter().enumerate() {
            for (l, &v) in slot.iter().enumerate() {
                assert_eq!(v, want[l][j], "slot {j} lane {l}");
            }
        }
    }
}
