//! Dense linear solver: LU factorization with partial pivoting.
//!
//! MNA matrices for single-PE circuits are small (tens of unknowns), where a
//! dense solve beats sparse bookkeeping. Larger array-level netlists use the
//! sparse `SparseLu` in `lu.rs`.
//!
//! The workhorse is `DenseLu`, a preallocated workspace reused across
//! Newton iterations and timesteps: factors, permutation and substitution
//! scratch live in place, rows are swapped physically during pivoting so
//! the elimination inner loop runs over contiguous memory with no
//! permutation indirection, and the right-hand side is solved in place (no
//! `b.to_vec()`).

use crate::error::SpiceError;

/// A reusable dense LU workspace: preallocated factor storage and pivot
/// bookkeeping, refilled and refactored in place every solve.
#[derive(Debug, Clone)]
pub(crate) struct DenseLu {
    n: usize,
    /// Row-major factor storage; rows are *physically* permuted during
    /// pivoting so elimination and substitution never indirect through a
    /// permutation in their inner loops.
    factors: Vec<f64>,
    /// `where_from[k]` = original row now stored at physical row k.
    where_from: Vec<u32>,
}

impl DenseLu {
    pub(crate) fn new(n: usize) -> Self {
        DenseLu {
            n,
            factors: vec![0.0; n * n],
            where_from: (0..n as u32).collect(),
        }
    }

    /// Zeroes the factor storage and scatters `values` at the positions
    /// `dense_pos` (precomputed `r·n + c` per CSR slot), then factors.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] on pivot collapse.
    pub(crate) fn factor_scattered(
        &mut self,
        dense_pos: &[u32],
        values: &[f64],
    ) -> Result<(), SpiceError> {
        self.factors.fill(0.0);
        for (i, &p) in dense_pos.iter().enumerate() {
            self.factors[p as usize] = values[i];
        }
        self.factor_inner()
    }

    /// In-place LU with partial pivoting over the already-loaded storage.
    fn factor_inner(&mut self) -> Result<(), SpiceError> {
        let n = self.n;
        for (k, w) in self.where_from.iter_mut().enumerate() {
            *w = k as u32;
        }
        for k in 0..n {
            // Partial pivot: first strictly-larger magnitude wins (same
            // tie-break as the original consuming solver).
            let mut max_row = k;
            let mut max_val = self.factors[k * n + k].abs();
            for r in (k + 1)..n {
                let v = self.factors[r * n + k].abs();
                if v > max_val {
                    max_val = v;
                    max_row = r;
                }
            }
            if max_val < 1.0e-300 {
                return Err(SpiceError::SingularMatrix { pivot: k });
            }
            if max_row != k {
                let (a, b) = self.factors.split_at_mut(max_row * n);
                a[k * n..k * n + n].swap_with_slice(&mut b[..n]);
                self.where_from.swap(k, max_row);
            }
            let pivot = self.factors[k * n + k];
            let (pivot_rows, rest) = self.factors.split_at_mut((k + 1) * n);
            let pivot_row = &pivot_rows[k * n..];
            for chunk in rest.chunks_exact_mut(n) {
                let factor = chunk[k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                chunk[k] = factor;
                for c in (k + 1)..n {
                    chunk[c] -= factor * pivot_row[c];
                }
            }
        }
        Ok(())
    }

    /// Solves with the cached factors: on return `rhs` holds `x`; `y` is an
    /// n-sized scratch buffer. Allocation-free.
    pub(crate) fn solve_in_place(&self, rhs: &mut [f64], y: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(rhs.len(), n);
        debug_assert_eq!(y.len(), n);
        // Forward substitution (unit-diagonal L below the diagonal).
        for k in 0..n {
            let row = &self.factors[k * n..k * n + k];
            let mut sum = rhs[self.where_from[k] as usize];
            for (c, &l) in row.iter().enumerate() {
                sum -= l * y[c];
            }
            y[k] = sum;
        }
        // Back substitution.
        for k in (0..n).rev() {
            let row = &self.factors[k * n..(k + 1) * n];
            let mut sum = y[k];
            for c in (k + 1)..n {
                sum -= row[c] * rhs[c];
            }
            rhs[k] = sum / row[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factors the `n x n` matrix whose non-zeros are `entries`
    /// (`(row, col, value)`, one per position) through the scatter entry
    /// the MNA assembly uses.
    fn factor(n: usize, entries: &[(usize, usize, f64)]) -> Result<DenseLu, SpiceError> {
        let dense_pos: Vec<u32> = entries
            .iter()
            .map(|&(r, c, _)| (r * n + c) as u32)
            .collect();
        let values: Vec<f64> = entries.iter().map(|&(_, _, v)| v).collect();
        let mut lu = DenseLu::new(n);
        lu.factor_scattered(&dense_pos, &values)?;
        Ok(lu)
    }

    fn solve(lu: &DenseLu, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        let mut y = vec![0.0; b.len()];
        lu.solve_in_place(&mut x, &mut y);
        x
    }

    #[test]
    fn solves_identity() {
        let lu = factor(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]).unwrap();
        assert_eq!(solve(&lu, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3].
        let lu = factor(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]).unwrap();
        let x = solve(&lu, &[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] x = [2; 3] -> x = [3; 2].
        let lu = factor(2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let x = solve(&lu, &[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        assert!(matches!(
            factor(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn wide_dynamic_range() {
        // Conductance stamps span ~1e-5 .. 10 in the accelerator circuits;
        // the solver must stay accurate across that spread.
        let lu = factor(2, &[(0, 0, 1.0e-5), (1, 1, 10.0)]).unwrap();
        let x = solve(&lu, &[1.0e-5, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_roundtrip() {
        // Deterministic pseudo-random matrix; verify A*x = b residual.
        let n = 20;
        let mut seed = 12345u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut entries = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                let diagonal_dominance = if r == c { 5.0 } else { 0.0 };
                entries.push((r, c, rand() + diagonal_dominance));
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rand()).collect();
        let x = solve(&factor(n, &entries).unwrap(), &b);
        for (r, &br) in b.iter().enumerate() {
            let sum: f64 = entries[r * n..(r + 1) * n]
                .iter()
                .map(|&(_, c, v)| v * x[c])
                .sum();
            assert!((sum - br).abs() < 1e-9, "row {r} residual");
        }
    }

    #[test]
    fn workspace_reuse_is_stable() {
        // Factor the same workspace twice with different matrices; the
        // second scatter leaves the first one's positions unset, so it
        // must not see their stale factors.
        let mut lu = DenseLu::new(2);
        lu.factor_scattered(&[1, 2], &[1.0, 1.0]).unwrap();
        assert_eq!(solve(&lu, &[2.0, 3.0]), vec![3.0, 2.0]);
        lu.factor_scattered(&[0, 3], &[2.0, 4.0]).unwrap();
        assert_eq!(solve(&lu, &[2.0, 4.0]), vec![1.0, 1.0]);
    }
}
