//! Tiling of computations larger than the physical PE array.
//!
//! Section 3.1: "When the sequence length is larger than the number of PEs
//! in each row or column, tiling technique will be applied and the
//! throughput will decrease."
//!
//! The matrix structure is tiled in wavefront order: an `m x n` DP matrix is
//! cut into `ceil(m/R) x ceil(n/C)` tiles; boundary rows/columns are carried
//! between tiles. The row structure simply processes `ceil(n/C)` chunks and
//! accumulates partial sums digitally. [`TilingPlan`] counts those array
//! passes; the accelerator multiplies its convergence time by them.

use crate::array::{ArrayDimensions, Structure};

/// The tiling plan for one computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingPlan {
    /// Tiles along the `P` (row) axis.
    pub row_tiles: usize,
    /// Tiles along the `Q` (column) axis.
    pub col_tiles: usize,
    /// Total number of array passes.
    pub passes: usize,
}

impl TilingPlan {
    /// Plans the tiling of an `m x n` computation over `array` using the
    /// given structure.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `n` is zero.
    pub fn plan(structure: Structure, array: ArrayDimensions, m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "sequence lengths must be positive");
        match structure {
            Structure::Matrix => {
                let row_tiles = m.div_ceil(array.rows);
                let col_tiles = n.div_ceil(array.cols);
                TilingPlan {
                    row_tiles,
                    col_tiles,
                    passes: row_tiles * col_tiles,
                }
            }
            Structure::Row => {
                let col_tiles = n.div_ceil(array.cols);
                TilingPlan {
                    row_tiles: 1,
                    col_tiles,
                    passes: col_tiles,
                }
            }
        }
    }

    /// Throughput relative to an untiled computation (1 / passes).
    pub fn throughput_factor(&self) -> f64 {
        1.0 / self.passes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts() {
        let a = ArrayDimensions::new(128, 128);
        let p = TilingPlan::plan(Structure::Matrix, a, 300, 200);
        assert_eq!(p.row_tiles, 3);
        assert_eq!(p.col_tiles, 2);
        assert_eq!(p.passes, 6);
        assert!((p.throughput_factor() - 1.0 / 6.0).abs() < 1e-12);

        let p = TilingPlan::plan(Structure::Row, a, 1, 300);
        assert_eq!(p.passes, 3);
    }

    #[test]
    fn untiled_fits_in_one_pass() {
        let a = ArrayDimensions::new(128, 128);
        assert_eq!(TilingPlan::plan(Structure::Matrix, a, 40, 40).passes, 1);
        assert_eq!(TilingPlan::plan(Structure::Row, a, 1, 40).passes, 1);
    }
}
