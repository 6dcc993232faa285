//! k-medoids clustering (PAM-style) over a precomputed distance matrix.
//!
//! Unlike k-means, k-medoids only needs pairwise distances, so it works with
//! every one of the six accelerator distance functions — the clustering
//! workload of the paper's Section 1.

use crate::batch::BatchEngine;
use crate::error::DistanceError;
use crate::scratch::DpScratch;
use crate::validate::ensure_finite;
use crate::Distance;

/// Cap on the swap iterations of one clustering run.
const MAX_ITERATIONS: usize = 100;

/// Result of a k-medoids run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedoidsResult {
    /// Indices (into the input set) of the final medoids, one per cluster.
    pub medoids: Vec<usize>,
    /// Cluster assignment for every input series (index into `medoids`).
    pub assignments: Vec<usize>,
    /// Sum of distances from every series to its medoid.
    pub total_cost: f64,
    /// Number of swap iterations performed before convergence.
    pub iterations: usize,
}

/// PAM-style k-medoids clusterer parameterised by any [`Distance`].
///
/// Similarities (LCS) are negated internally so "closest" is well-defined.
///
/// ```
/// use mda_distance::{Manhattan, mining::KMedoids};
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let series = vec![
///     vec![0.0, 0.0], vec![0.1, 0.1],      // cluster A
///     vec![9.0, 9.0], vec![9.1, 8.9],      // cluster B
/// ];
/// let km = KMedoids::new(Box::new(Manhattan::new()), 2);
/// let result = km.cluster(&series)?;
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_eq!(result.assignments[2], result.assignments[3]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// # Ok(())
/// # }
/// ```
pub struct KMedoids {
    distance: Box<dyn Distance + Send + Sync>,
    k: usize,
    engine: BatchEngine,
}

impl std::fmt::Debug for KMedoids {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KMedoids")
            .field("kind", &self.distance.kind())
            .field("k", &self.k)
            .field("engine", &self.engine)
            .finish()
    }
}

impl KMedoids {
    /// Creates a clusterer with `k` clusters and a 100-iteration cap.
    /// The pairwise distance matrix is filled on a default (all-cores)
    /// [`BatchEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(distance: Box<dyn Distance + Send + Sync>, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KMedoids {
            distance,
            k,
            engine: BatchEngine::new(),
        }
    }

    /// Replaces the batch engine. Results are identical for every engine
    /// configuration; only wall-clock time changes.
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Precomputes the full pairwise distance matrix — the clusterer's hot
    /// path (`n(n-1)/2` distance evaluations), sharded over the engine.
    fn distance_matrix(&self, series: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, DistanceError> {
        let n = series.len();
        let invert = self.distance.is_similarity();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let values = self
            .engine
            .try_map_with(&pairs, DpScratch::new, |scratch, _, &(i, j)| {
                let raw = self
                    .distance
                    .evaluate_with(&series[i], &series[j], scratch)?;
                // `0.0 - raw` (not `-raw`) so a zero similarity negates to
                // +0.0; `total_cmp` orders -0.0 below +0.0, which would
                // otherwise perturb tie-breaking against the matrix's +0.0
                // diagonal.
                Ok(if invert { 0.0 - raw } else { raw })
            })?;
        let mut m = vec![vec![0.0; n]; n];
        for (&(i, j), d) in pairs.iter().zip(values) {
            m[i][j] = d;
            m[j][i] = d;
        }
        Ok(m)
    }

    fn assign(dist: &[Vec<f64>], medoids: &[usize]) -> (Vec<usize>, f64) {
        let mut assignments = vec![0usize; dist.len()];
        let mut cost = 0.0;
        for i in 0..dist.len() {
            let (best_c, best_d) = medoids
                .iter()
                .enumerate()
                .map(|(c, &m)| (c, dist[i][m]))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("k >= 1");
            assignments[i] = best_c;
            cost += best_d;
        }
        (assignments, cost)
    }

    /// Runs the clustering.
    ///
    /// Initial medoids are chosen deterministically with a greedy max-min
    /// (farthest-first) sweep so results are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if fewer series than
    /// clusters are supplied or any series contains a NaN or infinity, or
    /// any error from the underlying distance.
    pub fn cluster(&self, series: &[Vec<f64>]) -> Result<KMedoidsResult, DistanceError> {
        let n = series.len();
        if n < self.k {
            return Err(DistanceError::InvalidParameter {
                name: "series",
                reason: format!("need at least k = {} series, got {n}", self.k),
            });
        }
        for s in series {
            ensure_finite("series", s)?;
        }
        let dist = self.distance_matrix(series)?;

        // Farthest-first initialisation.
        let mut medoids = vec![0usize];
        while medoids.len() < self.k {
            let next = (0..n)
                .filter(|i| !medoids.contains(i))
                .max_by(|&a, &b| {
                    let da = medoids
                        .iter()
                        .map(|&m| dist[a][m])
                        .fold(f64::INFINITY, f64::min);
                    let db = medoids
                        .iter()
                        .map(|&m| dist[b][m])
                        .fold(f64::INFINITY, f64::min);
                    da.total_cmp(&db)
                })
                .expect("n >= k");
            medoids.push(next);
        }

        let (mut assignments, mut cost) = Self::assign(&dist, &medoids);
        let mut iterations = 0;
        for _ in 0..MAX_ITERATIONS {
            iterations += 1;
            let mut improved = false;
            for c in 0..self.k {
                for candidate in 0..n {
                    if medoids.contains(&candidate) {
                        continue;
                    }
                    let mut trial = medoids.clone();
                    trial[c] = candidate;
                    let (a, new_cost) = Self::assign(&dist, &trial);
                    if new_cost + 1e-12 < cost {
                        medoids = trial;
                        assignments = a;
                        cost = new_cost;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Ok(KMedoidsResult {
            medoids,
            assignments,
            total_cost: cost,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtw, Lcs, Manhattan};

    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.1, 0.0],
            vec![0.1, 0.0, 0.1],
            vec![0.05, 0.05, 0.0],
            vec![10.0, 10.1, 9.9],
            vec![10.1, 9.9, 10.0],
            vec![9.95, 10.0, 10.05],
        ]
    }

    #[test]
    fn separates_two_blobs() {
        let km = KMedoids::new(Box::new(Manhattan::new()), 2);
        let r = km.cluster(&blobs()).unwrap();
        let a = r.assignments;
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
        assert_eq!(a[3], a[4]);
        assert_eq!(a[4], a[5]);
        assert_ne!(a[0], a[3]);
    }

    #[test]
    fn works_with_dtw() {
        let km = KMedoids::new(Box::new(Dtw::new()), 2);
        let r = km.cluster(&blobs()).unwrap();
        assert_eq!(r.medoids.len(), 2);
        assert_ne!(r.assignments[0], r.assignments[5]);
    }

    #[test]
    fn works_with_similarity_function() {
        let km = KMedoids::new(Box::new(Lcs::new(0.5)), 2);
        let r = km.cluster(&blobs()).unwrap();
        assert_ne!(r.assignments[0], r.assignments[3]);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let series = vec![vec![0.0], vec![1.0], vec![2.0]];
        let km = KMedoids::new(Box::new(Manhattan::new()), 3);
        let r = km.cluster(&series).unwrap();
        assert_eq!(r.total_cost, 0.0);
        let mut sorted = r.medoids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn too_few_series_rejected() {
        let km = KMedoids::new(Box::new(Manhattan::new()), 5);
        assert!(km.cluster(&[vec![0.0]]).is_err());
    }

    /// Regression: a NaN series used to panic in the farthest-first
    /// initialisation (`partial_cmp(..).expect("finite distances")`).
    #[test]
    fn non_finite_series_is_typed_error_not_panic() {
        let km = KMedoids::new(Box::new(Manhattan::new()), 2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = blobs();
            data[3][1] = bad;
            let err = km.cluster(&data).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "series", .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn cost_never_increases_with_more_clusters() {
        let data = blobs();
        let c2 = KMedoids::new(Box::new(Manhattan::new()), 2)
            .cluster(&data)
            .unwrap()
            .total_cost;
        let c3 = KMedoids::new(Box::new(Manhattan::new()), 3)
            .cluster(&data)
            .unwrap()
            .total_cost;
        assert!(c3 <= c2 + 1e-9);
    }
}
