//! The three time-series data-mining tasks that motivate the paper
//! (Section 1: "Classification, clustering and frequency pattern mining are
//! three main data mining tasks for time series"), each built on the
//! distance functions of this crate:
//!
//! * [`knn`] — 1-NN / k-NN classification (e.g. vehicle classification with
//!   DTW, iris authentication with HamD), plus a pruned exact scan for
//!   banded DTW;
//! * [`kmedoids`] — k-medoids clustering (distance-matrix based, so any of
//!   the six functions plugs in);
//! * [`motif`] — motif discovery, the primitive behind frequency pattern
//!   mining;
//! * [`search`] — subsequence similarity search with cascading lower-bound
//!   pruning, the workload whose runtime is ">99% distance computation";
//! * [`prefilter`] — the pluggable stage-0 candidate filter (admissible,
//!   certified-prune) that search and kNN consult before any digital work.

pub mod kmedoids;
pub mod knn;
pub mod motif;
pub mod prefilter;
pub mod search;

pub use kmedoids::{KMedoids, KMedoidsResult};
pub use knn::{banded_dtw_knn, rank_and_vote, Classified, KnnClassifier, KnnStats};
pub use motif::{Motif, MotifDiscovery, MotifStats};
pub use prefilter::{AdmitAll, CandidateFilter, CandidatePredicate};
pub use search::{BlockSummary, SearchStats, SubsequenceSearch};
