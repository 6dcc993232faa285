//! # mda-distance
//!
//! Digital reference implementations of the six time-series distance
//! functions accelerated by the DAC'17 memristor distance accelerator:
//!
//! * [`Dtw`] — dynamic time warping (Eq. 2), with optional Sakoe–Chiba band
//!   and per-cell weights;
//! * [`Lcs`] — longest common subsequence adapted to real-valued series via a
//!   match threshold (Eq. 3);
//! * [`EditDistance`] — edit distance with threshold matching (Eq. 4);
//! * [`Hausdorff`] — directed/symmetric Hausdorff distance (Eq. 5);
//! * [`Hamming`] — thresholded Hamming distance (Eq. 6);
//! * [`Manhattan`] — Manhattan distance (Eq. 7) and its Euclidean sibling.
//!
//! These implementations serve three roles in the reproduction:
//!
//! 1. the **golden reference** the analog accelerator model is validated
//!    against,
//! 2. the **CPU baseline** of the paper's Fig. 6(b) comparison, and
//! 3. the computational kernel of the data-mining workloads
//!    ([`mining`]) that motivate the paper: classification, clustering and
//!    subsequence similarity search.
//!
//! ## Quick example
//!
//! ```
//! use mda_distance::{Dtw, Band, Distance};
//!
//! # fn main() -> Result<(), mda_distance::DistanceError> {
//! let p = [0.0, 1.0, 2.0, 1.0, 0.0];
//! let q = [0.0, 0.9, 2.1, 1.1, 0.1];
//! let dtw = Dtw::new().with_band(Band::SakoeChiba(2));
//! let d = dtw.evaluate(&p, &q)?;
//! assert!(d < 0.5);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod dtw;
pub mod edit;
pub mod error;
pub mod hamming;
pub mod hausdorff;
pub mod lcs;
pub mod lower_bounds;
pub mod manhattan;
pub mod matrix;
pub mod mining;
pub mod scratch;
pub(crate) mod validate;
pub mod weights;
pub mod znorm;

pub use batch::BatchEngine;
pub use dtw::{Band, Dtw};
pub use edit::EditDistance;
pub use error::DistanceError;
pub use hamming::Hamming;
pub use hausdorff::{Direction, Hausdorff};
pub use lcs::Lcs;
pub use manhattan::{Euclidean, Manhattan};
pub use matrix::DpMatrix;
pub use scratch::DpScratch;
pub use weights::Weights;

/// The six distance functions supported by the accelerator, in the order the
/// paper lists them.
///
/// This is the key the accelerator's configuration library
/// (`mda_core::controller`) is indexed by.
///
/// ```
/// use mda_distance::DistanceKind;
/// assert_eq!(DistanceKind::ALL.len(), 6);
/// assert!(DistanceKind::Dtw.is_dynamic_programming());
/// assert!(!DistanceKind::Manhattan.is_dynamic_programming());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DistanceKind {
    /// Dynamic time warping.
    Dtw,
    /// Longest common subsequence (a *similarity*: larger is closer).
    Lcs,
    /// Edit distance.
    Edit,
    /// Hausdorff distance.
    Hausdorff,
    /// Hamming distance with threshold matching.
    Hamming,
    /// Manhattan distance.
    Manhattan,
}

impl DistanceKind {
    /// All six kinds, in the paper's order (DTW, LCS, EdD, HauD, HamD, MD).
    pub const ALL: [DistanceKind; 6] = [
        DistanceKind::Dtw,
        DistanceKind::Lcs,
        DistanceKind::Edit,
        DistanceKind::Hausdorff,
        DistanceKind::Hamming,
        DistanceKind::Manhattan,
    ];

    /// `true` for the dynamic-programming functions (DTW, LCS, EdD) that can
    /// compare sequences of different lengths via a full DP matrix.
    pub fn is_dynamic_programming(self) -> bool {
        matches!(
            self,
            DistanceKind::Dtw | DistanceKind::Lcs | DistanceKind::Edit
        )
    }

    /// `true` if the function requires both sequences to have equal length
    /// (HamD and MD, per Section 2 of the paper).
    pub fn requires_equal_length(self) -> bool {
        matches!(self, DistanceKind::Hamming | DistanceKind::Manhattan)
    }

    /// `true` if a *larger* value means *more similar* (only LCS).
    pub fn is_similarity(self) -> bool {
        matches!(self, DistanceKind::Lcs)
    }

    /// The inter-PE wiring used on the accelerator: `true` for the matrix
    /// structure (DTW, LCS, HauD, EdD), `false` for the row structure
    /// (MD, HamD). See Fig. 1 of the paper.
    pub fn uses_matrix_structure(self) -> bool {
        !matches!(self, DistanceKind::Hamming | DistanceKind::Manhattan)
    }

    /// Short display name matching the paper's abbreviations.
    pub fn abbrev(self) -> &'static str {
        match self {
            DistanceKind::Dtw => "DTW",
            DistanceKind::Lcs => "LCS",
            DistanceKind::Edit => "EdD",
            DistanceKind::Hausdorff => "HauD",
            DistanceKind::Hamming => "HamD",
            DistanceKind::Manhattan => "MD",
        }
    }
}

impl std::fmt::Display for DistanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Error returned when parsing a [`DistanceKind`] from its paper
/// abbreviation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKindError {
    name: String,
}

impl std::fmt::Display for ParseKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown kind `{}` (expected DTW, LCS, EdD, HauD, HamD or MD)",
            self.name
        )
    }
}

impl std::error::Error for ParseKindError {}

/// Parses the paper's abbreviations exactly as [`DistanceKind::abbrev`]
/// prints them — the canonical round-trip every call site (wire protocol,
/// reports, CLI flags) shares. Matching is case-sensitive: `"dtw"` is
/// rejected, the same contract the wire protocol has always had.
impl std::str::FromStr for DistanceKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DistanceKind::ALL
            .into_iter()
            .find(|k| k.abbrev() == s)
            .ok_or_else(|| ParseKindError {
                name: s.to_string(),
            })
    }
}

/// A distance (or similarity) function over real-valued time series.
///
/// The trait is object-safe so heterogeneous collections of functions can be
/// benchmarked uniformly, which is exactly what the experiment harness does.
pub trait Distance {
    /// Evaluates the function on two series.
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::EmptySequence`] if either input is empty and
    /// the function does not define a value for empty inputs, or
    /// [`DistanceError::LengthMismatch`] for equal-length-only functions.
    fn evaluate(&self, p: &[f64], q: &[f64]) -> Result<f64, DistanceError>;

    /// Evaluates the function reusing caller-provided DP scratch rows.
    ///
    /// DP functions (DTW) override this to avoid per-pair row allocations in
    /// batch workloads; the default ignores the scratch and delegates to
    /// [`Distance::evaluate`], so every implementation stays correct.
    ///
    /// # Errors
    ///
    /// Same as [`Distance::evaluate`].
    fn evaluate_with(
        &self,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, DistanceError> {
        let _ = scratch;
        self.evaluate(p, q)
    }

    /// Which of the six functions this is.
    fn kind(&self) -> DistanceKind;

    /// `true` if larger return values mean more similar series.
    fn is_similarity(&self) -> bool {
        self.kind().is_similarity()
    }
}

/// Constructs the default-parameter instance of `kind` as a trait object.
///
/// Thresholded functions (LCS, EdD, HamD) get the paper's defaults:
/// threshold = 0.1 and unit step = 1.0.
///
/// ```
/// use mda_distance::{boxed_distance, DistanceKind};
/// let d = boxed_distance(DistanceKind::Manhattan);
/// assert_eq!(d.evaluate(&[1.0, 2.0], &[2.0, 4.0]).unwrap(), 3.0);
/// ```
pub fn boxed_distance(kind: DistanceKind) -> Box<dyn Distance + Send + Sync> {
    match kind {
        DistanceKind::Dtw => Box::new(Dtw::new()),
        DistanceKind::Lcs => Box::new(Lcs::new(0.1)),
        DistanceKind::Edit => Box::new(EditDistance::new(0.1)),
        DistanceKind::Hausdorff => Box::new(Hausdorff::new()),
        DistanceKind::Hamming => Box::new(Hamming::new(0.1)),
        DistanceKind::Manhattan => Box::new(Manhattan::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification_matches_paper_table() {
        // Section 2: DTW/LCS/EdD are DP methods; HamD/MD need equal length;
        // HauD supports different lengths but is not DP.
        assert!(DistanceKind::Dtw.is_dynamic_programming());
        assert!(DistanceKind::Lcs.is_dynamic_programming());
        assert!(DistanceKind::Edit.is_dynamic_programming());
        assert!(!DistanceKind::Hausdorff.is_dynamic_programming());
        assert!(DistanceKind::Hamming.requires_equal_length());
        assert!(DistanceKind::Manhattan.requires_equal_length());
        assert!(!DistanceKind::Hausdorff.requires_equal_length());
    }

    #[test]
    fn structure_assignment_matches_fig1() {
        use DistanceKind::*;
        for k in [Dtw, Lcs, Hausdorff, Edit] {
            assert!(k.uses_matrix_structure(), "{k} should be matrix");
        }
        for k in [Hamming, Manhattan] {
            assert!(!k.uses_matrix_structure(), "{k} should be row");
        }
    }

    #[test]
    fn only_lcs_is_similarity() {
        for k in DistanceKind::ALL {
            assert_eq!(k.is_similarity(), k == DistanceKind::Lcs);
        }
    }

    #[test]
    fn boxed_distances_evaluate_identity_pairs() {
        let p = [0.3, -0.2, 1.5, 0.0];
        for k in DistanceKind::ALL {
            let d = boxed_distance(k);
            let v = d.evaluate(&p, &p).unwrap();
            if k.is_similarity() {
                // LCS of a series with itself matches every element.
                assert_eq!(v, p.len() as f64);
            } else {
                assert_eq!(v, 0.0, "{k} self-distance");
            }
        }
    }

    #[test]
    fn display_uses_paper_abbreviations() {
        assert_eq!(DistanceKind::Dtw.to_string(), "DTW");
        assert_eq!(DistanceKind::Hausdorff.to_string(), "HauD");
    }

    #[test]
    fn from_str_round_trips_display() {
        for k in DistanceKind::ALL {
            assert_eq!(k.abbrev().parse::<DistanceKind>(), Ok(k));
        }
    }

    #[test]
    fn from_str_is_case_sensitive_and_names_the_offender() {
        let err = "dtw".parse::<DistanceKind>().unwrap_err();
        assert!(err.to_string().contains("`dtw`"), "{err}");
        assert!("Manhattan".parse::<DistanceKind>().is_err());
    }
}
