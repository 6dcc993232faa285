//! Typed errors for the streaming tier.

use std::fmt;

use mda_distance::DistanceError;

/// Errors produced by stream construction and point pushes.
///
/// Every rejection is typed so the server can map it onto the wire
/// protocol's error vocabulary (`invalid_parameter` / `bad_request`)
/// without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A parameter or pushed value is outside the accepted domain
    /// (non-finite point, empty query, zero window, query/window length
    /// mismatch, non-positive threshold).
    InvalidParameter(String),
    /// A distance-kernel invariant was violated mid-stream. With validated
    /// construction this is unreachable; it is surfaced rather than
    /// panicking so a server push can answer in-band.
    Kernel(DistanceError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            StreamError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DistanceError> for StreamError {
    fn from(e: DistanceError) -> Self {
        StreamError::Kernel(e)
    }
}
