//! # mda-streaming
//!
//! Streaming push-mode mining for the memristor distance accelerator:
//! the live-series tier over the batch kernels. Clients push points one
//! at a time; a [`StreamPipeline`] steps five fixed **stages** in one
//! straight line per push and returns one typed slot per stage
//! ([`PushResult`]):
//!
//! * **window** — the sliding ring buffer ([`SlidingWindow`]),
//!   materialized once per push and shared by every later stage;
//! * **z-norm** — one pass of the batch body
//!   [`mda_distance::znorm::z_normalize_in_place`] over the window, which
//!   yields the z frame, the statistics and the degenerate flag together,
//!   bit for bit the batch result;
//! * **envelope** — incremental Lemire envelopes: interior entries
//!   finalized once by stream-absolute monotonic deques
//!   (`mda_distance::lower_bounds::SlidingExtremum`), borders recomputed
//!   with the deque's own tie-breaking;
//! * **matcher** — online subsequence matching: the UCR cascade
//!   (LB_Kim → LB_Keogh → early-abandon banded DTW) re-runs the
//!   expensive DP only when the new point invalidates the carried
//!   pruning certificate;
//! * **tracker** — best-so-far motif/discord fold.
//!
//! Until the window fills, every slot reports the same
//! [`Output::Warming`] progress; a rejected (non-finite) point leaves all
//! state and the epoch untouched.
//!
//! ## The differential gate
//!
//! The correctness spine: at every push, each stage's output must equal
//! a **from-scratch batch recomputation** over the current window —
//! bitwise on these exact paths ([`differential::check_series`]).
//! Property tests, the conformance harness's `streaming_differential`
//! layer, and the `streaming` bench's fatal identity gate all enforce
//! it.
//!
//! ## Replay
//!
//! [`replay::replay`] feeds recorded series through the identical
//! pipeline on a deterministic virtual clock at configurable (rational)
//! speed: two replays of one recording are byte-identical, making
//! recordings usable for backtesting and byte-stable tests.

pub mod differential;
pub mod error;
pub mod ops;
pub mod pipeline;
pub mod replay;
pub mod window;

pub use differential::{check_series, DifferentialError, DifferentialReport, Mismatch};
pub use error::StreamError;
pub use ops::{
    certified_bound, BestMatch, EnvelopeFrame, MatchFrame, Output, PruneFrameStats, StatsFrame,
    TrackFrame, Value, WindowFrame,
};
pub use pipeline::{PushResult, StreamConfig, StreamPipeline, MAX_WINDOW};
pub use replay::{replay, ReplayConfig, ReplayOutcome, ReplaySpeed, VirtualClock};
pub use window::SlidingWindow;
