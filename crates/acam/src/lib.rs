//! # mda-acam
//!
//! A behavioural analog content-addressable memory (aCAM) array model —
//! the one-shot matching idiom of Li et al., "Analog content addressable
//! memories with memristors" — threaded through the repo's distance stack
//! as a *stage-0 candidate filter* and a direct one-shot backend for the
//! thresholded distance kinds.
//!
//! Where the DAC'17 accelerator answers every query by iterating a DP
//! recurrence over a memristor crossbar, an aCAM cell (6T2M: six
//! transistors, two memristors) stores an **interval** `[lo, hi]` and
//! compares an analog input against both edges at once; a word of cells
//! shares one match line that stays high only if *every* cell accepts —
//! a whole-word match in a single precharge/sense cycle.
//!
//! The modules map that idiom onto the existing exact kernels:
//!
//! * [`cell`] — interval cells with variation-aware margin calibration
//!   (guard bands only ever *widen* the acceptance window) and
//!   [`mda_memristor::CellFault`] degradation to always-match;
//! * [`array`](mod@array) — words of cells with match-line AND semantics and
//!   mismatch-count readout;
//! * [`encoder`] — programs a query's Lemire envelope
//!   ([`mda_distance::lower_bounds::envelope`]) into interval cells, so a
//!   match-line miss at sensing margin δ certifies `LB_Keogh > δ`;
//! * [`filter`] — the [`mda_distance::mining::CandidateFilter`]
//!   implementation wired into subsequence search and kNN, with an
//!   admissibility proof sketch for why filtered runs stay
//!   bitwise-identical to the unfiltered cascade;
//! * [`one_shot`] — one-shot evaluation of the thresholded kinds (HamD,
//!   thresholded EdD/LCS) from the aCAM match plane, bitwise-identical to
//!   the digital kernels on tuned (ideal-margin) arrays and
//!   false-accept-only under faults.

pub mod array;
pub mod cell;
pub mod encoder;
pub mod filter;
pub mod one_shot;

pub use array::AcamWord;
pub use cell::{AcamCell, Interval, MarginPolicy};
pub use encoder::envelope_intervals;
pub use filter::{AcamPrefilter, FaultPlan};
pub use one_shot::OneShotMatcher;
