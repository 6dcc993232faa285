//! Array-level behavioural analog model.
//!
//! Device-level MNA simulation of a full PE array is exactly what made the
//! paper's own evaluation painful ("the runtime is about 20 hours for DTW
//! simulations for sequences of length 40"). This module abstracts each
//! analog module (subtractor, absolution, diode min/max, adder, selecting
//! module) into a **first-order lag**: its output relaxes toward the ideal
//! function of its present inputs with an RC time constant derived from the
//! module's net count and the Table 1 parasitic capacitance (20 fF/net),
//! plus a deterministic per-instance offset error (zero drift, diode drop,
//! finite op-amp gain).
//!
//! The [`engine::AnalogEngine`] compiles the resulting ODE network into a
//! level-scheduled [`Tape`] and integrates it. `simulate` records the
//! output waveform and measures the paper's convergence time (output
//! within 0.1 % of its final value) and relative error — reproducing the
//! Fig. 5 methodology at any sequence length; the trace-free `settle`
//! returns bitwise the same final voltage for serving. A [`TapeCache`]
//! keeps compiled tapes per graph shape so a served request only
//! re-programs its input sources.

pub mod cache;
pub mod engine;
pub mod error_model;
pub mod graph;

pub use cache::{TapeCache, TapeCacheStats, TAPE_CACHE_NODES};
pub use engine::{AnalogEngine, Settled, SimulationOutcome, Tape};
pub use error_model::ErrorModel;
pub use graph::{AnalogGraph, NodeOp, NodeRef};
