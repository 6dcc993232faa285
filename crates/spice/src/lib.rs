//! # mda-spice
//!
//! A from-scratch analog circuit simulator purpose-built for validating the
//! DAC'17 memristor distance accelerator at device level — the role HSPICE
//! plays in the paper's Section 4.
//!
//! The simulator implements:
//!
//! * **Modified nodal analysis** over a [`netlist::Netlist`] of
//!   resistors, memristors, capacitors, independent voltage sources,
//!   smoothed ideal diodes (threshold 0 V, per the paper's Table 1),
//!   transmission gates, and behavioural op-amps with finite open-loop gain
//!   and a single-pole gain–bandwidth model (Table 1: gain 1e4, GBW 50 GHz);
//! * **Newton–Raphson** iteration for the nonlinear devices;
//! * **DC operating point** ([`dc`]) and **backward-Euler transient**
//!   ([`transient`]) analysis;
//! * **waveform measurements** ([`waveform`]), in particular the paper's
//!   convergence-time definition: the time at which the output settles
//!   within 0.1 % of its final value;
//! * dense and sparse LU factorizations behind an allocation-free,
//!   structure-caching solver core, and [`stats::SolveStats`] reporting
//!   what the solver actually did (the frozen pre-plan path survives in
//!   [`legacy`] as a golden reference).
//!
//! ## The solver core
//!
//! The unknowns are the non-ground node voltages followed by one branch
//! current per voltage source and per op-amp output. Nonlinear devices
//! (diodes, op-amp saturation) are stamped as linearized companion models
//! around the current Newton iterate; capacitors and the op-amp pole
//! integrate through backward-Euler (or trapezoidal) companion models.
//!
//! Each analysis builds one persistent workspace: element stamps are
//! compiled once into a CSR *stamp plan*, so per-iteration assembly is a
//! zero fill plus indexed adds; the LU pivot order and fill-in are
//! computed once and numerically refactored in place across Newton
//! iterations and timesteps (dense LU below 150 unknowns, sparse above),
//! with a full re-pivot whenever a refactored solve's residual shows the
//! frozen order has gone stale. Every solve is allocation-free after
//! construction.
//!
//! ## Example: RC step response
//!
//! ```
//! use mda_spice::{Netlist, Waveform, TransientSpec};
//!
//! # fn main() -> Result<(), mda_spice::SpiceError> {
//! let mut net = Netlist::new();
//! let inp = net.node("in");
//! let out = net.node("out");
//! net.voltage_source(inp, Netlist::GROUND, Waveform::step(1.0));
//! net.resistor(inp, out, 1.0e3);
//! net.capacitor(out, Netlist::GROUND, 1.0e-9); // tau = 1 us
//! let result = net.transient(&TransientSpec::new(10.0e-6, 5.0e-9))?;
//! let v_end = result.voltage(out).last();
//! assert!((v_end - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod ac;
pub mod complex;
pub mod dc;
pub mod elements;
pub mod error;
pub mod export;
pub mod legacy;
mod lu;
mod mna;
pub mod netlist;
mod solver;
mod stamp;
pub mod stats;
pub mod transient;
pub mod waveform;

pub use ac::{log_sweep, run_ac, AcResult};
pub use complex::Complex;
pub use dc::{dc_sweep, solve_dc_full, DcResult};
pub use elements::{DiodeModel, OpampModel, SwitchState};
pub use error::SpiceError;
pub use export::to_spice_deck;
pub use netlist::{Netlist, NodeId};
pub use stats::SolveStats;
pub use transient::{Integration, TransientResult, TransientSpec};
pub use waveform::{Trace, Waveform};
