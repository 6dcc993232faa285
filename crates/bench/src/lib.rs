//! # mda-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! section is regenerated by one binary in `src/bin/`:
//!
//! | Binary        | Paper artefact |
//! |---------------|----------------|
//! | `tables`      | Table 1 (SPICE setup) and Table 2 (stochastic Biolek parameters) as actually used |
//! | `fig3`        | Early determination in analog circuits |
//! | `fig5`        | Convergence time and relative error of the six distance functions vs sequence length |
//! | `fig6a`       | Per-element speedup vs the published FPGA/GPU baselines |
//! | `fig6b`       | Speedup vs an optimized CPU implementation at lengths 10–40 |
//! | `power_table` | Section 4.3 power budgets and the 26.7×–8767× energy-efficiency range |
//! | `ablation`    | Behavioural-engine calibration against device-level MNA simulation |
//!
//! Performance is timed by gated binaries beside them: `kernels` (DP
//! kernels, the pruning cascade and analog settle throughput, identity- and
//! speedup-gated) and `spice_solver` (device-level PE solves against the
//! frozen legacy solver at 1e-12).

pub mod cpu;
pub mod kernels_baseline;
pub mod runners;
pub mod table;

pub use table::Table;
