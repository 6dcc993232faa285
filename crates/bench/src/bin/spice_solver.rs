//! Wall-clock benchmark of the structure-caching SPICE solver core against
//! the frozen legacy path (`mda_spice::legacy`), with an identity gate.
//!
//! Three netlists spanning the solver's regimes:
//!
//! * **pe_cell** — a single DTW processing element (Fig. 2(a)), the dense
//!   backend's everyday workload;
//! * **diode_chain** — a 40-stage diode maximum-selection chain, dense and
//!   heavily nonlinear (Newton does real work every step);
//! * **array_40x40** — a 40 × 40 memristive array with drivers and
//!   per-node parasitics (~1700 unknowns), the sparse backend at the
//!   array scale the paper's accelerator actually runs at.
//!
//! Each netlist is run once through the legacy solver and once through the
//! new core on an identical transient spec. Traces must agree to ≤ 1e-12
//! relative; any deviation beyond that exits non-zero. Wall-clock times,
//! speedups and the new core's [`SolveStats`](mda_spice::SolveStats) land
//! in `results/BENCH_spice_solver.json`.
//!
//! Pass `--quick` (CI smoke mode) to shorten the transients; the identity
//! gate is identical in both modes.

use std::process::ExitCode;
use std::time::Instant;

use mda_bench::Record;
use mda_core::{pe, AcceleratorConfig};
use mda_spice::{legacy, Netlist, TransientResult, TransientSpec, Waveform};

const TOL: f64 = 1.0e-12;

struct Case {
    name: &'static str,
    net: Netlist,
    spec: TransientSpec,
}

fn pe_cell(quick: bool) -> Case {
    let config = AcceleratorConfig::paper_defaults();
    let (net, _) = pe::dtw::build_matrix(&config, &[1.5], &[0.5], 1.0).expect("in-range inputs");
    let stop = if quick { 0.2e-9 } else { 1.0e-9 };
    Case {
        name: "pe_cell",
        net,
        spec: TransientSpec::new(stop, 2.0e-12).from_dc(),
    }
}

fn diode_chain(quick: bool) -> Case {
    let mut net = Netlist::new();
    let mut stage_out = Netlist::GROUND;
    for s in 0..40 {
        let src = net.node(&format!("src{s}"));
        let out = net.node(&format!("out{s}"));
        let level = 0.05 + 0.01 * s as f64;
        net.voltage_source(src, Netlist::GROUND, Waveform::step_at(level, 1.0e-9));
        net.diode(src, out);
        if s > 0 {
            net.diode(stage_out, out);
        }
        net.resistor(out, Netlist::GROUND, 100.0e3);
        net.capacitor(out, Netlist::GROUND, 10.0e-15);
        stage_out = out;
    }
    let stop = if quick { 8.0e-9 } else { 40.0e-9 };
    Case {
        name: "diode_chain",
        net,
        spec: TransientSpec::new(stop, 20.0e-12),
    }
}

fn array_40x40(quick: bool) -> Case {
    let mut net = Netlist::new();
    let n = 40usize;
    let mut nodes = Vec::with_capacity(n * n);
    for r in 0..n {
        for c in 0..n {
            nodes.push(net.node(&format!("a{r}_{c}")));
        }
    }
    let at = |r: usize, c: usize| nodes[r * n + c];
    for r in 0..n {
        let drv = net.node(&format!("drv{r}"));
        net.voltage_source(drv, Netlist::GROUND, Waveform::step(0.2 + 0.002 * r as f64));
        net.resistor(drv, at(r, 0), 1.0e3);
        net.resistor(at(r, n - 1), Netlist::GROUND, 10.0e3);
    }
    // Deterministic resistance spread in the paper's 1 kΩ–100 kΩ tuning
    // range; well-conditioned so legacy and new traces agree to 1e-12.
    for r in 0..n {
        for c in 0..n {
            let ohms = 1.0e3 + 99.0e3 * ((r * 31 + c * 17) % 97) as f64 / 96.0;
            if c + 1 < n {
                net.memristor(at(r, c), at(r, c + 1), ohms);
            }
            if r + 1 < n {
                net.memristor(at(r, c), at(r + 1, c), ohms + 500.0);
            }
            net.capacitor(at(r, c), Netlist::GROUND, 20.0e-15);
        }
    }
    let stop = if quick { 0.2e-9 } else { 1.0e-9 };
    Case {
        name: "array_40x40",
        net,
        spec: TransientSpec::new(stop, 10.0e-12),
    }
}

/// Largest relative deviation between two runs across all samples.
fn max_rel_dev(a: &TransientResult, b: &TransientResult) -> f64 {
    let mut worst = 0.0f64;
    let pairs = [
        (a.voltages_flat(), b.voltages_flat()),
        (a.currents_flat(), b.currents_flat()),
    ];
    for (xs, ys) in pairs {
        assert_eq!(xs.len(), ys.len(), "runs recorded different shapes");
        for (&x, &y) in xs.iter().zip(ys) {
            worst = worst.max((x - y).abs() / x.abs().max(1.0));
        }
    }
    worst
}

/// Runs one netlist through both solvers into a `cases` row and gates its
/// deviation.
fn run_case(rec: &mut Record, case: &Case) {
    let start = Instant::now();
    let reference = legacy::run_transient(&case.net, &case.spec).expect("legacy run");
    let legacy_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let new = case.net.transient(&case.spec).expect("new-core run");
    let new_seconds = start.elapsed().as_secs_f64();

    let dev = max_rel_dev(&reference, &new);
    let st = new.stats();
    rec.row("cases")
        .set("name", case.name)
        .set("steps", new.len() - 1)
        .set("legacy_seconds", legacy_seconds)
        .set("new_seconds", new_seconds)
        .set("speedup", legacy_seconds / new_seconds)
        .set("max_rel_dev", dev)
        .set("n_unknowns", st.n_unknowns)
        .set("base_nnz", st.base_nnz)
        .set("factor_nnz", st.factor_nnz)
        .set("fill_ratio", st.fill_ratio())
        .set("solve_points", st.solve_points)
        .set("newton_iterations", st.newton_iterations)
        .set("full_factorizations", st.full_factorizations)
        .set("refactorizations", st.refactorizations)
        .set("factor_reuses", st.factor_reuses)
        .set("residual_fallbacks", st.residual_fallbacks)
        .set("assembly_seconds", st.assembly_seconds)
        .set("factor_seconds", st.factor_seconds)
        .set("solve_seconds", st.solve_seconds);
    rec.at_most(&format!("max_rel_dev_{}", case.name), dev, TOL);
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("spice solver core vs legacy baseline");
    let mut rec = Record::new(env!("CARGO_BIN_NAME"), quick);
    for case in [pe_cell(quick), diode_chain(quick), array_40x40(quick)] {
        run_case(&mut rec, &case);
    }
    rec.finish()
}
