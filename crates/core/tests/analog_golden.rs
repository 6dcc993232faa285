//! Golden data for the behavioural analog engine.
//!
//! `data/analog_golden.txt` freezes, per graph, the bits of the settled
//! output voltage, the step count, the bits of the convergence time and an
//! FNV-1a digest of the recorded output waveform (times and values). The
//! cases cover all six kinds at lengths {1, 2, 3, 7, 16, 32}, DTW bands
//! Full and Sakoe–Chiba {0, 1, 4}, two thresholds for the thresholded
//! kinds, the ideal, seed-1 and paper-seed error models, each with and
//! without a stuck fault on a mid-graph module, plus one probed run.
//!
//! `simulate` must reproduce every line; the trace-free `settle` must
//! reproduce the voltage bits and step counts.
//!
//! To rewrite the fixture from the engine at hand (only on a commit whose
//! output is meant to be frozen):
//! `cargo test --release -p mda-core --test analog_golden -- --ignored`.

use mda_core::analog::graph::builders;
use mda_core::analog::{AnalogEngine, AnalogGraph, ErrorModel, Tape};
use mda_core::AcceleratorConfig;
use mda_distance::dtw::Band;
use mda_spice::Trace;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/analog_golden.txt");

const LENGTHS: [usize; 6] = [1, 2, 3, 7, 16, 32];
const THRESHOLDS: [f64; 2] = [0.1, 0.5];

struct Case {
    name: String,
    graph: AnalogGraph,
    /// The same graph built over all-zero inputs, to be re-programmed
    /// with `volts` the way a cached tape is.
    blank: AnalogGraph,
    /// The graph's input voltages, P then Q.
    volts: Vec<f64>,
}

type Build<'a> = Box<dyn Fn(&[f64], &[f64]) -> AnalogGraph + 'a>;

fn series(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0 + (i as f64 * 0.09).cos() * 0.3)
        .collect()
}

/// The q side: near-matches on even indices, clear mismatches on odd ones,
/// so the thresholded kinds take both comparator branches.
fn partner(p: &[f64]) -> Vec<f64> {
    p.iter()
        .enumerate()
        .map(|(i, &v)| if i % 2 == 0 { v + 0.07 } else { v - 1.3 })
        .collect()
}

const ERROR_MODELS: [&str; 3] = ["ideal", "seed1", "paper"];

fn error_model(name: &str, config: &AcceleratorConfig) -> ErrorModel {
    match name {
        "ideal" => ErrorModel::ideal(),
        "seed1" => ErrorModel::new(1),
        _ => ErrorModel::new(config.noise_seed),
    }
}

/// Every golden graph, in fixture order.
fn cases() -> Vec<Case> {
    let config = &AcceleratorConfig::paper_defaults();
    let volts = |xs: &[f64]| -> Vec<f64> {
        xs.iter()
            .map(|&x| config.value_to_voltage(x))
            .collect::<Vec<_>>()
    };
    let mut out = Vec::new();
    for len in LENGTHS {
        let p = series(len, 0.0);
        let q = partner(&series(len, 0.35));
        let (pv, qv) = (volts(&p), volts(&q));
        let ones = vec![1.0; len];
        let zeros = vec![0.0; len];
        let mut builds: Vec<(String, Build)> = Vec::new();
        for err_name in ERROR_MODELS {
            let errors = move || error_model(err_name, config);
            for (band_name, band) in [
                ("full", Band::Full),
                ("sc0", Band::SakoeChiba(0)),
                ("sc1", Band::SakoeChiba(1)),
                ("sc4", Band::SakoeChiba(4)),
            ] {
                builds.push((
                    format!("dtw/{len}/{band_name}/{err_name}"),
                    Box::new(move |p, q| builders::dtw(config, p, q, 1.0, band, &mut errors())),
                ));
            }
            for thr in THRESHOLDS {
                let tv = config.value_to_voltage(thr);
                builds.push((
                    format!("lcs/{len}/thr{thr}/{err_name}"),
                    Box::new(move |p, q| builders::lcs(config, p, q, tv, 1.0, &mut errors())),
                ));
                builds.push((
                    format!("edit/{len}/thr{thr}/{err_name}"),
                    Box::new(move |p, q| builders::edit(config, p, q, tv, &mut errors())),
                ));
                let ones = ones.clone();
                builds.push((
                    format!("hamming/{len}/thr{thr}/{err_name}"),
                    Box::new(move |p, q| builders::hamming(config, p, q, tv, &ones, &mut errors())),
                ));
            }
            builds.push((
                format!("hausdorff/{len}/{err_name}"),
                Box::new(move |p, q| builders::hausdorff(config, p, q, 1.0, &mut errors())),
            ));
            let ones = ones.clone();
            builds.push((
                format!("manhattan/{len}/{err_name}"),
                Box::new(move |p, q| builders::manhattan(config, p, q, &ones, &mut errors())),
            ));
        }
        let volts: Vec<f64> = pv.iter().chain(&qv).copied().collect();
        for (name, build) in builds {
            let (graph, blank) = (build(&pv, &qv), build(&zeros, &zeros));
            let stuck = |mut g: AnalogGraph| {
                let modules = g.module_nodes();
                g.inject_stuck_fault(modules[modules.len() / 2], 0.05);
                g
            };
            let (stuck_graph, stuck_blank) = (stuck(graph.clone()), stuck(blank.clone()));
            out.push(Case {
                name: format!("{name}/healthy"),
                graph,
                blank,
                volts: volts.clone(),
            });
            out.push(Case {
                name: format!("{name}/stuck"),
                graph: stuck_graph,
                blank: stuck_blank,
                volts: volts.clone(),
            });
        }
    }
    out
}

/// FNV-1a over the bits of a trace's times and values.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in trace.times().iter().chain(trace.values()) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One fixture line per case from `simulate`, then the probed run: its
/// outcome line and one digest per probe.
fn render() -> String {
    let engine = AnalogEngine::new();
    let mut text = String::new();
    for case in cases() {
        let sim = engine.simulate(&case.graph);
        text.push_str(&format!(
            "{} {:016x} {} {:016x} {:016x}\n",
            case.name,
            sim.final_voltage.to_bits(),
            sim.steps,
            sim.convergence_time_s.to_bits(),
            digest(&sim.output_trace),
        ));
    }
    let (graph, probes) = probed_case();
    let (sim, traces) = engine.simulate_with_probes(&graph, &probes);
    text.push_str(&format!(
        "probed {:016x} {} {:016x} {:016x}",
        sim.final_voltage.to_bits(),
        sim.steps,
        sim.convergence_time_s.to_bits(),
        digest(&sim.output_trace),
    ));
    for t in &traces {
        text.push_str(&format!(" {:016x}", digest(t)));
    }
    text.push('\n');
    text
}

/// DTW at length 7 with the seed-1 model, probing three module nodes
/// across the wavefront and the output.
fn probed_case() -> (AnalogGraph, Vec<mda_core::analog::NodeRef>) {
    let config = AcceleratorConfig::paper_defaults();
    let volts = |xs: &[f64]| -> Vec<f64> {
        xs.iter()
            .map(|&x| config.value_to_voltage(x))
            .collect::<Vec<_>>()
    };
    let p = series(7, 0.0);
    let q = partner(&series(7, 0.35));
    let graph = builders::dtw(
        &config,
        &volts(&p),
        &volts(&q),
        1.0,
        Band::Full,
        &mut ErrorModel::new(1),
    );
    let modules = graph.module_nodes();
    let probes = vec![
        modules[0],
        modules[modules.len() / 3],
        modules[2 * modules.len() / 3],
        graph.output(),
    ];
    (graph, probes)
}

#[test]
fn simulate_matches_golden_fixture() {
    let want = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fixture line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "fixture length");
}

/// `(final voltage bits, steps)` of every fixture line, in order.
fn golden_settles() -> Vec<(u64, usize)> {
    let want = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    want.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            (
                u64::from_str_radix(f[1], 16).expect("hex bits"),
                f[2].parse().expect("step count"),
            )
        })
        .collect()
}

#[test]
fn settle_matches_golden_fixture() {
    let engine = AnalogEngine::new();
    let want = golden_settles();
    let cases = cases();
    assert_eq!(cases.len() + 1, want.len(), "fixture length");
    for (case, &(bits, steps)) in cases.iter().zip(&want) {
        let got = engine.settle(&mut Tape::compile(&case.graph));
        assert_eq!(
            (got.final_voltage.to_bits(), got.steps),
            (bits, steps),
            "{}",
            case.name
        );
    }
    let (graph, _) = probed_case();
    let got = engine.settle(&mut Tape::compile(&graph));
    assert_eq!((got.final_voltage.to_bits(), got.steps), want[cases.len()]);
}

#[test]
fn reprogrammed_tape_matches_golden_fixture() {
    // The cached-tape path: compile over other inputs, run it, then
    // re-program the sources and run again.
    let engine = AnalogEngine::new();
    let want = golden_settles();
    for (case, &(bits, steps)) in cases().iter().zip(&want) {
        let mut tape = Tape::compile(&case.blank);
        engine.settle(&mut tape);
        tape.set_inputs(case.volts.iter().copied());
        let got = engine.settle(&mut tape);
        assert_eq!(
            (got.final_voltage.to_bits(), got.steps),
            (bits, steps),
            "{}",
            case.name
        );
    }
}

#[test]
#[ignore = "rewrites the golden fixture from the current engine"]
fn write_golden_fixture() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).unwrap();
    std::fs::write(FIXTURE, render()).unwrap();
}
