//! DP-kernel and pruning-cascade bench: the reworked wavefront kernels and
//! Lemire-envelope UCR cascade against the frozen pre-rework baselines in
//! [`mda_bench::kernels_baseline`].
//!
//! Three gates, all serial (one simulated accelerator host core):
//!
//! 1. **Identity (fatal)** — every reworked kernel, the early-abandon
//!    kernel at an infinite budget included, must return bitwise the same
//!    value as its frozen baseline over a shape/band sweep; the reworked
//!    search must return the baseline's match (offset and distance bits);
//!    and the pruned banded-DTW kNN scan must answer every query bitwise
//!    as the exhaustive `KnnClassifier` does on a seeded 4-class corpus.
//!    Any mismatch exits non-zero.
//! 2. **ns/cell** — per-kernel serial throughput, baseline vs reworked,
//!    plus the kNN scan's seconds and prune partition against the
//!    exhaustive classifier, and the search's seconds and prune partition
//!    at the default chunk size, in the served configuration (one chunk,
//!    so the best-so-far tightens across the whole haystack) and on a
//!    resident series (one chunk over a block summary built outside the
//!    timing, as the server builds it at upload); every match is
//!    identity-gated.
//! 3. **Search speedup (fatal)** — end-to-end subsequence search must be
//!    ≥ 2× faster than the pre-rework path on the standard workload.
//! 4. **kNN speedup (fatal)** — the pruned kNN scan must be at least
//!    [`KNN_SPEEDUP_BOUND`] times faster than the exhaustive classifier.
//! 5. **Analog settle (identity fatal)** — the behavioural analog engine's
//!    trace-free `settle` on a re-programmed tape, Hausdorff and DTW at
//!    length 32, in ns per node-step beside the trace-recording
//!    `simulate`. Both must reproduce the golden fixture
//!    (`crates/core/tests/data/analog_golden.txt`) bit for bit.
//!
//! Writes `results/BENCH_kernels.json`. `--quick` shrinks the workload for
//! CI; the identity and speedup gates stay fatal in both modes.
//!
//! The `dtw_banded_abandon_lanes` row times the lane-batched early-abandon
//! kernel at an infinite budget, in runs of `LANES` pairs that share a
//! query, against the frozen one-pair-at-a-time baseline.

use std::process::ExitCode;
use std::time::Instant;

use mda_bench::kernels_baseline as baseline;
use mda_bench::Record;
use mda_core::analog::graph::builders;
use mda_core::analog::{AnalogEngine, AnalogGraph, ErrorModel, Tape};
use mda_core::AcceleratorConfig;
use mda_distance::dtw::LANES;
use mda_distance::mining::{
    banded_dtw_knn, BlockSummary, Classified, KnnClassifier, KnnStats, SubsequenceSearch,
};
use mda_distance::{Band, BatchEngine, DpScratch, Dtw, EditDistance, Lcs};

/// The pruned kNN scan's floor over the exhaustive classifier in gate 4:
/// about 25 % under the lowest quick-mode ratio measured with the lane
/// kernel (5.4×; 5.4–10.3× over twelve runs on a busy 2-core host), and
/// above the 2.3–3.2× the one-candidate-at-a-time scan read in all but
/// one of its runs there (4.8×).
const KNN_SPEEDUP_BOUND: f64 = 4.0;

fn wave(i: usize, k: f64, amp: f64) -> f64 {
    (i as f64 * k).sin() * amp + (i as f64 * 0.013).cos() * 0.6
}

fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| wave(i + 31 * seed, 0.21 + 0.01 * (seed % 7) as f64, 1.8))
        .collect()
}

/// Best-of-3 wall-clock of `f`, which must return a checksum-ish value so
/// the work cannot be optimized away.
fn best_of_3(mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut out = 0.0;
    for _ in 0..3 {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Bitwise identity sweep of the reworked kernels against the frozen
/// baselines across shapes and bands. Returns the mismatch count.
fn identity_sweep() -> usize {
    let mut mismatches = 0usize;
    let mut check = |name: &str, new_bits: Option<u64>, base_bits: Option<u64>| {
        if new_bits != base_bits {
            eprintln!("IDENTITY MISMATCH: {name}: new {new_bits:?} vs baseline {base_bits:?}");
            mismatches += 1;
        }
    };
    let mut scratch = DpScratch::new();
    let shapes: [(usize, usize); 7] = [
        (1, 1),
        (2, 5),
        (8, 8),
        (17, 9),
        (33, 33),
        (64, 61),
        (128, 128),
    ];
    for &(m, n) in &shapes {
        let p: Vec<f64> = (0..m).map(|i| wave(i, 0.37, 2.0)).collect();
        let q: Vec<f64> = (0..n).map(|i| wave(i, 0.29, 1.7)).collect();
        for r in [None, Some(0), Some(2), Some(7), Some(64)] {
            let band = r.map_or(Band::Full, Band::SakoeChiba);
            let new = Dtw::new()
                .with_band(band)
                .distance_with(&p, &q, &mut scratch)
                .ok();
            check(
                &format!("dtw {m}x{n} r={r:?}"),
                new.map(f64::to_bits),
                baseline::dtw(&p, &q, r).map(f64::to_bits),
            );
            if let Some(r) = r {
                let new = Dtw::new()
                    .with_band(band)
                    .distance_early_abandon_with(&p, &q, f64::INFINITY, &mut scratch)
                    .ok()
                    .flatten();
                check(
                    &format!("dtw early abandon {m}x{n} r={r}"),
                    new.map(f64::to_bits),
                    baseline::dtw_early_abandon(&p, &q, r, f64::INFINITY)
                        .ok()
                        .flatten()
                        .map(f64::to_bits),
                );
            }
        }
        check(
            &format!("lcs {m}x{n}"),
            Some(Lcs::new(0.3).similarity(&p, &q).unwrap().to_bits()),
            Some(baseline::lcs(&p, &q, 0.3, 1.0).to_bits()),
        );
        check(
            &format!("edit {m}x{n}"),
            Some(EditDistance::new(0.3).distance(&p, &q).unwrap().to_bits()),
            Some(baseline::edit(&p, &q, 0.3, 1.0).to_bits()),
        );
    }
    mismatches
}

/// Times `baseline` and `new` (best of 3 each) over `cells` DP cells into a
/// `kernels` row; their checksums must agree bitwise.
fn timed_row(
    rec: &mut Record,
    name: &str,
    cells: u64,
    baseline: impl FnMut() -> f64,
    new: impl FnMut() -> f64,
    mismatches: &mut usize,
) {
    let (t_base, sum_base) = best_of_3(baseline);
    let (t_new, sum_new) = best_of_3(new);
    let identical = sum_base.to_bits() == sum_new.to_bits();
    if !identical {
        eprintln!("IDENTITY MISMATCH: {name} batch checksum");
        *mismatches += 1;
    }
    rec.row("kernels")
        .set("name", name)
        .set("cells", cells)
        .set("baseline_ns_per_cell", t_base * 1e9 / cells as f64)
        .set("new_ns_per_cell", t_new * 1e9 / cells as f64)
        .set("speedup", t_base / t_new)
        .set("identical", identical);
}

fn kernel_rows(rec: &mut Record, pairs: usize, len: usize, mismatches: &mut usize) {
    let inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..pairs)
        .map(|k| (series(len, k), series(len, k + 1000)))
        .collect();
    let cells = (pairs * len * len) as u64;
    let banded_r = (len / 20).max(1);
    let band_cells = (Band::SakoeChiba(banded_r).active_cells(len, len) * pairs) as u64;
    let banded = Dtw::new().with_band(Band::SakoeChiba(banded_r));
    let mut scratch = DpScratch::new();
    timed_row(
        rec,
        "dtw_full",
        cells,
        || {
            inputs
                .iter()
                .map(|(p, q)| baseline::dtw(p, q, None).unwrap())
                .sum()
        },
        || {
            let dtw = Dtw::new();
            inputs
                .iter()
                .map(|(p, q)| dtw.distance_with(p, q, &mut scratch).unwrap())
                .sum()
        },
        mismatches,
    );
    // 5%-style band; cells = the active band cells.
    timed_row(
        rec,
        "dtw_banded",
        band_cells,
        || {
            inputs
                .iter()
                .map(|(p, q)| baseline::dtw(p, q, Some(banded_r)).unwrap())
                .sum()
        },
        || {
            inputs
                .iter()
                .map(|(p, q)| banded.distance_with(p, q, &mut scratch).unwrap())
                .sum()
        },
        mismatches,
    );
    // The early-abandon kernel the cascades and the kNN scan finish
    // on, at an infinite budget so every cell is computed.
    timed_row(
        rec,
        "dtw_banded_abandon",
        band_cells,
        || {
            inputs
                .iter()
                .map(|(p, q)| {
                    baseline::dtw_early_abandon(p, q, banded_r, f64::INFINITY)
                        .unwrap()
                        .unwrap()
                })
                .sum()
        },
        || {
            inputs
                .iter()
                .map(|(p, q)| {
                    banded
                        .distance_early_abandon_with(p, q, f64::INFINITY, &mut scratch)
                        .unwrap()
                        .unwrap()
                })
                .sum()
        },
        mismatches,
    );
    // The lane kernel over the same band and budget. Each run of `LANES`
    // pairs shares its first pair's query, as a kNN scan's runs share the
    // scan's query; the baseline scores the same pairs one at a time.
    let runs: Vec<(&[f64], Vec<&[f64]>)> = inputs
        .chunks(LANES)
        .map(|run| (&run[0].0[..], run.iter().map(|(_, q)| &q[..]).collect()))
        .collect();
    timed_row(
        rec,
        "dtw_banded_abandon_lanes",
        band_cells,
        || {
            runs.iter()
                .flat_map(|(p, qs)| {
                    qs.iter().map(|q| {
                        baseline::dtw_early_abandon(p, q, banded_r, f64::INFINITY)
                            .unwrap()
                            .unwrap()
                    })
                })
                .sum()
        },
        || {
            runs.iter()
                .flat_map(|(p, qs)| {
                    banded
                        .distance_early_abandon_lanes(p, qs, f64::INFINITY, &mut scratch)
                        .unwrap()
                        .into_iter()
                        .flatten()
                })
                .sum()
        },
        mismatches,
    );
    timed_row(
        rec,
        "lcs",
        cells,
        || {
            inputs
                .iter()
                .map(|(p, q)| baseline::lcs(p, q, 0.3, 1.0))
                .sum()
        },
        || {
            let lcs = Lcs::new(0.3);
            inputs
                .iter()
                .map(|(p, q)| lcs.similarity_with(p, q, &mut scratch).unwrap())
                .sum()
        },
        mismatches,
    );
    timed_row(
        rec,
        "edit",
        cells,
        || {
            inputs
                .iter()
                .map(|(p, q)| baseline::edit(p, q, 0.3, 1.0))
                .sum()
        },
        || {
            let edit = EditDistance::new(0.3);
            inputs
                .iter()
                .map(|(p, q)| edit.distance_with(p, q, &mut scratch).unwrap())
                .sum()
        },
        mismatches,
    );
}

/// A seeded 4-class corpus: class `c` is a sine of frequency
/// `0.12 + 0.06c` with per-series phase and amplitude jitter plus noise.
fn class_corpus(count: usize, len: usize, seed: u64) -> Vec<(usize, Vec<f64>)> {
    let mut state = seed;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|i| {
            let class = i % 4;
            let (phase, amp) = (unit() * 0.8, 1.0 + unit() * 0.3);
            let freq = 0.12 + 0.06 * class as f64;
            let s = (0..len)
                .map(|t| (t as f64 * freq + phase).sin() * amp + (unit() - 0.5) * 0.3)
                .collect();
            (class, s)
        })
        .collect()
}

/// The pruned banded-DTW kNN scan against the exhaustive classifier on the
/// same corpus and queries; every answer must agree bitwise. Returns the
/// scan's speedup.
fn knn_run(
    rec: &mut Record,
    instances: usize,
    queries: usize,
    len: usize,
    mismatches: &mut usize,
) -> f64 {
    let (k, radius) = (3, 8);
    let train = class_corpus(instances, len, 7);
    let queries: Vec<Vec<f64>> = class_corpus(queries, len, 8)
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let mut clf = KnnClassifier::new(Box::new(Dtw::new().with_band(Band::SakoeChiba(radius))), k)
        .with_engine(BatchEngine::serial());
    clf.fit_all(train.iter().cloned());
    let series: Vec<&[f64]> = train.iter().map(|(_, s)| &s[..]).collect();
    let label_of = |i: usize| train[i].0;

    let key = |c: &Classified| (c.label, c.score.to_bits(), c.nearest_index);
    let exhaustive: Vec<_> = queries
        .iter()
        .map(|q| key(&clf.classify(q).unwrap()))
        .collect();
    let mut scratch = DpScratch::new();
    let mut stats = KnnStats::default();
    let mut identical = true;
    for (q, want) in queries.iter().zip(&exhaustive) {
        let (c, s) = banded_dtw_knn(q, &series, label_of, k, radius, &mut scratch).unwrap();
        if key(&c) != *want {
            eprintln!(
                "IDENTITY MISMATCH: knn_pruned {:?} vs exhaustive {want:?}",
                key(&c)
            );
            *mismatches += 1;
            identical = false;
        }
        stats.pruned_by_kim += s.pruned_by_kim;
        stats.pruned_by_keogh += s.pruned_by_keogh;
        stats.abandoned_early += s.abandoned_early;
        stats.full_computations += s.full_computations;
    }
    let (exhaustive_seconds, _) =
        best_of_3(|| queries.iter().map(|q| clf.classify(q).unwrap().score).sum());
    let (pruned_seconds, _) = best_of_3(|| {
        queries
            .iter()
            .map(|q| {
                banded_dtw_knn(q, &series, label_of, k, radius, &mut scratch)
                    .unwrap()
                    .0
                    .score
            })
            .sum()
    });
    rec.row("knn_pruned")
        .set("instances", instances)
        .set("queries", queries.len())
        .set("k", k)
        .set("radius", radius)
        .set("exhaustive_seconds", exhaustive_seconds)
        .set("pruned_seconds", pruned_seconds)
        .set("speedup", exhaustive_seconds / pruned_seconds)
        .set("pruned_by_kim", stats.pruned_by_kim)
        .set("pruned_by_keogh", stats.pruned_by_keogh)
        .set("abandoned", stats.abandoned_early)
        .set("full_dtw", stats.full_computations)
        .set("identical", identical);
    exhaustive_seconds / pruned_seconds
}

/// The subsequence search, baseline vs reworked at the default chunk size,
/// served (one chunk) and resident (one chunk over a prebuilt summary).
/// Returns the reworked path's speedup.
fn search_run(
    rec: &mut Record,
    haystack_len: usize,
    window: usize,
    radius: usize,
    mismatches: &mut usize,
) -> f64 {
    // Random-walk-flavoured haystack with a near-match planted mid-way: the
    // standard pruning regime (most windows die in the cascade, a few reach
    // the DP).
    let mut haystack: Vec<f64> = Vec::with_capacity(haystack_len);
    let mut level = 0.0f64;
    for i in 0..haystack_len {
        level += wave(i, 0.83, 0.35);
        haystack.push(level * 0.05 + wave(i, 0.19, 1.2));
    }
    let at = haystack_len / 2;
    let query: Vec<f64> = haystack[at..at + window]
        .iter()
        .enumerate()
        .map(|(i, &v)| v + wave(i, 1.7, 0.02))
        .collect();

    let (t_base, _) = best_of_3(|| baseline::search(&query, &haystack, window, radius).distance);
    let base = baseline::search(&query, &haystack, window, radius);

    let search = SubsequenceSearch::new(window, radius).with_engine(BatchEngine::serial());
    let (t_new, _) = best_of_3(|| search.run(&query, &haystack).unwrap().0.distance);
    let (m, stats) = search.run(&query, &haystack).unwrap();
    let served = search.with_engine(BatchEngine::serial().with_chunk_size(usize::MAX));
    let (t_served, _) = best_of_3(|| served.run(&query, &haystack).unwrap().0.distance);
    let (served_m, served_stats) = served.run(&query, &haystack).unwrap();
    // A resident series' summary is built once, at upload: outside the
    // timed closure.
    let summary = BlockSummary::new(&haystack);
    let resident = |s: &SubsequenceSearch| s.run_with_summary(&query, &haystack, &summary);
    let (t_resident, _) = best_of_3(|| resident(&served).unwrap().0.distance);
    let (resident_m, resident_stats) = resident(&served).unwrap();

    rec.row("search")
        .set("haystack_len", haystack_len)
        .set("window", window)
        .set("radius", radius)
        .set("baseline_seconds", t_base)
        .set("baseline_prune_rate", base.prune_rate());
    for (path, seconds, m, stats) in [
        ("new", t_new, &m, &stats),
        ("served", t_served, &served_m, &served_stats),
        ("resident", t_resident, &resident_m, &resident_stats),
    ] {
        let identical = m.offset == base.offset && m.distance.to_bits() == base.distance.to_bits();
        if !identical {
            eprintln!(
                "IDENTITY MISMATCH: search baseline ({}, {}) vs {path} ({}, {})",
                base.offset, base.distance, m.offset, m.distance
            );
            *mismatches += 1;
        }
        rec.row("search_paths")
            .set("path", path)
            .set("seconds", seconds)
            .set("speedup", t_base / seconds)
            .set("prune_rate", stats.prune_rate())
            .set("windows", stats.windows)
            .set("pruned_by_kim", stats.pruned_by_kim)
            .set("pruned_by_keogh", stats.pruned_by_keogh)
            .set("abandoned", stats.abandoned_early)
            .set("full_dtw", stats.full_computations)
            .set("identical", identical);
    }
    t_base / t_new
}

/// The golden fixture the analog rows are identity-gated against.
const ANALOG_GOLDEN: &str = include_str!("../../../core/tests/data/analog_golden.txt");

/// The fixture's inputs at length `len` (see `analog_golden.rs`): a
/// two-tone wave and a partner that nearly matches on even indices.
fn golden_inputs(config: &AcceleratorConfig, len: usize) -> (Vec<f64>, Vec<f64>) {
    let wave = |phase: f64| -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0 + (i as f64 * 0.09).cos() * 0.3)
            .collect()
    };
    let q: Vec<f64> = wave(0.35)
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 2 == 0 { v + 0.07 } else { v - 1.3 })
        .collect();
    let volts =
        |xs: &[f64]| -> Vec<f64> { xs.iter().map(|&x| config.value_to_voltage(x)).collect() };
    (volts(&wave(0.0)), volts(&q))
}

/// The fixture line's `(final voltage bits, steps)` for case `name`.
fn golden(name: &str) -> (u64, usize) {
    let line = ANALOG_GOLDEN
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("golden fixture has no case {name}"));
    let f: Vec<&str> = line.split(' ').collect();
    (
        u64::from_str_radix(f[1], 16).expect("hex bits"),
        f[2].parse().expect("step count"),
    )
}

/// Times `settle` and `simulate` on one golden case; `reps` runs each.
fn analog_row(
    rec: &mut Record,
    name: &str,
    case: &str,
    build: impl Fn(&[f64], &[f64]) -> AnalogGraph,
    reps: usize,
    mismatches: &mut usize,
) {
    let engine = AnalogEngine::new();
    let config = AcceleratorConfig::paper_defaults();
    let (p, q) = golden_inputs(&config, 32);
    let graph = build(&p, &q);
    let volts: Vec<f64> = p.iter().chain(&q).copied().collect();
    // Compiled over other inputs and re-programmed, as a cached tape is.
    let mut tape = Tape::compile(&build(&q, &p));
    let want = golden(case);
    let (t_settle, settle_bits) = best_of_3(|| {
        let mut last = 0.0;
        for _ in 0..reps {
            tape.set_inputs(volts.iter().copied());
            last = engine.settle(&mut tape).final_voltage;
        }
        last
    });
    let settled = engine.settle(&mut tape);
    let (t_sim, sim_bits) = best_of_3(|| {
        let mut last = 0.0;
        for _ in 0..reps {
            last = engine.simulate(&graph).final_voltage;
        }
        last
    });
    let sim = engine.simulate(&graph);
    let got = [
        (settle_bits.to_bits(), settled.steps),
        (sim_bits.to_bits(), sim.steps),
    ];
    let identical = got.iter().all(|&g| g == want);
    if !identical {
        eprintln!("IDENTITY MISMATCH: {name}: settle/simulate {got:?} vs golden {want:?}");
        *mismatches += 1;
    }
    let node_steps = (tape.len() * settled.steps * reps) as f64;
    rec.row("analog_settle")
        .set("name", name)
        .set("length", 32usize)
        .set("nodes", tape.len())
        .set("steps", settled.steps)
        .set("settle_ns_per_node_step", t_settle * 1e9 / node_steps)
        .set("simulate_ns_per_node_step", t_sim * 1e9 / node_steps)
        .set("identical", identical);
}

fn analog_rows(rec: &mut Record, reps: usize, mismatches: &mut usize) {
    let config = AcceleratorConfig::paper_defaults();
    let errors = || ErrorModel::new(config.noise_seed);
    analog_row(
        rec,
        "analog_settle_hausdorff",
        "hausdorff/32/paper/healthy",
        |p, q| builders::hausdorff(&config, p, q, 1.0, &mut errors()),
        reps,
        mismatches,
    );
    analog_row(
        rec,
        "analog_settle_dtw",
        "dtw/32/full/paper/healthy",
        |p, q| builders::dtw(&config, p, q, 1.0, Band::Full, &mut errors()),
        reps,
        mismatches,
    );
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (pairs, len, haystack_len, knn_instances, analog_reps) = if quick {
        (48, 128, 4096, 256, 2)
    } else {
        (128, 128, 16384, 1024, 20)
    };
    let window = 128;
    let radius = window / 20; // the paper's 5% band, rounded down to 6
    println!("DP kernel rework bench (serial)");

    let mut rec = Record::new(env!("CARGO_BIN_NAME"), quick);
    let mut mismatches = identity_sweep();
    kernel_rows(&mut rec, pairs, len, &mut mismatches);
    analog_rows(&mut rec, analog_reps, &mut mismatches);
    let search_speedup = search_run(&mut rec, haystack_len, window, radius, &mut mismatches);
    let knn_speedup = knn_run(&mut rec, knn_instances, 16, len, &mut mismatches);

    rec.at_most("identity_mismatches", mismatches, 0);
    rec.at_least("search_speedup", search_speedup, 2.0);
    rec.at_least("knn_speedup", knn_speedup, KNN_SPEEDUP_BOUND);
    rec.finish()
}
