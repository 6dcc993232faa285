//! Streaming push-mode bench: the five-stage incremental pipeline of
//! `mda-streaming` against a naive per-push batch recompute, plus the
//! differential identity gate and replay byte-stability.
//!
//! Three gates, all serial (one simulated accelerator host core):
//!
//! 1. **Differential identity (fatal)** — [`mda_streaming::check_series`]
//!    over a window/band sweep: every operator output (window, z-norm,
//!    envelope, cascade decision, motif/discord fold) must be **bitwise**
//!    equal to a from-scratch batch recomputation at every push. Any
//!    mismatch exits non-zero.
//! 2. **Incremental speedup (fatal)** — per-push wall-clock of the
//!    incremental pipeline vs the naive baseline: a *stateless* per-push
//!    batch recompute, the way a batch-API client would serve push-mode
//!    answers — fresh z-norm and envelope allocations, a cold `DpScratch`,
//!    and (carrying no state between pushes) no pruning certificate, so
//!    the full banded DTW runs at threshold ∞ on every push. The pipeline
//!    must be ≥ 5× faster at window 512. An untimed pass checks the two
//!    agree: every incremental certified bound is admissible against the
//!    naive exact distance, bitwise equal on computed epochs.
//! 3. **Replay byte-stability (fatal)** — two replays of one recording on
//!    the virtual clock must render byte-identical outcomes.
//!
//! Writes `results/BENCH_streaming.json`. `--quick` shrinks the workload
//! for CI; all three gates stay fatal in both modes.

use std::process::ExitCode;
use std::time::Instant;

use mda_bench::Record;
use mda_distance::lower_bounds::{envelope, Cascade, PruneDecision};
use mda_distance::{znorm, DpScratch};
use mda_streaming::{
    certified_bound, check_series, replay, PruneFrameStats, ReplayConfig, ReplayOutcome,
    ReplaySpeed, StreamConfig, StreamPipeline, Value,
};

/// The speedup the incremental pipeline must hold over the naive
/// baseline at window [`GATE_WINDOW`].
const GATE_SPEEDUP: f64 = 5.0;
/// The window the speedup gate is judged at.
const GATE_WINDOW: usize = 512;

fn wave(i: usize, k: f64, amp: f64) -> f64 {
    (i as f64 * k).sin() * amp + (i as f64 * 0.013).cos() * 0.6
}

/// Random-walk-flavoured stream whose *opening window* is a distinctive
/// pattern, with the query cut from that opening — the steady-state
/// streaming motif-search regime: the very first warm push computes the
/// tight near-match, after which the carried pruning certificate settles
/// nearly every push in the O(1)/O(w) bound layers and the DP re-runs
/// only when a window genuinely threatens the record. The stateless
/// naive baseline, carrying no certificate, pays the full banded DTW on
/// every one of those same pushes.
fn workload(len: usize, window: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(len >= 3 * window, "stream too short to plant the query");
    let mut points: Vec<f64> = Vec::with_capacity(len);
    let mut level = 0.0f64;
    for i in 0..len {
        level += wave(i, 0.83, 0.35);
        points.push(level * 0.05 + wave(i, 0.19, 1.2));
    }
    // The planted pattern: a high-frequency burst with an amplitude the
    // ambient walk never reaches, anchored at an extreme first point so
    // non-overlapping windows die in the O(1) LB_Kim layer.
    for (j, slot) in points[..window].iter_mut().enumerate() {
        *slot = 4.0 * (j as f64 * 1.3).cos() + wave(j, 0.47, 0.3);
    }
    // The query is the plant under tiny jitter, so the folded-in
    // best-so-far is tight from the first warm push.
    let query: Vec<f64> = points[..window]
        .iter()
        .enumerate()
        .map(|(i, &v)| v + 0.002 * (i as f64 * 1.7).sin())
        .collect();
    (query, points)
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

fn stream_config(window: usize, query: Vec<f64>) -> StreamConfig {
    StreamConfig {
        window,
        band: (window / 20).max(1), // the paper's 5% band, floor 1
        query,
        threshold: None,
    }
}

/// Gate 1: the differential identity sweep. Returns total gated pushes,
/// or the first mismatch rendered as a string.
fn identity_gate(quick: bool) -> Result<(usize, u64), String> {
    let windows: &[usize] = if quick {
        &[8, 64, GATE_WINDOW]
    } else {
        &[1, 2, 8, 64, 128, GATE_WINDOW]
    };
    let mut configs = 0usize;
    let mut pushes = 0u64;
    for &w in windows {
        let (query, points) = workload(3 * w + w / 2 + 7, w);
        for band in [0usize, (w / 20).max(1).min(w), w] {
            let config = StreamConfig {
                window: w,
                band,
                query: query.clone(),
                threshold: Some(25.0),
            };
            let report = check_series(&config, &points)
                .map_err(|e| format!("window {w} band {band}: {e}"))?;
            configs += 1;
            pushes += report.pushes;
        }
    }
    Ok((configs, pushes))
}

/// One push of the naive baseline: the batch paths over the current
/// window, the way a stateless batch-API client would serve a push-mode
/// answer — fresh allocations, a fresh cascade and cold scratch, and (no
/// carried state) no pruning certificate, so the full banded DTW runs at
/// threshold ∞.
fn naive_push(query: &[f64], win: &[f64], band: usize) -> f64 {
    let z = znorm::z_normalized(win);
    std::hint::black_box(&z);
    let env = envelope(win, band).expect("band <= window");
    std::hint::black_box(&env);
    match Cascade::new(query, band)
        .decide(win, f64::INFINITY, &mut DpScratch::new())
        .expect("equal lengths")
    {
        PruneDecision::Computed(d) => d,
        other => unreachable!("threshold ∞ cannot prune: {other:?}"),
    }
}

/// Gate 2 measurement at one window: the incremental pipeline vs the
/// stateless per-push batch recompute, as one `pipelines` row. Returns the
/// speedup and whether every certified bound was admissible.
fn speed_row(rec: &mut Record, window: usize, len: usize) -> (f64, bool) {
    let (query, points) = workload(len, window);
    let config = stream_config(window, query);
    let band = config.band;

    let mut cascade = PruneFrameStats::default();
    let (t_incr, _) = best_of_3(|| {
        let mut pipeline = StreamPipeline::new(config.clone()).expect("valid config");
        cascade = PruneFrameStats::default();
        let mut acc = 0.0;
        for &x in &points {
            let r = pipeline.push(x).expect("finite point");
            if let Some(Value::Match(mf)) = r.matcher.value() {
                cascade.record(mf.decision);
                acc += certified_bound(mf.decision, mf.threshold);
            }
        }
        acc
    });

    let (t_naive, _) = best_of_3(|| {
        let mut acc = 0.0;
        for end in window..=points.len() {
            acc += naive_push(&config.query, &points[end - window..end], band);
        }
        acc
    });

    // Untimed agreement pass: the incremental certified bound must never
    // exceed the naive exact distance, and computed epochs must agree
    // bitwise (both run the identical DP kernel to completion there).
    let mut admissible = true;
    let mut pipeline = StreamPipeline::new(config.clone()).expect("valid config");
    for (i, &x) in points.iter().enumerate() {
        let r = pipeline.push(x).expect("finite point");
        let Some(Value::Match(mf)) = r.matcher.value() else {
            continue;
        };
        let exact = naive_push(&config.query, &points[i + 1 - window..=i], band);
        let bound = certified_bound(mf.decision, mf.threshold);
        let ok = match mf.decision {
            PruneDecision::Computed(d) => d.to_bits() == exact.to_bits(),
            _ => bound <= exact,
        };
        if !ok {
            eprintln!(
                "ADMISSIBILITY VIOLATION at epoch {}: certified {bound} vs exact {exact} ({:?})",
                i + 1,
                mf.decision
            );
            admissible = false;
        }
    }

    let warm = (len - window + 1) as f64;
    let speedup = t_naive / t_incr;
    rec.row("pipelines")
        .set("window", window)
        .set("band", band)
        .set("points", len)
        .set("naive_seconds", t_naive)
        .set("incremental_seconds", t_incr)
        .set("naive_us_per_push", t_naive * 1e6 / warm)
        .set("incremental_us_per_push", t_incr * 1e6 / warm)
        .set("speedup", speedup)
        .set("admissible", admissible)
        .set("cascade_computed", cascade.computed)
        .set("cascade_pruned_kim", cascade.pruned_kim)
        .set("cascade_pruned_keogh", cascade.pruned_keogh)
        .set("cascade_abandoned", cascade.abandoned);
    (speedup, admissible)
}

/// Gate 3: two replays of one recording must render byte-identically.
fn replay_gate(quick: bool) -> (ReplayOutcome, bool) {
    let window = 128;
    let (query, points) = workload(if quick { 2048 } else { 8192 }, window);
    let config = stream_config(window, query);
    let rc = ReplayConfig {
        period_ns: 1_000_000,
        speed: ReplaySpeed::times(8).expect("nonzero"),
    };
    let first = replay(&config, &points, &rc).expect("finite recording");
    let second = replay(&config, &points, &rc).expect("finite recording");
    let stable = first == second && first.to_text() == second.to_text();
    (first, stable)
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("streaming push-mode bench (serial)");
    let mut rec = Record::new(env!("CARGO_BIN_NAME"), quick);

    // Gate 1: differential identity.
    let mismatches = match identity_gate(quick) {
        Ok((configs, pushes)) => {
            rec.row("identity")
                .set("configs", configs)
                .set("pushes", pushes);
            0u64
        }
        Err(e) => {
            eprintln!("DIFFERENTIAL IDENTITY MISMATCH: {e}");
            1
        }
    };
    rec.at_most("identity_mismatches", mismatches, 0);

    // Gate 2: incremental vs naive per-push recompute.
    let sweep: &[(usize, usize)] = if quick {
        &[(128, 2048), (GATE_WINDOW, 4096)]
    } else {
        &[(64, 8192), (128, 8192), (256, 8192), (GATE_WINDOW, 8192)]
    };
    let mut gate_speedup = 0.0;
    let mut inadmissible = 0usize;
    for &(window, len) in sweep {
        let (speedup, admissible) = speed_row(&mut rec, window, len);
        inadmissible += usize::from(!admissible);
        if window == GATE_WINDOW {
            gate_speedup = speedup;
        }
    }
    rec.at_most("inadmissible_windows", inadmissible, 0);
    let gate = format!("speedup_at_window_{GATE_WINDOW}");
    rec.at_least(&gate, gate_speedup, GATE_SPEEDUP);

    // Gate 3: replay byte-stability.
    let (replayed, replay_stable) = replay_gate(quick);
    rec.row("replay")
        .set("pushes", replayed.pushes)
        .set("warming", replayed.warming)
        .set("virtual_elapsed_ns", replayed.virtual_elapsed_ns)
        .set("fingerprint", format!("{:016x}", replayed.fingerprint));
    rec.holds("replay_byte_stable", replay_stable);
    rec.finish()
}
