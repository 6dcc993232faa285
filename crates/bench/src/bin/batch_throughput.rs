//! Serial-vs-parallel throughput of the mining hot path on the
//! [`BatchEngine`]: the host-level counterpart of the paper's data-center
//! framing, where one simulated accelerator runs per core.
//!
//! Runs three representative workloads — 1-NN classification, motif
//! discovery and a streamed accelerator batch — once on a serial engine and
//! once per candidate thread count, verifies the results are **bitwise
//! identical** (the engine's core guarantee), and reports wall-clock
//! speedups. Exits non-zero on any result mismatch.
//!
//! On a multi-core host expect roughly linear speedup until the core count
//! is reached; on a single-core container the speedup column stays ~1.0x
//! while the identity checks still exercise the multi-threaded paths.
//!
//! Writes `results/BENCH_batch_throughput.json`.

use std::process::ExitCode;
use std::time::Instant;

use mda_bench::Record;
use mda_core::{AcceleratorConfig, DistanceAccelerator};
use mda_distance::mining::{KnnClassifier, MotifDiscovery};
use mda_distance::{BatchEngine, DistanceKind, Dtw};

fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i + 7 * seed) as f64 * 0.31).sin() * 2.0 + (seed as f64 * 0.618).cos())
        .collect()
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

fn knn_labels(engine: BatchEngine, queries: &[Vec<f64>]) -> Vec<(usize, u64)> {
    let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1).with_engine(engine);
    for i in 0..60 {
        knn.fit(i % 3, series(96, i));
    }
    queries
        .iter()
        .map(|q| {
            let c = knn.classify(q).expect("well-formed inputs");
            (c.label, c.score.to_bits())
        })
        .collect()
}

fn motif_result(engine: BatchEngine, xs: &[f64]) -> (usize, usize, u64) {
    let m = MotifDiscovery::new(48, 4)
        .with_engine(engine)
        .find(xs)
        .expect("well-formed inputs");
    (m.first, m.second, m.distance.to_bits())
}

fn stream_report(engine: &BatchEngine, pairs: &[(Vec<f64>, Vec<f64>)]) -> (usize, u64, u64) {
    let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
    acc.configure(DistanceKind::Manhattan).expect("valid kind");
    let r = acc
        .run_stream_with(pairs, engine)
        .expect("well-formed pairs");
    (
        r.computations,
        r.analog_time_s.to_bits(),
        r.mean_relative_error.to_bits(),
    )
}

/// One `measurements` row: a workload's parallel run against its serial
/// one. Returns whether the two results were bitwise identical.
fn measure<R: PartialEq>(
    rec: &mut Record,
    workload: &str,
    threads: usize,
    serial: &(R, f64),
    parallel: (R, f64),
) -> bool {
    let identical = parallel.0 == serial.0;
    if !identical {
        eprintln!("MISMATCH: {workload} results differ at {threads} threads");
    }
    rec.row("measurements")
        .set("workload", workload)
        .set("threads", threads)
        .set("serial_seconds", serial.1)
        .set("parallel_seconds", parallel.1)
        .set("speedup", serial.1 / parallel.1)
        .set("identical", identical);
    identical
}

fn main() -> ExitCode {
    let mut rec = Record::new(env!("CARGO_BIN_NAME"), false);
    let thread_counts: Vec<usize> = [2usize, 4, rec.cores()]
        .into_iter()
        .filter(|&t| t > 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let queries: Vec<Vec<f64>> = (100..116).map(|s| series(96, s)).collect();
    let haystack: Vec<f64> = (0..700).flat_map(|s| series(2, s)).collect();
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..48)
        .map(|k| (series(24, k), series(24, k + 500)))
        .collect();

    println!("batch engine throughput");
    let knn_serial = time(|| knn_labels(BatchEngine::serial(), &queries));
    let motif_serial = time(|| motif_result(BatchEngine::serial(), &haystack));
    let stream_serial = time(|| stream_report(&BatchEngine::serial(), &pairs));

    let mut mismatches = 0usize;
    for &threads in &thread_counts {
        let engine = BatchEngine::serial().with_threads(threads);
        let runs = [
            measure(
                &mut rec,
                "knn_classify",
                threads,
                &knn_serial,
                time(|| knn_labels(engine.clone(), &queries)),
            ),
            measure(
                &mut rec,
                "motif_discovery",
                threads,
                &motif_serial,
                time(|| motif_result(engine.clone(), &haystack)),
            ),
            measure(
                &mut rec,
                "accelerator_stream",
                threads,
                &stream_serial,
                time(|| stream_report(&engine, &pairs)),
            ),
        ];
        mismatches += runs.iter().filter(|&&identical| !identical).count();
    }
    rec.at_most("result_mismatches", mismatches, 0);
    rec.finish()
}
