//! Property tests for the pruned motif discovery: on every series it must
//! return bitwise what the brute-force scan returns — the same pair of
//! offsets and the same distance bits — at every stride, chunk size and
//! thread count. Its statistics must partition the window pairs and must
//! not depend on the thread count.
//!
//! Series are random walks, plateaus (long runs of a few levels, `0.0` and
//! `-0.0` among them, so many pairs tie) and constants (every pair ties at
//! distance zero, so only the tie-breaking picks the answer).

use proptest::prelude::*;

use mda_distance::mining::{MotifDiscovery, MotifStats};
use mda_distance::BatchEngine;

const STRIDES: [usize; 3] = [1, 2, 5];
const CHUNKS: [usize; 4] = [1, 7, 64, usize::MAX];
const THREADS: [usize; 2] = [1, 3];

/// The running sum of `steps`.
fn walk(steps: Vec<f64>) -> Vec<f64> {
    let mut x = 0.0;
    steps
        .into_iter()
        .map(|s| {
            x += s;
            x
        })
        .collect()
}

/// `(level, run length)` runs over a few levels, cut to `len` points.
fn plateaus(runs: Vec<(usize, usize)>, len: usize) -> Vec<f64> {
    const LEVELS: [f64; 4] = [-1.0, -0.0, 0.0, 2.5];
    runs.into_iter()
        .flat_map(|(level, run)| std::iter::repeat_n(LEVELS[level], run))
        .take(len)
        .collect()
}

/// A random walk, plateaus or a constant, of 16 to 55 points.
fn series() -> impl Strategy<Value = Vec<f64>> {
    (16usize..56).prop_flat_map(|len| {
        (
            0u8..3,
            prop::collection::vec(-1.0..1.0, len),
            prop::collection::vec((0usize..4, 1usize..7), len),
            -3.0..3.0,
        )
            .prop_map(move |(kind, steps, runs, c)| match kind {
                0 => walk(steps),
                1 => plateaus(runs, len),
                _ => vec![c; len],
            })
    })
}

/// Pairs of non-overlapping windows at this stride, counted directly.
fn pair_count(len: usize, window: usize, stride: usize) -> usize {
    let offsets: Vec<usize> = (0..=len - window).step_by(stride).collect();
    offsets
        .iter()
        .map(|&a| offsets.iter().filter(|&&b| b >= a + window).count())
        .sum()
}

fn check(xs: &[f64], window: usize, radius: usize) {
    for stride in STRIDES {
        let discovery = MotifDiscovery::new(window, radius).with_stride(stride);
        let brute = discovery.find_brute_force(xs).unwrap();
        let expected = (brute.first, brute.second, brute.distance.to_bits());
        let pairs = pair_count(xs.len(), window, stride);
        for chunk in CHUNKS {
            let mut stats_at_chunk: Option<MotifStats> = None;
            for threads in THREADS {
                let engine = BatchEngine::serial()
                    .with_threads(threads)
                    .with_chunk_size(chunk);
                let (motif, stats) = discovery
                    .clone()
                    .with_engine(engine)
                    .find_with_stats(xs)
                    .unwrap();
                let ctx = format!(
                    "window {window} radius {radius} stride {stride} chunk {chunk} \
                     threads {threads}: {stats:?}"
                );
                assert_eq!(
                    (motif.first, motif.second, motif.distance.to_bits()),
                    expected,
                    "{ctx}"
                );
                assert_eq!(stats.pairs, pairs, "{ctx}");
                assert_eq!(stats.pairs, stats.pruned + stats.full_computations, "{ctx}");
                match stats_at_chunk {
                    None => stats_at_chunk = Some(stats),
                    Some(first) => assert_eq!(stats, first, "{ctx}"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_motif_is_bitwise_brute_force(
        xs in series(),
        window in 2usize..8,
        radius in 0usize..4,
    ) {
        check(&xs, window, radius);
    }
}

/// Every pair ties at zero: the answer is the first pair in scan order,
/// however the first windows are chunked.
#[test]
fn constant_series_returns_the_first_pair() {
    for (len, window) in [(16, 4), (23, 5), (40, 3)] {
        let xs = vec![1.25; len];
        check(&xs, window, 1);
        let motif = MotifDiscovery::new(window, 1).find(&xs).unwrap();
        assert_eq!((motif.first, motif.second), (0, window));
    }
}
