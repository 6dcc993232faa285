//! Exact pruning partitions on fixed seeded series. `search_props` and
//! `motif_props` check that the statistics partition the work and that the
//! answers agree with brute force, which a refactor that moves a window
//! between cascade stages still passes; these pins fail on any such move.

use std::sync::Arc;

use mda_acam::AcamPrefilter;
use mda_distance::batch::DEFAULT_CHUNK_SIZE;
use mda_distance::mining::{MotifDiscovery, SubsequenceSearch};
use mda_distance::BatchEngine;

/// A seeded xorshift random walk of `len` points that jumps by `jump`
/// every 1024 points, so distant stretches sit far from any query.
fn walk(seed: u64, len: usize, jump: f64) -> Vec<f64> {
    let mut state = seed;
    let mut x = 0.0;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            x += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if i % 1024 == 1023 {
                x += jump;
            }
            x
        })
        .collect()
}

#[test]
fn search_partitions_are_pinned() {
    let haystack = walk(0x9e37_79b9_7f4a_7c15, 8192, 4.0);
    // A window that is a multiple of the 16-term Keogh block, and one that
    // is not. Each pins (offset, windows, [prefilter, kim, keogh],
    // [abandoned, full]) of a plain, a z-normalized and a tuned-aCAM
    // filtered search, each at the default chunk and at one chunk.
    let cases = [(128, 8, 3000), (100, 5, 6100)];
    let pins = [
        [
            (2999, 8065, [0, 7166, 883], [14, 2]),
            (2999, 8065, [0, 7184, 865], [14, 2]),
            (3000, 8065, [0, 0, 6444], [1410, 211]),
            (3000, 8065, [0, 2832, 4936], [267, 30]),
            (2999, 8065, [6431, 751, 867], [14, 2]),
            (2999, 8065, [6431, 768, 850], [14, 2]),
        ],
        [
            (6100, 8093, [0, 7836, 247], [9, 1]),
            (6100, 8093, [0, 7836, 247], [9, 1]),
            (6100, 8093, [0, 7559, 530], [3, 1]),
            (6100, 8093, [0, 7559, 530], [3, 1]),
            (6100, 8093, [7763, 112, 208], [9, 1]),
            (6100, 8093, [7763, 112, 208], [9, 1]),
        ],
    ];
    for ((window, radius, planted), want) in cases.into_iter().zip(pins) {
        // A noisy copy of a haystack window, so the match is not exact.
        let noise = walk(0x2545_f491_4f6c_dd1d ^ window as u64, window, 0.0);
        let query: Vec<f64> = haystack[planted..planted + window]
            .iter()
            .zip(&noise)
            .map(|(x, n)| x + 0.05 * (n - noise[0]))
            .collect();
        let plain = SubsequenceSearch::new(window, radius);
        let configs = [
            plain.clone(),
            plain.clone().with_z_normalization(true),
            plain.with_prefilter(Arc::new(AcamPrefilter::tuned())),
        ];
        let mut got = Vec::new();
        for search in configs {
            for chunk in [DEFAULT_CHUNK_SIZE, usize::MAX] {
                let engine = BatchEngine::serial().with_chunk_size(chunk);
                let search = search.clone().with_engine(engine);
                let (m, s) = search.run(&query, &haystack).unwrap();
                let pruned = [s.pruned_by_prefilter, s.pruned_by_kim, s.pruned_by_keogh];
                let dtw = [s.abandoned_early, s.full_computations];
                got.push((m.offset, s.windows, pruned, dtw));
            }
        }
        assert_eq!(got, want, "window {window}, radius {radius}");
    }
}

#[test]
fn motif_partitions_are_pinned() {
    let series = walk(0x5851_f42d_4c95_7f2d, 600, 0.0);
    // The motif and `[pairs, pruned, full]` at the default chunk, at 7 and
    // at one chunk.
    let pins = [
        ((177, 283), [135981, 135725, 256]),
        ((177, 283), [135981, 135235, 746]),
        ((177, 283), [135981, 135931, 50]),
    ];
    for (chunk, want) in [DEFAULT_CHUNK_SIZE, 7, usize::MAX].into_iter().zip(pins) {
        let engine = BatchEngine::serial().with_chunk_size(chunk);
        let discovery = MotifDiscovery::new(40, 4).with_engine(engine);
        let (m, s) = discovery.find_with_stats(&series).unwrap();
        let counts = [s.pairs, s.pruned, s.full_computations];
        assert_eq!(((m.first, m.second), counts), want);
    }
}

#[test]
fn odd_shape_search_partitions_are_pinned() {
    let haystack = walk(0x9e37_79b9_7f4a_7c15, 8192, 4.0);
    // A 90-point query against 100-point windows (the cascade skips both
    // LB_Keogh layers), and a close query over a haystack of 2w − 3
    // points, where the first and last elements of the windows leave a
    // middle stretch that no window starts or ends in. Each pins (offset,
    // windows, [prefilter, kim, keogh], [abandoned, full]) of a plain and a
    // tuned-aCAM filtered search, each at the default chunk and at one
    // chunk.
    let noise = walk(0x2545_f491_4f6c_dd1d, 128, 0.0);
    let noisy = |at: usize, len: usize, amplitude: f64| -> Vec<f64> {
        haystack[at..at + len]
            .iter()
            .zip(&noise)
            .map(|(x, n)| x + amplitude * (n - noise[0]))
            .collect()
    };
    let short = &haystack[2990..2990 + 2 * 128 - 3];
    let cases = [
        (100, 5, noisy(6100, 90, 0.05), &haystack[..]),
        (128, 8, noisy(3050, 128, 0.002), short),
    ];
    let pins = [
        [
            (6096, 8093, [0, 6091, 0], [1997, 5]),
            (6096, 8093, [0, 6696, 0], [1392, 5]),
            (6096, 8093, [0, 6091, 0], [1997, 5]),
            (6096, 8093, [0, 6696, 0], [1392, 5]),
        ],
        [
            (60, 126, [0, 122, 2], [1, 1]),
            (60, 126, [0, 122, 2], [1, 1]),
            (60, 126, [117, 7, 0], [1, 1]),
            (60, 126, [117, 7, 0], [1, 1]),
        ],
    ];
    for ((window, radius, query, haystack), want) in cases.into_iter().zip(pins) {
        let plain = SubsequenceSearch::new(window, radius);
        let configs = [
            plain.clone(),
            plain.with_prefilter(Arc::new(AcamPrefilter::tuned())),
        ];
        let mut got = Vec::new();
        for search in configs {
            for chunk in [DEFAULT_CHUNK_SIZE, usize::MAX] {
                let engine = BatchEngine::serial().with_chunk_size(chunk);
                let search = search.clone().with_engine(engine);
                let (m, s) = search.run(&query, haystack).unwrap();
                let pruned = [s.pruned_by_prefilter, s.pruned_by_kim, s.pruned_by_keogh];
                let dtw = [s.abandoned_early, s.full_computations];
                got.push((m.offset, s.windows, pruned, dtw));
            }
        }
        assert_eq!(got, want, "window {window}, radius {radius}");
    }
}
