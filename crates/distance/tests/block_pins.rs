//! Block-edge search pins: the match (offset and distance bits) or the
//! error, and every `SearchStats` counter, of subsequence searches whose
//! shapes sit on the edges of 64-sample blocks, at engine chunk sizes 1,
//! 7, 63, 64, 65 and one chunk, compared line by line with
//! `tests/data/block_pins.txt`.
//!
//! The cases cover haystack lengths of `k·64 − 1`, `k·64` and `k·64 + 1`;
//! windows whose `w − 1` is a multiple of 64 and windows whose is not;
//! LB_Kim ties that straddle a block edge; a scout in the trailing partial
//! block; a bitwise-constant haystack and `±0.0` plateaus; and finite
//! values whose LB_Kim (and DTW) overflow to infinity. Each runs plain;
//! most also run z-normalized and behind the tuned aCAM pre-filter.
//!
//! The pins record what the search returns, not what it should: a change
//! that moves any line moves a window between cascade stages or changes
//! an answer. After a deliberate change to the cases, rewrite the file
//! with `cargo test -p mda-distance --test block_pins -- --ignored` and
//! review the diff.

use std::path::PathBuf;
use std::sync::Arc;

use mda_acam::AcamPrefilter;
use mda_distance::mining::SubsequenceSearch;
use mda_distance::BatchEngine;

/// The engine chunk sizes every case runs at.
const CHUNKS: [usize; 6] = [1, 7, 63, 64, 65, usize::MAX];

/// A seeded xorshift random walk of `len` points that jumps by `jump`
/// every 256 points, so distant blocks sit far from any query.
fn walk(seed: u64, len: usize, jump: f64) -> Vec<f64> {
    let mut state = seed;
    let mut x = 0.0;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            x += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if i % 256 == 255 {
                x += jump;
            }
            x
        })
        .collect()
}

/// A noisy copy of `haystack[at..at + len]`, so the match is not exact.
fn noisy(haystack: &[f64], at: usize, len: usize, amplitude: f64) -> Vec<f64> {
    let noise = walk(0x2545_f491_4f6c_dd1d ^ len as u64, len, 0.0);
    haystack[at..at + len]
        .iter()
        .zip(&noise)
        .map(|(x, n)| x + amplitude * (n - noise[0]))
        .collect()
}

/// One pinned search: a name, the query, the haystack, window, radius and
/// whether the z-normalized and pre-filtered configurations run too.
struct Case {
    name: String,
    query: Vec<f64>,
    haystack: Vec<f64>,
    window: usize,
    radius: usize,
    all_configs: bool,
}

fn case(name: impl Into<String>, query: Vec<f64>, haystack: Vec<f64>, radius: usize) -> Case {
    Case {
        name: name.into(),
        window: query.len(),
        query,
        haystack,
        radius,
        all_configs: true,
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    // Lengths around a block edge, windows with and without `w − 1` a
    // multiple of 64, planted near the middle and near the end.
    for k in [4usize, 9] {
        for len in [k * 64 - 1, k * 64, k * 64 + 1] {
            let hay = walk(0x9e37_79b9_7f4a_7c15 ^ len as u64, len, 3.0);
            for window in [16usize, 64, 65, 100, 129] {
                if window > len {
                    continue;
                }
                for at in [len / 2 - window / 2, len - window] {
                    let query = noisy(&hay, at, window, 0.05);
                    out.push(case(
                        format!("edge len={len} w={window} at={at}"),
                        query,
                        hay.clone(),
                        window / 20,
                    ));
                }
            }
        }
    }

    // LB_Kim ties straddling a block edge: windows 63 and 64 (and 191
    // and 192) have equal, smallest bounds, and the first of them, a
    // copy of the query, is the scout.
    for window in [16usize, 65] {
        let mut hay: Vec<f64> = walk(0x5851_f42d_4c95_7f2d, 600, 0.0)
            .iter()
            .map(|x| x + 40.0)
            .collect();
        let query = noisy(&walk(0x1234_5678_9abc_def1, 200, 0.0), 10, window, 0.5);
        hay[63..63 + window].copy_from_slice(&query);
        for off in [64usize, 191, 192] {
            hay[off] = query[0];
            hay[off + window - 1] = query[window - 1];
        }
        out.push(case(format!("tie-edge w={window}"), query, hay, 2));
    }

    // Equal smallest bounds in two blocks, the later block's in a lower
    // lane, and then a scout in the trailing partial block.
    {
        let window = 20;
        let mut hay: Vec<f64> = walk(0x0dd_ba11_cafe_f00d, 64 * 7 + 23, 0.0)
            .iter()
            .map(|x| x - 25.0)
            .collect();
        let query = noisy(&walk(0x7777_1111_2222_3333, 100, 0.0), 5, window, 0.3);
        for off in [70usize, 193] {
            hay[off..off + window].copy_from_slice(&query);
            hay[off] = query[0] + 0.25;
        }
        hay[194] += 0.5;
        out.push(case("tie-two-blocks", query.clone(), hay.clone(), 1));
        let last = hay.len() - window;
        hay[last..].copy_from_slice(&query);
        hay[last + 1] += 0.75;
        out.push(case("scout-trailing-partial", query, hay, 1));
    }

    // A bitwise-constant haystack: every window ties every other.
    for len in [191usize, 192, 193] {
        out.push(case(
            format!("constant len={len}"),
            vec![0.25, 1.0, -0.5, 0.25],
            vec![0.75; len],
            1,
        ));
    }

    // ±0.0 plateaus: stretches of `0.0` and `-0.0` whose windows all have
    // a zero bound against a query with zero ends.
    {
        let hay: Vec<f64> = (0..300)
            .map(|i| match (i / 50) % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f64 * 0.37).sin(),
            })
            .collect();
        let query = vec![0.0, 0.5, -0.25, 0.125, -0.0];
        out.push(case("signed-zero", query.clone(), hay.clone(), 1));
        out.push(case("signed-zero-neg-ends", vec![-0.0, 0.5, 0.0], hay, 0));
    }

    // Finite values whose LB_Kim overflows: some windows' bounds are +∞;
    // every other window's; and every window's, whose DTW overflows too.
    {
        let mut hay = walk(0x4242_4242_4242_4242, 257, 0.0);
        for off in (0..hay.len()).step_by(3) {
            hay[off] = if off % 2 == 0 { 1e308 } else { -1e308 };
        }
        out.push(case(
            "overflow-some",
            vec![-1e308, 0.5, 0.25, 1e308],
            hay,
            1,
        ));
        let hay: Vec<f64> = (0..130)
            .map(|i| if i % 2 == 0 { 1e308 } else { -1e308 })
            .collect();
        out.push(case(
            "overflow-alternate",
            vec![-1e308, 1e308, -1e308],
            hay,
            0,
        ));
        out.push(case(
            "overflow-all",
            vec![-1e308, 0.0, -1e308],
            vec![1e308; 129],
            0,
        ));
    }

    // Non-finite haystack elements: the error names the first one.
    {
        let hay = walk(0x3333_4444_5555_6666, 300, 0.0);
        let query = hay[10..26].to_vec();
        for (at, bad) in [
            (200usize, f64::NAN),
            (299, f64::NEG_INFINITY),
            (63, f64::INFINITY),
        ] {
            let mut hay = hay.clone();
            hay[at] = bad;
            hay[at / 2] = if at == 63 { f64::NAN } else { hay[at / 2] };
            out.push(case(format!("non-finite at={at}"), query.clone(), hay, 1));
        }
    }

    // A one-point query, which bounds a one-point window by its one cell.
    {
        let hay = walk(0x1111_2222_3333_4444, 129, 0.0);
        let mut c = case("one-point", vec![hay[100] + 0.01], hay, 0);
        c.all_configs = false;
        out.push(c);
    }

    // A long haystack whose distant blocks LB_Kim prunes whole.
    {
        let hay = walk(0x9e37_79b9_7f4a_7c15, 64 * 40 + 17, 6.0);
        for (window, at) in [(128usize, 1500usize), (65, 2000), (100, 2470)] {
            let query = noisy(&hay, at, window, 0.02);
            out.push(case(
                format!("long w={window} at={at}"),
                query,
                hay.clone(),
                window / 20,
            ));
        }
    }
    out
}

/// Every pinned line, in order.
fn outcomes() -> Vec<String> {
    let mut lines = Vec::new();
    for c in cases() {
        let plain = SubsequenceSearch::new(c.window, c.radius);
        let mut configs = vec![("plain", plain.clone())];
        if c.all_configs {
            configs.push(("znorm", plain.clone().with_z_normalization(true)));
            configs.push((
                "acam",
                plain.with_prefilter(Arc::new(AcamPrefilter::tuned())),
            ));
        }
        for (config, search) in configs {
            for chunk in CHUNKS {
                let engine = BatchEngine::serial().with_chunk_size(chunk);
                let outcome = match search
                    .clone()
                    .with_engine(engine)
                    .run(&c.query, &c.haystack)
                {
                    Ok((m, s)) => format!(
                        "{} {:016x} {} [{} {} {}] [{} {}]",
                        m.offset,
                        m.distance.to_bits(),
                        s.windows,
                        s.pruned_by_prefilter,
                        s.pruned_by_kim,
                        s.pruned_by_keogh,
                        s.abandoned_early,
                        s.full_computations
                    ),
                    Err(e) => format!("err {e}"),
                };
                let chunk = if chunk == usize::MAX {
                    "one".to_string()
                } else {
                    chunk.to_string()
                };
                lines.push(format!("{} | {config} chunk={chunk} | {outcome}", c.name));
            }
        }
    }
    lines
}

fn pins_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/block_pins.txt")
}

#[test]
fn block_edge_searches_match_the_pins() {
    let path = pins_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let pinned: Vec<&str> = text.lines().collect();
    let got = outcomes();
    for (i, (want, got)) in pinned.iter().zip(&got).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(got.len(), pinned.len(), "pinned line count");
}

#[test]
#[ignore = "rewrites tests/data/block_pins.txt"]
fn rewrite_block_pins() {
    let mut text = outcomes().join("\n");
    text.push('\n');
    std::fs::create_dir_all(pins_path().parent().unwrap()).unwrap();
    std::fs::write(pins_path(), text).unwrap();
}
