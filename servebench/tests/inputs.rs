//! The benchmark's own inputs and statistics.

use mda_server::protocol::{Request, DEFAULT_MAX_FRAME_BYTES};
use servebench::drive::mining_query;
use servebench::gen::{frame, Inputs, STREAMS};
use servebench::stats::{median, percentile, tail};

/// Every frame the four phases would send for their first `n` requests,
/// concatenated.
fn request_stream(seed: u64, n: usize) -> Vec<u8> {
    let inputs = Inputs::new(seed);
    let mut out = Vec::new();
    for i in 0..n {
        let id = i as u64;
        out.extend(frame(id, inputs.pair(i).request()));
        out.extend(frame(id, inputs.tolerance_mix(i).request()));
        let (knn, k) = mining_query(i);
        let mining = if knn {
            inputs.knn_request(k)
        } else {
            inputs.search_request(k)
        };
        out.extend(frame(id, mining));
        let s = i % STREAMS.len();
        out.extend(frame(
            id,
            Request::PushPoints {
                stream_id: s as u64,
                points: inputs.stream_batch(s, (i / STREAMS.len()) as u64),
            },
        ));
    }
    out.extend(frame(
        0,
        Request::UploadDataset {
            name: "corpus".into(),
            entries: inputs.corpus_version(3),
        },
    ));
    out.extend(frame(
        0,
        Request::UploadDataset {
            name: "haystack".into(),
            entries: inputs.haystack_entries(),
        },
    ));
    out
}

#[test]
fn same_seed_yields_a_byte_identical_request_stream() {
    let a = request_stream(7, 400);
    let b = request_stream(7, 400);
    assert!(
        a.len() > 1 << 20,
        "stream covers every phase: {} bytes",
        a.len()
    );
    assert!(a == b, "two generations from one seed differ");
    assert!(
        a != request_stream(8, 400),
        "another seed must change the inputs"
    );
}

#[test]
fn set_up_uploads_fit_in_one_frame() {
    // Seed 414 once pushed a larger haystack dataset past the limit.
    for seed in [1, 7, 101, 414, 0x5eed_0ff5] {
        let inputs = Inputs::new(seed);
        for entries in [inputs.corpus_version(1), inputs.haystack_entries()] {
            let bytes = frame(
                0,
                Request::UploadDataset {
                    name: "haystack".into(),
                    entries,
                },
            );
            assert!(
                bytes.len() - 4 < DEFAULT_MAX_FRAME_BYTES * 9 / 10,
                "seed {seed}: {} bytes",
                bytes.len()
            );
        }
    }
}

#[test]
fn mixes_keep_their_composition_in_every_window() {
    let inputs = Inputs::new(3);
    // Every run of 9 consecutive tolerance-tagged pairs covers the kind
    // weights exactly, whatever the seed chose for values and lengths.
    let tagged: Vec<_> = (0..5 * 45)
        .map(|i| inputs.tolerance_mix(i))
        .filter(|c| c.tolerance.is_some())
        .collect();
    assert_eq!(tagged.len(), 45);
    for w in tagged.chunks(9) {
        let kinds: Vec<_> = w.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, servebench::gen::TOL_KINDS.to_vec());
    }
    // Exact pairs cycle through all six kinds.
    for w in inputs.pairs.chunks(6).take(20) {
        let mut kinds: Vec<_> = w.iter().map(|c| c.kind.abbrev()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 6);
    }
    // Two of every three search queries are cut from their haystack.
    let cut = (0..300).filter(|&i| inputs.search_query(i).2).count();
    assert_eq!(cut, 200);
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 90.0), Some(90.0));
    assert_eq!(percentile(&xs, 91.0), None);
    assert_eq!(percentile(&xs, 99.0), None);
    assert_eq!(tail(&xs), Some((90.0, 90.0)));

    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&xs, 99.0), Some(990.0));
    assert_eq!(percentile(&xs, 99.9), None);
    assert_eq!(tail(&xs), Some((99.0, 990.0)));

    assert_eq!(percentile(&xs[..9], 50.0), None);
    assert_eq!(tail(&xs[..9]), None);
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn median_handles_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}
