//! Window-edge arithmetic property tests: sliding z-normalization and
//! incremental envelopes must be **bitwise** equal to their batch
//! counterparts across window sizes 1..=512, including constant and
//! zero-variance windows (the Welford relative floor) and rejected NaN
//! pushes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mda_distance::lower_bounds::envelope;
use mda_distance::znorm;
use mda_streaming::{check_series, Output, StreamConfig, StreamError, StreamPipeline, Value};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Streams whose values exercise sign flips, plateaus, and magnitude
/// jumps (including exact zeros of both signs — the bitwise tie cases).
fn point_strategy() -> impl Strategy<Value = f64> {
    (0u8..12, -1.0e3..1.0e3f64).prop_map(|(k, v)| match k {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e9,
        3 => -1.0e9,
        4 | 5 => 2.5, // plateau fodder: repeats collide bitwise
        _ => v,
    })
}

fn config_for(window: usize, band: usize) -> StreamConfig {
    StreamConfig {
        window,
        band,
        query: (0..window).map(|i| (i as f64 * 0.45).sin()).collect(),
        threshold: None,
    }
}

/// Extends `points` cyclically until it covers a full window plus a
/// sliding tail.
fn cover_window(mut points: Vec<f64>, window: usize) -> Vec<f64> {
    while points.len() < window + 3 {
        let extend = points.clone();
        points.extend(extend);
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sliding z-norm output is bitwise the batch z-norm of every window
    /// the stream slides through, for window sizes across 1..=512.
    #[test]
    fn sliding_znorm_is_bitwise_batch(
        wsel in 0usize..6,
        points in proptest::collection::vec(point_strategy(), 1..80),
        tail in proptest::collection::vec(point_strategy(), 0..40),
    ) {
        let window = [1usize, 2, 5, 16, 257, 512][wsel];
        let mut stream = cover_window(points, window);
        stream.extend(tail);
        let mut pipeline = StreamPipeline::new(config_for(window, 0)).unwrap();
        for (i, &x) in stream.iter().enumerate() {
            let r = pipeline.push(x).unwrap();
            if i + 1 < window {
                prop_assert!(!r.stats.is_ready());
                continue;
            }
            let window_ref = &stream[i + 1 - window..=i];
            let Some(Value::Stats(sf)) = r.stats.value() else {
                return Err(TestCaseError::fail("stats frame missing after burn-in".into()));
            };
            prop_assert_eq!(bits(&sf.z), bits(&znorm::z_normalized(window_ref)));
            prop_assert_eq!(sf.mean.to_bits(), znorm::mean(window_ref).to_bits());
            prop_assert_eq!(sf.std_dev.to_bits(), znorm::std_dev(window_ref).to_bits());
        }
    }

    /// Incremental envelopes are bitwise the batch Lemire envelope of
    /// every window, across window sizes and band radii (including
    /// r = 0, r = window, and plateau ties).
    #[test]
    fn incremental_envelope_is_bitwise_batch(
        wsel in 0usize..6,
        band_frac in 0u8..5,
        points in proptest::collection::vec(point_strategy(), 1..100),
    ) {
        let window = [1usize, 2, 3, 9, 33, 512][wsel];
        let band = match band_frac {
            0 => 0,
            1 => 1.min(window),
            2 => window / 4,
            3 => window / 2,
            _ => window,
        };
        let stream = cover_window(points, window);
        let mut pipeline = StreamPipeline::new(config_for(window, band)).unwrap();
        for (i, &x) in stream.iter().enumerate() {
            let r = pipeline.push(x).unwrap();
            if i + 1 < window {
                prop_assert!(!r.envelope.is_ready());
                continue;
            }
            let window_ref = &stream[i + 1 - window..=i];
            let (bu, bl) = envelope(window_ref, band).unwrap();
            let Some(Value::Envelope(ef)) = r.envelope.value() else {
                return Err(TestCaseError::fail("envelope frame missing after burn-in".into()));
            };
            prop_assert_eq!(bits(&ef.upper), bits(&bu));
            prop_assert_eq!(bits(&ef.lower), bits(&bl));
        }
    }

    /// Constant and zero-variance windows (any magnitude, both zero
    /// signs) hit the Welford relative floor: the frame is degenerate,
    /// all-zeros, and still bitwise-equal to batch.
    #[test]
    fn constant_windows_degenerate_to_zeros(
        window in 1usize..40,
        vsel in 0usize..7,
        slides in 1usize..20,
    ) {
        let value = [0.0, -0.0, 5.0, -3.25, 1.0e9, 1.0e300, 1.0e-300][vsel];
        let mut pipeline = StreamPipeline::new(config_for(window, 1.min(window))).unwrap();
        for i in 0..window + slides {
            let r = pipeline.push(value).unwrap();
            if i + 1 < window {
                continue;
            }
            let Some(Value::Stats(sf)) = r.stats.value() else {
                return Err(TestCaseError::fail("stats frame missing after burn-in".into()));
            };
            prop_assert!(sf.degenerate);
            prop_assert!(sf.z.iter().all(|z| z.to_bits() == 0.0f64.to_bits()));
        }
    }

    /// Near-constant windows whose σ falls under the relative floor
    /// (σ ≤ 1e-12·max(1, |mean|)) also zero out, bitwise like batch.
    #[test]
    fn near_constant_windows_respect_the_relative_floor(
        window in 2usize..32,
        scale_exp in 6i32..12,
        slides in 1usize..10,
    ) {
        let scale = 10.0f64.powi(scale_exp);
        // σ of ±j jitter is ≈ j; pick j = 1e-13·scale so σ sits under the
        // 1e-12·|mean| floor while staying far above one ULP of the base
        // (so the window is NOT bitwise-constant — the σ path is what runs).
        let jitter = scale * 1.0e-13;
        let mut pipeline = StreamPipeline::new(config_for(window, 0)).unwrap();
        let mut stream = Vec::new();
        for i in 0..window + slides {
            let x = scale + if i % 2 == 0 { jitter } else { -jitter };
            stream.push(x);
            let r = pipeline.push(x).unwrap();
            if i + 1 < window {
                continue;
            }
            let window_ref = &stream[i + 1 - window..=i];
            let Some(Value::Stats(sf)) = r.stats.value() else {
                return Err(TestCaseError::fail("stats frame missing after burn-in".into()));
            };
            prop_assert_eq!(bits(&sf.z), bits(&znorm::z_normalized(window_ref)));
            prop_assert!(sf.degenerate, "σ under the floor must flag degenerate");
        }
    }

    /// The end-to-end differential gate holds on arbitrary streams.
    #[test]
    fn full_gate_holds_on_random_streams(
        window in 1usize..24,
        band_frac in 0u8..3,
        points in proptest::collection::vec(point_strategy(), 1..120),
        tsel in 0usize..3,
    ) {
        let band = match band_frac { 0 => 0, 1 => window / 3, _ => window };
        let config = StreamConfig {
            window,
            band,
            query: (0..window).map(|i| (i as f64 * 0.45).sin()).collect(),
            threshold: [None, Some(0.5), Some(5.0)][tsel],
        };
        let stream = cover_window(points, window);
        if let Err(e) = check_series(&config, &stream) {
            return Err(TestCaseError::fail(format!("{e}")));
        }
    }

    /// NaN and ±∞ pushes are rejected with typed `InvalidParameter`,
    /// leave the epoch untouched, and the stream keeps serving.
    #[test]
    fn non_finite_pushes_reject_typed(
        window in 1usize..16,
        prefix in proptest::collection::vec(-10.0..10.0f64, 0..20),
        bsel in 0usize..3,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bsel];
        let mut pipeline = StreamPipeline::new(config_for(window, 0)).unwrap();
        for &x in &prefix {
            pipeline.push(x).unwrap();
        }
        let before = pipeline.epoch();
        let err = pipeline.push(bad).unwrap_err();
        prop_assert!(matches!(err, StreamError::InvalidParameter(_)));
        prop_assert_eq!(pipeline.epoch(), before);
        let r = pipeline.push(0.25).unwrap();
        prop_assert_eq!(r.epoch, before + 1);
    }
}

/// Subscribing consumers see `Warming` with accurate progress until the
/// configured burn-in — the same value in all five slots — then typed
/// frames.
#[test]
fn burn_in_progress_is_reported() {
    let window = 6;
    let mut pipeline = StreamPipeline::new(StreamConfig {
        window,
        band: 1,
        query: vec![0.0; window],
        threshold: None,
    })
    .unwrap();
    for i in 1..window {
        let r = pipeline.push(i as f64).unwrap();
        let expected = Output::Warming {
            seen: i as u64,
            burn_in: window as u64,
        };
        for (slot, out) in [
            ("window", &r.window),
            ("stats", &r.stats),
            ("envelope", &r.envelope),
            ("matcher", &r.matcher),
            ("tracker", &r.tracker),
        ] {
            assert_eq!(out, &expected, "{slot} at push {i}");
        }
    }
    assert!(pipeline.push(99.0).unwrap().ready());
}
