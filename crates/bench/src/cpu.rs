//! Wall-clock measurement of the digital CPU implementations — the Fig. 6(b)
//! baseline (the paper used optimized C on an i5-3470; we measure the
//! optimized Rust reference on the host).

use std::time::Instant;

use mda_distance::{boxed_distance, DistanceKind};

/// Median-of-`reps` wall-clock time of one CPU distance computation, s.
pub fn measure_cpu_time(kind: DistanceKind, p: &[f64], q: &[f64], reps: usize) -> f64 {
    assert!(reps >= 1, "need at least one repetition");
    let d = boxed_distance(kind);
    // Warm up caches and branch predictors.
    let mut sink = 0.0;
    sink += d.evaluate(p, q).expect("valid inputs");
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            sink += d.evaluate(p, q).expect("valid inputs");
            start.elapsed().as_secs_f64()
        })
        .collect();
    // Keep the optimizer honest.
    assert!(sink.is_finite());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.3 + phase).sin()).collect()
    }

    #[test]
    fn measurement_returns_positive_times() {
        let p = series(32, 0.0);
        let q = series(32, 0.5);
        for kind in DistanceKind::ALL {
            let t = measure_cpu_time(kind, &p, &q, 5);
            assert!(t > 0.0, "{kind} time {t}");
        }
    }

    #[test]
    fn quadratic_functions_slower_than_linear_at_scale() {
        // The premise of Fig. 6(b): O(n²) DTW costs far more CPU time than
        // O(n) MD at the same length.
        let p = series(256, 0.0);
        let q = series(256, 0.5);
        let dtw = measure_cpu_time(DistanceKind::Dtw, &p, &q, 9);
        let md = measure_cpu_time(DistanceKind::Manhattan, &p, &q, 9);
        assert!(dtw > md * 3.0, "dtw {dtw:.3e} vs md {md:.3e}");
    }
}
