//! aCAM one-shot matching bench: drives the match plane's three promises
//! over a seeded sweep and gates all of them fatally:
//!
//! 1. **zero false rejects** — every window the aCAM pre-filter rejects is
//!    recomputed with the full banded DTW and must sit strictly above the
//!    programmed threshold, for the tuned, variation-widened and
//!    fault-seeded arrays alike (faults may only widen acceptance);
//! 2. **bitwise identity** — subsequence search and kNN classification
//!    with the pre-filter installed reproduce the unfiltered runs bit for
//!    bit (offsets, distances, labels, scores), and the one-shot
//!    evaluation of the thresholded kinds (HamD, thresholded EdD/LCS)
//!    equals the digital kernels bitwise;
//! 3. **the filter earns its keep** — the tuned array rejects a real
//!    fraction of hostile windows in one match-line cycle each, and the
//!    match plane's modeled draw undercuts both the DP fabric and the
//!    digital host on the kinds it serves.
//!
//! ```text
//! acam [--quick]
//! ```
//!
//! Writes `results/BENCH_acam.json`.

use std::process::ExitCode;
use std::sync::Arc;

use mda_acam::{AcamPrefilter, FaultPlan, MarginPolicy, OneShotMatcher};
use mda_bench::Record;
use mda_distance::dtw::Band;
use mda_distance::mining::prefilter::CandidateFilter;
use mda_distance::mining::{KnnClassifier, SubsequenceSearch};
use mda_distance::{Distance, DistanceKind, Dtw, EditDistance, Hamming, Lcs};
use mda_routing::{default_backends, BackendId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sweep's workload seed.
const SEED: u64 = 0xAC4A;

fn policies() -> Vec<(&'static str, Arc<dyn CandidateFilter>)> {
    vec![
        ("tuned", Arc::new(AcamPrefilter::tuned())),
        (
            "variation",
            Arc::new(AcamPrefilter::new(MarginPolicy::paper_defaults(17))),
        ),
        (
            "faulty",
            Arc::new(
                AcamPrefilter::tuned().with_fault_plan(FaultPlan::Seeded { seed: 5, rate: 0.2 }),
            ),
        ),
    ]
}

/// A hostile haystack: far-field level with a few planted near-copies of
/// the query, so the match line has something real to reject.
fn hostile_haystack(query: &[f64], len: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut hay: Vec<f64> = (0..len).map(|_| 7.0 + rng.gen_range(-0.5..0.5)).collect();
    for _ in 0..3 {
        let at = rng.gen_range(0..len - query.len());
        for (i, &v) in query.iter().enumerate() {
            hay[at + i] = v + rng.gen_range(-0.05..0.05);
        }
    }
    hay
}

fn walk_query(len: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut level = rng.gen_range(-1.0..1.0);
    (0..len)
        .map(|_| {
            level += rng.gen_range(-0.4..0.4);
            level
        })
        .collect()
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sweeps, hay_len, window) = if quick {
        (4usize, 512, 24)
    } else {
        (12, 2048, 48)
    };
    let radius = 4usize;
    println!("acam one-shot matching bench");

    let mut false_rejects = 0u64;
    let mut rejected_total = 0u64;
    let mut search_mismatches = 0u64;
    let mut tuned_windows = 0u64;
    let mut tuned_prefilter_pruned = 0u64;

    // ---- Gate 1 + 2a: admissibility and search identity over the sweep.
    for s in 0..sweeps {
        let mut rng = StdRng::seed_from_u64(SEED ^ (s as u64).wrapping_mul(0x9E37_79B9));
        let query = walk_query(window, &mut rng);
        let hay = hostile_haystack(&query, hay_len, &mut rng);

        let baseline = SubsequenceSearch::new(window, radius);
        let (best, _) = baseline.run(&query, &hay).expect("baseline search");

        for (name, filter) in policies() {
            // Admissibility, checked against the brute instrument: program
            // the filter at the final best distance (the tightest threshold
            // the cascade ever holds) and recompute every rejected window's
            // banded DTW in full.
            if let Some(predicate) =
                filter.program(DistanceKind::Dtw, &query, radius, best.distance)
            {
                let dtw = Dtw::new().with_band(Band::SakoeChiba(radius));
                for offset in 0..=(hay.len() - window) {
                    let w = &hay[offset..offset + window];
                    if predicate.admit(w) {
                        continue;
                    }
                    rejected_total += 1;
                    let exact = dtw.evaluate(&query, w).expect("banded DTW");
                    if exact <= best.distance {
                        false_rejects += 1;
                        eprintln!(
                            "FALSE REJECT [{name}] sweep {s} offset {offset}: \
                             DTW {exact} <= threshold {}",
                            best.distance
                        );
                    }
                }
            }

            // End-to-end identity under the same policy.
            let filtered = SubsequenceSearch::new(window, radius).with_prefilter(filter);
            let (fbest, fstats) = filtered.run(&query, &hay).expect("filtered search");
            if fbest.offset != best.offset || fbest.distance.to_bits() != best.distance.to_bits() {
                search_mismatches += 1;
                eprintln!(
                    "SEARCH MISMATCH [{name}] sweep {s}: {}@{} vs {}@{}",
                    fbest.distance, fbest.offset, best.distance, best.offset
                );
            }
            if name == "tuned" {
                tuned_windows += fstats.windows as u64;
                tuned_prefilter_pruned += fstats.pruned_by_prefilter as u64;
            }
        }
    }
    let prune_rate = tuned_prefilter_pruned as f64 / tuned_windows.max(1) as f64;

    // ---- Gate 2b: kNN identity.
    let mut knn_mismatches = 0u64;
    {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xD15C);
        let train_n = if quick { 18 } else { 36 };
        let series_len = if quick { 16 } else { 24 };
        let train: Vec<(usize, Vec<f64>)> = (0..train_n)
            .map(|t| (t % 3, walk_query(series_len, &mut rng)))
            .collect();
        let queries: Vec<Vec<f64>> = (0..6).map(|_| walk_query(series_len, &mut rng)).collect();
        for k in [1usize, 3, 5] {
            let mut plain = KnnClassifier::new(Box::new(Dtw::new()), k);
            plain.fit_all(train.clone());
            for (name, _) in policies() {
                let filter: Box<dyn CandidateFilter> = match name {
                    "tuned" => Box::new(AcamPrefilter::tuned()),
                    "variation" => Box::new(AcamPrefilter::new(MarginPolicy::paper_defaults(17))),
                    _ => Box::new(
                        AcamPrefilter::tuned()
                            .with_fault_plan(FaultPlan::Seeded { seed: 5, rate: 0.2 }),
                    ),
                };
                let mut filtered =
                    KnnClassifier::new(Box::new(Dtw::new()), k).with_candidate_filter(filter);
                filtered.fit_all(train.clone());
                for q in &queries {
                    let a = plain.classify(q).expect("plain classify");
                    let b = filtered.classify(q).expect("filtered classify");
                    if a.label != b.label
                        || a.nearest_index != b.nearest_index
                        || a.score.to_bits() != b.score.to_bits()
                    {
                        knn_mismatches += 1;
                        eprintln!("KNN MISMATCH [{name}] k={k}");
                    }
                }
            }
        }
    }

    // ---- Gate 2c: one-shot identity on the thresholded kinds.
    let mut one_shot_mismatches = 0u64;
    let mut one_shot_checks = 0u64;
    {
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x0415);
        let pairs = if quick { 40 } else { 160 };
        for _ in 0..pairs {
            let len = rng.gen_range(1..20u64) as usize;
            let p = walk_query(len, &mut rng);
            let q = walk_query(len, &mut rng);
            for threshold in [0.1, 0.5] {
                let matcher = OneShotMatcher::new(threshold);
                for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
                    let kernel: Box<dyn Distance> = match kind {
                        DistanceKind::Hamming => Box::new(Hamming::new(threshold)),
                        DistanceKind::Edit => Box::new(EditDistance::new(threshold)),
                        _ => Box::new(Lcs::new(threshold)),
                    };
                    let digital = kernel.evaluate(&p, &q).expect("digital kernel");
                    let one_shot = matcher.evaluate(kind, &p, &q).expect("one-shot");
                    one_shot_checks += 1;
                    if one_shot.to_bits() != digital.to_bits() {
                        one_shot_mismatches += 1;
                        eprintln!(
                            "ONE-SHOT MISMATCH {kind} t={threshold}: {one_shot} vs {digital}"
                        );
                    }
                }
            }
        }
    }

    // ---- Gate 3: modeled power deltas on the kinds the plane serves.
    let backends = default_backends();
    let power_len = 128usize;
    let mut acam_w_sum = 0.0;
    let mut analog_w_sum = 0.0;
    for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
        acam_w_sum += backends.get(BackendId::Acam).power_w(kind, power_len);
        analog_w_sum += backends.get(BackendId::Analog).power_w(kind, power_len);
    }
    let digital_w = backends
        .get(BackendId::DigitalExact)
        .power_w(DistanceKind::Hamming, power_len);
    let acam_w = acam_w_sum / 3.0;
    let analog_w = analog_w_sum / 3.0;

    let mut rec = Record::new(env!("CARGO_BIN_NAME"), quick);
    rec.row("sweep")
        .set("seed", SEED)
        .set("sweeps", sweeps)
        .set("haystack_len", hay_len)
        .set("window", window)
        .set("tuned_windows", tuned_windows)
        .set("tuned_prune_rate", prune_rate)
        .set("one_shot_checks", one_shot_checks);
    rec.row("power")
        .set("length", power_len)
        .set("acam_watts", acam_w)
        .set("analog_watts", analog_w)
        .set("digital_watts", digital_w)
        .set("acam_vs_analog_power_ratio", acam_w / analog_w);

    // All fatal: admissibility and identity are contracts, not aspirations.
    rec.at_most("false_rejects", false_rejects, 0);
    rec.at_most("search_mismatches", search_mismatches, 0);
    rec.at_most("knn_mismatches", knn_mismatches, 0);
    rec.at_most("one_shot_mismatches", one_shot_mismatches, 0);
    rec.at_least("rejected_windows", rejected_total, 1);
    rec.at_least("tuned_prefilter_pruned", tuned_prefilter_pruned, 1);
    rec.holds(
        "acam_below_analog_and_digital_watts",
        acam_w < analog_w && acam_w < digital_w,
    );
    rec.finish()
}
