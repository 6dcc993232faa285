//! The fault-injection plane: seeded device faults under the tuning loop,
//! checked for the paper's graceful-degradation story.
//!
//! Two claims are exercised, mirroring Section 3.3:
//!
//! 1. **recovery** — for in-range process variation (σ sweeps up to the
//!    paper's ±25 %), the two-step tuning procedure pulls every device
//!    ratio back inside tolerance, and a distance computed with the
//!    *realized* (post-tuning) weights stays inside the SPICE layer's
//!    conformance bound against the *target*-weight reference;
//! 2. **typed failure** — stuck-at and dead-programming cells must surface
//!    as [`TuningError`] values at the device layer, be *refused* (no
//!    distance computed from a failed weight) at the harness layer, and
//!    come back as in-band `bad_request` errors over the server wire —
//!    never a panic, never a silently wrong value.
//!
//! The aCAM match plane adds a third, direction-only claim: a faulty or
//! variation-widened interval cell degrades to *always-match* (the
//! match-line AND loses one input), so under any fault or variation sweep
//! the one-shot values may only move in the false-accept direction —
//! mismatch counts (HamD, EdD) can only fall, match counts (LCS) can only
//! rise — never the reverse. A cell that could false-*reject* would break
//! the admissibility contract the search pre-filter is built on.

use mda_acam::{MarginPolicy, OneShotMatcher};
use mda_core::{bounds, pe, AcceleratorConfig};
use mda_distance::DistanceKind;
use mda_memristor::tuning::{try_tune_ratio, PulseSchedule, TuningError};
use mda_memristor::{BiolekParams, CellFault, FaultyMemristor, Memristor, ProcessVariation};
use mda_server::client::{Client, QueryOptions};
use mda_server::json::Json;
use mda_server::{ClientError, ErrorCode};

use crate::rng::SplitRng;

/// Reference resistance all ratios are tuned against, Ω.
const REFERENCE_R: f64 = 50.0e3;
/// Target weight ratios per sweep (all reachable inside the HRS/LRS window
/// at ±25 % variation).
const TARGET_RATIOS: [f64; 4] = [0.5, 0.8, 1.0, 1.25];
/// Variation σ values swept for the recovery claim.
const SIGMAS: [f64; 3] = [0.05, 0.15, 0.25];
/// Post-tuning ratio error ceiling: 2× the 1 % tuning tolerance.
const POST_TUNING_CEILING: f64 = 0.02;

/// Outcome of the fault suite: a deterministic JSON section for the report
/// plus a flat list of failed checks (empty = suite passed).
#[derive(Debug)]
pub struct FaultSuiteOutcome {
    /// Report section under `"fault_suite"`.
    pub json: Json,
    /// Human-readable description of each failed check.
    pub failures: Vec<String>,
}

fn fab_device<R: rand::Rng + ?Sized>(
    variation: &ProcessVariation,
    nominal: f64,
    rng: &mut R,
) -> Memristor {
    Memristor::at_resistance(
        BiolekParams::paper_defaults(),
        variation.sample(nominal, rng),
    )
}

/// Recovery sweep: fabricate devices at each σ, tune, and assert the
/// post-tuning ratio error re-enters bounds.
fn recovery_sweep(seed: u64, failures: &mut Vec<String>) -> Json {
    let mut entries = Vec::new();
    for (i, &sigma) in SIGMAS.iter().enumerate() {
        let variation = ProcessVariation {
            absolute_tolerance: sigma,
            matched_tolerance: 0.01,
        };
        let mut rng = SplitRng::new(seed).split(1_000 + i as u64).rng();
        let mut converged = 0usize;
        let mut max_pre: f64 = 0.0;
        let mut max_post: f64 = 0.0;
        for (d, &ratio) in TARGET_RATIOS.iter().enumerate() {
            let mut device = fab_device(&variation, ratio * REFERENCE_R, &mut rng);
            let pre = (device.resistance() / REFERENCE_R / ratio - 1.0).abs();
            max_pre = max_pre.max(pre);
            match try_tune_ratio(
                &mut device,
                REFERENCE_R,
                ratio,
                0.01,
                PulseSchedule::default(),
                500,
                1.0e-3,
                &mut rng,
            ) {
                Ok(_) => {
                    let post = (device.resistance() / REFERENCE_R / ratio - 1.0).abs();
                    max_post = max_post.max(post);
                    if post <= POST_TUNING_CEILING {
                        converged += 1;
                    } else {
                        failures.push(format!(
                            "recovery sigma={sigma} device {d}: post-tuning error {post} above {POST_TUNING_CEILING}"
                        ));
                    }
                }
                Err(e) => failures.push(format!(
                    "recovery sigma={sigma} device {d}: tuning failed: {e}"
                )),
            }
        }
        entries.push(Json::Obj(vec![
            ("sigma".into(), Json::Num(sigma)),
            ("devices".into(), Json::Num(TARGET_RATIOS.len() as f64)),
            ("converged".into(), Json::Num(converged as f64)),
            ("max_pre_tuning_error".into(), Json::Num(max_pre)),
            ("max_post_tuning_error".into(), Json::Num(max_post)),
            (
                "recovered".into(),
                Json::Bool(converged == TARGET_RATIOS.len()),
            ),
        ]));
    }
    Json::Arr(entries)
}

/// End-to-end recovery: a weighted Manhattan distance computed by the
/// SPICE row PE with the *realized* post-tuning weights must stay inside
/// the MD conformance bound against the target-weight digital value.
fn weighted_end_to_end(seed: u64, failures: &mut Vec<String>) -> Json {
    let variation = ProcessVariation {
        absolute_tolerance: 0.25,
        matched_tolerance: 0.01,
    };
    let mut rng = SplitRng::new(seed).split(2_000).rng();
    let mut realized = Vec::new();
    let mut tuned_ok = true;
    for &ratio in &TARGET_RATIOS {
        let mut device = fab_device(&variation, ratio * REFERENCE_R, &mut rng);
        match try_tune_ratio(
            &mut device,
            REFERENCE_R,
            ratio,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        ) {
            Ok(_) => realized.push(device.resistance() / REFERENCE_R),
            Err(e) => {
                tuned_ok = false;
                failures.push(format!("weighted end-to-end: tuning failed: {e}"));
                realized.push(ratio);
            }
        }
    }
    let p: [f64; 4] = [0.0, 1.5, -1.0, 2.0];
    let q: [f64; 4] = [0.5, 0.0, -2.0, 0.5];
    let digital: f64 = p
        .iter()
        .zip(&q)
        .zip(&TARGET_RATIOS)
        .map(|((a, b), w)| w * (a - b).abs())
        .sum();
    let config = AcceleratorConfig::paper_defaults();
    let bound = bounds::spice(DistanceKind::Manhattan);
    let (value, within) = match pe::manhattan::evaluate_dc(&config, &p, &q, &realized) {
        Ok(v) => (v, bound.allows(v, digital)),
        Err(e) => {
            failures.push(format!("weighted end-to-end: SPICE failed: {e}"));
            (f64::NAN, false)
        }
    };
    if tuned_ok && !within {
        failures.push(format!(
            "weighted end-to-end: SPICE value {value} vs digital {digital} outside bound"
        ));
    }
    Json::Obj(vec![
        ("function".into(), Json::Str("MD".into())),
        ("target_weights".into(), Json::from_f64s(&TARGET_RATIOS)),
        ("realized_weights".into(), Json::from_f64s(&realized)),
        ("digital".into(), Json::Num(digital)),
        ("spice".into(), Json::Num(value)),
        ("within_bound".into(), Json::Bool(within)),
    ])
}

fn error_class(e: &TuningError) -> &'static str {
    match e {
        TuningError::InvalidParameter { .. } => "invalid_parameter",
        TuningError::TargetUnreachable { .. } => "target_unreachable",
        TuningError::DidNotConverge { .. } => "did_not_converge",
        _ => "other",
    }
}

/// Untunable-fault checks: every fault class must fail *typed* and the
/// harness must refuse to compute a distance from the failed weight.
fn untunable_suite(seed: u64, failures: &mut Vec<String>) -> Json {
    let cases: [(CellFault, &str); 3] = [
        (CellFault::StuckAtHrs, "target_unreachable"),
        (CellFault::StuckAtLrs, "target_unreachable"),
        (CellFault::DeadProgramming, "did_not_converge"),
    ];
    let mut entries = Vec::new();
    for (i, (fault, expected)) in cases.into_iter().enumerate() {
        let mut rng = SplitRng::new(seed).split(3_000 + i as u64).rng();
        let inner = Memristor::at_resistance(BiolekParams::paper_defaults(), 60.0e3);
        let mut cell = FaultyMemristor::new(inner, fault);
        let result = try_tune_ratio(
            &mut cell,
            REFERENCE_R,
            1.0,
            0.01,
            PulseSchedule::default(),
            200,
            1.0e-3,
            &mut rng,
        );
        // Graceful degradation: a failed weight never reaches a PE — the
        // distance for this lane is *refused*, not silently computed with
        // whatever resistance the stuck cell happens to read.
        let (class, refused) = match result {
            Ok(report) => {
                failures.push(format!(
                    "fault {}: tuning reported success ({} iterations) on an untunable cell",
                    fault.label(),
                    report.iterations
                ));
                ("converged", false)
            }
            Err(e) => (error_class(&e), true),
        };
        if refused && class != expected {
            failures.push(format!(
                "fault {}: expected `{expected}`, got `{class}`",
                fault.label()
            ));
        }
        entries.push(Json::Obj(vec![
            ("fault".into(), Json::Str(fault.label().into())),
            ("expected".into(), Json::Str(expected.into())),
            ("observed".into(), Json::Str(class.into())),
            ("value_refused".into(), Json::Bool(refused)),
        ]));
    }
    Json::Arr(entries)
}

/// aCAM degradation sweep: for each thresholded kind, the one-shot value
/// from variation-widened and hard-faulted arrays must only ever move in
/// the false-accept direction against the tuned (digital-exact) value.
fn acam_degradation(seed: u64, failures: &mut Vec<String>) -> Json {
    let p = [0.0, 0.5, -1.0, 1.5, -2.0, 0.5];
    let q = [0.5, 0.5, -2.5, 0.0, -2.0, -1.0];
    let threshold = 0.5;
    let kinds: [(DistanceKind, bool); 3] = [
        (DistanceKind::Hamming, false),
        (DistanceKind::Edit, false),
        (DistanceKind::Lcs, true), // similarity: faults can only raise it
    ];
    let faults = [
        CellFault::StuckAtHrs,
        CellFault::StuckAtLrs,
        CellFault::DeadProgramming,
        CellFault::Drift(1.4),
    ];
    let mut entries = Vec::new();
    for (kind, is_similarity) in kinds {
        let tuned = match OneShotMatcher::new(threshold).evaluate(kind, &p, &q) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("acam {kind}: tuned evaluation failed: {e}"));
                continue;
            }
        };
        let mut sweeps = 0u64;
        let mut max_shift: f64 = 0.0;
        let mut check = |label: &str, matcher: &OneShotMatcher| match matcher.evaluate(kind, &p, &q)
        {
            Ok(v) => {
                sweeps += 1;
                let shift = if is_similarity { v - tuned } else { tuned - v };
                max_shift = max_shift.max(shift);
                if shift < 0.0 {
                    failures.push(format!(
                        "acam {kind} {label}: value {v} moved in the false-reject \
                         direction against tuned {tuned}"
                    ));
                }
            }
            Err(e) => failures.push(format!("acam {kind} {label}: evaluation failed: {e}")),
        };
        for s in 0..8u64 {
            let matcher =
                OneShotMatcher::new(threshold).with_policy(MarginPolicy::paper_defaults(seed ^ s));
            check("variation", &matcher);
        }
        for (i, fault) in faults.iter().enumerate() {
            let matcher = OneShotMatcher::new(threshold)
                .with_fault(i % p.len(), (2 * i + 1) % q.len(), *fault)
                .with_fault((i + 3) % p.len(), i % q.len(), *fault);
            check(fault.label(), &matcher);
        }
        entries.push(Json::Obj(vec![
            ("function".into(), Json::Str(kind.abbrev().into())),
            ("tuned".into(), Json::Num(tuned)),
            ("sweeps".into(), Json::Num(sweeps as f64)),
            ("max_false_accept_shift".into(), Json::Num(max_shift)),
        ]));
    }
    Json::Arr(entries)
}

/// Server round-trip: the degraded-query path (a stuck column excluded
/// from a row function's lanes leaves mismatched series lengths) must
/// come back as a typed in-band error, and the connection must remain
/// usable afterwards.
fn server_roundtrip(client: &mut Client, failures: &mut Vec<String>) -> Json {
    let p = [0.0, 1.0, 2.0];
    let q = [0.0, 1.0]; // one lane dropped by a stuck column
    let outcome = client.query_distance(DistanceKind::Hamming, &p, &q, &QueryOptions::new());
    let (typed, code) = match outcome {
        Err(ClientError::Server { code, .. }) => {
            let ok = code == ErrorCode::BadRequest;
            if !ok {
                failures.push(format!(
                    "server degraded query: expected bad_request, got {code}"
                ));
            }
            (ok, format!("{code}"))
        }
        Err(e) => {
            failures.push(format!("server degraded query: non-typed failure: {e}"));
            (false, "transport".into())
        }
        Ok(v) => {
            failures.push(format!(
                "server degraded query: silently answered {} for mismatched lanes",
                v.value
            ));
            (false, "value".into())
        }
    };
    let alive = client.ping().is_ok();
    if !alive {
        failures.push("server connection unusable after typed error".into());
    }
    Json::Obj(vec![
        ("query".into(), Json::Str("HamD length mismatch".into())),
        ("typed_error".into(), Json::Bool(typed)),
        ("code".into(), Json::Str(code)),
        ("connection_survives".into(), Json::Bool(alive)),
    ])
}

/// Runs the whole fault plane. `client` is the loopback server connection
/// (skipped when the harness runs without a server).
pub fn run_fault_suite(seed: u64, client: Option<&mut Client>) -> FaultSuiteOutcome {
    let mut failures = Vec::new();
    let recovery = recovery_sweep(seed, &mut failures);
    let weighted = weighted_end_to_end(seed, &mut failures);
    let untunable = untunable_suite(seed, &mut failures);
    let acam = acam_degradation(seed, &mut failures);
    let server = match client {
        Some(c) => server_roundtrip(c, &mut failures),
        None => Json::Null,
    };
    let json = Json::Obj(vec![
        ("recovery_sweep".into(), recovery),
        ("weighted_end_to_end".into(), weighted),
        ("untunable".into(), untunable),
        ("acam_degradation".into(), acam),
        ("server_roundtrip".into(), server),
        ("failures".into(), Json::Num(failures.len() as f64)),
    ]);
    FaultSuiteOutcome { json, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_suite_passes_without_a_server() {
        let outcome = run_fault_suite(42, None);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    }

    #[test]
    fn fault_suite_is_deterministic() {
        let a = format!("{}", run_fault_suite(7, None).json);
        let b = format!("{}", run_fault_suite(7, None).json);
        assert_eq!(a, b);
    }
}
