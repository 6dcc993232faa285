//! Layer adapters: run one [`CaseSpec`] through each of the four stacked
//! implementations and report what came back.
//!
//! * **reference** — the digital DP library, constructed exactly the way
//!   `mda-server`'s executor builds it, so the reference here *is* the
//!   served semantics (threshold defaulting, banding, similarity signs);
//! * **behavioural** — `DistanceAccelerator` with the paper-default fabric
//!   and the case's own noise seed;
//! * **spice** — the device-level PE netlists solved by the PR-2 MNA core
//!   (size-gated: matrix PEs grow O(m·n) nodes, so only tiny cases run);
//! * **server** — a loopback `mda-server` round-trip through the real TCP
//!   wire protocol;
//! * **server_resident** — the same loopback server queried through the
//!   resident-dataset path (upload → kNN by dataset id → drop), recovering
//!   the raw distance from a k=1 neighbour score;
//! * **server_routed** — the same loopback server queried with an explicit
//!   tolerance SLA wide enough to admit the analog fabric: whatever
//!   backend the router picks, the reply must report it, the reported
//!   bound must fit the SLA, and the served value must land within the
//!   tolerance of the digital reference;
//! * **acam** — the one-shot aCAM match plane for the thresholded kinds
//!   (HamD, thresholded EdD/LCS): a tuned array's interval comparators
//!   must reproduce the digital comparator on every cell, including the
//!   boundary-stratum cases that sit exactly on `|a − b| = threshold`.

use mda_acam::OneShotMatcher;
use mda_core::accelerator::FunctionParams;
use mda_core::{pe, AcceleratorConfig, AcceleratorError, DistanceAccelerator};
use mda_distance::dtw::Band;
use mda_distance::{
    Distance, DistanceError, DistanceKind, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan,
};
use mda_server::client::{Client, QueryOptions};
use mda_server::{ClientError, DatasetEntry, DatasetRef, RouteInfo, Sla};

use crate::case::CaseSpec;

/// The analog fabric's *output* ceiling in value units: the readout ADC
/// clamps at ±half its full scale, so distances above this saturate
/// (25 units at paper defaults: 1 V full scale, 20 mV/unit). The analog
/// layers are therefore judged against the reference clamped to this
/// ceiling — saturating there is correct accelerator behaviour, not a
/// disagreement. The server layer always compares against the raw digital
/// value. (This is distinct from `max_encodable_value`, which caps the
/// *input* DAC at ±6.25 units.)
pub fn encodable_ceiling() -> f64 {
    let config = AcceleratorConfig::paper_defaults();
    config.adc.full_scale / 2.0 / config.voltage_resolution
}

/// Largest per-side length for which the matrix-structure SPICE netlists
/// (DTW/LCS/EdD/HauD) are solved.
pub const SPICE_MATRIX_CAP: usize = 3;
/// Largest length for which the row-structure SPICE netlists (HamD/MD) are
/// solved.
pub const SPICE_ROW_CAP: usize = 8;

/// The digital reference value, mirroring `mda-server`'s executor: the
/// same `Distance` constructors, the same threshold default, the same
/// band handling.
///
/// # Errors
///
/// Shape errors from the distance library (the generator never produces
/// them; the shrinker is constrained not to either).
pub fn reference(case: &CaseSpec) -> Result<f64, DistanceError> {
    match case.kind {
        DistanceKind::Dtw => {
            let mut dtw = Dtw::new();
            if let Some(r) = case.band {
                dtw = dtw.with_band(Band::SakoeChiba(r));
            }
            dtw.evaluate(&case.p, &case.q)
        }
        DistanceKind::Lcs => Lcs::new(case.threshold).evaluate(&case.p, &case.q),
        DistanceKind::Edit => EditDistance::new(case.threshold).evaluate(&case.p, &case.q),
        DistanceKind::Hausdorff => Hausdorff::new().evaluate(&case.p, &case.q),
        DistanceKind::Hamming => Hamming::new(case.threshold).evaluate(&case.p, &case.q),
        DistanceKind::Manhattan => Manhattan::new().evaluate(&case.p, &case.q),
    }
}

/// The behavioural accelerator value for a case, using the case's noise
/// seed so the analog error model is reproducible per case.
///
/// # Errors
///
/// Configuration or computation errors from the accelerator.
pub fn behavioural(case: &CaseSpec) -> Result<f64, AcceleratorError> {
    let mut config = AcceleratorConfig::paper_defaults();
    config.noise_seed = case.noise_seed;
    let mut acc = DistanceAccelerator::new(config);
    let band = match case.band {
        Some(r) => Band::SakoeChiba(r),
        None => Band::Full,
    };
    acc.configure_with(
        case.kind,
        FunctionParams {
            threshold: case.threshold,
            weight: 1.0,
            band,
        },
    )?;
    acc.settle(&case.p, &case.q, None)
}

/// Whether the SPICE layer runs this case, and if not, why not.
pub fn spice_eligibility(case: &CaseSpec) -> Result<(), &'static str> {
    if case.band.is_some() {
        // The device netlists hard-wire the full recurrence fabric.
        return Err("banded DTW has no SPICE netlist");
    }
    if case.knife_edge() {
        // A boundary-stratum pair flips an analog comparator on sub-LSB
        // noise; no device-level bound is meaningful there.
        return Err("knife-edge case has no meaningful analog bound");
    }
    let (m, n) = (case.p.len(), case.q.len());
    if case.kind.uses_matrix_structure() {
        if m.max(n) > SPICE_MATRIX_CAP {
            return Err("matrix netlist above size cap");
        }
    } else if m.max(n) > SPICE_ROW_CAP {
        return Err("row netlist above size cap");
    }
    Ok(())
}

/// The device-level SPICE value for an eligible case.
///
/// # Errors
///
/// Encoding-range or solver errors from the PE netlists.
pub fn spice(case: &CaseSpec) -> Result<f64, AcceleratorError> {
    let config = AcceleratorConfig::paper_defaults();
    let (p, q) = (case.p.as_slice(), case.q.as_slice());
    match case.kind {
        DistanceKind::Dtw => pe::dtw::evaluate_dc(&config, p, q, 1.0),
        DistanceKind::Lcs => pe::lcs::evaluate_dc(&config, p, q, case.threshold, 1.0),
        DistanceKind::Edit => pe::edit::evaluate_dc(&config, p, q, case.threshold),
        DistanceKind::Hausdorff => pe::hausdorff::evaluate_dc(&config, p, q, 1.0),
        DistanceKind::Hamming => {
            pe::hamming::evaluate_dc(&config, p, q, case.threshold, &vec![1.0; p.len()])
        }
        DistanceKind::Manhattan => pe::manhattan::evaluate_dc(&config, p, q, &vec![1.0; p.len()]),
    }
}

/// The value served by a live `mda-server` for this case.
///
/// # Errors
///
/// Transport or server errors from the round-trip.
pub fn server(client: &mut Client, case: &CaseSpec) -> Result<f64, ClientError> {
    Ok(client
        .query_distance(case.kind, &case.p, &case.q, &case_opts(case))?
        .value)
}

/// The tolerance the routed layer requests for a case: the analog fabric's
/// calibrated margin at its output ceiling — exactly the loosest SLA the
/// router can provably satisfy on the analog path, so eligible cases
/// exercise analog routing rather than trivially staying digital.
pub fn routed_tolerance(case: &CaseSpec) -> f64 {
    let len = case.p.len().max(case.q.len());
    mda_core::bounds::behavioural(case.kind, len).margin(encodable_ceiling())
}

/// The value served under an explicit tolerance SLA, plus the routing
/// report the reply carried (`None` would itself be a finding: replies to
/// accuracy-tagged requests must report their route).
///
/// # Errors
///
/// Transport or server errors from the round-trip.
pub fn server_routed(
    client: &mut Client,
    case: &CaseSpec,
) -> Result<(f64, Option<RouteInfo>), ClientError> {
    let sla = Sla::tolerance(routed_tolerance(case)).expect("calibrated margins are finite");
    let opts = case_opts(case).accuracy(sla);
    let routed = client.query_distance(case.kind, &case.p, &case.q, &opts)?;
    Ok((routed.value, routed.route))
}

/// The value served through the **resident-dataset** path: the case's `q`
/// is uploaded as a one-entry dataset, a k=1 kNN query with `p` references
/// it by content-addressed id, and the raw distance is recovered from the
/// single neighbour's score. kNN scores a similarity kind as `0.0 - raw`
/// (`mda_distance::mining::rank_and_vote`), so LCS is recovered as
/// `0.0 - score`, which maps a zero similarity back to `+0.0`. The dataset
/// is dropped afterwards.
///
/// # Errors
///
/// Transport or server errors from any of the three round-trips.
pub fn server_resident(client: &mut Client, case: &CaseSpec) -> Result<f64, ClientError> {
    let entries = vec![DatasetEntry {
        label: 0,
        series: case.q.clone(),
    }];
    let (dataset_id, _version) = client.upload_dataset("conformance-case", &entries)?;
    let outcome = client.query_knn(
        case.kind,
        1,
        &case.p,
        &[],
        &case_opts(case).dataset(DatasetRef::by_id(&dataset_id)),
    );
    let _ = client.drop_dataset(DatasetRef::by_id(&dataset_id));
    let outcome = outcome?.value;
    Ok(if case.kind.is_similarity() {
        0.0 - outcome.score
    } else {
        outcome.score
    })
}

/// Whether the one-shot aCAM layer runs this case, and if not, why not.
pub fn acam_eligibility(case: &CaseSpec) -> Result<(), &'static str> {
    if !case.thresholded() {
        return Err("no one-shot aCAM evaluation for non-thresholded kinds");
    }
    Ok(())
}

/// The one-shot aCAM match-plane value for an eligible case: a tuned
/// array (every comparator programmed exactly on the digital threshold, no
/// guard band), so the value is judged under [`mda_core::bounds::acam`]
/// but is in fact expected bitwise-identical to the reference — including
/// on knife-edge cases, where the inclusive comparator's equality arm is
/// exercised directly.
///
/// # Errors
///
/// Shape errors from the distance definitions.
pub fn acam(case: &CaseSpec) -> Result<f64, DistanceError> {
    OneShotMatcher::new(case.threshold).evaluate(case.kind, &case.p, &case.q)
}

/// Whether the streaming differential layer runs this case, and if not,
/// why not.
pub fn streaming_eligibility(case: &CaseSpec) -> Result<(), &'static str> {
    if case.p.is_empty() {
        return Err("empty query has no stream window");
    }
    if case.q.is_empty() {
        return Err("empty series yields no pushes");
    }
    if case.p.iter().chain(&case.q).any(|x| !x.is_finite()) {
        return Err("streams reject non-finite points by contract");
    }
    Ok(())
}

/// The **streaming differential** layer: the case's `p` becomes the
/// subsequence query of a push-mode stream, its `q` is cycled into a live
/// series about three-and-a-half windows long, and `mda-streaming`'s gate
/// recomputes every incremental operator output from scratch per push —
/// sliding z-norm, envelopes, the UCR cascade decision, and the
/// motif/discord records must all be **bitwise** equal to batch.
///
/// # Errors
///
/// The first push at which any operator diverged from its batch
/// recomputation (or a configuration rejection), as a display string.
pub fn streaming(case: &CaseSpec) -> Result<mda_streaming::DifferentialReport, String> {
    let window = case.p.len();
    let config = mda_streaming::StreamConfig {
        window,
        band: case.band.unwrap_or(0).min(window),
        query: case.p.clone(),
        threshold: None,
    };
    let target = 3 * window + window / 2 + 1;
    let mut stream = Vec::with_capacity(target + case.q.len());
    while stream.len() < target {
        stream.extend_from_slice(&case.q);
    }
    mda_streaming::check_series(&config, &stream).map_err(|e| e.to_string())
}

fn case_opts(case: &CaseSpec) -> QueryOptions {
    let mut opts = QueryOptions::new();
    if case.thresholded() {
        opts = opts.threshold(case.threshold);
    }
    if let Some(r) = case.band {
        opts = opts.band(r);
    }
    opts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::generate;

    #[test]
    fn reference_matches_direct_library_calls_bitwise() {
        for id in 0..60 {
            let case = generate(99, id);
            let via_adapter = reference(&case).unwrap();
            let direct = match case.kind {
                DistanceKind::Dtw if case.band.is_none() => {
                    Dtw::new().evaluate(&case.p, &case.q).unwrap()
                }
                _ => continue,
            };
            assert_eq!(via_adapter.to_bits(), direct.to_bits(), "case {id}");
        }
    }

    #[test]
    fn spice_eligibility_gates_by_structure() {
        for id in 0..120 {
            let case = generate(77, id);
            let (m, n) = (case.p.len(), case.q.len());
            match spice_eligibility(&case) {
                Ok(()) => {
                    if case.kind.uses_matrix_structure() {
                        assert!(m.max(n) <= SPICE_MATRIX_CAP);
                    } else {
                        assert!(m.max(n) <= SPICE_ROW_CAP);
                    }
                    assert!(case.band.is_none());
                }
                Err(reason) => assert!(!reason.is_empty()),
            }
        }
    }

    #[test]
    fn behavioural_layer_is_deterministic_per_case() {
        let case = generate(5, 17);
        let a = behavioural(&case).unwrap();
        let b = behavioural(&case).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn acam_layer_is_bitwise_identical_to_the_reference() {
        let mut eligible = 0;
        let mut knife_edges = 0;
        for id in 0..240 {
            let case = generate(31, id);
            if acam_eligibility(&case).is_err() {
                continue;
            }
            eligible += 1;
            if case.knife_edge() {
                knife_edges += 1;
            }
            let one_shot = acam(&case).unwrap();
            let reference = reference(&case).unwrap();
            assert_eq!(one_shot.to_bits(), reference.to_bits(), "case {id}");
        }
        assert!(eligible > 0);
        // The identity must have been exercised on boundary cases too.
        assert!(knife_edges > 0, "no knife-edge case in {eligible} eligible");
    }

    #[test]
    fn knife_edge_cases_are_excluded_from_the_spice_layer() {
        for id in 0..400 {
            let case = generate(23, id);
            if case.knife_edge() {
                assert!(spice_eligibility(&case).is_err(), "case {id}");
            }
        }
    }
}
