//! Layer adapters: run one [`CaseSpec`] through each implementation under
//! test and report what came back.
//!
//! * **reference** — the digital DP library, constructed exactly the way
//!   `mda-server`'s executor builds it, so the reference here *is* the
//!   served semantics (threshold defaulting, banding, similarity signs).
//!   It calls `mda-distance` directly: it is the oracle, so it stays
//!   independent of every backend under test;
//! * **behavioural**, **spice**, **acam** — the in-process analog layers,
//!   each one of `mda-routing`'s served backends ([`BACKEND_LAYERS`]):
//!   the behavioural array model on the case's own noise seed, the
//!   device-level PE netlists solved by the MNA core (size-gated by
//!   [`DistanceBackend::supports`]: matrix PEs grow O(m·n) nodes), and the
//!   tuned one-shot aCAM match plane for the thresholded kinds, whose
//!   interval comparators must reproduce the digital comparator on every
//!   cell, boundary-stratum cases on `|a − b| = threshold` included;
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
//! * **streaming_differential** — the case replayed as a push-mode stream
//!   whose every incremental operator output must equal its from-scratch
//!   batch recomputation bitwise.

use mda_core::AcceleratorConfig;
use mda_distance::dtw::Band;
use mda_distance::{
    Distance, DistanceError, DistanceKind, DpScratch, Dtw, EditDistance, Hamming, Hausdorff, Lcs,
    Manhattan,
};
use mda_routing::{
    default_backends, BackendError, BackendId, BackendSet, DistanceBackend, PairRequest,
};
use mda_server::client::{Client, QueryOptions};
use mda_server::{ClientError, DatasetEntry, DatasetRef, RouteInfo, Sla};

use crate::case::CaseSpec;

/// The in-process layers and the served backend each one runs, in report
/// order.
pub const BACKEND_LAYERS: [(&str, BackendId); 3] = [
    ("behavioural", BackendId::Analog),
    ("spice", BackendId::Spice),
    ("acam", BackendId::Acam),
];

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

/// The backends a case is judged through: the paper-default fabric with
/// the case's own noise seed, so the behavioural error model is
/// reproducible per case. Only the behavioural graph builder reads the
/// seed; the SPICE and aCAM answers do not depend on it.
pub fn backends(case: &CaseSpec) -> BackendSet {
    let mut config = AcceleratorConfig::paper_defaults();
    config.noise_seed = case.noise_seed;
    BackendSet::new(config)
}

/// Whether the layer served by `backend` runs this case, and if not, why
/// not.
pub fn eligibility(backend: &dyn DistanceBackend, case: &CaseSpec) -> Result<(), &'static str> {
    if !backend.supports(case.kind, case.p.len().max(case.q.len())) {
        return Err("outside the backend's kinds or size cap");
    }
    match backend.id() {
        // A tuned match plane is exact, so it runs on knife-edge cases
        // too: that is where the inclusive comparator's equality arm is
        // exercised.
        BackendId::Acam => Ok(()),
        // The device netlists hard-wire the full recurrence fabric.
        BackendId::Spice if case.band.is_some() => Err("banded DTW has no SPICE netlist"),
        // A boundary-stratum pair flips an analog comparator on sub-LSB
        // noise; no analog bound is meaningful there.
        _ if case.knife_edge() => Err("knife-edge case has no meaningful analog bound"),
        _ => Ok(()),
    }
}

/// The value `backend` serves for this case, requested with the case's
/// threshold and band.
///
/// # Errors
///
/// Whatever the backend reports: shape rejections, encoding-range or
/// solver failures, unsupported request shapes.
pub fn evaluate(backend: &dyn DistanceBackend, case: &CaseSpec) -> Result<f64, BackendError> {
    let req = PairRequest {
        kind: case.kind,
        threshold: Some(case.threshold),
        band: case.band,
    };
    backend.evaluate(&req, &case.p, &case.q, &mut DpScratch::new())
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
    let analog = default_backends().analog();
    let len = case.p.len().max(case.q.len());
    analog.bound(case.kind, len).margin(analog.ceiling())
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
    use mda_core::accelerator::FunctionParams;
    use mda_core::DistanceAccelerator;
    use mda_routing::SpiceBackend;

    #[test]
    fn reference_matches_direct_library_calls_bitwise() {
        for id in 0..60 {
            let case = generate(99, id);
            if case.kind != DistanceKind::Dtw || case.band.is_some() {
                continue;
            }
            let via_adapter = reference(&case).unwrap();
            let direct = Dtw::new().evaluate(&case.p, &case.q).unwrap();
            assert_eq!(via_adapter.to_bits(), direct.to_bits(), "case {id}");
        }
    }

    #[test]
    fn spice_eligibility_gates_by_structure() {
        let spice = SpiceBackend::default();
        let mut eligible = 0;
        for id in 0..120 {
            let case = generate(77, id);
            let len = case.p.len().max(case.q.len());
            let expected =
                case.band.is_none() && !case.knife_edge() && spice.supports(case.kind, len);
            assert_eq!(eligibility(&spice, &case).is_ok(), expected, "case {id}");
            if expected {
                eligible += 1;
            }
        }
        assert!(eligible > 0);
    }

    /// The behavioural layer answers from the backend's cached settle
    /// tape; it must be bit-identical to an uncached settle of the same
    /// seeded fabric.
    #[test]
    fn behavioural_layer_is_deterministic_per_case() {
        for id in 0..60 {
            let case = generate(5, id);
            let layer = evaluate(backends(&case).get(BackendId::Analog), &case).unwrap();

            let mut config = AcceleratorConfig::paper_defaults();
            config.noise_seed = case.noise_seed;
            let mut acc = DistanceAccelerator::new(config);
            let band = case.band.map_or(Band::Full, Band::SakoeChiba);
            let params = FunctionParams {
                threshold: case.threshold,
                weight: 1.0,
                band,
            };
            acc.configure_with(case.kind, params).unwrap();
            let uncached = acc.settle(&case.p, &case.q, None).unwrap();
            assert_eq!(layer.to_bits(), uncached.to_bits(), "case {id}");
        }
    }

    #[test]
    fn acam_layer_is_bitwise_identical_to_the_reference() {
        let acam = default_backends().get(BackendId::Acam);
        let mut eligible = 0;
        let mut knife_edges = 0;
        for id in 0..240 {
            let case = generate(31, id);
            if eligibility(acam, &case).is_err() {
                continue;
            }
            eligible += 1;
            if case.knife_edge() {
                knife_edges += 1;
            }
            let one_shot = evaluate(acam, &case).unwrap();
            let reference = reference(&case).unwrap();
            assert_eq!(one_shot.to_bits(), reference.to_bits(), "case {id}");
        }
        assert!(eligible > 0);
        // The identity must have been exercised on boundary cases too.
        assert!(knife_edges > 0, "no knife-edge case in {eligible} eligible");
    }

    #[test]
    fn knife_edge_cases_are_excluded_from_the_spice_layer() {
        let spice = default_backends().get(BackendId::Spice);
        for id in 0..400 {
            let case = generate(23, id);
            if case.knife_edge() {
                assert!(eligibility(spice, &case).is_err(), "case {id}");
            }
        }
    }
}
