//! Pinned boundary-corpus fixtures: one hand-written case per thresholded
//! kind whose values sit *exactly on* the match boundary
//! (`|a − b| == threshold`, bitwise). These are the cases the stratified
//! generator historically could never emit (its 3·threshold lattice snap
//! made every cross pair decisive), so nothing exercised the inclusive
//! comparator's equality arm. The fixtures pin it forever:
//!
//! * the digital reference resolves the boundary *inclusively* (a pair at
//!   exactly the threshold is a match);
//! * the tuned one-shot aCAM plane agrees bitwise, equality arm included;
//! * a full harness replay is clean — the analog layers are exempt (a
//!   boundary flips an analog comparator on sub-LSB noise), every digital
//!   layer must hold.

use std::path::PathBuf;

use mda_conformance::harness::replay;
use mda_conformance::report::load_case;
use mda_conformance::{layers, CaseSpec};
use mda_distance::DistanceKind;
use mda_routing::{default_backends, BackendId};

fn fixture(name: &str) -> CaseSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    load_case(&path).unwrap_or_else(|e| panic!("{name}: {e}"))
}

const FIXTURES: [&str; 3] = [
    "boundary_hamd.json",
    "boundary_edd.json",
    "boundary_lcs.json",
];

#[test]
fn fixtures_really_sit_on_the_boundary() {
    for name in FIXTURES {
        let case = fixture(name);
        assert!(case.thresholded(), "{name}");
        assert!(case.knife_edge(), "{name}: no boundary pair");
        // At least one cross pair is bitwise-exactly on the threshold.
        let exact = case.p.iter().chain(&case.q).any(|&a| {
            case.p
                .iter()
                .chain(&case.q)
                .any(|&b| (a - b).abs() == case.threshold)
        });
        assert!(exact, "{name}");
    }
}

#[test]
fn boundary_pairs_match_inclusively_in_the_digital_reference() {
    // HamD counts mismatches per lane: only the 2.0-apart lane mismatches;
    // both exactly-at-threshold lanes must count as matches.
    let hamd = fixture("boundary_hamd.json");
    assert_eq!(layers::reference(&hamd).unwrap(), 1.0);
    // EdD: every aligned pair differs by exactly the threshold — all
    // matches, zero edits.
    let edd = fixture("boundary_edd.json");
    assert_eq!(layers::reference(&edd).unwrap(), 0.0);
    // LCS: the boundary pair is a real match, so the subsequence is
    // non-empty.
    let lcs = fixture("boundary_lcs.json");
    assert!(layers::reference(&lcs).unwrap() >= 1.0);
}

#[test]
fn acam_one_shot_agrees_bitwise_on_every_fixture() {
    let acam = default_backends().get(BackendId::Acam);
    for name in FIXTURES {
        let case = fixture(name);
        assert!(layers::eligibility(acam, &case).is_ok(), "{name}");
        let one_shot = layers::evaluate(acam, &case).unwrap();
        let reference = layers::reference(&case).unwrap();
        assert_eq!(
            one_shot.to_bits(),
            reference.to_bits(),
            "{name}: {one_shot} vs {reference}"
        );
    }
}

#[test]
fn analog_layers_are_exempt_but_digital_replay_is_clean() {
    let set = default_backends();
    for name in FIXTURES {
        let case = fixture(name);
        assert!(
            layers::eligibility(set.get(BackendId::Spice), &case).is_err(),
            "{name}: knife-edge cases must not reach the SPICE netlists"
        );
        assert!(
            layers::eligibility(set.get(BackendId::Analog), &case).is_err(),
            "{name}: knife-edge cases must not reach the behavioural layer"
        );
        let failures = replay(&case, false);
        assert!(failures.is_empty(), "{name}: {failures:#?}");
    }
}

#[test]
fn fixtures_cover_every_thresholded_kind() {
    let kinds: Vec<DistanceKind> = FIXTURES.iter().map(|n| fixture(n).kind).collect();
    assert!(kinds.contains(&DistanceKind::Hamming));
    assert!(kinds.contains(&DistanceKind::Edit));
    assert!(kinds.contains(&DistanceKind::Lcs));
}
