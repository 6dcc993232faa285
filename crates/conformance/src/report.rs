//! Reproducer serialization and deterministic JSON helpers.
//!
//! A shrunk disagreement is written as a small self-contained JSON file
//! under `results/conformance/`: it carries the exact series (post-shrink,
//! so *not* regenerable from the seed), every parameter the layers need,
//! and the observed failure, plus the command line that replays it. The
//! format is parsed back by [`load_case`] using the same hand-rolled JSON
//! module the wire protocol uses, so a reproducer downloaded from a CI
//! artifact replays locally with no extra tooling.
//!
//! All JSON rendered here is deterministic: objects preserve insertion
//! order, numbers print through Rust's shortest-roundtrip `Display`, and
//! nothing derived from wall-clock time or environment ever enters the
//! tree — the same seed must produce byte-identical output on every run.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mda_distance::DistanceKind;
use mda_server::json::Json;

use crate::case::{CaseSpec, Family, LengthClass};

/// One observed layer disagreement, as recorded in reports/reproducers.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Which layer disagreed (a key of the report's `layers` object).
    pub layer: &'static str,
    /// The value that layer produced (`NaN` when it errored instead).
    pub value: f64,
    /// The digital reference value.
    pub reference: f64,
    /// The permitted deviation at that reference magnitude.
    pub margin: f64,
    /// Detail when the layer failed with an error rather than a value.
    pub error: Option<String>,
}

fn str_json(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn series_json(xs: &[f64]) -> Json {
    Json::from_f64s(xs)
}

/// Serializes a case (plus its failure) into the reproducer document.
pub fn reproducer_json(case: &CaseSpec, failure: &Failure, path_hint: &str) -> Json {
    Json::Obj(vec![
        ("tool".into(), str_json("mda-conformance")),
        ("seed".into(), Json::Num(case.seed as f64)),
        ("case".into(), Json::Num(case.id as f64)),
        ("kind".into(), str_json(case.kind.abbrev())),
        ("class".into(), str_json(case.class.label())),
        ("family".into(), str_json(case.family.label())),
        ("threshold".into(), Json::Num(case.threshold)),
        (
            "band".into(),
            match case.band {
                Some(r) => Json::Num(r as f64),
                None => Json::Null,
            },
        ),
        ("noise_seed".into(), Json::Num(case.noise_seed as f64)),
        ("p".into(), series_json(&case.p)),
        ("q".into(), series_json(&case.q)),
        (
            "failure".into(),
            Json::Obj(vec![
                ("layer".into(), str_json(failure.layer)),
                ("value".into(), Json::Num(failure.value)),
                ("reference".into(), Json::Num(failure.reference)),
                ("margin".into(), Json::Num(failure.margin)),
                (
                    "error".into(),
                    match &failure.error {
                        Some(e) => str_json(e),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "replay".into(),
            str_json(&format!(
                "cargo run --release -p mda-conformance --bin conformance -- --replay {path_hint}"
            )),
        ),
    ])
}

/// The canonical reproducer filename for a case.
pub fn reproducer_filename(case: &CaseSpec) -> String {
    format!("repro_seed{}_case{}.json", case.seed, case.id)
}

/// Writes a shrunk reproducer under `dir`, returning its path.
///
/// # Errors
///
/// Filesystem errors creating the directory or writing the file.
pub fn write_reproducer(dir: &Path, case: &CaseSpec, failure: &Failure) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(reproducer_filename(case));
    let doc = reproducer_json(case, failure, &path.display().to_string());
    fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

fn parse_class(label: &str) -> Result<LengthClass, String> {
    LengthClass::ALL
        .into_iter()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown length class `{label}`"))
}

fn parse_family(label: &str) -> Result<Family, String> {
    [
        Family::Walk,
        Family::Sine,
        Family::Constant,
        Family::Spike,
        Family::Offset,
    ]
    .into_iter()
    .find(|f| f.label() == label)
    .ok_or_else(|| format!("unknown family `{label}`"))
}

/// Parses a reproducer document back into the case it pins.
///
/// # Errors
///
/// A description of the first malformed or missing field.
pub fn case_from_json(doc: &Json) -> Result<CaseSpec, String> {
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    let int = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    };
    let text = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("`{key}` must be a string"))
    };
    let series = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64_vec)
            .ok_or_else(|| format!("`{key}` must be an array of numbers"))
    };
    let band = match doc.get("band") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| "`band` must be a non-negative integer".to_string())?,
        ),
    };
    Ok(CaseSpec {
        seed: int("seed")?,
        id: int("case")?,
        kind: text("kind")?
            .parse::<DistanceKind>()
            .map_err(|e| e.to_string())?,
        class: parse_class(text("class")?)?,
        family: parse_family(text("family")?)?,
        threshold: num("threshold")?,
        band,
        p: series("p")?,
        q: series("q")?,
        noise_seed: int("noise_seed")?,
    })
}

/// Loads a reproducer file from disk.
///
/// # Errors
///
/// IO or parse failures, as a human-readable description.
pub fn load_case(path: &Path) -> Result<CaseSpec, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    case_from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::generate;

    fn failure() -> Failure {
        Failure {
            layer: "spice",
            value: 3.25,
            reference: 2.5,
            margin: 0.6,
            error: None,
        }
    }

    #[test]
    fn reproducer_roundtrips_the_case_bitwise() {
        for id in 0..36 {
            let case = generate(1234, id);
            let doc = reproducer_json(&case, &failure(), "x.json");
            let rendered = format!("{doc}");
            let parsed = Json::parse(rendered.as_bytes()).expect("self-rendered JSON");
            let back = case_from_json(&parsed).expect("roundtrip");
            assert_eq!(back, case, "case {id}");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let case = generate(9, 3);
        let a = format!("{}", reproducer_json(&case, &failure(), "x.json"));
        let b = format!("{}", reproducer_json(&case, &failure(), "x.json"));
        assert_eq!(a, b);
    }

    #[test]
    fn write_and_load_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join("mda_conformance_report_test");
        let case = generate(77, 5);
        let path = write_reproducer(&dir, &case, &failure()).expect("write");
        let back = load_case(&path).expect("load");
        assert_eq!(back, case);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_documents_fail_typed() {
        let doc = Json::parse(br#"{"seed": 1}"#).unwrap();
        let err = case_from_json(&doc).expect_err("missing fields");
        assert!(err.contains("`case`"), "{err}");
    }
}
