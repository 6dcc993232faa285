//! The committed bench records share one layout and were produced by
//! passing full-mode runs.

use std::path::Path;

use mda_server::json::Json;

#[test]
fn committed_records_share_the_record_layout() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results directory") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("UTF-8 name");
        // Quick records are local smoke runs, never committed; the
        // conformance report has its own layout.
        let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
            .filter(|stem| !stem.ends_with(".quick") && *stem != "conformance")
        else {
            continue;
        };
        let bytes = std::fs::read(&path).expect("readable record");
        let doc = Json::parse(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let field = |key: &str| doc.get(key).unwrap_or_else(|| panic!("{name}: no {key}"));
        assert_eq!(field("bin").as_str(), Some(stem), "{name}: bin");
        assert_eq!(field("mode").as_str(), Some("full"), "{name}: mode");
        assert!(field("cores").as_u64() >= Some(1), "{name}: cores");
        assert!(
            field("commit").as_str().is_some_and(|c| !c.is_empty()),
            "{name}: commit"
        );
        let Json::Obj(sections) = field("sections") else {
            panic!("{name}: sections is not an object");
        };
        assert!(!sections.is_empty(), "{name}: no sections");
        let Json::Obj(gates) = field("gates") else {
            panic!("{name}: gates is not an object");
        };
        assert!(!gates.is_empty(), "{name}: no gates");
        for (gate, verdict) in gates {
            assert_eq!(
                verdict.get("passed").and_then(Json::as_bool),
                Some(true),
                "{name}: gate {gate} did not pass"
            );
        }
        checked.push(stem.to_string());
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "acam",
            "batch_throughput",
            "kernels",
            "routing",
            "serve_loadgen",
            "spice_solver",
            "streaming"
        ],
        "one committed record per gated bench binary"
    );
}
