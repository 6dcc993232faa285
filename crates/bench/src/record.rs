//! The one result format every gated bench binary writes.
//!
//! A [`Record`] carries what produced the run — the binary, the mode
//! (`quick` or `full`), the host's core count and the commit, marked
//! `-dirty` when tracked files differ from it — beside
//! titled sections of rows and named gates. [`Record::finish`] prints the
//! sections as [`Table`]s and each gate's verdict, writes the record as
//! JSON through [`mda_server::json::Json`], and returns the process exit
//! code, which fails if any gate did. Each number is formatted once, for
//! the console and the file alike: integers exactly, floats to four
//! significant digits.
//!
//! A full run writes `results/BENCH_<bin>.json`, the committed baseline; a
//! quick run writes `results/BENCH_<bin>.quick.json`, so a CI smoke run
//! never overwrites it. The layout:
//!
//! ```text
//! {"bin": "kernels", "mode": "full", "cores": 2, "commit": "7ea1f9c",
//!  "sections": {"search": [{"haystack_len": 16384, ...}], ...},
//!  "gates": {"search_speedup": {"op": ">=", "bound": 2, "observed": 8.7,
//!                               "passed": true}, ...}}
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use mda_server::json::Json;

use crate::Table;

/// Significant digits a float cell keeps.
const SIGNIFICANT: usize = 4;

/// A value a record can hold: its JSON form is also what the console shows.
pub trait Cell {
    /// The value as JSON.
    fn into_json(self) -> Json;
}

impl Cell for &str {
    fn into_json(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Cell for String {
    fn into_json(self) -> Json {
        Json::Str(self)
    }
}

impl Cell for bool {
    fn into_json(self) -> Json {
        Json::Bool(self)
    }
}

impl Cell for u64 {
    fn into_json(self) -> Json {
        Json::Num(self as f64)
    }
}

impl Cell for usize {
    fn into_json(self) -> Json {
        Json::Num(self as f64)
    }
}

/// Rounded to four significant digits, so the shortest round-trip form the
/// JSON writer prints is short too.
impl Cell for f64 {
    fn into_json(self) -> Json {
        let rounded = format!("{self:.*e}", SIGNIFICANT - 1)
            .parse()
            .expect("Rust parses its own float formatting");
        Json::Num(rounded)
    }
}

/// One row of a section: named cells in insertion order.
#[derive(Debug, Default)]
pub struct Row(Vec<(String, Json)>);

impl Row {
    /// Sets cell `key` (appended; rows of one section share their keys).
    pub fn set(&mut self, key: &str, value: impl Cell) -> &mut Row {
        self.0.push((key.to_string(), value.into_json()));
        self
    }
}

#[derive(Debug)]
struct Gate {
    name: String,
    op: &'static str,
    bound: Json,
    observed: Json,
    passed: bool,
}

/// One bench run's result: provenance, sections of rows, and gates.
#[derive(Debug)]
pub struct Record {
    bin: String,
    quick: bool,
    cores: usize,
    commit: String,
    sections: Vec<(String, Vec<Row>)>,
    gates: Vec<Gate>,
}

impl Record {
    /// An empty record for binary `bin` (pass `env!("CARGO_BIN_NAME")`).
    pub fn new(bin: &str, quick: bool) -> Record {
        let commit = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(hash) if !hash.trim().is_empty() => commit_label(
                hash.trim(),
                &git(&["status", "--porcelain", "--untracked-files=no"]).unwrap_or_default(),
            ),
            _ => "unknown".to_string(),
        };
        Record {
            bin: bin.to_string(),
            quick,
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            commit,
            sections: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// The host's available parallelism, as recorded.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Appends an empty row to section `title` (created on first use).
    pub fn row(&mut self, title: &str) -> &mut Row {
        let at = match self.sections.iter().position(|(t, _)| t == title) {
            Some(at) => at,
            None => {
                self.sections.push((title.to_string(), Vec::new()));
                self.sections.len() - 1
            }
        };
        let rows = &mut self.sections[at].1;
        rows.push(Row::default());
        rows.last_mut().expect("just pushed")
    }

    /// Gate `name` passes when `observed >= bound`.
    pub fn at_least<T: Cell + PartialOrd>(&mut self, name: &str, observed: T, bound: T) {
        let passed = observed >= bound;
        self.gate(name, ">=", bound.into_json(), observed.into_json(), passed);
    }

    /// Gate `name` passes when `observed <= bound`.
    pub fn at_most<T: Cell + PartialOrd>(&mut self, name: &str, observed: T, bound: T) {
        let passed = observed <= bound;
        self.gate(name, "<=", bound.into_json(), observed.into_json(), passed);
    }

    /// Gate `name` passes when `ok` holds.
    pub fn holds(&mut self, name: &str, ok: bool) {
        self.gate(name, "==", Json::Bool(true), Json::Bool(ok), ok);
    }

    fn gate(&mut self, name: &str, op: &'static str, bound: Json, observed: Json, passed: bool) {
        self.gates.push(Gate {
            name: name.to_string(),
            op,
            bound,
            observed,
            passed,
        });
    }

    /// Prints the record, writes it under `results/`, and returns the exit
    /// code: failure if any gate failed or the record could not be written.
    pub fn finish(self) -> ExitCode {
        self.finish_in(Path::new("results"))
    }

    fn finish_in(self, dir: &Path) -> ExitCode {
        let mode = if self.quick { "quick" } else { "full" };
        println!(
            "\n{} ({mode}, {} core(s), commit {})",
            self.bin, self.cores, self.commit
        );
        for (title, rows) in &self.sections {
            print!("\n{title}\n{}", table(rows));
        }
        println!();
        let mut passed = true;
        for g in &self.gates {
            let verdict = if g.passed { "pass" } else { "FAIL" };
            let line = format!(
                "gate {}: {} {} {} -> {verdict}",
                g.name,
                text(&g.observed),
                g.op,
                text(&g.bound)
            );
            if g.passed {
                println!("{line}");
            } else {
                eprintln!("{line}");
            }
            passed &= g.passed;
        }
        let path = self.path_in(dir);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", self.to_json())));
        match written {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                passed = false;
            }
        }
        if passed {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn path_in(&self, dir: &Path) -> PathBuf {
        let mode = if self.quick { ".quick" } else { "" };
        dir.join(format!("BENCH_{}{mode}.json", self.bin))
    }

    fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let sections = self
            .sections
            .iter()
            .map(|(title, rows)| {
                let rows = rows.iter().map(|r| Json::Obj(r.0.clone())).collect();
                (title.clone(), Json::Arr(rows))
            })
            .collect();
        let gates = self
            .gates
            .iter()
            .map(|g| {
                let gate = obj(vec![
                    ("op", Json::Str(g.op.to_string())),
                    ("bound", g.bound.clone()),
                    ("observed", g.observed.clone()),
                    ("passed", Json::Bool(g.passed)),
                ]);
                (g.name.clone(), gate)
            })
            .collect();
        obj(vec![
            ("bin", Json::Str(self.bin.clone())),
            (
                "mode",
                Json::Str(if self.quick { "quick" } else { "full" }.into()),
            ),
            ("cores", self.cores.into_json()),
            ("commit", Json::Str(self.commit.clone())),
            ("sections", Json::Obj(sections)),
            ("gates", Json::Obj(gates)),
        ])
    }
}

/// The standard output of `git args`, if it ran and succeeded.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The commit a record names: `hash`, marked `-dirty` when `porcelain`
/// (`git status --porcelain --untracked-files=no`) lists a tracked change,
/// since the run then measured code that commit does not hold.
fn commit_label(hash: &str, porcelain: &str) -> String {
    if porcelain.trim().is_empty() {
        hash.to_string()
    } else {
        format!("{hash}-dirty")
    }
}

/// A cell as the console shows it: strings unquoted, the rest as in JSON.
fn text(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// A section as a table: one column per key, or `field | value` lines for
/// a single row, which would otherwise print as one very wide line.
fn table(rows: &[Row]) -> Table {
    if let [row] = rows {
        let mut t = Table::new(["field", "value"]);
        for (key, value) in &row.0 {
            t.row([key.clone(), text(value)]);
        }
        return t;
    }
    let keys: Vec<&String> = rows[0].0.iter().map(|(k, _)| k).collect();
    let mut t = Table::new(keys.iter().map(|k| k.as_str()));
    for row in rows {
        assert!(
            row.0.iter().map(|(k, _)| k).eq(keys.iter().copied()),
            "rows of one section must share their keys"
        );
        t.row(row.0.iter().map(|(_, v)| text(v)));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per test: tests run on parallel threads.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mda-record-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(quick: bool) -> Record {
        let mut rec = Record::new("sample", quick);
        rec.row("kernels")
            .set("name", "dtw")
            .set("cells", 16384usize)
            .set("speedup", 8.703_449);
        rec.row("kernels")
            .set("name", "lcs")
            .set("cells", 4096usize)
            .set("speedup", 2.5);
        rec.row("replay")
            .set("fingerprint", format!("{:016x}", 0xf593_bf92_dfed_5836u64))
            .set("byte_stable", true);
        rec.at_most("identity_mismatches", 0u64, 0);
        rec.at_least("search_speedup", 8.703_449, 2.0);
        rec.holds("replay_byte_stable", true);
        rec
    }

    fn written(dir: &Path, name: &str) -> Json {
        let bytes = std::fs::read(dir.join(name)).expect("record written");
        Json::parse(&bytes).expect("record parses")
    }

    #[test]
    fn written_record_round_trips_every_section_row_and_gate() {
        let dir = scratch_dir("round-trip");
        let rec = sample(false);
        let want = rec.to_json();
        assert_eq!(rec.finish_in(&dir), ExitCode::SUCCESS);
        let doc = written(&dir, "BENCH_sample.json");
        assert_eq!(doc, want);

        assert_eq!(doc.get("bin").and_then(Json::as_str), Some("sample"));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("full"));
        assert!(doc.get("cores").and_then(Json::as_usize) >= Some(1));
        assert!(!doc.get("commit").and_then(Json::as_str).unwrap().is_empty());
        let sections = doc.get("sections").unwrap();
        let kernels = sections.get("kernels").and_then(Json::as_array).unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].get("name").and_then(Json::as_str), Some("dtw"));
        assert_eq!(kernels[0].get("cells").and_then(Json::as_u64), Some(16384));
        assert_eq!(
            kernels[0].get("speedup").and_then(Json::as_f64),
            Some(8.703)
        );
        assert_eq!(kernels[1].get("speedup").and_then(Json::as_f64), Some(2.5));
        let replay = &sections.get("replay").and_then(Json::as_array).unwrap()[0];
        assert_eq!(
            replay.get("fingerprint").and_then(Json::as_str),
            Some("f593bf92dfed5836")
        );
        assert_eq!(
            replay.get("byte_stable").and_then(Json::as_bool),
            Some(true)
        );
        let gates = doc.get("gates").unwrap();
        for name in [
            "identity_mismatches",
            "search_speedup",
            "replay_byte_stable",
        ] {
            let gate = gates.get(name).unwrap_or_else(|| panic!("gate {name}"));
            assert_eq!(gate.get("passed").and_then(Json::as_bool), Some(true));
        }
        let speedup = gates.get("search_speedup").unwrap();
        assert_eq!(speedup.get("op").and_then(Json::as_str), Some(">="));
        assert_eq!(speedup.get("bound").and_then(Json::as_f64), Some(2.0));
        assert_eq!(speedup.get("observed").and_then(Json::as_f64), Some(8.703));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn a_failed_gate_fails_the_exit_code_and_is_still_written() {
        let dir = scratch_dir("failed-gate");
        let mut rec = sample(false);
        rec.at_least("streaming_speedup", 4.99, 5.0);
        assert_eq!(rec.finish_in(&dir), ExitCode::FAILURE);
        let doc = written(&dir, "BENCH_sample.json");
        let gate = doc.get("gates").unwrap().get("streaming_speedup").unwrap();
        assert_eq!(gate.get("passed").and_then(Json::as_bool), Some(false));
        assert_eq!(gate.get("observed").and_then(Json::as_f64), Some(4.99));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn a_tracked_change_marks_the_commit_dirty() {
        assert_eq!(commit_label("7ea1f9c", ""), "7ea1f9c");
        assert_eq!(commit_label("7ea1f9c", "\n"), "7ea1f9c");
        assert_eq!(
            commit_label("7ea1f9c", " M crates/bench/src/record.rs\n"),
            "7ea1f9c-dirty"
        );
        assert_eq!(
            commit_label("7ea1f9c", "M  a.rs\nD  b.rs\n"),
            "7ea1f9c-dirty"
        );
    }

    #[test]
    fn quick_and_full_runs_write_separate_files() {
        let dir = Path::new("results");
        assert_eq!(
            sample(false).path_in(dir),
            Path::new("results/BENCH_sample.json")
        );
        assert_eq!(
            sample(true).path_in(dir),
            Path::new("results/BENCH_sample.quick.json")
        );
        assert_eq!(
            sample(true).to_json().get("mode").and_then(Json::as_str),
            Some("quick")
        );
    }
}
