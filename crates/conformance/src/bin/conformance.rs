//! The `conformance` CLI: run the cross-layer differential harness, or
//! replay a shrunk reproducer downloaded from a CI artifact.
//!
//! ```text
//! conformance [--quick] [--seed N] [--cases N] [--out DIR] [--report FILE]
//!             [--no-server] [--no-faults]
//! conformance --replay FILE
//! ```
//!
//! Exit code 0 means every case agreed within bounds and the fault suite
//! passed; 1 means at least one check failed (shrunk reproducers are then
//! under the `--out` directory); 2 means bad usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mda_conformance::harness::{replay, run, HarnessConfig};
use mda_conformance::report::load_case;

/// Default differential case count for a full run.
const DEFAULT_CASES: u64 = 600;
/// Case count under `--quick` (CI): still covers every kind × class cell.
const QUICK_CASES: u64 = 240;

struct Args {
    config: HarnessConfig,
    report_path: PathBuf,
    replay_path: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = HarnessConfig::full(0xC0FFEE, DEFAULT_CASES);
    let mut report_path = PathBuf::from("results/BENCH_conformance.json");
    let mut replay_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--quick" => config.cases = QUICK_CASES,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--cases" => {
                config.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--out" => config.out_dir = PathBuf::from(value("--out")?),
            "--report" => report_path = PathBuf::from(value("--report")?),
            "--no-server" => config.with_server = false,
            "--no-faults" => config.with_faults = false,
            "--replay" => replay_path = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                return Err(
                    "usage: conformance [--quick] [--seed N] [--cases N] [--out DIR] \
                            [--report FILE] [--no-server] [--no-faults] | --replay FILE"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Args {
        config,
        report_path,
        replay_path,
    })
}

fn replay_main(path: &Path) -> ExitCode {
    let case = match load_case(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed {} case {} ({} {} {}, |p|={}, |q|={})",
        case.seed,
        case.id,
        case.kind.abbrev(),
        case.structure(),
        case.class.label(),
        case.p.len(),
        case.q.len()
    );
    let failures = replay(&case, true);
    if failures.is_empty() {
        println!("all layers agree within bounds — the disagreement did not reproduce");
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        match &f.error {
            Some(e) => println!(
                "layer `{}` errored (reference {}): {e}",
                f.layer, f.reference
            ),
            None => println!(
                "layer `{}` value {} vs reference {} (allowed margin {})",
                f.layer, f.value, f.reference, f.margin
            ),
        }
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("conformance: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay_path {
        return replay_main(path);
    }

    let outcome = run(&args.config);
    if let Some(dir) = args.report_path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("conformance: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&args.report_path, format!("{}\n", outcome.report)) {
        eprintln!(
            "conformance: cannot write {}: {e}",
            args.report_path.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "conformance: seed {} over {} cases — report at {}",
        args.config.seed,
        args.config.cases,
        args.report_path.display()
    );
    if outcome.failures.is_empty() {
        println!("conformance: PASS (all layers within bounds, fault suite clean)");
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("conformance: FAIL {f}");
        }
        for r in &outcome.reproducers {
            eprintln!("conformance: reproducer {}", r.display());
        }
        ExitCode::FAILURE
    }
}
