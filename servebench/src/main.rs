//! `servebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the repository root. Prints one JSON object as the last line
//! of standard output; notes go to standard error. Exits non-zero, without
//! a result line, when the run cannot measure.

use std::path::PathBuf;
use std::process::ExitCode;

use servebench::{run, Options, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: servebench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        target_dir: std::env::var_os("CARGO_TARGET_DIR").map(|d| root.join(PathBuf::from(d))),
        root,
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("servebench: {note}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
