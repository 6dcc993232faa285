//! A seed never used while tuning the benchmark must run clean end to end:
//! build and spawn the real server, drive every phase, pass every gate.

use std::path::PathBuf;

use servebench::{run, Options, Workload};

const HELD_OUT_SEED: u64 = 0x5eed_0ff5;

fn options(workload: Workload, trace: bool) -> Options {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    Options {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 10.0,
        trace,
        root,
        // Cargo holds the test build's target directory locked while tests
        // run, so the server builds into one of its own.
        target_dir: Some(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("server")),
    }
}

#[test]
fn held_out_seed_runs_clean() {
    let report = run(&options(Workload::ToleranceMix, false)).expect("run measures");
    assert!(report.correct, "notes: {:?}", report.notes);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 1000, "attempted {}", report.attempted);
    assert_eq!(report.metrics.len(), 12);
    for (name, (value, _)) in &report.metrics {
        assert!(*value > 0.0, "{name} = {value}");
    }

    let traced = run(&options(Workload::ResidentMining, true)).expect("traced run measures");
    assert!(traced.correct, "notes: {:?}", traced.notes);
    assert_eq!(traced.failed, 0);
    for name in [
        "event_loop.cpu_us_per_req",
        "event_loop.layers_us_per_req",
        "event_loop.residual_us_per_req",
        "search.run_ms",
        "search.windows",
        "search.pruned_kim",
        "search.pruned_keogh",
        "search.abandoned",
        "search.full_dtw",
        "search.prune_rate",
        "streams.push_batch_us",
        "streaming.push_us_per_point",
        "backend.analog_us",
        "kernels.dtw_banded_ns_per_cell",
    ] {
        let (value, _) = traced.metrics.get(name).expect(name);
        assert!(value.is_finite(), "{name} = {value}");
    }
    for name in [
        "search.windows",
        "search.run_ms",
        "event_loop.cpu_us_per_req",
    ] {
        assert!(traced.metrics[name].0 > 0.0, "{name} is zero");
    }
}
