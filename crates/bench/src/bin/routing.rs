//! Accuracy-SLA routing bench: drives a live `mda-server` with a mixed
//! exact/tolerance workload, reads back every reply's routing report, and
//! gates the router's three promises:
//!
//! 1. **zero SLA violations** (always fatal) — every exact answer is
//!    bitwise identical to the direct library call, and every
//!    tolerance-tagged answer lands within its ε of the digital reference;
//! 2. **tolerance bulk goes analog** — the majority of tolerance-tagged
//!    pair queries on encodable inputs are served by the analog fabric,
//!    not silently left on the digital path;
//! 3. **routing saves power** — the workload's modeled average watts per
//!    answer (each backend billed at its own operating point) is lower
//!    than billing everything at the digital host's draw.
//!
//! ```text
//! routing [--addr HOST:PORT]
//! ```
//!
//! Writes `results/BENCH_routing.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use mda_bench::Record;
use mda_distance::{boxed_distance, DistanceKind};
use mda_routing::{default_backends, BackendId, Sla, DIGITAL_HOST_WATTS};
use mda_server::{Client, QueryOptions, Server, ServerConfig};

/// Pair queries in the mixed workload.
const QUERIES: usize = 240;
/// The in-process server's fleet power budget, W.
const FLEET_WATTS: f64 = 50.0;

/// Series inside the DAC's ±6.25-unit encodable range, so tolerance
/// queries genuinely exercise the analog path.
fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i + 31 * seed) as f64 * 0.27).sin() * 2.1 + (seed as f64 * 0.43).cos() * 0.9)
        .collect()
}

struct Tally {
    selected: BTreeMap<&'static str, u64>,
    sla_violations: u64,
    missing_reports: u64,
    routed_watt_answers: f64,
    answers: u64,
}

impl Tally {
    fn new() -> Tally {
        let mut selected = BTreeMap::new();
        for id in BackendId::ALL {
            selected.insert(id.as_str(), 0);
        }
        Tally {
            selected,
            sla_violations: 0,
            missing_reports: 0,
            routed_watt_answers: 0.0,
            answers: 0,
        }
    }
}

fn main() -> ExitCode {
    let mut addr_arg: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr_arg = Some(it.next().expect("--addr needs HOST:PORT")),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let in_process = addr_arg.is_none();
    let server = if in_process {
        Some(
            Server::start(ServerConfig {
                fleet_power_w: FLEET_WATTS,
                ..ServerConfig::default()
            })
            .expect("start in-process server"),
        )
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&server, &addr_arg) {
        (Some(s), _) => s.local_addr(),
        (None, Some(a)) => a.parse().expect("--addr must be HOST:PORT"),
        (None, None) => unreachable!(),
    };
    println!("routing bench -> {addr}");

    let mut client = Client::connect(addr).expect("connect");
    let backends = default_backends();
    let ceiling = backends.analog().ceiling();
    let mut tally = Tally::new();
    let mut tolerance_pair_queries = 0u64;
    let mut tolerance_analog = 0u64;

    // Mixed workload: every kind, half exact, half tolerance-tagged with
    // the loosest ε the analog path can provably satisfy at this length.
    let len = 96usize;
    for i in 0..QUERIES {
        let kind = DistanceKind::ALL[i % DistanceKind::ALL.len()];
        let p = series(len, 2 * i + 1);
        let q = series(len, 2 * i + 2);
        let reference = boxed_distance(kind)
            .evaluate(&p, &q)
            .expect("well-shaped pair");

        let exact = i % 2 == 0;
        let (opts, epsilon) = if exact {
            (QueryOptions::new().accuracy(Sla::Exact), 0.0)
        } else {
            let eps = backends
                .get(BackendId::Analog)
                .bound(kind, len)
                .margin(ceiling);
            (
                QueryOptions::new().accuracy(Sla::tolerance(eps).expect("finite margin")),
                eps,
            )
        };

        let routed = client
            .query_distance(kind, &p, &q, &opts)
            .expect("served distance");
        tally.answers += 1;

        let Some(route) = routed.route else {
            tally.missing_reports += 1;
            continue;
        };
        *tally.selected.entry(route.backend.as_str()).or_insert(0) += 1;
        tally.routed_watt_answers += backends.get(route.backend).power_w(kind, len);

        if exact {
            if routed.value.to_bits() != reference.to_bits() {
                tally.sla_violations += 1;
                eprintln!(
                    "SLA VIOLATION: exact {kind} answered {:e} vs reference {reference:e}",
                    routed.value
                );
            }
        } else {
            tolerance_pair_queries += 1;
            // Both analog planes count: the DP fabric and the aCAM one-shot
            // match plane (which undercuts it on the thresholded kinds).
            if matches!(route.backend, BackendId::Analog | BackendId::Acam) {
                tolerance_analog += 1;
            }
            let err = (routed.value - reference).abs();
            if err > epsilon || err.is_nan() {
                tally.sla_violations += 1;
                eprintln!(
                    "SLA VIOLATION: {kind} ε={epsilon} answered {} vs reference {reference} \
                     via {}",
                    routed.value, route.backend
                );
            }
        }
    }

    let mean_routed_w = tally.routed_watt_answers / tally.answers as f64;
    let all_digital_w = DIGITAL_HOST_WATTS;
    let analog_fraction = if tolerance_pair_queries > 0 {
        tolerance_analog as f64 / tolerance_pair_queries as f64
    } else {
        0.0
    };
    if let Some(server) = server {
        server.shutdown_and_join();
    }

    let mut rec = Record::new(env!("CARGO_BIN_NAME"), false);
    rec.row("workload")
        .set("queries", tally.answers)
        .set("fleet_watts", FLEET_WATTS)
        .set("in_process", in_process)
        .set("tolerance_queries", tolerance_pair_queries)
        .set("tolerance_analog", tolerance_analog)
        .set("tolerance_analog_fraction", analog_fraction)
        .set("mean_routed_watts", mean_routed_w)
        .set("all_digital_watts", all_digital_w)
        .set("power_saving_ratio", all_digital_w / mean_routed_w);
    for (backend, count) in &tally.selected {
        rec.row("backend_selected")
            .set("backend", *backend)
            .set("answers", *count);
    }

    // All fatal: the routing contract is not advisory.
    rec.at_most("sla_violations", tally.sla_violations, 0);
    rec.at_most("missing_route_reports", tally.missing_reports, 0);
    rec.holds(
        "tolerance_analog_fraction_above_half",
        analog_fraction > 0.5,
    );
    rec.holds(
        "routed_below_all_digital_watts",
        mean_routed_w < all_digital_w,
    );
    rec.finish()
}
