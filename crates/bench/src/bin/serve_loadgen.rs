//! Load generator for `mda-server`: drives the service at fixed
//! concurrency, verifies served results are bitwise identical to direct
//! library calls, and measures how request coalescing, connection
//! multiplexing, and resident datasets scale the service.
//!
//! ```text
//! serve_loadgen [--addr HOST:PORT] [--strict]
//! ```
//!
//! Without `--addr`, an in-process server is started on a loopback port.
//! Phases:
//!
//! 1. **identity** — all six distance kinds + kNN, bitwise vs direct
//!    library calls (always fatal);
//! 2. **throughput** — 1 client vs [`CLIENTS`] concurrent clients issuing
//!    DTW queries back to back; the coalescing ratio between the two is
//!    gated under `--strict`, scaled to the host's core count (a 1-core
//!    container cannot show parallel speedup no matter how good the
//!    batching is, so its requirement bottoms out below 1x);
//! 3. **connection storm** — [`CONNS`] connections all held open
//!    concurrently, each driving [`ROUNDS`] pipelined request rounds whose
//!    replies must be bitwise identical (always fatal);
//! 4. **resident datasets** — the same kNN workload inline vs resident;
//!    results must match bitwise and the resident path must move at least
//!    10x fewer wire bytes (always fatal).
//!
//! Writes `results/BENCH_serve_loadgen.json`, even when a gate fails.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mda_bench::Record;
use mda_distance::mining::KnnClassifier;
use mda_distance::{boxed_distance, DistanceKind};
use mda_server::protocol::{
    encode_request, DatasetEntry, DatasetRef, Envelope, Request, TrainInstance,
};
use mda_server::{Client, QueryOptions, Server, ServerConfig};

/// Concurrent clients in the throughput phase.
const CLIENTS: usize = 8;
/// Length of each throughput phase, s.
const SECONDS: f64 = 2.0;
/// Connections the storm phase holds open at once.
const CONNS: usize = 1000;
/// Pipelined request rounds per storm connection.
const ROUNDS: usize = 3;

fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i + 29 * seed) as f64 * 0.23).sin() * 1.6 + (seed as f64 * 0.41).cos())
        .collect()
}

/// One pass over all six distance functions plus a kNN query, compared
/// bitwise against direct library calls.
fn identity_check(addr: std::net::SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let p = series(48, 3);
    let q = series(48, 4);
    for kind in DistanceKind::ALL {
        let direct = boxed_distance(kind)
            .evaluate(&p, &q)
            .map_err(|e| e.to_string())?;
        let served = client
            .query_distance(kind, &p, &q, &QueryOptions::new())
            .map_err(|e| e.to_string())?
            .value;
        if served.to_bits() != direct.to_bits() {
            return Err(format!(
                "{kind}: served {served:e} != direct {direct:e} (bitwise)"
            ));
        }
    }
    let train: Vec<TrainInstance> = (0..10)
        .map(|i| TrainInstance {
            label: i % 2,
            series: series(48, 200 + i),
        })
        .collect();
    let mut knn = KnnClassifier::new(boxed_distance(DistanceKind::Dtw), 3);
    for t in &train {
        knn.fit(t.label, t.series.clone());
    }
    let direct = knn.classify(&p).map_err(|e| e.to_string())?;
    let served = client
        .query_knn(DistanceKind::Dtw, 3, &p, &train, &QueryOptions::new())
        .map_err(|e| e.to_string())?
        .value;
    if served.label != direct.label
        || served.score.to_bits() != direct.score.to_bits()
        || served.nearest_index != direct.nearest_index
    {
        return Err(format!("kNN: served {served:?} != direct {direct:?}"));
    }
    Ok(())
}

/// Drives `clients` concurrent connections for `seconds`, each issuing
/// DTW distance queries back to back. Returns (requests, errors, qps).
fn run_load(addr: std::net::SocketAddr, clients: usize, seconds: f64) -> (u64, u64, f64) {
    let requests = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (requests, errors) = (&requests, &errors);
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    errors.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let p = series(64, c);
                let mut seed = 0usize;
                while Instant::now() < deadline {
                    let q = series(64, 1000 + c * 97 + (seed % 8));
                    seed += 1;
                    match client.query_distance(DistanceKind::Dtw, &p, &q, &QueryOptions::new()) {
                        Ok(_) => {
                            requests.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let n = requests.load(Ordering::Relaxed);
    (n, errors.load(Ordering::Relaxed), n as f64 / elapsed)
}

/// Outcome of the connection-storm phase.
struct StormOutcome {
    held: usize,
    requests: u64,
    errors: u64,
    mismatches: u64,
    qps: f64,
}

/// Opens `conns` connections, holds them ALL open concurrently (a barrier
/// separates connect from drive), then runs `rounds` of pipelined
/// `send_many` bursts on every connection, verifying each reply bitwise.
fn run_connection_storm(addr: std::net::SocketAddr, conns: usize, rounds: usize) -> StormOutcome {
    let p = series(32, 7);
    let q = series(32, 9);
    let expected: Vec<(DistanceKind, u64)> = DistanceKind::ALL
        .into_iter()
        .map(|kind| {
            let d = boxed_distance(kind)
                .evaluate(&p, &q)
                .expect("direct distance");
            (kind, d.to_bits())
        })
        .collect();

    let threads = conns.clamp(1, 8);
    let barrier = Barrier::new(threads);
    let held = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let share = conns / threads + usize::from(t < conns % threads);
            let (barrier, held, requests, errors, mismatches) =
                (&barrier, &held, &requests, &errors, &mismatches);
            let (p, q, expected) = (&p, &q, &expected);
            scope.spawn(move || {
                // Connect this thread's share first; every connection stays
                // open until the whole phase ends.
                let mut clients = Vec::with_capacity(share);
                for _ in 0..share {
                    match Client::connect(addr) {
                        Ok(c) => clients.push(c),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                held.fetch_add(clients.len() as u64, Ordering::Relaxed);
                barrier.wait();
                let burst: Vec<Request> = expected
                    .iter()
                    .map(|&(kind, _)| Request::Distance {
                        kind,
                        p: p.clone(),
                        q: q.clone(),
                        threshold: None,
                        band: None,
                        deadline_ms: None,
                        accuracy: None,
                    })
                    .collect();
                for _ in 0..rounds {
                    for client in &mut clients {
                        match client.send_many(burst.clone()) {
                            Ok(replies) => {
                                requests.fetch_add(replies.len() as u64, Ordering::Relaxed);
                                for (reply, &(_, want)) in replies.iter().zip(expected.iter()) {
                                    match reply {
                                        mda_server::ResponseBody::Distance { value }
                                            if value.to_bits() == want => {}
                                        _ => {
                                            mismatches.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let n = requests.load(Ordering::Relaxed);
    StormOutcome {
        held: held.load(Ordering::Relaxed) as usize,
        requests: n,
        errors: errors.load(Ordering::Relaxed),
        mismatches: mismatches.load(Ordering::Relaxed),
        qps: n as f64 / elapsed,
    }
}

/// Outcome of the resident-dataset phase.
struct ResidentOutcome {
    queries: usize,
    inline_bytes: u64,
    resident_bytes: u64,
    reduction: f64,
}

/// Canonical wire size of one request: 4-byte length prefix + payload.
fn wire_bytes(env: &Envelope) -> u64 {
    encode_request(env).len() as u64 + 4
}

/// Runs the same kNN workload (64 x 128-point corpus, ~100 queries) inline
/// and resident, verifying bitwise identity both ways and accounting the
/// wire bytes each path moves (the resident upload is charged in full).
fn run_resident_phase(addr: std::net::SocketAddr) -> Result<ResidentOutcome, String> {
    const CORPUS: usize = 64;
    const LEN: usize = 128;
    const QUERIES: usize = 100;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;

    let train: Vec<TrainInstance> = (0..CORPUS)
        .map(|i| TrainInstance {
            label: i % 4,
            series: series(LEN, 500 + i),
        })
        .collect();
    let queries: Vec<Vec<f64>> = (0..QUERIES).map(|i| series(LEN, 9000 + i)).collect();

    let mut knn = KnnClassifier::new(boxed_distance(DistanceKind::Dtw), 3);
    for t in &train {
        knn.fit(t.label, t.series.clone());
    }

    // Inline: every request re-ships the whole corpus.
    let mut inline_bytes = 0u64;
    for (i, query) in queries.iter().enumerate() {
        inline_bytes += wire_bytes(&Envelope {
            id: i as u64 + 1,
            req: Request::Knn {
                kind: DistanceKind::Dtw,
                k: 3,
                query: query.clone(),
                train: train.clone(),
                dataset: None,
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
        });
        let direct = knn.classify(query).map_err(|e| e.to_string())?;
        let served = client
            .query_knn(DistanceKind::Dtw, 3, query, &train, &QueryOptions::new())
            .map_err(|e| e.to_string())?
            .value;
        if served.label != direct.label || served.score.to_bits() != direct.score.to_bits() {
            return Err(format!("inline kNN query {i}: {served:?} != {direct:?}"));
        }
    }

    // Resident: ship the corpus once, then id-sized queries.
    let entries: Vec<DatasetEntry> = train
        .iter()
        .map(|t| DatasetEntry {
            label: t.label,
            series: t.series.clone(),
        })
        .collect();
    let mut resident_bytes = wire_bytes(&Envelope {
        id: 1,
        req: Request::UploadDataset {
            name: "loadgen-corpus".into(),
            entries: entries.clone(),
        },
    });
    let (dataset_id, _version) = client
        .upload_dataset("loadgen-corpus", &entries)
        .map_err(|e| e.to_string())?;
    for (i, query) in queries.iter().enumerate() {
        resident_bytes += wire_bytes(&Envelope {
            id: i as u64 + 2,
            req: Request::Knn {
                kind: DistanceKind::Dtw,
                k: 3,
                query: query.clone(),
                train: Vec::new(),
                dataset: Some(DatasetRef::by_id(&dataset_id)),
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
        });
        let direct = knn.classify(query).map_err(|e| e.to_string())?;
        let served = client
            .query_knn(
                DistanceKind::Dtw,
                3,
                query,
                &[],
                &QueryOptions::new().dataset(DatasetRef::by_id(&dataset_id)),
            )
            .map_err(|e| e.to_string())?
            .value;
        if served.label != direct.label || served.score.to_bits() != direct.score.to_bits() {
            return Err(format!("resident kNN query {i}: {served:?} != {direct:?}"));
        }
    }
    let _ = client.drop_dataset(DatasetRef::by_id(&dataset_id));

    Ok(ResidentOutcome {
        queries: QUERIES,
        inline_bytes,
        resident_bytes,
        reduction: inline_bytes as f64 / resident_bytes as f64,
    })
}

/// Pulls one `name value` line out of a metrics exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let mut addr_arg: Option<String> = None;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr_arg = args.next(),
            "--strict" => strict = true,
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("usage: serve_loadgen [--addr HOST:PORT] [--strict]");
                return ExitCode::from(2);
            }
        }
    }

    // Either attach to a running server or host one in-process.
    let in_process = addr_arg.is_none();
    let server = if in_process {
        Some(
            Server::start(ServerConfig {
                max_connections: CONNS + 64,
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
    println!("serve_loadgen -> {addr}");
    let mut rec = Record::new(env!("CARGO_BIN_NAME"), false);
    rec.row("run")
        .set("in_process", in_process)
        .set("strict", strict)
        .set("seconds_per_phase", SECONDS);

    // Identity: always fatal.
    let identity = identity_check(addr);
    if let Err(e) = &identity {
        eprintln!("identity: {e}");
    }
    rec.holds("identity", identity.is_ok());

    let (n1, e1, qps1) = run_load(addr, 1, SECONDS);
    let (nc, ec, qpsc) = run_load(addr, CLIENTS, SECONDS);
    for (clients, requests, errors, qps) in [(1, n1, e1, qps1), (CLIENTS, nc, ec, qpsc)] {
        rec.row("load")
            .set("clients", clients)
            .set("requests", requests)
            .set("errors", errors)
            .set("qps", qps);
    }
    rec.at_most("load_errors", e1 + ec, 0);

    // The >= 2x coalescing requirement needs real parallel cores; scale it
    // with available parallelism so 1- and 2-core hosts gate on "no
    // regression" (sub-1x) instead of an impossible speedup.
    let required_ratio = (rec.cores() as f64 / 2.0).clamp(0.85, 2.0);
    let ratio = if qps1 > 0.0 { qpsc / qps1 } else { 0.0 };
    if strict {
        rec.at_least("concurrency_ratio", ratio, required_ratio);
    } else {
        println!(
            "(coalescing gate advisory: {ratio:.2}x vs {required_ratio:.2}x required; rerun \
             with --strict to enforce)"
        );
    }

    // Connection storm: every connection open at once, pipelined rounds.
    let storm = run_connection_storm(addr, CONNS, ROUNDS);
    rec.row("storm")
        .set("rounds", ROUNDS)
        .set("requests", storm.requests)
        .set("qps", storm.qps);
    rec.at_most("storm_mismatches", storm.mismatches, 0);
    rec.at_most("storm_errors", storm.errors, 0);
    rec.at_least("storm_conns_held", storm.held, CONNS);

    // Resident datasets: same workload, fraction of the wire bytes.
    match run_resident_phase(addr) {
        Ok(resident) => {
            rec.row("resident")
                .set("queries", resident.queries)
                .set("wire_bytes_inline", resident.inline_bytes)
                .set("wire_bytes_resident", resident.resident_bytes);
            rec.holds("resident_identity", true);
            rec.at_least("wire_reduction", resident.reduction, 10.0);
        }
        Err(e) => {
            eprintln!("resident: {e}");
            rec.holds("resident_identity", false);
        }
    }

    let metrics_text = Client::connect(addr)
        .and_then(|mut c| c.metrics_text())
        .unwrap_or_default();
    let server_metrics = rec.row("server_metrics");
    for (key, name) in [
        ("pipeline_depth_mean", "mda_pipeline_depth_mean"),
        ("pipeline_depth_max", "mda_pipeline_depth_max"),
        ("batch_occupancy_mean", "mda_batch_occupancy_mean"),
        ("shed_total", "mda_shed_total"),
        ("latency_p99_us", "mda_latency_us{quantile=\"0.99\"}"),
    ] {
        server_metrics.set(key, metric(&metrics_text, name));
    }

    if let Some(server) = server {
        server.shutdown_and_join();
    }
    rec.finish()
}
