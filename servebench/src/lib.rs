//! End-to-end and per-layer benchmark of the `mda-server` serving stack.
//!
//! One run builds `mda-server` from the checkout, spawns it as its own
//! process on a loopback port, drives four traffic phases against it from
//! this process, checks every answer against direct library calls, and
//! prints one JSON line of metrics. With tracing on, it then replays the
//! same generated inputs in-process through each layer's public functions
//! and reports per-layer figures. See `README.md` beside this crate.

pub mod check;
pub mod drive;
pub mod gen;
pub mod rng;
pub mod server;
pub mod stats;
pub mod trace;
pub mod wire;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mda_distance::DistanceKind;
use mda_routing::{default_backends, BackendId, Router, RouterConfig, DIGITAL_HOST_WATTS};
use mda_server::protocol::{Request, ResponseBody};
use mda_server::DatasetStore;

use check::Gate;
use drive::{Push, Query, Received, Sent, Streams, Upload};
use gen::{Inputs, CORPUS_NAME, HAYSTACK_NAME, PUSH_BATCH, STREAMS};
use server::{Scrape, ServerProcess};
use stats::{median, percentile, tail};
use trace::Tracer;
use wire::Conn;

/// Open-loop rate of the pair phase, requests per second.
pub const PAIR_RATE: f64 = 800.0;
/// Open-loop rate of the tolerance mix, requests per second. Low enough
/// that few exact requests arrive while a multi-millisecond analog item
/// holds the dispatcher, so a slower host does not compound into queueing.
pub const TOLERANCE_RATE: f64 = 200.0;
/// Open-loop rate of push batches, batches per second over all streams.
pub const STREAM_RATE: f64 = 250.0;
/// Interval between corpus re-uploads in the mining phase.
pub const UPLOAD_EVERY: Duration = Duration::from_millis(100);
/// Untimed warm-up before each phase, seconds.
pub const WARMUP_S: f64 = 0.3;
/// Server set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed rounds per run; each visits every phase.
pub const ROUNDS: usize = 8;
/// Share of the timed seconds given to the named workload's own phase;
/// the other three phases split the rest evenly.
pub const PRIMARY_SHARE: f64 = 0.4;

/// Requests of each kind replayed in-process by the traced run.
const REPLAY_TOLERANCE: usize = 500;
const REPLAY_MINING: usize = 160;
const REPLAY_UPLOADS: u64 = 3;
const REPLAY_STREAM_BATCHES: u64 = 100;

/// The four traffic phases every run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Open-loop exact pairs.
    Pairs,
    /// Open-loop exact pairs with one in five tolerance-tagged.
    Tolerance,
    /// Closed-loop kNN and search beside corpus re-uploads.
    Mining,
    /// Open-loop stream pushes with a subscriber.
    Stream,
}

/// A workload names the phase that gets most of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The tolerance mix leads.
    ToleranceMix,
    /// Resident mining leads.
    ResidentMining,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ToleranceMix, Workload::ResidentMining];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ToleranceMix => "tolerance_mix",
            Workload::ResidentMining => "resident_mining",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn phase(self) -> Phase {
        match self {
            Workload::ToleranceMix => Phase::Tolerance,
            Workload::ResidentMining => Phase::Mining,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload whose phase gets most of the time.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds across all phases.
    pub seconds: f64,
    /// Whether to run the traced replay and report per-layer metrics
    /// instead of the end-to-end ones.
    pub trace: bool,
    /// Checkout root holding the workspace `Cargo.toml`.
    pub root: PathBuf,
    /// Target directory for building the server (`None` = Cargo's choice).
    pub target_dir: Option<PathBuf>,
}

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    /// Every gate passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable notes (failures, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }
}

/// Server CPU and metric deltas summed over a phase's timed rounds.
#[derive(Debug, Clone, Default)]
struct Window {
    cpu_s: f64,
    delta: Scrape,
}

impl Window {
    fn delta(&self, name: &str) -> f64 {
        self.delta.get(name)
    }

    /// Mean of a server histogram over the timed rounds, µs.
    fn histogram_mean(&self, hist: &str) -> f64 {
        let n = self.delta(&format!("mda_{hist}_us_count"));
        if n > 0.0 {
            self.delta(&format!("mda_{hist}_us_sum")) / n
        } else {
            0.0
        }
    }
}

/// Runs one timed round of a phase, adding the server's CPU and metric
/// deltas to `window`. Metrics are scraped outside the CPU interval, so
/// the scrape's own cost is not counted.
fn timed<T>(
    conn: &mut Conn,
    srv: &ServerProcess,
    window: &mut Window,
    phase: impl FnOnce(&mut Conn) -> Result<T, String>,
) -> Result<T, String> {
    let before = scrape(conn)?;
    let cpu0 = srv.cpu_seconds();
    let out = phase(conn)?;
    window.cpu_s += srv.cpu_seconds() - cpu0;
    let after = scrape(conn)?;
    window.delta.accumulate(&before, &after);
    Ok(out)
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    match conn.call(Request::Metrics)? {
        ResponseBody::MetricsText(text) => Ok(Scrape::parse(&text)),
        other => Err(format!("metrics answered {other:?}")),
    }
}

/// Uploads the corpus and haystack, opens and prefills every stream.
fn set_up(conn: &mut Conn, inputs: &Inputs) -> Result<Streams, String> {
    for (name, entries) in [
        (CORPUS_NAME, inputs.corpus_version(1)),
        (HAYSTACK_NAME, inputs.haystack_entries()),
    ] {
        match conn.call(Request::UploadDataset {
            name: name.into(),
            entries,
        })? {
            ResponseBody::DatasetUploaded { version: 1, .. } => {}
            other => return Err(format!("upload of {name} answered {other:?}")),
        }
    }
    let mut streams = Streams {
        ids: Vec::new(),
        batches: Vec::new(),
    };
    for (s, &(window, band)) in STREAMS.iter().enumerate() {
        let stream_id = match conn.call(Request::OpenStream {
            window,
            band,
            query: inputs.stream_queries[s].clone(),
            threshold: None,
        })? {
            ResponseBody::StreamOpened { stream_id, .. } => stream_id,
            other => return Err(format!("open_stream answered {other:?}")),
        };
        conn.call(Request::PushPoints {
            stream_id,
            points: inputs.stream_batch(s, 0),
        })?;
        streams.ids.push(stream_id);
        streams.batches.push(1);
    }
    conn.call(Request::Ping)?;
    Ok(streams)
}

/// One round of the stream phase: epochs at its start, pushes, events.
struct StreamRound {
    from: Vec<u64>,
    to: Vec<u64>,
    pushes: Vec<Push>,
    received: Received,
}

/// Everything the served phases produced; `*_warm` records feed the gates
/// only, the rest are the timed samples.
struct Served {
    setup_s: Vec<f64>,
    pairs_warm: Vec<Sent>,
    pairs: Vec<Sent>,
    pairs_window: Window,
    tolerance_warm: Vec<Sent>,
    tolerance: Vec<Sent>,
    tolerance_window: Window,
    queries_warm: Vec<Query>,
    queries: Vec<Query>,
    uploads: Vec<Upload>,
    mining_window: Window,
    /// The warm-up round, then the timed rounds.
    stream: Vec<StreamRound>,
    stream_window: Window,
    streams: Streams,
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Build, spawn or transport failures — a run that cannot measure.
pub fn run(opts: &Options) -> Result<Report, String> {
    let exe = server::build(&opts.root, opts.target_dir.as_deref())?;
    // The generator keeps off the server's CPU, so the two never compete.
    if let Some((_, generator_cpus)) = server::cpu_split() {
        server::pin_to(&generator_cpus).map_err(|e| format!("cannot pin the generator: {e}"))?;
    }
    let inputs = Inputs::new(opts.seed);

    let mut setup_s = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let srv = ServerProcess::spawn(&exe)?;
        let state = Conn::connect(&srv.addr).and_then(|mut conn| {
            let streams = set_up(&mut conn, &inputs)?;
            Ok((conn, streams))
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        match state {
            Ok(state) if k + 1 == SETUPS => live = Some((srv, state)),
            Ok(_) => {
                srv.stop(Duration::from_secs(10));
            }
            Err(e) => {
                srv.stop(Duration::from_secs(10));
                return Err(e);
            }
        }
    }
    let (srv, (mut conn, streams)) = live.expect("at least one set-up");
    let served = serve(opts, &inputs, &srv, &mut conn, streams, setup_s);
    drop(conn);
    let drained = srv.stop(Duration::from_secs(10));
    let served = served?;

    let mut gate = Gate::default();
    if !drained {
        gate.attempted += 1;
        gate.failed += 1;
        gate.notes.push("server did not drain and exit".into());
    }
    let pair_of = |i: usize| inputs.pair(i);
    check::pairs(&mut gate, &served.pairs_warm, &pair_of);
    check::pairs(&mut gate, &served.pairs, &pair_of);
    let mix_of = |i: usize| inputs.tolerance_mix(i);
    check::pairs(&mut gate, &served.tolerance_warm, &mix_of);
    check::pairs(&mut gate, &served.tolerance, &mix_of);
    check::mining(
        &mut gate,
        &inputs,
        &served.queries_warm,
        &[],
        &mut Tracer::new(false),
    );
    let mut search_trace = Tracer::new(opts.trace);
    let searches = check::mining(
        &mut gate,
        &inputs,
        &served.queries,
        &served.uploads,
        &mut search_trace,
    );
    let expected = check::stream_replay(&inputs, &served.streams);
    for round in &served.stream {
        check::stream(
            &mut gate,
            &expected,
            &served.streams.ids,
            (&round.from, &round.to),
            &round.pushes,
            &round.received,
        );
    }

    let mut report = Report {
        correct: false,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: BTreeMap::new(),
        notes: gate.notes,
    };
    if opts.trace {
        per_layer(
            &mut report,
            opts,
            &inputs,
            &served,
            (&search_trace, searches),
        );
    } else {
        end_to_end(&mut report, &inputs, &served);
    }
    let mut finite = true;
    for (name, (v, _)) in report.metrics.iter_mut() {
        if !v.is_finite() {
            report.notes.push(format!("{name} had no samples"));
            *v = 0.0;
            finite = false;
        }
    }
    report.correct = report.failed == 0 && finite;
    Ok(report)
}

/// Seconds of the timed phase of `phase` in a run of `opts.workload`.
fn share(opts: &Options, phase: Phase) -> f64 {
    let s = if phase == opts.workload.phase() {
        PRIMARY_SHARE
    } else {
        (1.0 - PRIMARY_SHARE) / 3.0
    };
    opts.seconds * s
}

/// Drives the four phases on the live server: each is warmed up untimed,
/// then the timed seconds are split into [`ROUNDS`] rounds that visit every
/// phase in turn, so drift in the host's speed over the run reaches every
/// metric alike instead of whichever phase ran during it.
fn serve(
    opts: &Options,
    inputs: &Inputs,
    srv: &ServerProcess,
    conn: &mut Conn,
    mut streams: Streams,
    setup_s: Vec<f64>,
) -> Result<Served, String> {
    let addr = srv.addr.clone();
    let pair_make = |i: usize| inputs.pair(i).request();
    let tol_make = |i: usize| inputs.tolerance_mix(i).request();
    let round_s = |p: Phase| share(opts, p) / ROUNDS as f64;

    let warm = drive::schedule(PAIR_RATE, WARMUP_S, 0);
    let pairs_warm = drive::open_loop(conn, &warm, &pair_make)?;
    let mut next_pair = pairs_warm.len();
    let warm = drive::schedule(TOLERANCE_RATE, WARMUP_S, 0);
    let tolerance_warm = drive::open_loop(conn, &warm, &tol_make)?;
    let mut next_tol = tolerance_warm.len();
    // The staging corpus does not exist yet: its first upload is version 1.
    let mut version = 0;
    let (queries_warm, _) = drive::mining(conn, &addr, inputs, WARMUP_S, 0, None, &mut version)?;
    let mut next_query = queries_warm.len();
    let from = epochs(&streams);
    let (pushes, received) =
        drive::stream(conn, &addr, inputs, &mut streams, STREAM_RATE, WARMUP_S)?;
    let mut stream = vec![StreamRound {
        from,
        to: epochs(&streams),
        pushes,
        received,
    }];

    let mut served = Served {
        setup_s,
        pairs_warm,
        pairs: Vec::new(),
        pairs_window: Window::default(),
        tolerance_warm,
        tolerance: Vec::new(),
        tolerance_window: Window::default(),
        queries_warm,
        queries: Vec::new(),
        uploads: Vec::new(),
        mining_window: Window::default(),
        stream: Vec::new(),
        stream_window: Window::default(),
        streams: Streams {
            ids: Vec::new(),
            batches: Vec::new(),
        },
    };
    for _ in 0..ROUNDS {
        let plan = drive::schedule(PAIR_RATE, round_s(Phase::Pairs), next_pair);
        next_pair += plan.len();
        let sent = timed(conn, srv, &mut served.pairs_window, |c| {
            drive::open_loop(c, &plan, &pair_make)
        })?;
        served.pairs.extend(sent);

        let plan = drive::schedule(TOLERANCE_RATE, round_s(Phase::Tolerance), next_tol);
        next_tol += plan.len();
        let sent = timed(conn, srv, &mut served.tolerance_window, |c| {
            drive::open_loop(c, &plan, &tol_make)
        })?;
        served.tolerance.extend(sent);

        let seconds = round_s(Phase::Mining);
        let (queries, uploads) = timed(conn, srv, &mut served.mining_window, |c| {
            drive::mining(
                c,
                &addr,
                inputs,
                seconds,
                next_query,
                Some(UPLOAD_EVERY),
                &mut version,
            )
        })?;
        next_query += queries.len();
        served.queries.extend(queries);
        served.uploads.extend(uploads);

        let from = epochs(&streams);
        let seconds = round_s(Phase::Stream);
        let (pushes, received) = timed(conn, srv, &mut served.stream_window, |c| {
            drive::stream(c, &addr, inputs, &mut streams, STREAM_RATE, seconds)
        })?;
        stream.push(StreamRound {
            from,
            to: epochs(&streams),
            pushes,
            received,
        });
    }
    served.stream = stream;
    served.streams = streams;
    Ok(served)
}

fn epochs(streams: &Streams) -> Vec<u64> {
    (0..STREAMS.len())
        .map(|s| Streams::epoch_after(s, streams.batches[s]))
        .collect()
}

fn answered<'a>(sent: impl IntoIterator<Item = &'a Sent>) -> f64 {
    sent.into_iter().filter(|s| s.reply.is_some()).count() as f64
}

fn latencies<'a>(sent: impl IntoIterator<Item = &'a Sent>) -> Vec<f64> {
    sent.into_iter().filter_map(Sent::latency_us).collect()
}

/// Tolerance-mix requests split into (tolerance-tagged, exact).
fn split_tolerance<'a>(inputs: &Inputs, sent: &'a [Sent]) -> (Vec<&'a Sent>, Vec<&'a Sent>) {
    sent.iter()
        .partition(|s| inputs.tolerance_mix(s.input).tolerance.is_some())
}

impl Served {
    /// The timed stream rounds (the first round is the warm-up).
    fn timed_stream(&self) -> &[StreamRound] {
        &self.stream[1..]
    }

    /// Timed push batches.
    fn pushes(&self) -> impl Iterator<Item = &Push> {
        self.timed_stream().iter().flat_map(|r| &r.pushes)
    }

    /// Due-to-delivery latency of each timed push batch: from when the
    /// batch was due to when the subscriber received the event of its last
    /// point.
    fn stream_latencies(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for round in self.timed_stream() {
            let arrivals: HashMap<(u64, u64), Instant> = round
                .received
                .events
                .iter()
                .map(|(at, ev)| ((ev.stream_id, ev.epoch), *at))
                .collect();
            out.extend(round.pushes.iter().filter_map(|p| {
                let at = arrivals.get(&(self.streams.ids[p.stream], p.epoch))?;
                Some(at.duration_since(p.due).as_secs_f64() * 1e6)
            }));
        }
        out
    }

    /// Timed push batches the server acknowledged.
    fn acked_pushes(&self) -> f64 {
        self.pushes().filter(|p| p.acked).count() as f64
    }
}

fn end_to_end(report: &mut Report, inputs: &Inputs, served: &Served) {
    let pairs = latencies(&served.pairs);
    report.put("pairs.p50_us", median(&pairs), "us");
    report.put(
        "pairs.cpu_us_per_req",
        served.pairs_window.cpu_s * 1e6 / answered(&served.pairs),
        "us",
    );

    let (tagged, exact) = split_tolerance(inputs, &served.tolerance);
    report.put(
        "tolerance.p50_ms",
        median(&latencies(tagged.iter().copied())) / 1e3,
        "ms",
    );
    report.put(
        "tolerance.exact_p50_us",
        median(&latencies(exact.iter().copied())),
        "us",
    );
    report.put(
        "tolerance.cpu_us_per_req",
        served.tolerance_window.cpu_s * 1e6 / answered(&served.tolerance),
        "us",
    );

    let ms = |knn: bool| -> Vec<f64> {
        served
            .queries
            .iter()
            .filter(|q| q.knn == knn)
            .map(|q| q.latency_us / 1e3)
            .collect()
    };
    let uploads: Vec<f64> = served.uploads.iter().map(|u| u.latency_us / 1e3).collect();
    report.put("mining.search_p50_ms", median(&ms(false)), "ms");
    report.put("mining.knn_p50_ms", median(&ms(true)), "ms");
    report.put("mining.upload_p50_ms", median(&uploads), "ms");
    report.put(
        "mining.cpu_ms_per_query",
        served.mining_window.cpu_s * 1e3 / served.queries.len() as f64,
        "ms",
    );

    let stream = served.stream_latencies();
    report.put("stream.p50_us", median(&stream), "us");
    report.put(
        "stream.cpu_us_per_point",
        served.stream_window.cpu_s * 1e6 / (served.acked_pushes() * PUSH_BATCH as f64),
        "us",
    );
    report.put("setup_s", median(&served.setup_s), "s");
    report.notes.push(format!(
        "samples: pairs {}, tolerance {} tagged + {} exact, \
         mining {} knn + {} search + {} uploads, stream {} batches",
        pairs.len(),
        tagged.len(),
        exact.len(),
        ms(true).len(),
        ms(false).len(),
        uploads.len(),
        stream.len()
    ));
}

/// The named workload's phase: its timed latencies (µs), generator
/// lateness, server window and answered-request count.
fn primary(opts: &Options, served: &Served) -> (Vec<f64>, Vec<f64>, Window, f64) {
    match opts.workload {
        Workload::ToleranceMix => (
            latencies(&served.tolerance),
            served.tolerance.iter().map(Sent::late_us).collect(),
            served.tolerance_window.clone(),
            answered(&served.tolerance),
        ),
        Workload::ResidentMining => (
            served.queries.iter().map(|q| q.latency_us).collect(),
            // A closed loop has no schedule to fall behind.
            vec![0.0],
            served.mining_window.clone(),
            served.queries.len() as f64,
        ),
    }
}

/// Replays the named workload's own requests; returns the replay's
/// tracer, how many requests it covered, and the mining replay's counts.
fn replay_primary(
    on: bool,
    opts: &Options,
    inputs: &Inputs,
    served: &Served,
) -> (Tracer, f64, trace::MiningCounts) {
    let mut t = Tracer::new(on);
    let store = DatasetStore::new(1 << 30);
    let router = Router::new(RouterConfig::default());
    let mut mining = trace::MiningCounts::default();
    let n = match opts.workload {
        Workload::ToleranceMix => {
            let cases = served.tolerance.iter().take(REPLAY_TOLERANCE);
            let cases = cases.map(|s| inputs.tolerance_mix(s.input));
            trace::replay_pairs(&mut t, cases, &store, &router);
            t.count("requests")
        }
        Workload::ResidentMining => {
            mining = trace::replay_mining(&mut t, inputs, REPLAY_MINING, REPLAY_UPLOADS);
            mining.queries as f64
        }
    };
    (t, n, mining)
}

fn per_layer(
    report: &mut Report,
    opts: &Options,
    inputs: &Inputs,
    served: &Served,
    (search_trace, searches): (&Tracer, check::SearchTotals),
) {
    // --- Served-side figures: the server's own counters and the wire.
    let (lat, late, window, answered_n) = primary(opts, served);
    let batches = window.delta("mda_batches_total");
    let per_batch = |x: f64| if batches > 0.0 { x / batches } else { 0.0 };
    let compute: f64 = ["distance", "batch", "knn", "search"]
        .iter()
        .map(|op| window.delta(&format!("mda_requests_total{{op=\"{op}\"}}")))
        .sum();
    report.put(
        "queue.wait_mean_us",
        window.histogram_mean("queue_wait"),
        "us",
    );
    report.put(
        "queue.items_per_batch",
        per_batch(window.delta("mda_batch_items_total")),
        "count",
    );
    report.put("queue.requests_per_batch", per_batch(compute), "count");
    report.put("queue.shed", window.delta("mda_shed_total"), "count");
    report.put("queue.timeouts", window.delta("mda_timeout_total"), "count");
    let (p, tail_us) = percentile(&lat, 99.0)
        .map(|v| (99.0, v))
        .or_else(|| tail(&lat))
        .unwrap_or((0.0, f64::NAN));
    report.put("wire.p99_us", tail_us, "us");
    report.put("wire.tail_percentile", p, "pct");
    report.put("wire.samples", lat.len() as f64, "count");
    report.put("wire.generator_late_us", stats::mean(&late), "us");

    // Routing, from the tolerance phase's counters and route reports.
    let tw = &served.tolerance_window;
    let selected: Vec<f64> = BackendId::ALL
        .iter()
        .map(|b| tw.delta(&format!("mda_backend_selected_total{{backend=\"{b}\"}}")))
        .collect();
    let total: f64 = selected.iter().sum::<f64>().max(1.0);
    for (b, name) in [
        (BackendId::DigitalExact, "routing.share_digital_exact"),
        (BackendId::Analog, "routing.share_analog"),
        (BackendId::Acam, "routing.share_acam"),
    ] {
        report.put(name, selected[b as usize] / total, "ratio");
    }
    report.put(
        "routing.fallbacks",
        tw.delta("mda_route_fallbacks_total"),
        "count",
    );
    let backends = default_backends();
    let watts: Vec<f64> = served
        .tolerance
        .iter()
        .filter_map(|s| {
            let (_, reply) = s.reply.as_ref()?;
            let c = inputs.tolerance_mix(s.input);
            let len = c.p.len().max(c.q.len());
            Some(reply.route.map_or(DIGITAL_HOST_WATTS, |r| {
                backends.get(r.backend).power_w(c.kind, len)
            }))
        })
        .collect();
    report.put("routing.modeled_watts_per_answer", stats::mean(&watts), "W");

    // --- Replays of the home phase of each layer.
    let store = DatasetStore::new(1 << 30);
    let router = Router::new(RouterConfig::default());
    let mut tol = Tracer::new(true);
    trace::replay_pairs(
        &mut tol,
        (0..REPLAY_TOLERANCE).map(|i| inputs.tolerance_mix(i)),
        &store,
        &router,
    );
    report.put(
        "routing.route_pair_us",
        tol.mean_us("routing.route_pair"),
        "us",
    );
    for (id, name) in [
        (BackendId::DigitalExact, "backend.digital_exact_us"),
        (BackendId::Analog, "backend.analog_us"),
        (BackendId::Acam, "backend.acam_us"),
    ] {
        report.put(name, tol.mean_us(trace::backend_span(id)), "us");
    }

    let mut kernels = Tracer::new(true);
    let cells = trace::replay_kernels(&mut kernels, inputs);
    for kind in DistanceKind::ALL {
        let span = trace::kernel_span(kind);
        report.put(
            &format!("{span}_ns_per_cell"),
            kernels.total_ns(span) / cells[span],
            "ns",
        );
    }
    report.put(
        "kernels.dtw_banded_ns_per_cell",
        kernels.total_ns("kernels.dtw_banded") / cells["kernels.dtw_banded"],
        "ns",
    );

    let mut mining_t = Tracer::new(true);
    let m = trace::replay_mining(&mut mining_t, inputs, REPLAY_MINING, REPLAY_UPLOADS);
    let per_search = |x: f64| x / searches.searches.max(1.0);
    report.put(
        "search.run_ms",
        search_trace.mean_us("search.run") / 1e3,
        "ms",
    );
    report.put("search.windows", per_search(searches.windows), "count");
    report.put(
        "search.pruned_kim",
        per_search(searches.pruned_kim),
        "count",
    );
    report.put(
        "search.pruned_keogh",
        per_search(searches.pruned_keogh),
        "count",
    );
    report.put("search.abandoned", per_search(searches.abandoned), "count");
    report.put("search.full_dtw", per_search(searches.full_dtw), "count");
    report.put(
        "search.prune_rate",
        1.0 - searches.full_dtw / searches.windows.max(1.0),
        "ratio",
    );
    report.put(
        "datasets.upload_ms",
        mining_t.mean_us("datasets.upload") / 1e3,
        "ms",
    );
    report.put(
        "datasets.resolve_us",
        mining_t.mean_us("datasets.resolve"),
        "us",
    );
    report.put("datasets.resident_bytes", m.resident_bytes, "bytes");

    let mut stream_t = Tracer::new(true);
    let mut bare = Tracer::new(true);
    let st = trace::replay_stream(&mut stream_t, &mut bare, inputs, REPLAY_STREAM_BATCHES);
    report.put(
        "streaming.push_us_per_point",
        bare.mean_us("streaming.push"),
        "us",
    );
    report.put(
        "streaming.cascade_computed",
        st.cascade.computed as f64,
        "count",
    );
    report.put(
        "streaming.cascade_pruned_kim",
        st.cascade.pruned_kim as f64,
        "count",
    );
    report.put(
        "streaming.cascade_pruned_keogh",
        st.cascade.pruned_keogh as f64,
        "count",
    );
    report.put(
        "streaming.cascade_abandoned",
        st.cascade.abandoned as f64,
        "count",
    );
    report.put(
        "streams.push_batch_us",
        stream_t.mean_us("streams.push_batch"),
        "us",
    );
    report.put(
        "streams.events",
        st.events as f64 / st.batches.max(1) as f64,
        "count",
    );
    report.put(
        "protocol.event_bytes",
        stream_t.count("event_bytes") / stream_t.count("events").max(1.0),
        "bytes",
    );

    // --- The named workload's own requests: protocol and exec layers,
    // the residual against the served CPU, and the tracing overhead.
    // Alternate untraced and traced replays and keep each side's fastest,
    // so host noise does not pass for tracing overhead.
    let mut untraced = f64::INFINITY;
    let mut traced = f64::INFINITY;
    let mut last = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        replay_primary(false, opts, inputs, served);
        untraced = untraced.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let out = replay_primary(true, opts, inputs, served);
        traced = traced.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    let (t, n, mm) = last.expect("two replays ran");
    let n = n.max(1.0);
    report.put(
        "protocol.decode_request_us",
        t.mean_us("protocol.decode_request"),
        "us",
    );
    report.put(
        "protocol.encode_reply_us",
        t.mean_us("protocol.encode_reply"),
        "us",
    );
    report.put(
        "protocol.decode_reply_us",
        t.mean_us("protocol.decode_reply"),
        "us",
    );
    report.put(
        "protocol.request_bytes",
        t.count("request_bytes") / n,
        "bytes",
    );
    report.put("protocol.reply_bytes", t.count("reply_bytes") / n, "bytes");
    report.put("exec.decompose_us", t.mean_us("exec.decompose"), "us");
    let cpu_us_per_req = window.cpu_s * 1e6 / answered_n.max(1.0);
    let upload_ns = t.total_ns("protocol.decode_upload") + t.total_ns("datasets.upload");
    let mut layers_us = (t.server_layers_ns() - upload_ns) / n / 1e3;
    if opts.workload == Workload::ResidentMining {
        // The replay's kNN share matches the served one; the served
        // searches' own work is what the gate traced; re-uploads share the
        // mining window's CPU, charged at the served upload rate.
        let per_upload_us = upload_ns / mm.uploads.max(1) as f64 / 1e3;
        layers_us += per_upload_us * served.uploads.len() as f64 / answered_n.max(1.0);
        layers_us += search_trace.total_ns("search.run") / 1e3 / answered_n.max(1.0);
    }
    report.put("event_loop.cpu_us_per_req", cpu_us_per_req, "us");
    report.put("event_loop.layers_us_per_req", layers_us, "us");
    report.put(
        "event_loop.residual_us_per_req",
        cpu_us_per_req - layers_us,
        "us",
    );
    report.put(
        "trace.overhead_us_per_req",
        (traced - untraced) * 1e6 / n,
        "us",
    );
    report.put(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "pct",
    );

    let dir = opts.root.join(".servebench-out");
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    for (name, tracer) in [
        ("primary", &t),
        ("tolerance", &tol),
        ("kernels", &kernels),
        ("mining", &mining_t),
        ("streams", &stream_t),
        ("streaming", &bare),
    ] {
        let path = dir.join(format!("{stem}-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            report
                .notes
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    report
        .notes
        .push(format!("spans written to {}", dir.display()));
}
