//! The traced replay: the same generated inputs, fed in-process through
//! each layer's public functions, with spans recorded around those calls
//! from this file only — the program itself is not instrumented.
//!
//! Spans live in memory (name, start, end, parent, request id) and are
//! written out once the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mda_distance::dtw::Band;
use mda_distance::{boxed_distance, Distance, DistanceKind, DpScratch, Dtw};
use mda_routing::{evaluate_routed, BackendId, PairRequest, Router};
use mda_server::exec::{decompose, execute_item, WorkItem};
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, DatasetRef, Envelope, Reply,
    Request, ResponseBody, RouteInfo,
};
use mda_server::{DatasetStore, StreamRegistry};
use mda_streaming::{PruneFrameStats, StreamConfig, StreamPipeline};

use crate::check::knn_classifier;
use crate::drive::mining_query;
use crate::gen::{
    Inputs, PairCase, CORPUS_NAME, HAYSTACK_NAME, MINING_BAND, SERIES_LEN, STAGING_NAME, STREAMS,
};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs the
/// closure, so the same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Adds `value` to the counter `name` (recorded with tracing on or off).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// A counter's total (0 when never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Per name: `(span count, total self time in ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns).saturating_sub(child) as f64;
        }
        out
    }

    /// Mean self time of one `name` span, µs (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |&(n, ns)| ns / n as f64 / 1e3)
    }

    /// Total self time of `name` spans, ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |&(_, ns)| ns)
    }

    /// Total self time of the server-side layers a request passes through:
    /// every layer span except the `request`/`upload` roots, client-side
    /// decoding, and standalone dataset resolution, ns.
    pub fn server_layers_ns(&self) -> f64 {
        self.self_times()
            .iter()
            .filter(|(name, _)| {
                name.contains('.')
                    && !matches!(**name, "protocol.decode_reply" | "datasets.resolve")
            })
            .map(|(_, &(_, ns))| ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Span name of each backend's evaluation.
pub fn backend_span(id: BackendId) -> &'static str {
    match id {
        BackendId::DigitalExact => "backend.digital_exact",
        BackendId::DigitalPruned => "backend.digital_pruned",
        BackendId::Analog => "backend.analog",
        BackendId::Acam => "backend.acam",
        BackendId::Spice => "backend.spice",
    }
}

/// Server-side layers of one pair request, in order: decode, decompose,
/// route, backend evaluation, encode. Returns the reply payload; the
/// client's decode is traced outside the request span.
pub fn replay_pairs<'a>(
    t: &mut Tracer,
    cases: impl Iterator<Item = &'a PairCase>,
    store: &DatasetStore,
    router: &Router,
) {
    let mut scratch = DpScratch::new();
    for (i, c) in cases.enumerate() {
        let id = i as u64 + 1;
        let payload = encode_request(&Envelope {
            id,
            req: c.request(),
        });
        t.add("requests", 1.0);
        t.add("request_bytes", payload.len() as f64 + 4.0);
        let reply = t.span("request", id, |t| {
            let env = t.span("protocol.decode_request", id, |_| {
                decode_request(&payload).expect("generated requests decode")
            });
            let accuracy = env.req.accuracy();
            let decomposed = t.span("exec.decompose", id, |_| {
                decompose(env.req, store)
                    .expect("pairs resolve no dataset")
                    .expect("distance is a compute op")
            });
            let route = t.span("routing.route_pair", id, |_| {
                router.route_pair(
                    c.kind,
                    decomposed.max_pair_len(),
                    accuracy.unwrap_or_default(),
                )
            });
            let WorkItem::Pair { spec, p, q } = &decomposed.items[0] else {
                unreachable!("a distance request is one pair item")
            };
            let req = PairRequest {
                kind: spec.kind,
                threshold: spec.threshold,
                band: spec.band,
            };
            let value = t.span(backend_span(route.backend), id, |_| {
                evaluate_routed(route.backend, &req, p, q, &mut scratch)
                    .expect("generated pairs are well shaped")
                    .value
            });
            let reply = Reply {
                id,
                body: ResponseBody::Distance { value },
                route: accuracy.map(|_| RouteInfo {
                    backend: route.backend,
                    bound: route.bound,
                }),
            };
            t.span("protocol.encode_reply", id, |_| encode_reply(&reply))
        });
        t.add("reply_bytes", reply.len() as f64 + 4.0);
        t.span("protocol.decode_reply", id, |_| {
            decode_reply(&reply).expect("encoded replies decode")
        });
    }
}

/// Kernel spans over every exact pair of the pool, with the DP cells each
/// evaluated. Returns cells per kind.
pub fn replay_kernels(t: &mut Tracer, inputs: &Inputs) -> BTreeMap<&'static str, f64> {
    let mut scratch = DpScratch::new();
    let mut cells: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, c) in inputs.pairs.iter().enumerate() {
        let name = kernel_span(c.kind);
        let distance = boxed_distance(c.kind);
        t.span(name, i as u64, |_| {
            std::hint::black_box(
                distance
                    .evaluate_with(std::hint::black_box(&c.p), &c.q, &mut scratch)
                    .expect("generated pairs are well shaped"),
            )
        });
        let (n, m) = (c.p.len() as f64, c.q.len() as f64);
        *cells.entry(name).or_default() += match c.kind {
            DistanceKind::Hamming | DistanceKind::Manhattan => n,
            _ => n * m,
        };
    }
    // Banded DTW on the kNN corpus: the kernel kNN queries spend on.
    let dtw = Dtw::new().with_band(Band::SakoeChiba(MINING_BAND));
    let (n, r) = (SERIES_LEN as f64, MINING_BAND as f64);
    for (i, q) in inputs.knn_queries.iter().take(8).enumerate() {
        for e in &inputs.corpus {
            t.span("kernels.dtw_banded", i as u64, |_| {
                std::hint::black_box(
                    dtw.evaluate_with(std::hint::black_box(q), &e.series, &mut scratch)
                        .expect("corpus series are well shaped"),
                )
            });
            *cells.entry("kernels.dtw_banded").or_default() += n * (2.0 * r + 1.0) - r * (r + 1.0);
        }
    }
    cells
}

/// Span name of a kind's kernel.
pub fn kernel_span(kind: DistanceKind) -> &'static str {
    match kind {
        DistanceKind::Dtw => "kernels.dtw",
        DistanceKind::Lcs => "kernels.lcs",
        DistanceKind::Edit => "kernels.edit",
        DistanceKind::Hausdorff => "kernels.hausdorff",
        DistanceKind::Hamming => "kernels.hamming",
        DistanceKind::Manhattan => "kernels.manhattan",
    }
}

/// What the mining replay counted.
#[derive(Debug, Default)]
pub struct MiningCounts {
    /// Queries replayed.
    pub queries: u64,
    /// kNN queries among them.
    pub knn: u64,
    /// Staging re-uploads replayed.
    pub uploads: u64,
    /// Resident bytes after the uploads.
    pub resident_bytes: f64,
}

/// The mining loop's layers: kNN and search requests in the served order
/// (decode, decompose with dataset resolution, kNN item execution,
/// encode), staging re-uploads, and standalone dataset resolution. The
/// searches themselves are timed where the gate runs them on the served
/// queries ([`crate::check::mining`]): their cost swings too widely from
/// query to query for a sample to stand in for the run.
pub fn replay_mining(
    t: &mut Tracer,
    inputs: &Inputs,
    queries: usize,
    uploads: u64,
) -> MiningCounts {
    let store = DatasetStore::new(1 << 30);
    let upload = |store: &DatasetStore, name: &str, entries: Vec<mda_server::DatasetEntry>| {
        let (labels, series) = entries.into_iter().map(|e| (e.label, e.series)).unzip();
        store
            .upload(name, labels, series)
            .expect("corpus fits the budget")
    };
    upload(&store, CORPUS_NAME, inputs.corpus_version(1));
    upload(&store, HAYSTACK_NAME, inputs.haystack_entries());
    let mut counts = MiningCounts::default();
    let mut scratch = DpScratch::new();
    let clf = knn_classifier(inputs);
    for i in 0..queries {
        let id = i as u64 + 1;
        let (knn, input) = mining_query(i);
        let req = if knn {
            inputs.knn_request(input)
        } else {
            inputs.search_request(input)
        };
        // Replies are built outside any span: kNN from a direct library
        // call, searches with a placeholder of the same shape.
        let body = if knn {
            let c = clf
                .classify(&inputs.knn_queries[input % inputs.knn_queries.len()])
                .expect("finite query");
            ResponseBody::Knn {
                label: c.label,
                score: c.score,
                nearest_index: c.nearest_index,
            }
        } else {
            ResponseBody::Search {
                offset: 0,
                distance: 0.0,
            }
        };
        let payload = encode_request(&Envelope { id, req });
        t.add("requests", 1.0);
        t.add("request_bytes", payload.len() as f64 + 4.0);
        let reply = t.span("request", id, |t| {
            let env = t.span("protocol.decode_request", id, |_| {
                decode_request(&payload).expect("generated requests decode")
            });
            let decomposed = t.span("exec.decompose", id, |_| {
                decompose(env.req, &store)
                    .expect("datasets are resident")
                    .expect("mining ops are compute ops")
            });
            for item in &decomposed.items {
                if let WorkItem::Pair { .. } = item {
                    t.span("exec.knn_item", id, |_| {
                        execute_item(item, &mut scratch).expect("well-shaped item")
                    });
                }
            }
            t.span("protocol.encode_reply", id, |_| {
                encode_reply(&Reply {
                    id,
                    body,
                    route: None,
                })
            })
        });
        t.add("reply_bytes", reply.len() as f64 + 4.0);
        t.span("protocol.decode_reply", id, |_| {
            decode_reply(&reply).expect("encoded replies decode")
        });
        counts.queries += 1;
        counts.knn += u64::from(knn);
    }
    for v in 2..2 + uploads {
        let id = 1_000_000 + v;
        let payload = encode_request(&Envelope {
            id,
            req: Request::UploadDataset {
                name: STAGING_NAME.into(),
                entries: inputs.corpus_version(v),
            },
        });
        t.span("upload", id, |t| {
            let env = t.span("protocol.decode_upload", id, |_| {
                decode_request(&payload).expect("generated uploads decode")
            });
            let Request::UploadDataset { name, entries } = env.req else {
                unreachable!("an upload decodes as an upload")
            };
            t.span("datasets.upload", id, |_| upload(&store, &name, entries));
        });
        counts.uploads += 1;
    }
    for i in 0..256u64 {
        t.span("datasets.resolve", i, |_| {
            store
                .resolve(&DatasetRef::by_name(CORPUS_NAME))
                .expect("corpus is resident")
        });
    }
    counts.resident_bytes = store.stats().1 as f64;
    counts
}

/// What the streaming replay counted.
#[derive(Debug, Default)]
pub struct StreamCounts {
    /// Push batches replayed through the registry.
    pub batches: u64,
    /// Events the registry produced.
    pub events: u64,
    /// Cascade outcomes over the bare pipelines' warm pushes.
    pub cascade: PruneFrameStats,
}

/// Push batches through a [`StreamRegistry`] with one subscriber per
/// stream (decode, registry push with fan-out, event and reply encoding)
/// traced on `t`, then the same points through bare [`StreamPipeline`]s
/// traced on `bare`.
pub fn replay_stream(
    t: &mut Tracer,
    bare: &mut Tracer,
    inputs: &Inputs,
    batches_per_stream: u64,
) -> StreamCounts {
    let mut counts = StreamCounts::default();
    let mut registry = StreamRegistry::new(2);
    let mut ids = Vec::new();
    for (s, &(window, band)) in STREAMS.iter().enumerate() {
        let open = registry
            .open(StreamConfig {
                window,
                band,
                query: inputs.stream_queries[s].clone(),
                threshold: None,
            })
            .expect("valid stream configuration");
        registry
            .subscribe(open.stream_id, 1, 7)
            .expect("stream is open");
        registry
            .push(open.stream_id, &inputs.stream_batch(s, 0))
            .expect("finite prefill");
        ids.push(open.stream_id);
    }
    for b in 1..=batches_per_stream {
        for (s, &stream_id) in ids.iter().enumerate() {
            let id = b * STREAMS.len() as u64 + s as u64;
            let payload = encode_request(&Envelope {
                id,
                req: Request::PushPoints {
                    stream_id,
                    points: inputs.stream_batch(s, b),
                },
            });
            t.add("requests", 1.0);
            t.add("request_bytes", payload.len() as f64 + 4.0);
            let frames = t.span("request", id, |t| {
                let env = t.span("protocol.decode_request", id, |_| {
                    decode_request(&payload).expect("generated pushes decode")
                });
                let Request::PushPoints { stream_id, points } = env.req else {
                    unreachable!("a push decodes as a push")
                };
                let outcome = t.span("streams.push_batch", id, |_| {
                    registry.push(stream_id, &points).expect("finite points")
                });
                counts.events += outcome.events.len() as u64;
                let mut frames = Vec::with_capacity(outcome.events.len() + 1);
                for (_, sub_id, event) in outcome.events {
                    frames.push(t.span("protocol.encode_event", id, |_| {
                        encode_reply(&Reply {
                            id: sub_id,
                            body: ResponseBody::StreamEvent(event),
                            route: None,
                        })
                    }));
                }
                let ack = t.span("protocol.encode_reply", id, |_| {
                    encode_reply(&Reply {
                        id,
                        body: ResponseBody::PointsPushed {
                            stream_id,
                            accepted: outcome.accepted,
                            epoch: outcome.epoch,
                        },
                        route: None,
                    })
                });
                t.add("reply_bytes", ack.len() as f64 + 4.0);
                frames
            });
            // The subscriber's side: decoding every event.
            for frame in frames {
                t.add("event_bytes", frame.len() as f64 + 4.0);
                t.add("events", 1.0);
                t.span("protocol.decode_reply", id, |_| {
                    decode_reply(&frame).expect("encoded events decode")
                });
            }
            counts.batches += 1;
        }
    }
    for (s, &(window, band)) in STREAMS.iter().enumerate() {
        let mut pipeline = StreamPipeline::new(StreamConfig {
            window,
            band,
            query: inputs.stream_queries[s].clone(),
            threshold: None,
        })
        .expect("valid stream configuration");
        // Batch 0 fills the window: its pushes only warm the operators up,
        // so neither the timing nor the cascade counts include them.
        for x in inputs.stream_batch(s, 0) {
            pipeline.push(x).expect("finite points");
        }
        for b in 1..=batches_per_stream {
            for x in inputs.stream_batch(s, b) {
                let result = bare.span("streaming.push", b, |_| {
                    pipeline.push(x).expect("finite points")
                });
                if let Some(mda_streaming::Value::Match(mf)) = result.matcher.value() {
                    counts.cascade.record(mf.decision);
                }
            }
        }
    }
    counts
}
