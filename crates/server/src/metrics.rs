//! Live serving metrics: lock-free counters and log-bucketed latency
//! histograms, rendered as a Prometheus-style text exposition.
//!
//! Every counter is a relaxed atomic — recording a sample on the hot path
//! is a handful of `fetch_add`s, never a lock. Quantiles (p50/p95/p99) are
//! estimated from the histogram buckets at render time, which is the usual
//! monitoring-system trade-off: exact counts, bucket-resolution quantiles.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mda_routing::{default_backends, BackendId};

/// Histogram bucket upper bounds, in microseconds (the last bucket is
/// implicit +inf). Roughly logarithmic from 1 µs to 5 s, so a
/// sub-50 µs stage (a stream push, a queue wait) still resolves.
pub const BUCKET_BOUNDS_US: [u64; 21] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000,
];

/// A log-bucketed latency histogram with atomic buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean sample, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Largest sample seen, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Estimates quantile `q` in [0, 1] as the upper bound of the bucket
    /// holding the q-th sample (the +inf bucket reports the observed max).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.max_us());
            }
        }
        self.max_us()
    }
}

/// One monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (resident counts, open connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1 (saturating at 0).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How one task's pruned scans disposed of their candidates (training
/// instances for kNN, windows for search, warm pushes for streams), summed
/// over scans.
#[derive(Debug, Default)]
pub struct CascadeCounters {
    /// Candidates skipped on LB_Kim.
    pub pruned_kim: Counter,
    /// Candidates skipped on LB_Keogh.
    pub pruned_keogh: Counter,
    /// Candidates whose DTW was abandoned row-wise.
    pub abandoned: Counter,
    /// Candidates whose DTW ran to the end.
    pub full_dtw: Counter,
}

impl CascadeCounters {
    /// Adds one scan's partition: candidates pruned by LB_Kim, pruned by
    /// LB_Keogh, abandoned, and run to a full DTW.
    pub fn record(&self, kim: usize, keogh: usize, abandoned: usize, full: usize) {
        self.pruned_kim.add(kim as u64);
        self.pruned_keogh.add(keogh as u64);
        self.abandoned.add(abandoned as u64);
        self.full_dtw.add(full as u64);
    }

    fn render(&self, task: &str, out: &mut String) {
        for (stage, counter) in [
            ("pruned_kim", &self.pruned_kim),
            ("pruned_keogh", &self.pruned_keogh),
            ("abandoned", &self.abandoned),
            ("full_dtw", &self.full_dtw),
        ] {
            out.push_str(&format!(
                "mda_cascade_total{{task=\"{task}\",stage=\"{stage}\"}} {}\n",
                counter.get()
            ));
        }
    }
}

/// The server's metrics registry. One instance per [`crate::Server`],
/// shared by every connection and the dispatcher.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests received, by operation (indexed like [`Metrics::OPS`]).
    pub requests: [Counter; 13],
    /// Successful replies sent.
    pub replies_ok: Counter,
    /// Error replies sent (all codes).
    pub replies_error: Counter,
    /// Requests shed by admission control (`overloaded`).
    pub shed: Counter,
    /// Requests whose deadline expired in the queue (`timeout`).
    pub timeouts: Counter,
    /// Coalesced batches dispatched to the engine.
    pub batches: Counter,
    /// Work items executed across all batches.
    pub batch_items: Counter,
    /// Distinct requests coalesced across all batches.
    pub batch_requests: Counter,
    /// Largest single-batch item count seen.
    pub max_batch_items: AtomicUsize,
    /// Connections accepted.
    pub connections: Counter,
    /// Connections currently open on the event loop.
    pub open_connections: Gauge,
    /// Connections refused at accept (over the connection cap).
    pub connections_rejected: Counter,
    /// Compute requests submitted from connections (pipelined or not).
    pub pipeline_submits: Counter,
    /// Sum over submissions of the submitting connection's in-flight depth
    /// (including the new request) — mean depth = sum / submits.
    pub pipeline_depth_sum: Counter,
    /// Deepest single-connection pipeline observed.
    pub pipeline_depth_max: AtomicUsize,
    /// Datasets currently resident.
    pub datasets_resident: Gauge,
    /// Bytes of resident dataset samples.
    pub dataset_resident_bytes: Gauge,
    /// Successful dataset uploads (including idempotent re-uploads).
    pub dataset_uploads: Counter,
    /// Datasets dropped.
    pub dataset_drops: Counter,
    /// Queries that resolved a dataset reference.
    pub dataset_hits: Counter,
    /// Queries whose dataset reference failed (`not_found`/`stale_version`).
    pub dataset_misses: Counter,
    /// Time requests spent queued before dispatch.
    pub queue_wait: Histogram,
    /// Time completed replies waited in a connection's completion queue
    /// before being flushed into its write buffer.
    pub conn_wait: Histogram,
    /// End-to-end service latency (enqueue → reply handoff).
    pub latency: Histogram,
    /// Evaluations routed to the behavioural analog backend (a kNN item
    /// counts one per training instance).
    pub analog_computations: Counter,
    /// Dispatcher wall time spent on analog-routed work items, ns:
    /// divided by `analog_computations`, the host cost of one analog
    /// answer.
    pub analog_busy_ns: Counter,
    /// Routed compute requests, by chosen backend (indexed by
    /// [`BackendId`] discriminant, labels from [`BackendId::ALL`]).
    pub backend_selected: [Counter; 5],
    /// Work items whose analog answer saturated (or failed to encode) and
    /// silently fell back to a digital recompute.
    pub route_fallbacks: Counter,
    /// How the pruned banded-DTW kNN scans disposed of training instances
    /// (kNN items on other paths evaluate every instance and add nothing).
    pub knn_cascade: CascadeCounters,
    /// How subsequence searches disposed of their windows.
    pub search_cascade: CascadeCounters,
    /// How push-mode streams' matchers disposed of their warm pushes.
    pub stream_cascade: CascadeCounters,
    /// Analog fleet power currently reserved, microwatts (sampled at
    /// routing time, so it can lag lease releases by one submission).
    pub fleet_in_use_uw: Gauge,
    /// Push-mode streams currently open on the event loop.
    pub streams_open: Gauge,
    /// Streams opened over the server's lifetime.
    pub streams_opened: Counter,
    /// Points accepted across all streams.
    pub stream_points: Counter,
    /// Active stream subscriptions (fan-out width).
    pub stream_subscriptions: Gauge,
    /// Subscription events fanned out to subscribers.
    pub stream_events: Counter,
    /// Pushes that evicted a window point (pushes past burn-in).
    pub stream_evictions: Counter,
    /// Inline `push_points` handling latency (whole batch, incl. fan-out).
    pub stream_push: Histogram,
}

impl Metrics {
    /// Operation labels, index-aligned with [`Metrics::requests`].
    pub const OPS: [&'static str; 13] = [
        "ping",
        "metrics",
        "distance",
        "batch",
        "knn",
        "search",
        "upload_dataset",
        "list_datasets",
        "drop_dataset",
        "open_stream",
        "push_points",
        "subscribe",
        "close_stream",
    ];

    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one received request for `op` (unknown labels are ignored).
    pub fn count_request(&self, op: &str) {
        if let Some(i) = Self::OPS.iter().position(|&o| o == op) {
            self.requests[i].inc();
        }
    }

    /// Counts one routed compute request for `backend`.
    pub fn count_backend(&self, backend: BackendId) {
        self.backend_selected[backend as usize].inc();
    }

    /// Records a dispatched coalesced batch.
    pub fn record_batch(&self, requests: usize, items: usize) {
        self.batches.inc();
        self.batch_requests.add(requests as u64);
        self.batch_items.add(items as u64);
        self.max_batch_items.fetch_max(items, Ordering::Relaxed);
    }

    /// Mean work items per dispatched batch — the coalescing occupancy.
    pub fn mean_batch_occupancy(&self) -> f64 {
        let batches = self.batches.get();
        if batches == 0 {
            return 0.0;
        }
        self.batch_items.get() as f64 / batches as f64
    }

    /// Records one compute submission from a connection with `depth`
    /// requests in flight on that connection (including this one).
    pub fn record_pipeline_submit(&self, depth: usize) {
        self.pipeline_submits.inc();
        self.pipeline_depth_sum.add(depth as u64);
        self.pipeline_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Mean per-connection in-flight depth at submission time.
    pub fn mean_pipeline_depth(&self) -> f64 {
        let submits = self.pipeline_submits.get();
        if submits == 0 {
            return 0.0;
        }
        self.pipeline_depth_sum.get() as f64 / submits as f64
    }

    /// Renders the registry as Prometheus-style text.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (i, op) in Self::OPS.iter().enumerate() {
            out.push_str(&format!(
                "mda_requests_total{{op=\"{op}\"}} {}\n",
                self.requests[i].get()
            ));
        }
        out.push_str(&format!("mda_replies_ok_total {}\n", self.replies_ok.get()));
        out.push_str(&format!(
            "mda_replies_error_total {}\n",
            self.replies_error.get()
        ));
        out.push_str(&format!("mda_shed_total {}\n", self.shed.get()));
        out.push_str(&format!("mda_timeout_total {}\n", self.timeouts.get()));
        out.push_str(&format!("mda_batches_total {}\n", self.batches.get()));
        out.push_str(&format!(
            "mda_batch_items_total {}\n",
            self.batch_items.get()
        ));
        out.push_str(&format!(
            "mda_batch_occupancy_mean {:.3}\n",
            self.mean_batch_occupancy()
        ));
        out.push_str(&format!(
            "mda_batch_items_max {}\n",
            self.max_batch_items.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "mda_connections_total {}\n",
            self.connections.get()
        ));
        out.push_str(&format!(
            "mda_open_connections {}\n",
            self.open_connections.get()
        ));
        out.push_str(&format!(
            "mda_connections_rejected_total {}\n",
            self.connections_rejected.get()
        ));
        out.push_str(&format!(
            "mda_pipeline_submits_total {}\n",
            self.pipeline_submits.get()
        ));
        out.push_str(&format!(
            "mda_pipeline_depth_mean {:.3}\n",
            self.mean_pipeline_depth()
        ));
        out.push_str(&format!(
            "mda_pipeline_depth_max {}\n",
            self.pipeline_depth_max.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "mda_datasets_resident {}\n",
            self.datasets_resident.get()
        ));
        out.push_str(&format!(
            "mda_dataset_resident_bytes {}\n",
            self.dataset_resident_bytes.get()
        ));
        out.push_str(&format!(
            "mda_dataset_uploads_total {}\n",
            self.dataset_uploads.get()
        ));
        out.push_str(&format!(
            "mda_dataset_drops_total {}\n",
            self.dataset_drops.get()
        ));
        out.push_str(&format!(
            "mda_dataset_hits_total {}\n",
            self.dataset_hits.get()
        ));
        out.push_str(&format!(
            "mda_dataset_misses_total {}\n",
            self.dataset_misses.get()
        ));
        out.push_str(&format!("mda_streams_open {}\n", self.streams_open.get()));
        out.push_str(&format!(
            "mda_streams_opened_total {}\n",
            self.streams_opened.get()
        ));
        out.push_str(&format!(
            "mda_stream_points_total {}\n",
            self.stream_points.get()
        ));
        out.push_str(&format!(
            "mda_stream_subscriptions {}\n",
            self.stream_subscriptions.get()
        ));
        out.push_str(&format!(
            "mda_stream_events_total {}\n",
            self.stream_events.get()
        ));
        out.push_str(&format!(
            "mda_stream_evictions_total {}\n",
            self.stream_evictions.get()
        ));
        for (name, h) in [
            ("queue_wait", &self.queue_wait),
            ("conn_wait", &self.conn_wait),
            ("latency", &self.latency),
            ("stream_push", &self.stream_push),
        ] {
            out.push_str(&format!("mda_{name}_us_count {}\n", h.count()));
            out.push_str(&format!("mda_{name}_us_mean {:.1}\n", h.mean_us()));
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "mda_{name}_us{{quantile=\"{label}\"}} {}\n",
                    h.quantile_us(q)
                ));
            }
            out.push_str(&format!("mda_{name}_us_max {}\n", h.max_us()));
        }
        for (i, backend) in BackendId::ALL.into_iter().enumerate() {
            out.push_str(&format!(
                "mda_backend_selected_total{{backend=\"{backend}\"}} {}\n",
                self.backend_selected[i].get()
            ));
        }
        out.push_str(&format!(
            "mda_route_fallbacks_total {}\n",
            self.route_fallbacks.get()
        ));
        self.knn_cascade.render("knn", &mut out);
        self.search_cascade.render("search", &mut out);
        self.stream_cascade.render("stream", &mut out);
        out.push_str(&format!(
            "mda_fleet_in_use_watts {:.6}\n",
            self.fleet_in_use_uw.get() as f64 / 1e6
        ));
        out.push_str(&format!(
            "mda_analog_computations_total {}\n",
            self.analog_computations.get()
        ));
        out.push_str(&format!(
            "mda_analog_busy_seconds {:.9}\n",
            self.analog_busy_ns.get() as f64 * 1.0e-9
        ));
        // The analog backend's compiled-tape cache is process-wide, like
        // the backend set the executor dispatches against.
        let tapes = default_backends().analog().tape_stats();
        out.push_str(&format!(
            "mda_analog_tape_cache_hits_total {}\nmda_analog_tape_cache_misses_total {}\nmda_analog_tape_cache_bytes {}\n",
            tapes.hits, tapes.misses, tapes.bytes
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_right_buckets() {
        let h = Histogram::new();
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record_us(80);
        }
        for _ in 0..10 {
            h.record_us(40_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 100); // 80 µs → "≤ 100 µs" bucket
        assert_eq!(h.quantile_us(0.95), 50_000); // slow tail bucket
        assert_eq!(h.max_us(), 40_000);
        assert!((h.mean_us() - (90.0 * 80.0 + 10.0 * 40_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn sub_50us_samples_render_below_50us() {
        let m = Metrics::new();
        for _ in 0..100 {
            m.stream_push.record_us(15);
        }
        let text = m.render_text();
        let p50: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("mda_stream_push_us{quantile=\"0.5\"} "))
            .expect("p50 series rendered")
            .parse()
            .expect("integer µs");
        assert!(p50 <= 20, "15 µs samples rendered a p50 of {p50} µs");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = Histogram::new();
        h.record_us(30_000_000);
        assert_eq!(h.quantile_us(0.5), 30_000_000);
    }

    #[test]
    fn render_contains_every_series() {
        let m = Metrics::new();
        m.count_request("distance");
        m.record_batch(2, 10);
        m.replies_ok.inc();
        m.shed.inc();
        m.queue_wait.record_us(120);
        m.count_request("upload_dataset");
        m.record_pipeline_submit(4);
        m.open_connections.set(3);
        m.datasets_resident.set(2);
        m.dataset_resident_bytes.set(4096);
        m.count_backend(BackendId::Analog);
        m.route_fallbacks.inc();
        m.fleet_in_use_uw.set(580_000);
        m.count_request("open_stream");
        m.count_request("push_points");
        m.streams_open.set(1);
        m.streams_opened.inc();
        m.stream_points.add(7);
        m.stream_subscriptions.set(2);
        m.stream_events.add(14);
        m.stream_evictions.add(3);
        m.stream_push.record_us(60);
        m.knn_cascade.record(1, 200, 40, 15);
        m.search_cascade.record(0, 0, 0, 9);
        m.stream_cascade.record(5, 2, 1, 3);
        let text = m.render_text();
        for needle in [
            "mda_requests_total{op=\"distance\"} 1",
            "mda_requests_total{op=\"upload_dataset\"} 1",
            "mda_batches_total 1",
            "mda_batch_occupancy_mean 10.000",
            "mda_shed_total 1",
            "mda_queue_wait_us{quantile=\"0.5\"} 200",
            "mda_latency_us_count 0",
            "mda_open_connections 3",
            "mda_pipeline_depth_mean 4.000",
            "mda_pipeline_depth_max 4",
            "mda_datasets_resident 2",
            "mda_dataset_resident_bytes 4096",
            "mda_conn_wait_us_count 0",
            "mda_backend_selected_total{backend=\"analog\"} 1",
            "mda_backend_selected_total{backend=\"digital_exact\"} 0",
            "mda_route_fallbacks_total 1",
            "mda_fleet_in_use_watts 0.580000",
            "mda_requests_total{op=\"open_stream\"} 1",
            "mda_requests_total{op=\"push_points\"} 1",
            "mda_streams_open 1",
            "mda_streams_opened_total 1",
            "mda_stream_points_total 7",
            "mda_stream_subscriptions 2",
            "mda_stream_events_total 14",
            "mda_stream_evictions_total 3",
            "mda_stream_push_us_count 1",
            "mda_cascade_total{task=\"knn\",stage=\"pruned_kim\"} 1",
            "mda_cascade_total{task=\"knn\",stage=\"pruned_keogh\"} 200",
            "mda_cascade_total{task=\"knn\",stage=\"abandoned\"} 40",
            "mda_cascade_total{task=\"knn\",stage=\"full_dtw\"} 15",
            "mda_cascade_total{task=\"search\",stage=\"pruned_keogh\"} 0",
            "mda_cascade_total{task=\"search\",stage=\"full_dtw\"} 9",
            "mda_cascade_total{task=\"stream\",stage=\"pruned_kim\"} 5",
            "mda_cascade_total{task=\"stream\",stage=\"abandoned\"} 1",
            "mda_cascade_total{task=\"stream\",stage=\"full_dtw\"} 3",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn gauge_tracks_ups_and_downs() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates at 0
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn occupancy_mean_tracks_items_per_batch() {
        let m = Metrics::new();
        m.record_batch(1, 1);
        m.record_batch(3, 9);
        assert!((m.mean_batch_occupancy() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_batch_items.load(Ordering::Relaxed), 9);
    }
}
