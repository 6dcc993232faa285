//! # mda-server
//!
//! A batching network service for the memristor distance accelerator: the
//! "data center" deployment of the DAC'17 paper, where many clients share
//! one accelerator host and throughput comes from **batching**, not from
//! per-client parallelism.
//!
//! The server speaks a dependency-free, length-prefixed JSON protocol
//! ([`protocol`]) over TCP and exposes the library's six distance
//! functions plus its mining primitives:
//!
//! * `distance` — one pair, one value;
//! * `batch` — pairwise batch, one value per pair (or one query vs a
//!   resident dataset);
//! * `knn` — k-nearest-neighbour classification (exact
//!   `KnnClassifier::classify` semantics), inline train set or resident;
//!   one work item per request, which for banded DTW on the exact route
//!   runs the library's pruned nearest-neighbour scan;
//! * `search` — banded-DTW subsequence search, inline or resident haystack;
//! * `upload_dataset` / `list_datasets` / `drop_dataset` — resident
//!   dataset management ([`datasets`]): upload a corpus once, then query it
//!   by content-addressed id so the wire carries queries, not corpora;
//! * `open_stream` / `push_points` / `subscribe` / `close_stream` —
//!   push-mode mining ([`streams`]): points step through `mda-streaming`'s
//!   five-stage incremental pipeline and every accepted point emits one
//!   epoch-tagged event per subscriber (epoch contiguity is the
//!   gap-detection contract; a push reply always precedes the events it
//!   caused on the same connection);
//! * `ping` / `metrics` — control plane.
//!
//! ## Architecture
//!
//! ```text
//! clients ══frames══► epoll event loop ──decompose──► CoalescingQueue
//!    (pipelined)        │ one thread,    (resolve          │ (admission
//!                       │ all conns       datasets)        │  control)
//!                       │                           dispatcher thread
//!                       │ inline: ping/metrics/           │ coalesced
//!                       │ upload/list/drop                ▼ batch
//!                       │                            BatchEngine
//!                       ▲                                 │
//! clients ◄══frames═══ write buffers ◄─completions+─ per-job replies
//!                                       eventfd wake
//! ```
//!
//! The serving core is a single readiness-based event-loop thread
//! ([`event_loop`]: epoll via raw FFI, non-blocking sockets, incremental
//! frame decode, per-connection pipelining with write-buffer
//! backpressure). Concurrent — and pipelined — requests are flattened into
//! shared [`BatchEngine`] batches ([`queue`]), so the engine's workers
//! stay saturated regardless of how the load is spread across connections.
//! Admission control sheds work beyond a bounded queue depth
//! (`overloaded`), queue-wait deadlines produce `timeout` replies, dataset
//! references that fail to resolve produce `not_found`/`stale_version`,
//! and shutdown drains every admitted job before closing sockets. Live
//! counters and latency histograms ([`metrics`]) are served both
//! in-protocol and as an HTTP/1.1 text endpoint on the same port (open
//! `http://host:port/` in a scraper).
//!
//! Results are **bitwise identical** to direct library calls: the
//! dispatcher evaluates every work item with the same entry points and
//! scratch reuse the mining drivers use, and the JSON codec round-trips
//! every finite `f64` exactly (shortest-representation printing,
//! [`json`]).
//!
//! ## Quick example
//!
//! ```
//! use mda_server::{Client, QueryOptions, Server, ServerConfig};
//! use mda_distance::DistanceKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start(ServerConfig::default())?; // 127.0.0.1, OS port
//! let mut client = Client::connect(server.local_addr())?;
//! let d = client
//!     .query_distance(DistanceKind::Manhattan, &[0.0, 1.0], &[0.0, 3.0], &QueryOptions::new())?
//!     .value;
//! assert_eq!(d, 2.0);
//! server.shutdown_and_join(); // drains in-flight work first
//! # Ok(())
//! # }
//! ```
//!
//! [`BatchEngine`]: mda_distance::BatchEngine

pub mod client;
pub mod config;
pub mod datasets;
pub mod event_loop;
pub mod exec;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod streams;

pub use client::{
    Client, ClientError, KnnOutcome, PushedPoints, QueryOptions, Routed, SearchOutcome, StreamOpen,
    Subscription,
};
pub use config::{ConfigError, ServerConfig};
pub use datasets::{DatasetStore, ResolveError};
pub use metrics::Metrics;
pub use protocol::{
    DatasetEntry, DatasetRef, DatasetSummary, ErrorCode, MatchRecord, ProtocolError, Request,
    ResponseBody, RouteInfo, StreamEventBody, StreamEventState, TrainInstance,
};
pub use server::{Server, ServerError};
pub use streams::{
    CloseOutcome, OpenOutcome, PushOutcome, RegistryError, StreamRegistry, SubscribeOutcome,
};

// Routing vocabulary used by the request surface, re-exported so clients
// need only this crate to express accuracy SLAs and read routing reports.
pub use mda_routing::{BackendId, Bound, Sla, SlaError};
