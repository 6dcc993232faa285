//! The TCP server: an epoll event-loop serving thread, one coalescing
//! dispatcher, and graceful drain-then-shutdown.
//!
//! All connections are multiplexed on a single readiness-driven thread
//! ([`crate::event_loop`]): non-blocking sockets, per-connection read/write
//! buffers with incremental frame decode, and request pipelining up to
//! `max_pipeline_depth` per connection. Control ops (ping/metrics) and
//! dataset management (upload/list/drop against the resident
//! [`DatasetStore`]) are answered inline on the loop; compute ops are
//! decomposed — resolving resident-dataset references — and submitted to
//! the coalescing queue, whose dispatcher pushes finished replies back to
//! the loop through the completion queue + eventfd wake. Connections that
//! open with `GET ` are served the metrics registry as an HTTP/1.1 text
//! response and closed — point a browser or scraper at the same port.
//!
//! Shutdown is a drain: the listener is dropped, admission control refuses
//! new work with `shutting_down`, every already-queued job still computes,
//! and its reply is flushed before sockets close (the dispatcher is joined
//! *before* the loop is told to finish, so every admitted completion is
//! serialized first).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mda_distance::BatchEngine;
use mda_routing::{Router, RouterConfig};

use crate::config::{ConfigError, ServerConfig};
use crate::datasets::DatasetStore;
use crate::event_loop::{wake_pair, EventLoop};
use crate::metrics::Metrics;
use crate::queue::Coalescer;

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServerError {
    /// The configuration was rejected.
    Config(ConfigError),
    /// Binding or socket setup failed.
    Io(io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "server io error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Config(e) => Some(e),
            ServerError::Io(e) => Some(e),
        }
    }
}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// A running `mda-server` instance.
///
/// Dropping the handle performs a full graceful shutdown (equivalent to
/// [`Server::shutdown_and_join`]).
pub struct Server {
    local_addr: SocketAddr,
    metrics: Arc<Metrics>,
    queue: Arc<Coalescer>,
    store: Arc<DatasetStore>,
    shutdown: Arc<AtomicBool>,
    finish: Arc<AtomicBool>,
    router: Arc<Router>,
    wake: Arc<crate::event_loop::WakeFd>,
    serve: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Validates `config`, binds the listener, and spawns the event-loop
    /// and dispatcher threads.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for invalid settings, [`ServerError::Io`]
    /// when the bind or epoll/eventfd setup fails.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        config.validate()?;
        let mut engine = BatchEngine::new();
        if let Some(workers) = config.workers {
            engine = engine.with_threads(workers);
        }
        let listener = std::net::TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(
            Arc::clone(&metrics),
            config.max_queue_items,
            config.batch_max_items,
        ));
        let store = Arc::new(DatasetStore::new(config.dataset_max_bytes));
        let (wake, completions) = wake_pair()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let finish = Arc::new(AtomicBool::new(false));
        let router = Arc::new(Router::new(RouterConfig {
            fleet_power_w: config.fleet_power_w,
        }));

        let dispatcher = queue.spawn_dispatcher(engine);
        let event_loop = EventLoop {
            config,
            metrics: Arc::clone(&metrics),
            queue: Arc::clone(&queue),
            store: Arc::clone(&store),
            completions,
            wake: Arc::clone(&wake),
            shutdown: Arc::clone(&shutdown),
            finish: Arc::clone(&finish),
            router: Arc::clone(&router),
            streams: std::cell::RefCell::new(crate::streams::StreamRegistry::new(1)),
            stream_events: std::cell::RefCell::new(Vec::new()),
        };
        let serve = std::thread::Builder::new()
            .name("mda-event-loop".into())
            .spawn(move || event_loop.run(listener))
            .expect("spawn event-loop thread");

        Ok(Server {
            local_addr,
            metrics,
            queue,
            store,
            shutdown,
            finish,
            router,
            wake,
            serve: Some(serve),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The resident dataset store (for embedding and tests).
    pub fn datasets(&self) -> &Arc<DatasetStore> {
        &self.store
    }

    /// The accuracy-SLA / power-budget router serving this instance.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Starts the drain: stop accepting, refuse new work, keep computing
    /// what is already queued. Idempotent and non-blocking.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.begin_drain();
        self.wake.wake();
    }

    /// `true` once [`Server::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Drains and stops the server: every job queued before the call is
    /// computed and its reply flushed before sockets close.
    pub fn shutdown_and_join(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        self.begin_shutdown();
        // The dispatcher exits only after the queue is drained, so every
        // admitted reply is in the completion queue by the time it joins.
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Now tell the loop to serialize the remaining completions, flush
        // every write buffer, and exit.
        self.finish.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(h) = self.serve.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join_all();
    }
}
