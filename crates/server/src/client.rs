//! A blocking client for the `mda-server` frame protocol.
//!
//! One [`Client`] wraps one TCP connection, reused across any number of
//! calls. Synchronous methods issue one request and wait; the pipelined
//! [`Client::send_many`] writes a whole burst of requests before reading
//! any reply, exercising the server's per-connection pipelining so a
//! single connection can fill coalesced batches by itself. Resident
//! datasets are managed with [`Client::upload_dataset`] /
//! [`Client::list_datasets`] / [`Client::drop_dataset`] and then referenced
//! from queries via [`DatasetRef`].

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mda_distance::DistanceKind;
use mda_routing::Sla;

use crate::protocol::{
    decode_reply, encode_request, read_frame, write_frame, DatasetEntry, DatasetRef,
    DatasetSummary, Envelope, ErrorCode, ProtocolError, Reply, Request, ResponseBody, RouteInfo,
    StreamEventBody, TrainInstance, DEFAULT_MAX_FRAME_BYTES,
};

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The reply could not be decoded.
    Protocol(ProtocolError),
    /// The server answered with an error reply.
    Server {
        /// Machine-readable class (`overloaded`, `timeout`, …).
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
    /// The reply decoded but did not match the request (wrong id or shape).
    UnexpectedReply(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io error: {e}"),
            ClientError::Protocol(e) => write!(f, "client protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::UnexpectedReply(msg) => write!(f, "unexpected reply: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// `true` when the server shed this request under load.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }
}

/// Builder-style per-query options for the `query_*` methods.
///
/// With the default options a request carries no explicit accuracy: it is
/// byte-identical to the pre-routing protocol and is answered by the
/// bitwise digital path.
///
/// ```no_run
/// use std::time::Duration;
/// use mda_routing::Sla;
/// use mda_server::client::QueryOptions;
///
/// let opts = QueryOptions::new()
///     .accuracy(Sla::tolerance(16.0).unwrap())
///     .timeout(Duration::from_millis(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    threshold: Option<f64>,
    band: Option<usize>,
    deadline_ms: Option<u64>,
    accuracy: Option<Sla>,
    dataset: Option<DatasetRef>,
}

impl QueryOptions {
    /// Default options: exact accuracy, no deadline, paper-default
    /// function parameters, no dataset reference.
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Sets the accuracy SLA. Requests carrying an explicit SLA get the
    /// answering backend and its guaranteed bound reported on the reply.
    #[must_use]
    pub fn accuracy(mut self, sla: Sla) -> QueryOptions {
        self.accuracy = Some(sla);
        self
    }

    /// Sets the queue-wait budget (rounded down to whole milliseconds).
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> QueryOptions {
        self.deadline_ms = Some(timeout.as_millis() as u64);
        self
    }

    /// References a resident dataset (batch/kNN/search resident forms).
    #[must_use]
    pub fn dataset(mut self, dataset: DatasetRef) -> QueryOptions {
        self.dataset = Some(dataset);
        self
    }

    /// Overrides the match threshold (LCS/EdD/HamD).
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> QueryOptions {
        self.threshold = Some(threshold);
        self
    }

    /// Sets a Sakoe–Chiba band radius (DTW).
    #[must_use]
    pub fn band(mut self, radius: usize) -> QueryOptions {
        self.band = Some(radius);
        self
    }
}

/// A reply value plus the routing report the server attached to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed<T> {
    /// The answer.
    pub value: T,
    /// Which backend answered and the bound it guarantees. `None` when the
    /// request carried no explicit accuracy SLA.
    pub route: Option<RouteInfo>,
}

/// A kNN classification result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnOutcome {
    /// Predicted label.
    pub label: usize,
    /// Score of the nearest neighbour (similarities negated).
    pub score: f64,
    /// Index of the nearest training instance.
    pub nearest_index: usize,
}

/// A subsequence-search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOutcome {
    /// Start offset of the best window.
    pub offset: usize,
    /// Its banded DTW distance.
    pub distance: f64,
}

/// A successfully opened push-mode stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOpen {
    /// Server-assigned stream id — quote it on every subsequent verb.
    pub stream_id: u64,
    /// Shard the stream runs on; the server always replies `0`.
    pub shard: u32,
    /// Points the stream must see before subscribers get ready frames.
    pub burn_in: u64,
}

/// A `push_points` acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushedPoints {
    /// Points the server accepted (all-or-nothing per call).
    pub accepted: u64,
    /// The stream's epoch (total accepted points) after this push.
    pub epoch: u64,
}

/// A subscription acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscription {
    /// Stream epoch at subscription time — the first event's epoch is
    /// `epoch + 1`; any larger gap means events were missed.
    pub epoch: u64,
    /// `true` once the stream has completed burn-in.
    pub warm: bool,
}

/// One blocking connection to an `mda-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    max_frame_bytes: usize,
    /// Subscription events that arrived while waiting for a synchronous
    /// reply; consumed by [`Client::next_event`] in arrival order.
    pending_events: VecDeque<StreamEventBody>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            pending_events: VecDeque::new(),
        })
    }

    /// Reads the next non-event reply, buffering any stream events that
    /// arrive in between (a subscribed connection receives unsolicited
    /// `stream_event` frames interleaved with its synchronous replies).
    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            let payload = read_frame(&mut self.reader, self.max_frame_bytes)?;
            let reply = decode_reply(&payload)?;
            match reply.body {
                ResponseBody::StreamEvent(event) => self.pending_events.push_back(event),
                _ => return Ok(reply),
            }
        }
    }

    /// Issues one request and waits for its reply, keeping the routing
    /// report (when the server attached one).
    fn call_routed(
        &mut self,
        req: Request,
    ) -> Result<(ResponseBody, Option<RouteInfo>), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope { id, req };
        write_frame(&mut self.writer, &encode_request(&env))?;
        let Reply {
            id: got,
            body,
            route,
        } = self.read_reply()?;
        if got != id {
            return Err(ClientError::UnexpectedReply(format!(
                "reply id {got} does not match request id {id}"
            )));
        }
        if let ResponseBody::Error { code, message } = body {
            return Err(ClientError::Server { code, message });
        }
        Ok((body, route))
    }

    /// Issues one request and waits for its reply.
    fn call(&mut self, req: Request) -> Result<ResponseBody, ClientError> {
        self.call_routed(req).map(|(body, _)| body)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(Request::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Fetches the metrics registry as Prometheus-style text.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(Request::Metrics)? {
            ResponseBody::MetricsText(text) => Ok(text),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Evaluates one distance pair.
    ///
    /// With an explicit [`QueryOptions::accuracy`], the returned
    /// [`Routed::route`] reports which backend answered and the error bound
    /// it guarantees.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply.
    pub fn query_distance(
        &mut self,
        kind: DistanceKind,
        p: &[f64],
        q: &[f64],
        opts: &QueryOptions,
    ) -> Result<Routed<f64>, ClientError> {
        let (body, route) = self.call_routed(Request::Distance {
            kind,
            p: p.to_vec(),
            q: q.to_vec(),
            threshold: opts.threshold,
            band: opts.band,
            deadline_ms: opts.deadline_ms,
            accuracy: opts.accuracy,
        })?;
        match body {
            ResponseBody::Distance { value } => Ok(Routed { value, route }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Evaluates a batch: the inline `pairs`, or — when the options carry a
    /// [`QueryOptions::dataset`] reference — `probe` against every resident
    /// series. One value per pair/series, in input/upload order.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found` /
    /// `stale_version` when a dataset reference fails to resolve).
    pub fn query_batch(
        &mut self,
        kind: DistanceKind,
        pairs: &[(Vec<f64>, Vec<f64>)],
        probe: Option<&[f64]>,
        opts: &QueryOptions,
    ) -> Result<Routed<Vec<f64>>, ClientError> {
        let (body, route) = self.call_routed(Request::Batch {
            kind,
            pairs: pairs.to_vec(),
            query: probe.map(|s| s.to_vec()),
            dataset: opts.dataset.clone(),
            threshold: opts.threshold,
            band: opts.band,
            deadline_ms: opts.deadline_ms,
            accuracy: opts.accuracy,
        })?;
        match body {
            ResponseBody::Batch { values } => Ok(Routed {
                value: values,
                route,
            }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Classifies `query` against `train` — or against a resident dataset's
    /// labelled series when the options carry a [`QueryOptions::dataset`]
    /// reference (the inline `train` is ignored by the server then).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found` /
    /// `stale_version` when a dataset reference fails to resolve).
    pub fn query_knn(
        &mut self,
        kind: DistanceKind,
        k: usize,
        query: &[f64],
        train: &[TrainInstance],
        opts: &QueryOptions,
    ) -> Result<Routed<KnnOutcome>, ClientError> {
        let (body, route) = self.call_routed(Request::Knn {
            kind,
            k,
            query: query.to_vec(),
            train: train.to_vec(),
            dataset: opts.dataset.clone(),
            threshold: opts.threshold,
            band: opts.band,
            deadline_ms: opts.deadline_ms,
            accuracy: opts.accuracy,
        })?;
        match body {
            ResponseBody::Knn {
                label,
                score,
                nearest_index,
            } => Ok(Routed {
                value: KnnOutcome {
                    label,
                    score,
                    nearest_index,
                },
                route,
            }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Finds the best-matching window of `query` under banded DTW — in the
    /// inline `haystack`, or in series `series_index` of a resident dataset
    /// when the options carry a [`QueryOptions::dataset`] reference.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found` /
    /// `stale_version` when a dataset reference fails to resolve).
    pub fn query_search(
        &mut self,
        query: &[f64],
        haystack: &[f64],
        series_index: usize,
        window: usize,
        band: usize,
        opts: &QueryOptions,
    ) -> Result<Routed<SearchOutcome>, ClientError> {
        let (body, route) = self.call_routed(Request::Search {
            query: query.to_vec(),
            haystack: haystack.to_vec(),
            dataset: opts.dataset.clone(),
            series_index,
            window,
            band,
            deadline_ms: opts.deadline_ms,
            accuracy: opts.accuracy,
        })?;
        match body {
            ResponseBody::Search { offset, distance } => Ok(Routed {
                value: SearchOutcome { offset, distance },
                route,
            }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Uploads (or idempotently re-uploads) a resident dataset. Returns
    /// `(dataset_id, version)` — pin the id in subsequent queries.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`overloaded`
    /// when the store's byte budget is exhausted).
    pub fn upload_dataset(
        &mut self,
        name: &str,
        entries: &[DatasetEntry],
    ) -> Result<(String, u64), ClientError> {
        let body = self.call(Request::UploadDataset {
            name: name.to_string(),
            entries: entries.to_vec(),
        })?;
        match body {
            ResponseBody::DatasetUploaded {
                dataset_id,
                version,
                ..
            } => Ok((dataset_id, version)),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Lists resident datasets, sorted by name.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply.
    pub fn list_datasets(&mut self) -> Result<Vec<DatasetSummary>, ClientError> {
        match self.call(Request::ListDatasets)? {
            ResponseBody::Datasets { items } => Ok(items),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Drops a resident dataset by reference.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found`
    /// when the reference does not resolve).
    pub fn drop_dataset(&mut self, dataset: DatasetRef) -> Result<usize, ClientError> {
        match self.call(Request::DropDataset { dataset })? {
            ResponseBody::Dropped { count } => Ok(count),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Opens a push-mode stream: an incremental pipeline matching
    /// `query` against every window of the live series under banded DTW.
    ///
    /// `threshold`, when set, must be finite and positive; it caps the
    /// match cascade's pruning threshold (best-so-far tightens it further).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply
    /// (`invalid_parameter` for a rejected configuration).
    pub fn open_stream(
        &mut self,
        window: usize,
        band: usize,
        query: &[f64],
        threshold: Option<f64>,
    ) -> Result<StreamOpen, ClientError> {
        match self.call(Request::OpenStream {
            window,
            band,
            query: query.to_vec(),
            threshold,
        })? {
            ResponseBody::StreamOpened {
                stream_id,
                shard,
                burn_in,
            } => Ok(StreamOpen {
                stream_id,
                shard,
                burn_in,
            }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Pushes points to an open stream. All-or-nothing: a non-finite point
    /// rejects the whole batch (`invalid_parameter`) without mutating the
    /// stream.
    ///
    /// On a subscribed connection the acknowledgement always precedes the
    /// events this push caused, so `push_points` then [`Client::next_event`]
    /// never deadlocks.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found`
    /// for an unknown or closed stream).
    pub fn push_points(
        &mut self,
        stream_id: u64,
        points: &[f64],
    ) -> Result<PushedPoints, ClientError> {
        match self.call(Request::PushPoints {
            stream_id,
            points: points.to_vec(),
        })? {
            ResponseBody::PointsPushed {
                accepted, epoch, ..
            } => Ok(PushedPoints { accepted, epoch }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Subscribes this connection to a stream: every subsequent accepted
    /// push produces one [`StreamEventBody`], delivered in push order and
    /// consumed with [`Client::next_event`].
    ///
    /// Events carry the stream epoch; compare consecutive epochs against
    /// [`Subscription::epoch`] to detect gaps.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found`
    /// for an unknown or closed stream).
    pub fn subscribe(&mut self, stream_id: u64) -> Result<Subscription, ClientError> {
        match self.call(Request::Subscribe { stream_id })? {
            ResponseBody::Subscribed { epoch, warm, .. } => Ok(Subscription { epoch, warm }),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Returns the next subscription event: buffered ones first (events
    /// that arrived interleaved with synchronous replies), then blocking
    /// on the socket.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-event frame arriving with no
    /// request outstanding.
    pub fn next_event(&mut self) -> Result<StreamEventBody, ClientError> {
        if let Some(event) = self.pending_events.pop_front() {
            return Ok(event);
        }
        let payload = read_frame(&mut self.reader, self.max_frame_bytes)?;
        let reply = decode_reply(&payload)?;
        match reply.body {
            ResponseBody::StreamEvent(event) => Ok(event),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Closes a stream, dropping its state and every subscription to it.
    /// Returns how many points the stream accepted over its lifetime.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server error reply (`not_found`
    /// for an unknown or already-closed stream).
    pub fn close_stream(&mut self, stream_id: u64) -> Result<u64, ClientError> {
        match self.call(Request::CloseStream { stream_id })? {
            ResponseBody::StreamClosed { pushed, .. } => Ok(pushed),
            other => Err(ClientError::UnexpectedReply(format!("{other:?}"))),
        }
    }

    /// Issues a burst of requests **pipelined** on this connection: every
    /// request is written (one flush) before any reply is read, then all
    /// replies are collected and returned in request order.
    ///
    /// Per-request server errors (`overloaded`, `not_found`, …) come back
    /// as [`ResponseBody::Error`] values rather than failing the whole
    /// burst — pipelined bursts are exactly where partial shedding occurs.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unmatched/duplicate reply id.
    pub fn send_many(&mut self, reqs: Vec<Request>) -> Result<Vec<ResponseBody>, ClientError> {
        Ok(self
            .send_many_full(reqs)?
            .into_iter()
            .map(|reply| reply.body)
            .collect())
    }

    /// Like [`Client::send_many`], but returns the full replies — including
    /// the per-request routing report for accuracy-tagged requests.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unmatched/duplicate reply id.
    pub fn send_many_full(&mut self, reqs: Vec<Request>) -> Result<Vec<Reply>, ClientError> {
        let ids: Vec<u64> = reqs
            .iter()
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                id
            })
            .collect();
        for (id, req) in ids.iter().zip(reqs) {
            let env = Envelope { id: *id, req };
            let payload = encode_request(&env);
            let len = u32::try_from(payload.len()).map_err(|_| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "payload exceeds u32 length",
                ))
            })?;
            self.writer.write_all(&len.to_be_bytes())?;
            self.writer.write_all(&payload)?;
        }
        self.writer.flush()?;
        let mut by_id: HashMap<u64, Reply> = HashMap::with_capacity(ids.len());
        for _ in 0..ids.len() {
            // Events caused by pushes inside the burst are buffered for
            // `next_event`, not counted against the expected replies.
            let reply = self.read_reply()?;
            let id = reply.id;
            if !ids.contains(&id) || by_id.insert(id, reply).is_some() {
                return Err(ClientError::UnexpectedReply(format!(
                    "reply id {id} does not match a pending pipelined request"
                )));
            }
        }
        Ok(ids
            .into_iter()
            .map(|id| by_id.remove(&id).expect("collected above"))
            .collect())
    }
}
