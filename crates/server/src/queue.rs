//! The request-coalescing queue: admission control at the front, one
//! dispatcher thread at the back.
//!
//! Connections never compute. They decompose requests into work items
//! ([`crate::exec`]) and [`submit`](Coalescer::submit) them; the single
//! dispatcher thread drains the queue into **coalesced batches** — work
//! items from as many queued requests as fit the batch budget — and runs
//! each batch through one [`BatchEngine`] map call. Throughput therefore
//! scales with the engine's worker threads (one accelerator host core
//! each), not with the number of open connections.
//!
//! Admission control is item-based: the queue holds at most
//! `max_queue_items` work items, a kNN item counting once per training
//! instance ([`WorkItem::weight`]). A submission that would overflow is
//! rejected immediately (`overloaded` reply, no queuing, no blocking) —
//! load-shedding at the door instead of collapse under backlog. One
//! oversized job is still admitted when the queue is empty, so capacity
//! bounds backlog without capping single-request size.
//!
//! Deadlines bound *queue wait*: a request whose `deadline_ms` expires
//! before dispatch is answered with `timeout` and never computed. Batches
//! in flight always run to completion — graceful drain relies on that.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mda_distance::{BatchEngine, DistanceError, DpScratch};
use mda_routing::PowerLease;

use crate::event_loop::Completions;
use crate::exec::{execute_item_routed, Assemble, ItemOutcome, RouteTally, WorkItem};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Reply, ResponseBody, RouteInfo};

/// Where a finished job's reply goes.
///
/// The event loop cannot block on a channel: its connections are plain
/// state machines owned by one thread. Dispatcher completions for event-loop
/// connections are therefore pushed onto a shared [`Completions`] queue
/// (keyed by connection token) and the loop is woken via its eventfd; tests
/// and embedders can still use a plain mpsc channel.
#[derive(Debug, Clone)]
pub enum ReplySink {
    /// Deliver over an mpsc channel (tests, embedding).
    Channel(Sender<Reply>),
    /// Deliver to an event-loop connection by token.
    Conn {
        /// The connection's event-loop token.
        token: u64,
        /// The loop's completion queue (push wakes the loop).
        completions: Arc<Completions>,
    },
}

impl ReplySink {
    /// Delivers one reply. A vanished receiver (disconnected channel or
    /// already-closed connection) is not an error: the reply is dropped.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Conn { token, completions } => completions.push(*token, reply),
        }
    }
}

/// One queued compute request.
#[derive(Debug)]
pub struct Job {
    /// Envelope id, echoed on the reply.
    pub id: u64,
    /// Flattened work items.
    pub items: Vec<WorkItem>,
    /// Reduction back to one reply.
    pub assemble: Assemble,
    /// Where the reply goes.
    pub reply: ReplySink,
    /// Absolute queue-wait deadline, if the request set one.
    pub deadline: Option<Instant>,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Routing decision to report on the reply (`None` when the request
    /// carried no explicit accuracy SLA — keeps default replies
    /// byte-identical to the pre-routing protocol).
    pub route: Option<RouteInfo>,
    /// Analog fleet power reservation, held until the job finishes.
    pub lease: Option<PowerLease>,
}

impl Job {
    /// The job's share of queue capacity and batch budget: the summed
    /// [`WorkItem::weight`] of its items.
    pub fn weight(&self) -> usize {
        self.items.iter().map(WorkItem::weight).sum()
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the request was shed.
    Overloaded {
        /// Items currently queued.
        queued: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The server is draining.
    ShuttingDown,
}

impl SubmitError {
    /// The wire error code for this refusal.
    pub fn code(self) -> ErrorCode {
        match self {
            SubmitError::Overloaded { .. } => ErrorCode::Overloaded,
            SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }

    /// Human-readable reply message.
    pub fn message(self) -> String {
        match self {
            SubmitError::Overloaded { queued, capacity } => format!(
                "server overloaded: {queued} work items queued (capacity {capacity}); retry later"
            ),
            SubmitError::ShuttingDown => "server is draining and no longer accepts work".into(),
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    queued_items: usize,
    draining: bool,
}

/// The guard of a queue lock, whether or not the mutex is poisoned. A
/// thread that panics while holding the lock poisons it; every critical
/// section here leaves [`QueueState`] consistent at each point where it can
/// unwind, so the state behind a poisoned lock is as good as any, and one
/// panic must not turn every later submission into another.
fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The shared coalescing queue.
#[derive(Debug)]
pub struct Coalescer {
    state: Mutex<QueueState>,
    cv: Condvar,
    metrics: Arc<Metrics>,
    max_queue_items: usize,
    batch_max_items: usize,
}

impl Coalescer {
    /// Creates a queue with the given capacity and per-batch item budget.
    pub fn new(metrics: Arc<Metrics>, max_queue_items: usize, batch_max_items: usize) -> Self {
        Coalescer {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            metrics,
            max_queue_items: max_queue_items.max(1),
            batch_max_items: batch_max_items.max(1),
        }
    }

    /// Admits or sheds one job. Never blocks.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the job would overflow the queue
    /// (the shed counter is incremented here), [`SubmitError::ShuttingDown`]
    /// once draining has begun.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = recover(self.state.lock());
        if state.draining {
            return Err(SubmitError::ShuttingDown);
        }
        let incoming = job.weight();
        if !state.jobs.is_empty() && state.queued_items + incoming > self.max_queue_items {
            let queued = state.queued_items;
            drop(state);
            self.metrics.shed.inc();
            return Err(SubmitError::Overloaded {
                queued,
                capacity: self.max_queue_items,
            });
        }
        state.queued_items += incoming;
        state.jobs.push_back(job);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Work items currently queued (for tests and introspection).
    pub fn queued_items(&self) -> usize {
        recover(self.state.lock()).queued_items
    }

    /// Starts draining: new submissions are refused, queued jobs will still
    /// be dispatched. Idempotent.
    pub fn begin_drain(&self) {
        let mut state = recover(self.state.lock());
        state.draining = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until jobs are available (or drain + empty), then takes one
    /// coalesced batch: at least one job, then more jobs while the combined
    /// item count stays within the batch budget. Returns `None` when
    /// draining and empty — the dispatcher's exit signal.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = recover(self.state.lock());
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.draining {
                return None;
            }
            let (next, _) = recover(self.cv.wait_timeout(state, Duration::from_millis(100)));
            state = next;
        }
        let mut batch = Vec::new();
        let mut total = 0usize;
        while let Some(job) = state.jobs.front() {
            let n = job.weight();
            if !batch.is_empty() && total + n > self.batch_max_items {
                break;
            }
            total += n;
            let job = state.jobs.pop_front().expect("front() was Some");
            state.queued_items -= n;
            batch.push(job);
            if total >= self.batch_max_items {
                break;
            }
        }
        Some(batch)
    }

    /// Runs the dispatcher until drain completes. One thread per server.
    pub fn dispatch_loop(&self, engine: &BatchEngine) {
        while let Some(batch) = self.next_batch() {
            self.dispatch(batch, engine);
        }
    }

    /// Spawns the dispatcher thread.
    pub fn spawn_dispatcher(self: &Arc<Self>, engine: BatchEngine) -> JoinHandle<()> {
        let queue = Arc::clone(self);
        std::thread::Builder::new()
            .name("mda-dispatch".into())
            .spawn(move || queue.dispatch_loop(&engine))
            .expect("spawn dispatcher thread")
    }

    /// Executes one coalesced batch and delivers every reply.
    fn dispatch(&self, batch: Vec<Job>, engine: &BatchEngine) {
        let now = Instant::now();

        // Expired-deadline jobs time out without computing.
        let (live, dead): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| now <= d));
        for job in dead {
            self.metrics.timeouts.inc();
            self.finish(
                &job,
                ResponseBody::Error {
                    code: ErrorCode::Timeout,
                    message: "deadline expired while queued".into(),
                },
            );
        }
        if live.is_empty() {
            return;
        }

        // Flatten all live jobs' items into one engine batch.
        let mut flat: Vec<WorkItem> = Vec::with_capacity(live.iter().map(|j| j.items.len()).sum());
        let mut weight = 0usize;
        for job in &live {
            self.metrics
                .queue_wait
                .record_us(now.duration_since(job.enqueued).as_micros() as u64);
            flat.extend(job.items.iter().cloned());
            weight += job.weight();
        }
        self.metrics.record_batch(live.len(), weight);

        // Item errors are carried as values, so one bad request can never
        // abort a batch it shares with healthy neighbours.
        let routed: Vec<(Result<ItemOutcome, DistanceError>, RouteTally)> = match engine
            .try_map_with(&flat, DpScratch::new, |scratch, _, item| {
                Ok::<_, std::convert::Infallible>(execute_item_routed(item, scratch))
            }) {
            Ok(v) => v,
            Err(e) => match e {},
        };
        let mut outcomes = Vec::with_capacity(routed.len());
        let mut total = RouteTally::default();
        for (outcome, tally) in routed {
            total.fallbacks += tally.fallbacks;
            total.analog += tally.analog;
            total.analog_ns += tally.analog_ns;
            match &outcome {
                Ok(ItemOutcome::Knn { stats: s, .. }) => self.metrics.knn_cascade.record(
                    s.pruned_by_kim,
                    s.pruned_by_keogh,
                    s.abandoned_early,
                    s.full_computations,
                ),
                Ok(ItemOutcome::Match { stats: s, .. }) => self.metrics.search_cascade.record(
                    s.pruned_by_kim,
                    s.pruned_by_keogh,
                    s.abandoned_early,
                    s.full_computations,
                ),
                _ => {}
            }
            outcomes.push(outcome);
        }
        if total.fallbacks > 0 {
            self.metrics.route_fallbacks.add(total.fallbacks);
        }
        if total.analog > 0 {
            self.metrics.analog_computations.add(total.analog);
            self.metrics.analog_busy_ns.add(total.analog_ns);
        }

        let mut offset = 0usize;
        for job in &live {
            let n = job.items.len();
            let body = assemble(&job.assemble, &outcomes[offset..offset + n]);
            offset += n;
            self.finish(job, body);
        }
        // `live` drops here, releasing every job's fleet lease.
    }

    /// Sends the reply and records the reply + latency metrics.
    fn finish(&self, job: &Job, body: ResponseBody) {
        let is_error = matches!(body, ResponseBody::Error { .. });
        if is_error {
            self.metrics.replies_error.inc();
        } else {
            self.metrics.replies_ok.inc();
        }
        self.metrics
            .latency
            .record_us(job.enqueued.elapsed().as_micros() as u64);
        let mut reply = Reply::new(job.id, body);
        if !is_error {
            reply.route = job.route;
        }
        // A disconnected client is not an error: drop the reply.
        job.reply.send(reply);
    }
}

/// Folds a job's item outcomes into its reply body, reporting the
/// lowest-indexed item error (the error a serial loop would hit first).
fn assemble(assemble: &Assemble, outcomes: &[Result<ItemOutcome, DistanceError>]) -> ResponseBody {
    if let Some(err) = outcomes.iter().find_map(|o| o.as_ref().err()) {
        return ResponseBody::Error {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        };
    }
    let body = match (assemble, outcomes) {
        (Assemble::Single, [Ok(outcome)]) => match *outcome {
            ItemOutcome::Value(value) => ResponseBody::Distance { value },
            ItemOutcome::Knn {
                label,
                score,
                nearest_index,
                ..
            } => ResponseBody::Knn {
                label,
                score,
                nearest_index,
            },
            ItemOutcome::Match {
                offset, distance, ..
            } => ResponseBody::Search { offset, distance },
        },
        (Assemble::Single, _) => internal("single-item job had no single outcome"),
        (Assemble::Values, _) => ResponseBody::Batch {
            values: outcomes
                .iter()
                .map(|o| match o {
                    Ok(ItemOutcome::Value(v)) => *v,
                    _ => f64::NAN,
                })
                .collect(),
        },
    };
    finite_or_error(body)
}

/// A non-finite result (a distance that overflows `f64`) has no JSON form:
/// it would go out as `null`, which no client decodes. It is answered with
/// a typed `invalid_parameter` error instead.
fn finite_or_error(body: ResponseBody) -> ResponseBody {
    let finite = match &body {
        ResponseBody::Distance { value } => value.is_finite(),
        ResponseBody::Batch { values } => values.iter().all(|v| v.is_finite()),
        ResponseBody::Search { distance, .. } => distance.is_finite(),
        ResponseBody::Knn { score, .. } => score.is_finite(),
        _ => true,
    };
    if finite {
        body
    } else {
        ResponseBody::Error {
            code: ErrorCode::InvalidParameter,
            message: "the result is not a finite number: the inputs overflow f64".into(),
        }
    }
}

fn internal(message: &str) -> ResponseBody {
    ResponseBody::Error {
        code: ErrorCode::Internal,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{decompose, PairSpec};
    use mda_distance::DistanceKind;
    use mda_routing::BackendId;
    use std::sync::mpsc;

    fn pair_items(n: usize, len: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|i| WorkItem::Pair {
                spec: PairSpec {
                    kind: DistanceKind::Manhattan,
                    threshold: None,
                    band: None,
                    backend: BackendId::DigitalExact,
                },
                p: (0..len).map(|j| (i + j) as f64).collect::<Vec<_>>().into(),
                q: (0..len).map(|j| j as f64).collect::<Vec<_>>().into(),
            })
            .collect()
    }

    fn job(items: Vec<WorkItem>, reply: Sender<Reply>) -> Job {
        Job {
            id: 1,
            items,
            assemble: Assemble::Values,
            reply: ReplySink::Channel(reply),
            deadline: None,
            enqueued: Instant::now(),
            route: None,
            lease: None,
        }
    }

    /// A thread that panics while holding the queue lock poisons it; the
    /// queue keeps admitting and batching jobs with the count intact.
    #[test]
    fn poisoned_lock_keeps_the_queue_working() {
        let queue = Arc::new(Coalescer::new(Arc::new(Metrics::new()), 8, 8));
        let (tx, _rx) = mpsc::channel();
        queue.submit(job(pair_items(2, 4), tx.clone())).unwrap();
        let holder = Arc::clone(&queue);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.state.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(queue.state.is_poisoned());

        queue.submit(job(pair_items(3, 4), tx)).unwrap();
        assert_eq!(queue.queued_items(), 5);
        let batch = queue.next_batch().expect("queued jobs");
        assert_eq!(batch.iter().map(Job::weight).sum::<usize>(), 5);
        assert_eq!(queue.queued_items(), 0);
        queue.begin_drain();
        assert!(queue.next_batch().is_none(), "drained and empty");
    }

    #[test]
    fn admission_sheds_beyond_capacity_without_dispatcher() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(Arc::clone(&metrics), 4, 4);
        let (tx, _rx) = mpsc::channel();
        // First job admitted (queue empty), second overflows.
        queue.submit(job(pair_items(3, 4), tx.clone())).unwrap();
        let err = queue.submit(job(pair_items(2, 4), tx.clone())).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { queued: 3, .. }));
        assert_eq!(err.code(), ErrorCode::Overloaded);
        assert_eq!(metrics.shed.get(), 1);
        // A job fitting the remaining capacity is still admitted.
        queue.submit(job(pair_items(1, 4), tx)).unwrap();
        assert_eq!(queue.queued_items(), 4);
    }

    #[test]
    fn oversized_job_admitted_only_when_queue_empty() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(metrics, 4, 4);
        let (tx, _rx) = mpsc::channel();
        queue.submit(job(pair_items(10, 4), tx.clone())).unwrap();
        assert!(queue.submit(job(pair_items(1, 4), tx)).is_err());
    }

    #[test]
    fn drain_refuses_new_work() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(metrics, 16, 16);
        queue.begin_drain();
        let (tx, _rx) = mpsc::channel();
        assert_eq!(
            queue.submit(job(pair_items(1, 4), tx)).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn dispatcher_coalesces_multiple_jobs_into_one_batch() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(Arc::clone(&metrics), 1024, 1024));
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        queue.submit(job(pair_items(3, 8), tx_a)).unwrap();
        queue.submit(job(pair_items(2, 8), tx_b)).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
        let b = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
        let (ResponseBody::Batch { values: va }, ResponseBody::Batch { values: vb }) =
            (&a.body, &b.body)
        else {
            panic!("batch replies expected, got {a:?} / {b:?}");
        };
        assert_eq!((va.len(), vb.len()), (3, 2));
        // Both jobs were queued before the dispatcher started, so they ride
        // one coalesced batch of 5 items.
        assert_eq!(metrics.batches.get(), 1);
        assert_eq!(metrics.batch_items.get(), 5);
        assert!((metrics.mean_batch_occupancy() - 5.0).abs() < 1e-12);
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn expired_deadline_times_out_instead_of_computing() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(Arc::clone(&metrics), 64, 64));
        let (tx, rx) = mpsc::channel();
        let mut j = job(pair_items(1, 4), tx);
        j.deadline = Some(Instant::now() - Duration::from_millis(10));
        queue.submit(j).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(
            reply.body,
            ResponseBody::Error {
                code: ErrorCode::Timeout,
                ..
            }
        ));
        assert_eq!(metrics.timeouts.get(), 1);
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn item_error_answers_only_the_offending_job() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(metrics, 64, 64));
        let (tx_ok, rx_ok) = mpsc::channel();
        let (tx_bad, rx_bad) = mpsc::channel();
        queue.submit(job(pair_items(2, 4), tx_ok)).unwrap();
        let bad_item = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Manhattan,
                threshold: None,
                band: None,
                backend: BackendId::DigitalExact,
            },
            p: vec![0.0].into(),
            q: vec![0.0, 1.0].into(),
        };
        queue.submit(job(vec![bad_item], tx_bad)).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let ok = rx_ok.recv_timeout(Duration::from_secs(10)).unwrap();
        let bad = rx_bad.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(ok.body, ResponseBody::Batch { .. }));
        assert!(matches!(
            bad.body,
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn knn_item_weighs_its_training_set_at_admission() {
        use crate::protocol::{Request, TrainInstance};
        let store = crate::datasets::DatasetStore::new(u64::MAX);
        let knn = |n: usize| {
            let req = Request::Knn {
                kind: DistanceKind::Manhattan,
                k: 1,
                query: vec![0.0],
                train: (0..n)
                    .map(|i| TrainInstance {
                        label: i,
                        series: vec![i as f64],
                    })
                    .collect(),
                dataset: None,
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            };
            decompose(req, &store).unwrap().unwrap().items
        };
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(Arc::clone(&metrics), 4, 4);
        let (tx, _rx) = mpsc::channel();
        // One pair item queued; a 4-instance kNN item would make 5 > 4.
        queue.submit(job(pair_items(1, 4), tx.clone())).unwrap();
        assert!(queue.submit(job(knn(4), tx.clone())).is_err());
        queue.submit(job(knn(3), tx)).unwrap();
        assert_eq!(queue.queued_items(), 4);
        assert_eq!(metrics.shed.get(), 1);
    }

    #[test]
    fn decomposed_knn_round_trips_through_dispatch() {
        use crate::protocol::{Request, TrainInstance};
        // Banded DTW: the item runs the pruned scan, whose partition of
        // the two instances reaches the metrics.
        let req = Request::Knn {
            kind: DistanceKind::Dtw,
            k: 1,
            query: vec![0.0, 0.1],
            train: vec![
                TrainInstance {
                    label: 4,
                    series: vec![0.0, 0.0],
                },
                TrainInstance {
                    label: 9,
                    series: vec![5.0, 5.0],
                },
            ],
            dataset: None,
            threshold: None,
            band: Some(1),
            deadline_ms: None,
            accuracy: None,
        };
        let store = crate::datasets::DatasetStore::new(u64::MAX);
        let d = decompose(req, &store).unwrap().unwrap();
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(Arc::clone(&metrics), 64, 64));
        let (tx, rx) = mpsc::channel();
        queue
            .submit(Job {
                id: 77,
                items: d.items,
                assemble: d.assemble,
                reply: ReplySink::Channel(tx),
                deadline: None,
                enqueued: Instant::now(),
                route: None,
                lease: None,
            })
            .unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(reply.id, 77);
        assert!(matches!(
            reply.body,
            ResponseBody::Knn {
                label: 4,
                nearest_index: 0,
                ..
            }
        ));
        // Instance 1's LB_Keogh (9.8) exceeds instance 0's distance (0.1).
        assert_eq!(metrics.knn_cascade.full_dtw.get(), 1);
        assert_eq!(metrics.knn_cascade.pruned_keogh.get(), 1);
        assert_eq!(
            metrics.batch_items.get(),
            2,
            "a kNN item weighs its training set"
        );
        queue.begin_drain();
        handle.join().unwrap();
    }
}
