//! Live push-mode streams on the event loop: the stream registry, the
//! consistent-hash shard ring, and the per-push event fan-out.
//!
//! Every open stream owns one [`StreamPipeline`] — the five fixed
//! incremental stages from `mda-streaming` (window → z-norm and envelope
//! → matcher → tracker) — plus its subscriber list. All state lives on
//! the event-loop thread (streams are connection-born and the loop is
//! single-threaded), so pushes mutate without locking.
//!
//! ## Sharding seam
//!
//! Today one event loop serves every stream; the paper's data-center
//! framing calls for many workers. [`ConsistentRing`] is the groundwork:
//! `open_stream` pins each stream id to a stable shard via consistent
//! hashing (64 virtual nodes per worker), the shard is reported on the
//! open reply, and growing the worker count relocates only ~1/(n+1) of
//! the streams. The routing decision is already explicit and tested; a
//! multi-worker deployment only has to honour it.

use std::collections::HashMap;

use mda_streaming::{
    certified_bound, PruneFrameStats, PushResult, StreamConfig, StreamError, StreamPipeline, Value,
};

use crate::protocol::{ErrorCode, MatchRecord, StreamEventBody, StreamEventState};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over raw bytes — the same digest the replay fingerprint uses,
/// here keying ring positions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Virtual nodes per worker: enough that per-worker load variance stays
/// small without making the ring noticeable to build or search.
const VNODES_PER_WORKER: u32 = 64;

/// A consistent-hash ring mapping stream ids to worker shards.
#[derive(Debug, Clone)]
pub struct ConsistentRing {
    /// `(position, worker)` sorted by position.
    points: Vec<(u64, u32)>,
    workers: u32,
}

impl ConsistentRing {
    /// Builds a ring over `workers` shards (clamped to at least 1).
    pub fn new(workers: u32) -> ConsistentRing {
        let workers = workers.max(1);
        let mut points = Vec::with_capacity((workers * VNODES_PER_WORKER) as usize);
        for worker in 0..workers {
            for replica in 0..VNODES_PER_WORKER {
                let mut key = [0u8; 8];
                key[..4].copy_from_slice(&worker.to_le_bytes());
                key[4..].copy_from_slice(&replica.to_le_bytes());
                points.push((fnv1a(&key), worker));
            }
        }
        points.sort_unstable();
        ConsistentRing { points, workers }
    }

    /// The number of shards the ring routes over.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// The shard owning `stream_id`: the first ring point at or after the
    /// id's hash, wrapping to the smallest point.
    pub fn route(&self, stream_id: u64) -> u32 {
        let h = fnv1a(&stream_id.to_le_bytes());
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        self.points[idx % self.points.len()].1
    }
}

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No open stream has this id (never opened, or already closed).
    UnknownStream(u64),
    /// The stream layer rejected the operation.
    Stream(StreamError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownStream(id) => write!(f, "no open stream with id {id}"),
            RegistryError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl RegistryError {
    /// The wire error code this failure is answered with.
    pub fn code(&self) -> ErrorCode {
        match self {
            RegistryError::UnknownStream(_) => ErrorCode::NotFound,
            RegistryError::Stream(StreamError::InvalidParameter(_)) => ErrorCode::InvalidParameter,
            RegistryError::Stream(_) => ErrorCode::BadRequest,
        }
    }
}

/// The open reply's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenOutcome {
    /// Assigned stream id.
    pub stream_id: u64,
    /// Consistent-hash shard the stream is pinned to.
    pub shard: u32,
    /// Pushes before the first ready frame.
    pub burn_in: u64,
}

/// The push reply's payload plus the events to fan out.
#[derive(Debug)]
pub struct PushOutcome {
    /// Points accepted.
    pub accepted: u64,
    /// Stream epoch after the push.
    pub epoch: u64,
    /// Pushes that evicted an old point (window already full).
    pub evictions: u64,
    /// `(connection token, subscribe request id, event)` per subscriber
    /// per accepted push, in push order.
    pub events: Vec<(u64, u64, StreamEventBody)>,
}

/// The subscribe reply's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeOutcome {
    /// Stream epoch at subscription time.
    pub epoch: u64,
    /// `true` once burn-in has completed.
    pub warm: bool,
}

/// The close reply's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloseOutcome {
    /// Total points the stream accepted.
    pub pushed: u64,
    /// Subscriptions dropped with the stream.
    pub dropped_subscribers: usize,
}

struct StreamEntry {
    pipeline: StreamPipeline,
    burn_in: u64,
    shard: u32,
    /// `(connection token, subscribe request id)`.
    subscribers: Vec<(u64, u64)>,
    /// Cascade outcomes over this stream's warm pushes.
    cascade: PruneFrameStats,
}

/// Every open stream on this event loop.
pub struct StreamRegistry {
    ring: ConsistentRing,
    next_id: u64,
    streams: HashMap<u64, StreamEntry>,
}

impl StreamRegistry {
    /// An empty registry routing over `workers` shards.
    pub fn new(workers: u32) -> StreamRegistry {
        StreamRegistry {
            ring: ConsistentRing::new(workers),
            next_id: 1,
            streams: HashMap::new(),
        }
    }

    /// The shard ring (exposed for routing tests and future workers).
    pub fn ring(&self) -> &ConsistentRing {
        &self.ring
    }

    /// Opens a stream, validating its configuration.
    ///
    /// # Errors
    ///
    /// Typed [`StreamError`] from [`StreamPipeline::new`].
    pub fn open(&mut self, config: StreamConfig) -> Result<OpenOutcome, StreamError> {
        let burn_in = config.window as u64;
        let pipeline = StreamPipeline::new(config)?;
        let stream_id = self.next_id;
        self.next_id += 1;
        let shard = self.ring.route(stream_id);
        self.streams.insert(
            stream_id,
            StreamEntry {
                pipeline,
                burn_in,
                shard,
                subscribers: Vec::new(),
                cascade: PruneFrameStats::default(),
            },
        );
        Ok(OpenOutcome {
            stream_id,
            shard,
            burn_in,
        })
    }

    /// Pushes `points` to a stream, producing one event per subscriber per
    /// accepted push. Non-finite points reject the whole batch **before**
    /// any point is applied, so a failed push never mutates the stream.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownStream`] or a typed stream rejection.
    pub fn push(&mut self, stream_id: u64, points: &[f64]) -> Result<PushOutcome, RegistryError> {
        let entry = self
            .streams
            .get_mut(&stream_id)
            .ok_or(RegistryError::UnknownStream(stream_id))?;
        if let Some(bad) = points.iter().find(|x| !x.is_finite()) {
            return Err(RegistryError::Stream(StreamError::InvalidParameter(
                format!("points must be finite, got {bad}"),
            )));
        }
        let mut outcome = PushOutcome {
            accepted: 0,
            epoch: entry.pipeline.epoch(),
            evictions: 0,
            events: Vec::new(),
        };
        for &x in points {
            let result = entry.pipeline.push(x).map_err(RegistryError::Stream)?;
            outcome.accepted += 1;
            outcome.epoch = result.epoch;
            if result.epoch > entry.burn_in {
                outcome.evictions += 1;
            }
            if let Some(Value::Match(mf)) = result.matcher.value() {
                entry.cascade.record(mf.decision);
            }
            if entry.subscribers.is_empty() {
                continue;
            }
            let event = event_body(stream_id, &result);
            for &(token, sub_id) in &entry.subscribers {
                outcome.events.push((token, sub_id, event.clone()));
            }
        }
        Ok(outcome)
    }

    /// Subscribes `token`'s connection to a stream; events carry `sub_id`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownStream`].
    pub fn subscribe(
        &mut self,
        stream_id: u64,
        token: u64,
        sub_id: u64,
    ) -> Result<SubscribeOutcome, RegistryError> {
        let entry = self
            .streams
            .get_mut(&stream_id)
            .ok_or(RegistryError::UnknownStream(stream_id))?;
        entry.subscribers.push((token, sub_id));
        let epoch = entry.pipeline.epoch();
        Ok(SubscribeOutcome {
            epoch,
            warm: epoch >= entry.burn_in,
        })
    }

    /// Closes a stream, dropping its state and subscriptions.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownStream`].
    pub fn close(&mut self, stream_id: u64) -> Result<CloseOutcome, RegistryError> {
        let entry = self
            .streams
            .remove(&stream_id)
            .ok_or(RegistryError::UnknownStream(stream_id))?;
        Ok(CloseOutcome {
            pushed: entry.pipeline.epoch(),
            dropped_subscribers: entry.subscribers.len(),
        })
    }

    /// Removes every subscription held by a dead connection; returns how
    /// many were dropped.
    pub fn drop_token(&mut self, token: u64) -> usize {
        let mut dropped = 0;
        for entry in self.streams.values_mut() {
            let before = entry.subscribers.len();
            entry.subscribers.retain(|&(t, _)| t != token);
            dropped += before - entry.subscribers.len();
        }
        dropped
    }

    /// The shard a currently-open stream is pinned to.
    pub fn shard_of(&self, stream_id: u64) -> Option<u32> {
        self.streams.get(&stream_id).map(|e| e.shard)
    }

    /// Cascade outcome counts over a stream's warm pushes.
    pub fn cascade_stats(&self, stream_id: u64) -> Option<PruneFrameStats> {
        self.streams.get(&stream_id).map(|e| e.cascade)
    }

    /// Streams currently open.
    pub fn open_count(&self) -> usize {
        self.streams.len()
    }

    /// Active subscriptions across all streams.
    pub fn subscriber_count(&self) -> usize {
        self.streams.values().map(|e| e.subscribers.len()).sum()
    }
}

/// Builds the wire event for one push result.
fn event_body(stream_id: u64, result: &PushResult) -> StreamEventBody {
    let state = match (
        result.stats.value(),
        result.matcher.value(),
        result.tracker.value(),
    ) {
        (Some(Value::Stats(sf)), Some(Value::Match(mf)), Some(Value::Track(tf))) => {
            StreamEventState::Ready {
                mean: sf.mean,
                std_dev: sf.std_dev,
                decision: decision_name(mf.decision).to_string(),
                bound: certified_bound(mf.decision, mf.threshold),
                threshold: mf.threshold,
                motif: tf.motif.map(|b| MatchRecord {
                    epoch: b.epoch,
                    distance: b.distance,
                }),
                discord: tf.discord.map(|b| MatchRecord {
                    epoch: b.epoch,
                    distance: b.distance,
                }),
            }
        }
        _ => match result.tracker {
            mda_streaming::Output::Warming { seen, burn_in } => {
                StreamEventState::Warming { seen, burn_in }
            }
            // The pipeline emits all-or-nothing: a partially ready frame
            // set cannot happen, but degrade to warming rather than panic.
            mda_streaming::Output::Ready(_) => StreamEventState::Warming {
                seen: result.epoch,
                burn_in: result.epoch,
            },
        },
    };
    StreamEventBody {
        stream_id,
        epoch: result.epoch,
        state,
    }
}

fn decision_name(decision: mda_distance::lower_bounds::PruneDecision) -> &'static str {
    use mda_distance::lower_bounds::PruneDecision;
    match decision {
        PruneDecision::PrunedByKim(_) => "pruned_kim",
        PruneDecision::PrunedByKeogh(_) => "pruned_keogh",
        PruneDecision::AbandonedEarly => "abandoned",
        PruneDecision::Computed(_) => "computed",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize) -> StreamConfig {
        StreamConfig {
            window,
            band: 1.min(window.saturating_sub(1)),
            query: (0..window).map(|i| (i as f64 * 0.4).sin()).collect(),
            threshold: None,
        }
    }

    #[test]
    fn ring_routing_is_deterministic_and_covers_every_worker() {
        let ring = ConsistentRing::new(4);
        let mut seen = [false; 4];
        for id in 0..10_000u64 {
            let shard = ring.route(id);
            assert_eq!(shard, ring.route(id), "route must be a pure function");
            assert!(shard < 4);
            seen[shard as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "some worker owns no keys: {seen:?}"
        );
    }

    #[test]
    fn ring_growth_moves_only_a_minority_of_keys_onto_the_new_worker() {
        let before = ConsistentRing::new(4);
        let after = ConsistentRing::new(5);
        let ids: Vec<u64> = (0..10_000).collect();
        let mut moved = 0usize;
        for &id in &ids {
            let (a, b) = (before.route(id), after.route(id));
            if a != b {
                moved += 1;
                // Consistent hashing's defining property: a key only moves
                // when the NEW worker claims it.
                assert_eq!(b, 4, "stream {id} moved {a}→{b}, not to the new worker");
            }
        }
        // Expected share ≈ 1/5 = 2000; allow generous variance, but far
        // below the ~8000 a mod-N rehash would relocate.
        assert!(
            (500..4_000).contains(&moved),
            "moved {moved} of {} keys",
            ids.len()
        );
    }

    #[test]
    fn ring_clamps_to_one_worker() {
        let ring = ConsistentRing::new(0);
        assert_eq!(ring.workers(), 1);
        assert_eq!(ring.route(123), 0);
    }

    #[test]
    fn open_push_subscribe_close_lifecycle() {
        let mut reg = StreamRegistry::new(4);
        let opened = reg.open(config(4)).unwrap();
        assert_eq!(opened.burn_in, 4);
        assert_eq!(opened.shard, reg.ring().route(opened.stream_id));
        assert_eq!(reg.open_count(), 1);

        let sub = reg.subscribe(opened.stream_id, 7, 99).unwrap();
        assert!(!sub.warm, "no pushes yet");
        assert_eq!(reg.subscriber_count(), 1);

        let out = reg.push(opened.stream_id, &[0.0, 1.0, 2.0]).unwrap();
        assert_eq!((out.accepted, out.epoch, out.evictions), (3, 3, 0));
        assert_eq!(out.events.len(), 3, "one event per push per subscriber");
        assert!(out
            .events
            .iter()
            .all(|(t, s, e)| *t == 7 && *s == 99 && e.stream_id == opened.stream_id));
        assert!(matches!(
            out.events[2].2.state,
            StreamEventState::Warming {
                seen: 3,
                burn_in: 4
            }
        ));

        // Crossing burn-in turns events ready; the fifth push evicts.
        let out = reg.push(opened.stream_id, &[3.0, 4.0]).unwrap();
        assert_eq!((out.epoch, out.evictions), (5, 1));
        assert!(matches!(
            out.events[1].2.state,
            StreamEventState::Ready { .. }
        ));
        assert!(reg.subscribe(opened.stream_id, 8, 100).unwrap().warm);
        assert_eq!(reg.shard_of(opened.stream_id), Some(opened.shard));
        assert!(
            reg.cascade_stats(opened.stream_id).unwrap().total() >= 1,
            "warm pushes must run the cascade"
        );

        let closed = reg.close(opened.stream_id).unwrap();
        assert_eq!(closed.pushed, 5);
        assert_eq!(closed.dropped_subscribers, 2);
        assert_eq!(reg.open_count(), 0);
        assert!(matches!(
            reg.push(opened.stream_id, &[0.0]),
            Err(RegistryError::UnknownStream(_))
        ));
    }

    #[test]
    fn non_finite_batch_rejects_before_mutating() {
        let mut reg = StreamRegistry::new(2);
        let id = reg.open(config(4)).unwrap().stream_id;
        reg.push(id, &[1.0, 2.0]).unwrap();
        let err = reg.push(id, &[3.0, f64::NAN, 4.0]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidParameter);
        // Nothing from the poisoned batch landed — not even the leading 3.0.
        let out = reg.push(id, &[5.0]).unwrap();
        assert_eq!(out.epoch, 3);
    }

    #[test]
    fn dead_connection_cleanup_drops_its_subscriptions_only() {
        let mut reg = StreamRegistry::new(2);
        let a = reg.open(config(2)).unwrap().stream_id;
        let b = reg.open(config(2)).unwrap().stream_id;
        reg.subscribe(a, 7, 1).unwrap();
        reg.subscribe(b, 7, 2).unwrap();
        reg.subscribe(b, 8, 3).unwrap();
        assert_eq!(reg.drop_token(7), 2);
        assert_eq!(reg.subscriber_count(), 1);
        let out = reg.push(b, &[0.0]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].0, 8);
    }

    #[test]
    fn stream_ids_are_never_reused() {
        let mut reg = StreamRegistry::new(2);
        let first = reg.open(config(2)).unwrap().stream_id;
        reg.close(first).unwrap();
        let second = reg.open(config(2)).unwrap().stream_id;
        assert_ne!(first, second);
    }
}
