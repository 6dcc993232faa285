//! Live push-mode streams on the event loop: the stream registry and the
//! per-push event fan-out.
//!
//! Every open stream owns one [`StreamPipeline`] — the five fixed
//! incremental stages from `mda-streaming` (window → z-norm and envelope
//! → matcher → tracker) — plus its subscriber list. All state lives on
//! the event-loop thread (streams are connection-born and the loop is
//! single-threaded), so pushes mutate without locking. One event loop
//! serves every stream, so the `shard` on the open reply is always `0`.

use std::collections::HashMap;

use mda_streaming::{
    certified_bound, PruneFrameStats, PushResult, StreamConfig, StreamError, StreamPipeline, Value,
};

use crate::protocol::{ErrorCode, MatchRecord, StreamEventBody, StreamEventState};

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
    /// Shard the stream runs on; always `0`, since one event loop serves
    /// every stream.
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
    /// Cascade outcomes of the batch's warm pushes.
    pub cascade: PruneFrameStats,
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
    /// `(connection token, subscribe request id)`.
    subscribers: Vec<(u64, u64)>,
}

/// Every open stream on this event loop.
pub struct StreamRegistry {
    next_id: u64,
    streams: HashMap<u64, StreamEntry>,
}

impl StreamRegistry {
    /// An empty registry. `_workers` is ignored: one event loop serves
    /// every stream.
    pub fn new(_workers: u32) -> StreamRegistry {
        StreamRegistry {
            next_id: 1,
            streams: HashMap::new(),
        }
    }

    /// Opens a stream, validating its configuration.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Stream`] with the typed [`StreamError`] from
    /// [`StreamPipeline::new`].
    pub fn open(&mut self, config: StreamConfig) -> Result<OpenOutcome, RegistryError> {
        let burn_in = config.window as u64;
        let pipeline = StreamPipeline::new(config).map_err(RegistryError::Stream)?;
        let stream_id = self.next_id;
        self.next_id += 1;
        self.streams.insert(
            stream_id,
            StreamEntry {
                pipeline,
                burn_in,
                subscribers: Vec::new(),
            },
        );
        Ok(OpenOutcome {
            stream_id,
            shard: 0,
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
            cascade: PruneFrameStats::default(),
        };
        for &x in points {
            let result = entry.pipeline.push(x).map_err(RegistryError::Stream)?;
            outcome.accepted += 1;
            outcome.epoch = result.epoch;
            if result.epoch > entry.burn_in {
                outcome.evictions += 1;
            }
            if let Some(Value::Match(mf)) = result.matcher.value() {
                outcome.cascade.record(mf.decision);
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
    fn open_push_subscribe_close_lifecycle() {
        let mut reg = StreamRegistry::new(4);
        let opened = reg.open(config(4)).unwrap();
        assert_eq!(opened.burn_in, 4);
        assert_eq!(opened.shard, 0);
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
        assert_eq!(out.cascade.total(), 2, "both warm pushes run the cascade");
        assert!(matches!(
            out.events[1].2.state,
            StreamEventState::Ready { .. }
        ));
        assert!(reg.subscribe(opened.stream_id, 8, 100).unwrap().warm);

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
