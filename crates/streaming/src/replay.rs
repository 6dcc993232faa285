//! Replay engine: recorded series through the identical pipeline,
//! on a deterministic virtual clock.
//!
//! Replay never consults wall time or randomness — inter-arrival spacing
//! is integer arithmetic on a [`VirtualClock`] — so replaying the same
//! recording twice produces byte-identical reports ([`ReplayOutcome::to_text`])
//! and identical [`fingerprints`](ReplayOutcome::fingerprint). That makes
//! recorded traces (including the conformance trace families) usable as
//! byte-stable regression fixtures and for backtesting threshold choices.

use crate::error::StreamError;
use crate::ops::{BestMatch, Output, PruneFrameStats, Value};
use crate::pipeline::{StreamConfig, StreamPipeline};

/// Replay speed as an exact rational multiplier: `num/den` × recorded
/// rate. `times(2)` replays twice as fast; `real_time()` is 1/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySpeed {
    num: u32,
    den: u32,
}

impl ReplaySpeed {
    /// Recorded rate.
    pub fn real_time() -> Self {
        ReplaySpeed { num: 1, den: 1 }
    }

    /// `n`× faster than recorded.
    ///
    /// # Errors
    ///
    /// Rejects `n = 0`.
    pub fn times(n: u32) -> Result<Self, StreamError> {
        Self::ratio(n, 1)
    }

    /// Exact rational speed `num/den`.
    ///
    /// # Errors
    ///
    /// Rejects a zero numerator or denominator.
    pub fn ratio(num: u32, den: u32) -> Result<Self, StreamError> {
        if num == 0 || den == 0 {
            return Err(StreamError::InvalidParameter(
                "replay speed must be a positive rational".into(),
            ));
        }
        Ok(ReplaySpeed { num, den })
    }

    /// The virtual inter-arrival time for a recorded period.
    fn scaled_period_ns(&self, period_ns: u64) -> u64 {
        // Integer, order-fixed arithmetic: deterministic across runs.
        period_ns.saturating_mul(self.den as u64) / self.num as u64
    }
}

/// A monotonically advancing, fully deterministic clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds elapsed since replay start.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the clock.
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
    }
}

/// Replay parameters: the recorded inter-arrival period and the speed
/// multiplier to apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Recorded spacing between consecutive points, in virtual ns.
    pub period_ns: u64,
    /// Speed multiplier.
    pub speed: ReplaySpeed,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            period_ns: 1_000_000, // 1 ms per recorded point
            speed: ReplaySpeed::real_time(),
        }
    }
}

/// Everything a replay run produced, renderable byte-stably.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Points replayed.
    pub pushes: u64,
    /// Pushes answered while warming.
    pub warming: u64,
    /// Cascade outcome counts over warm pushes.
    pub cascade: PruneFrameStats,
    /// Final motif record.
    pub motif: Option<BestMatch>,
    /// Final discord record.
    pub discord: Option<BestMatch>,
    /// Virtual time consumed by the whole replay.
    pub virtual_elapsed_ns: u64,
    /// FNV-1a digest over every emitted frame (bit patterns, epochs):
    /// two replays of the same recording must agree exactly.
    pub fingerprint: u64,
}

impl ReplayOutcome {
    /// Deterministic text rendering — byte-identical across replays of
    /// the same recording (`{:?}` on `Option<BestMatch>` prints f64 via
    /// the shortest-roundtrip formatter, which is bit-stable).
    pub fn to_text(&self) -> String {
        format!(
            "pushes {}\nwarming {}\ncomputed {}\npruned_kim {}\npruned_keogh {}\nabandoned {}\nmotif {:?}\ndiscord {:?}\nvirtual_elapsed_ns {}\nfingerprint {:016x}\n",
            self.pushes,
            self.warming,
            self.cascade.computed,
            self.cascade.pruned_kim,
            self.cascade.pruned_keogh,
            self.cascade.abandoned,
            self.motif,
            self.discord,
            self.virtual_elapsed_ns,
            self.fingerprint,
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_f64(h: u64, v: f64) -> u64 {
    fnv_u64(h, v.to_bits())
}

fn fnv_best(mut h: u64, b: Option<BestMatch>) -> u64 {
    match b {
        None => fnv_u64(h, 0),
        Some(bm) => {
            h = fnv_u64(h, 1);
            h = fnv_u64(h, bm.epoch);
            fnv_f64(h, bm.distance)
        }
    }
}

fn fnv_output(mut h: u64, out: &Output) -> u64 {
    match out {
        Output::Warming { seen, burn_in } => {
            h = fnv_u64(h, 0);
            h = fnv_u64(h, *seen);
            fnv_u64(h, *burn_in)
        }
        Output::Ready(value) => match value {
            Value::Window(f) => {
                h = fnv_u64(h, 1);
                for &x in f.points.iter() {
                    h = fnv_f64(h, x);
                }
                h
            }
            Value::Stats(f) => {
                h = fnv_u64(h, 2);
                h = fnv_f64(h, f.mean);
                h = fnv_f64(h, f.std_dev);
                h = fnv_u64(h, f.degenerate as u64);
                for &x in f.z.iter() {
                    h = fnv_f64(h, x);
                }
                h
            }
            Value::Envelope(f) => {
                h = fnv_u64(h, 3);
                for &x in f.upper.iter().chain(f.lower.iter()) {
                    h = fnv_f64(h, x);
                }
                h
            }
            Value::Match(f) => {
                h = fnv_u64(h, 4);
                h = fnv_f64(h, f.threshold);
                h = fnv_f64(h, crate::ops::certified_bound(f.decision, f.threshold));
                fnv_best(h, f.best)
            }
            Value::Track(f) => {
                h = fnv_u64(h, 5);
                h = fnv_best(h, f.motif);
                fnv_best(h, f.discord)
            }
        },
    }
}

/// Feeds `points` through a fresh pipeline at the configured speed,
/// digesting every emitted frame.
///
/// # Errors
///
/// Typed [`StreamError`] from construction or a rejected point.
pub fn replay(
    stream: &StreamConfig,
    points: &[f64],
    config: &ReplayConfig,
) -> Result<ReplayOutcome, StreamError> {
    let mut pipeline = StreamPipeline::new(stream.clone())?;
    let mut clock = VirtualClock::new();
    let step = config.speed.scaled_period_ns(config.period_ns);
    let mut outcome = ReplayOutcome {
        pushes: 0,
        warming: 0,
        cascade: PruneFrameStats::default(),
        motif: None,
        discord: None,
        virtual_elapsed_ns: 0,
        fingerprint: FNV_OFFSET,
    };
    for &x in points {
        clock.advance_ns(step);
        let r = pipeline.push(x)?;
        outcome.pushes += 1;
        let mut h = outcome.fingerprint;
        h = fnv_u64(h, r.epoch);
        for out in [&r.window, &r.stats, &r.envelope, &r.matcher, &r.tracker] {
            h = fnv_output(h, out);
        }
        outcome.fingerprint = h;
        if !r.ready() {
            outcome.warming += 1;
            continue;
        }
        if let Some(Value::Match(mf)) = r.matcher.value() {
            outcome.cascade.record(mf.decision);
        }
        if let Some(Value::Track(tf)) = r.tracker.value() {
            outcome.motif = tf.motif;
            outcome.discord = tf.discord;
        }
    }
    outcome.virtual_elapsed_ns = clock.now_ns();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_config() -> StreamConfig {
        StreamConfig {
            window: 12,
            band: 2,
            query: (0..12).map(|i| (i as f64 * 0.6).cos()).collect(),
            threshold: Some(3.0),
        }
    }

    fn recording() -> Vec<f64> {
        (0..150)
            .map(|i| (i as f64 * 0.23).sin() * 1.4 + (i as f64 * 0.011).cos())
            .collect()
    }

    #[test]
    fn replay_is_byte_identical_across_runs() {
        let cfg = ReplayConfig::default();
        let a = replay(&stream_config(), &recording(), &cfg).unwrap();
        let b = replay(&stream_config(), &recording(), &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn speed_scales_virtual_time_exactly() {
        let points = recording();
        let base = replay(
            &stream_config(),
            &points,
            &ReplayConfig {
                period_ns: 1_000,
                speed: ReplaySpeed::real_time(),
            },
        )
        .unwrap();
        let fast = replay(
            &stream_config(),
            &points,
            &ReplayConfig {
                period_ns: 1_000,
                speed: ReplaySpeed::times(4).unwrap(),
            },
        )
        .unwrap();
        assert_eq!(base.virtual_elapsed_ns, points.len() as u64 * 1_000);
        assert_eq!(fast.virtual_elapsed_ns, points.len() as u64 * 250);
        // Speed changes pacing only — the results are identical.
        assert_eq!(base.fingerprint, fast.fingerprint);
        assert_eq!(base.motif, fast.motif);
    }

    #[test]
    fn zero_speed_is_rejected() {
        assert!(ReplaySpeed::times(0).is_err());
        assert!(ReplaySpeed::ratio(1, 0).is_err());
    }
}
