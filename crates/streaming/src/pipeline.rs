//! The mining pipeline: window → {z-norm, envelope} → matcher → tracker,
//! five fixed stages stepped in one straight line per push, behind a
//! validated configuration.

use crate::error::StreamError;
use crate::ops::{
    EnvelopeStage, MatcherStage, Output, TrackerStage, Value, WindowStage, ZNormStage,
};

/// Largest accepted window (keeps per-push work and frame sizes sane).
pub const MAX_WINDOW: usize = 1 << 20;

/// Validated configuration for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window length = query length = burn-in.
    pub window: usize,
    /// Sakoe–Chiba band radius for envelopes and DTW.
    pub band: usize,
    /// The query pattern to match (length must equal `window`).
    pub query: Vec<f64>,
    /// Optional pruning threshold (finite, > 0); `None` = unbounded.
    pub threshold: Option<f64>,
}

impl StreamConfig {
    /// Checks every construction-time invariant.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), StreamError> {
        let fail = |msg: String| Err(StreamError::InvalidParameter(msg));
        if self.window == 0 {
            return fail("window must be at least 1".into());
        }
        if self.window > MAX_WINDOW {
            return fail(format!(
                "window {} exceeds maximum {MAX_WINDOW}",
                self.window
            ));
        }
        if self.band > self.window {
            return fail(format!(
                "band radius {} exceeds window {}",
                self.band, self.window
            ));
        }
        if self.query.len() != self.window {
            return fail(format!(
                "query length {} must equal window {}",
                self.query.len(),
                self.window
            ));
        }
        if let Some(bad) = self.query.iter().find(|x| !x.is_finite()) {
            return fail(format!("query values must be finite, got {bad}"));
        }
        if let Some(t) = self.threshold {
            if !t.is_finite() || t <= 0.0 {
                return fail(format!("threshold must be finite and positive, got {t}"));
            }
        }
        Ok(())
    }
}

/// One push's outputs, one typed slot per pipeline stage.
#[derive(Debug)]
pub struct PushResult {
    /// 1-based epoch of this push.
    pub epoch: u64,
    /// Window stage output.
    pub window: Output,
    /// Z-norm stage output.
    pub stats: Output,
    /// Envelope stage output.
    pub envelope: Output,
    /// Matcher stage output.
    pub matcher: Output,
    /// Tracker stage output.
    pub tracker: Output,
}

impl PushResult {
    /// `true` once the window has filled (every slot is ready).
    pub fn ready(&self) -> bool {
        self.window.is_ready()
            && self.stats.is_ready()
            && self.envelope.is_ready()
            && self.matcher.is_ready()
            && self.tracker.is_ready()
    }
}

/// A validated, ready-to-push mining pipeline over one live series.
pub struct StreamPipeline {
    config: StreamConfig,
    epoch: u64,
    window: WindowStage,
    znorm: ZNormStage,
    envelope: EnvelopeStage,
    matcher: MatcherStage,
    tracker: TrackerStage,
}

impl StreamPipeline {
    /// Builds the five-stage pipeline after validating `config`.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] from
    /// [`StreamConfig::validate`].
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(StreamPipeline {
            epoch: 0,
            window: WindowStage::new(config.window),
            znorm: ZNormStage::new(config.window),
            envelope: EnvelopeStage::new(config.window, config.band),
            matcher: MatcherStage::new(&config.query, config.band, config.threshold),
            tracker: TrackerStage::default(),
            config,
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Points pushed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Points required before every stage emits (`= window`).
    pub fn burn_in(&self) -> usize {
        self.config.window
    }

    /// Pushes one point through the five stages.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] for non-finite points (state is
    /// untouched and the epoch does not advance), or a typed kernel error.
    pub fn push(&mut self, point: f64) -> Result<PushResult, StreamError> {
        if !point.is_finite() {
            return Err(StreamError::InvalidParameter(format!(
                "pushed point must be finite, got {point}"
            )));
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.envelope.advance(epoch, point);
        let Some(window) = self.window.push(point) else {
            let warming = Output::Warming {
                seen: epoch,
                burn_in: self.config.window as u64,
            };
            return Ok(PushResult {
                epoch,
                window: warming.clone(),
                stats: warming.clone(),
                envelope: warming.clone(),
                matcher: warming.clone(),
                tracker: warming,
            });
        };
        let stats = self.znorm.frame(&window.points);
        let envelope = self.envelope.frame(&window.points);
        let matched = self.matcher.frame(epoch, &window.points, &envelope)?;
        let tracked = self.tracker.frame(epoch, &matched);
        Ok(PushResult {
            epoch,
            window: Output::Ready(Value::Window(window)),
            stats: Output::Ready(Value::Stats(stats)),
            envelope: Output::Ready(Value::Envelope(envelope)),
            matcher: Output::Ready(Value::Match(matched)),
            tracker: Output::Ready(Value::Track(tracked)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, band: usize) -> StreamConfig {
        StreamConfig {
            window,
            band,
            query: (0..window).map(|i| (i as f64 * 0.5).sin()).collect(),
            threshold: None,
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cases = [
            StreamConfig {
                window: 0,
                band: 0,
                query: vec![],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 3,
                query: vec![0.0, 1.0],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, f64::NAN],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, 1.0],
                threshold: Some(0.0),
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, 1.0],
                threshold: Some(f64::INFINITY),
            },
        ];
        for c in cases {
            assert!(
                matches!(
                    StreamPipeline::new(c.clone()),
                    Err(StreamError::InvalidParameter(_))
                ),
                "{c:?}"
            );
        }
    }

    #[test]
    fn pipeline_warms_then_emits_every_frame() {
        let mut p = StreamPipeline::new(config(4, 1)).unwrap();
        for i in 0..3 {
            let r = p.push(i as f64 * 0.3).unwrap();
            assert!(!r.ready(), "epoch {} must still be warming", r.epoch);
            assert!(matches!(r.tracker, Output::Warming { burn_in: 4, .. }));
        }
        let r = p.push(0.9).unwrap();
        assert!(r.ready(), "burn-in complete at epoch 4");
        assert_eq!(r.epoch, 4);
        assert!(matches!(r.window.value(), Some(Value::Window(_))));
        assert!(matches!(r.stats.value(), Some(Value::Stats(_))));
        assert!(matches!(r.envelope.value(), Some(Value::Envelope(_))));
        assert!(matches!(r.matcher.value(), Some(Value::Match(_))));
        assert!(matches!(r.tracker.value(), Some(Value::Track(_))));
    }

    #[test]
    fn nan_push_is_typed_and_stateless() {
        let mut p = StreamPipeline::new(config(2, 0)).unwrap();
        p.push(1.0).unwrap();
        let err = p.push(f64::NAN).unwrap_err();
        assert!(matches!(err, StreamError::InvalidParameter(_)));
        assert_eq!(p.epoch(), 1);
        // The stream keeps working after a rejected point.
        let r = p.push(2.0).unwrap();
        assert!(r.ready());
    }
}
