//! Source waveforms and recorded traces.

use std::sync::Arc;

/// A time-dependent source value.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// 0 until `delay`, then `level` (with a linear `rise` to avoid
    /// discontinuities that stall Newton).
    Step {
        /// Final level, V.
        level: f64,
        /// Time at which the edge starts, s.
        delay: f64,
        /// Rise time of the edge, s.
        rise: f64,
    },
    /// Piecewise-linear waveform given as `(time, value)` breakpoints
    /// (sorted by time; constant extrapolation outside the range).
    Pwl(Vec<(f64, f64)>),
    /// Periodic pulse train.
    Pulse {
        /// Level before/between pulses, V.
        low: f64,
        /// Pulse level, V.
        high: f64,
        /// Delay before the first pulse, s.
        delay: f64,
        /// Pulse width (at `high`), s.
        width: f64,
        /// Period, s.
        period: f64,
        /// Rise/fall time, s.
        edge: f64,
    },
}

impl Waveform {
    /// A step from 0 to `level` at t = 0 with a 10 ps edge — the "rising
    /// edge of the input" from which the paper measures convergence time.
    pub fn step(level: f64) -> Self {
        Waveform::Step {
            level,
            delay: 0.0,
            rise: 10.0e-12,
        }
    }

    /// A delayed step.
    pub fn step_at(level: f64, delay: f64) -> Self {
        Waveform::Step {
            level,
            delay,
            rise: 10.0e-12,
        }
    }

    /// The value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Step { level, delay, rise } => {
                if t <= *delay {
                    0.0
                } else if t >= delay + rise {
                    *level
                } else {
                    level * (t - delay) / rise
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 - t0 <= 0.0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("non-empty").1
            }
            Waveform::Pulse {
                low,
                high,
                delay,
                width,
                period,
                edge,
            } => {
                if t < *delay {
                    return *low;
                }
                let phase = (t - delay) % period;
                if phase < *edge {
                    low + (high - low) * phase / edge
                } else if phase < edge + width {
                    *high
                } else if phase < edge + width + edge {
                    high - (high - low) * (phase - edge - width) / edge
                } else {
                    *low
                }
            }
        }
    }
}

/// A sampled waveform: one value per transient timestep.
///
/// The time axis is reference-counted so that the many traces probed out of
/// one transient run all share a single buffer instead of each cloning it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    times: Arc<[f64]>,
    values: Vec<f64>,
}

impl Trace {
    /// Creates a trace from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn new(times: impl Into<Arc<[f64]>>, values: Vec<f64>) -> Self {
        let times = times.into();
        assert_eq!(times.len(), values.len(), "times and values must align");
        Trace { times, values }
    }

    /// Creates a trace sharing an existing time axis (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn shared(times: Arc<[f64]>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times and values must align");
        Trace { times, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times, s.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The last sample value.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last(&self) -> f64 {
        *self.values.last().expect("trace is not empty")
    }

    /// Value by nearest-sample lookup at time `t`.
    ///
    /// Times outside the recorded range **clamp** to the first/last sample
    /// rather than extrapolating: a trace that converged (and stopped
    /// recording) earlier than its siblings reads as its steady-state value
    /// at any later `t`. Early determination relies on this when comparing
    /// traces of different lengths at the slowest candidate's timescale.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn at_time(&self, t: f64) -> f64 {
        assert!(!self.is_empty(), "at_time on an empty trace");
        let idx = match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.times.len() - 1),
        };
        self.values[idx]
    }

    /// The paper's convergence-time measurement: the first time after which
    /// the trace stays within `fraction` (e.g. `0.001` for 0.1 %) of its
    /// final value. Returns `None` for an empty trace or one that never
    /// settles (final value itself always trivially satisfies the bound, so
    /// `None` only occurs for empty traces).
    ///
    /// For final values very close to zero an absolute floor of
    /// `fraction × 1 mV` is used instead of the relative band.
    pub fn convergence_time(&self, fraction: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let v_final = self.last();
        let band = (v_final.abs() * fraction).max(fraction * 1.0e-3);
        // Walk backwards to the last sample OUTSIDE the band.
        let mut converged_from = 0usize;
        for i in (0..self.len()).rev() {
            if (self.values[i] - v_final).abs() > band {
                converged_from = i + 1;
                break;
            }
        }
        self.times
            .get(converged_from)
            .copied()
            .or_else(|| self.times.last().copied())
    }

    /// Relative error of the final value against `expected`. For an
    /// `expected` of exactly zero, returns the absolute error instead.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn relative_error(&self, expected: f64) -> f64 {
        let v = self.last();
        if expected == 0.0 {
            v.abs()
        } else {
            ((v - expected) / expected).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(0.7);
        assert_eq!(w.value(0.0), 0.7);
        assert_eq!(w.value(1.0), 0.7);
    }

    #[test]
    fn step_edges() {
        let w = Waveform::step_at(2.0, 1.0e-9);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(1.0e-9), 0.0);
        assert_eq!(w.value(2.0e-9), 2.0);
        // Mid-edge is between the rails.
        let mid = w.value(1.0e-9 + 5.0e-12);
        assert!(mid > 0.0 && mid < 2.0);
    }

    #[test]
    fn pwl_interpolates() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert_eq!(w.value(0.5), 1.0);
        assert_eq!(w.value(1.5), 2.0);
        assert_eq!(w.value(5.0), 2.0);
    }

    #[test]
    fn pulse_cycles() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            width: 4.0e-9,
            period: 10.0e-9,
            edge: 1.0e-9,
        };
        assert_eq!(w.value(2.0e-9), 1.0); // inside first pulse
        assert_eq!(w.value(8.0e-9), 0.0); // between pulses
        assert_eq!(w.value(12.0e-9), 1.0); // second pulse
    }

    #[test]
    fn trace_convergence_time_of_exponential() {
        // v(t) = 1 - exp(-t/tau): crosses 0.1 % of final at t = tau*ln(1000).
        let tau = 1.0e-6;
        let times: Vec<f64> = (0..20_000).map(|i| i as f64 * 1.0e-9).collect();
        let values: Vec<f64> = times.iter().map(|t| 1.0 - (-t / tau).exp()).collect();
        let tr = Trace::new(times, values);
        let tc = tr.convergence_time(0.001).expect("non-empty");
        let expected = tau * 1000.0_f64.ln();
        assert!(
            (tc - expected).abs() < 0.05 * expected,
            "convergence {tc:.3e} vs expected {expected:.3e}"
        );
    }

    #[test]
    fn trace_already_settled_converges_at_start() {
        let tr = Trace::new(vec![0.0, 1.0, 2.0], vec![5.0, 5.0, 5.0]);
        assert_eq!(tr.convergence_time(0.001), Some(0.0));
    }

    #[test]
    fn relative_error() {
        let tr = Trace::new(vec![0.0], vec![1.02]);
        assert!((tr.relative_error(1.0) - 0.02).abs() < 1e-12);
        let tr = Trace::new(vec![0.0], vec![0.003]);
        assert_eq!(tr.relative_error(0.0), 0.003);
    }

    #[test]
    fn at_time_nearest_lookup() {
        let tr = Trace::new(vec![0.0, 1.0, 2.0], vec![10.0, 20.0, 30.0]);
        assert_eq!(tr.at_time(1.0), 20.0);
        assert_eq!(tr.at_time(0.4), 20.0); // binary_search Err(1) -> index 1
        assert_eq!(tr.at_time(9.0), 30.0);
    }

    #[test]
    fn at_time_clamps_rather_than_extrapolates() {
        // A short, already-converged trace whose final slope is steeply
        // negative: linear extrapolation past the end would keep falling,
        // but out-of-range reads must clamp to the recorded endpoints.
        let tr = Trace::new(vec![0.0, 1.0], vec![5.0, 1.5]);
        assert_eq!(tr.at_time(4.0), 1.5, "read past the end clamps to last");
        assert_eq!(
            tr.at_time(-1.0),
            5.0,
            "read before the start clamps to first"
        );
    }

    #[test]
    #[should_panic(expected = "at_time on an empty trace")]
    fn at_time_on_empty_trace_panics_cleanly() {
        Trace::new(vec![], vec![]).at_time(0.0);
    }
}
