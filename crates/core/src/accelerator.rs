//! The top-level accelerator facade: configure a distance function, push
//! sequences through the DAC array, run the analog fabric, read the result
//! back through the ADC array.

use mda_distance::dtw::Band;
use mda_distance::{
    Distance, DistanceKind, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan, Weights,
};
use mda_spice::Trace;

use crate::analog::cache::{ShapeKey, TapeCache};
use crate::analog::graph::builders;
use crate::analog::{AnalogEngine, AnalogGraph, ErrorModel, Tape};
use crate::array::Structure;
use crate::config::AcceleratorConfig;
use crate::controller::ConfigurationLib;
use crate::encode::VoltageEncoder;
use crate::error::AcceleratorError;
use crate::tiling::TilingPlan;

/// Parameters of the currently configured function.
#[derive(Debug, Clone)]
pub struct FunctionParams {
    /// Match threshold in sequence units (LCS/EdD/HamD).
    pub threshold: f64,
    /// Per-element/pair weight (uniform value; full weight matrices are
    /// programmed through `mda_memristor::tuning` and applied digitally in
    /// the reference comparison).
    pub weight: f64,
    /// Sakoe–Chiba band for DTW.
    pub band: Band,
}

impl Default for FunctionParams {
    fn default() -> Self {
        FunctionParams {
            threshold: 0.1,
            weight: 1.0,
            band: Band::Full,
        }
    }
}

/// Outcome of one accelerated distance computation.
#[derive(Debug, Clone)]
pub struct AnalogOutcome {
    /// The decoded distance value (sequence units / step counts).
    pub value: f64,
    /// The exact digital reference value for the same inputs.
    pub reference: f64,
    /// `|value − reference| / |reference|` (absolute error if the reference
    /// is zero).
    pub relative_error: f64,
    /// The paper's convergence-time measurement, s.
    pub convergence_time_s: f64,
    /// PEs powered for this computation.
    pub active_pes: usize,
    /// Tiling plan (passes > 1 when the sequences exceed the array).
    pub tiling: TilingPlan,
    /// The raw analog output waveform (for early determination).
    pub output_trace: Trace,
}

/// The reconfigurable memristor-based distance accelerator.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DistanceAccelerator {
    config: AcceleratorConfig,
    encoder: VoltageEncoder,
    lib: ConfigurationLib,
    engine: AnalogEngine,
    configured: Option<(DistanceKind, FunctionParams)>,
    /// Count of reconfigurations performed (for reporting).
    reconfigurations: usize,
}

impl DistanceAccelerator {
    /// A new accelerator with the given configuration, not yet configured
    /// for any distance function.
    pub fn new(config: AcceleratorConfig) -> Self {
        DistanceAccelerator {
            encoder: VoltageEncoder::new(config.clone()),
            config,
            lib: ConfigurationLib::paper_library(),
            engine: AnalogEngine::new(),
            configured: None,
            reconfigurations: 0,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The configuration library.
    pub fn library(&self) -> &ConfigurationLib {
        &self.lib
    }

    /// Configures the fabric for `kind` with default parameters.
    ///
    /// # Errors
    ///
    /// Currently infallible for all six kinds; returns `Err` only for
    /// invalid parameter combinations via [`Self::configure_with`].
    pub fn configure(&mut self, kind: DistanceKind) -> Result<(), AcceleratorError> {
        self.configure_with(kind, FunctionParams::default())
    }

    /// Configures the fabric for `kind` with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::InvalidConfig`] for non-positive
    /// thresholds or weights outside the memristor-ratio domain.
    pub fn configure_with(
        &mut self,
        kind: DistanceKind,
        params: FunctionParams,
    ) -> Result<(), AcceleratorError> {
        if !params.threshold.is_finite() || params.threshold < 0.0 {
            return Err(AcceleratorError::InvalidConfig {
                reason: format!("threshold must be non-negative, got {}", params.threshold),
            });
        }
        // Validate the weight maps onto memristor ratios.
        self.lib.configuration(kind).weight_ratios(params.weight)?;
        self.configured = Some((kind, params));
        self.reconfigurations += 1;
        Ok(())
    }

    /// The currently configured function.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::NotConfigured`] before the first
    /// [`Self::configure`].
    pub fn configured_kind(&self) -> Result<DistanceKind, AcceleratorError> {
        self.configured
            .as_ref()
            .map(|(k, _)| *k)
            .ok_or(AcceleratorError::NotConfigured)
    }

    /// Number of reconfigurations performed so far.
    pub fn reconfigurations(&self) -> usize {
        self.reconfigurations
    }

    /// The digital reference for the configured function (used for the
    /// relative-error measurement and available to applications that want
    /// to cross-check).
    fn reference_distance(
        kind: DistanceKind,
        params: &FunctionParams,
        p: &[f64],
        q: &[f64],
    ) -> Result<f64, AcceleratorError> {
        let weights = Weights::Uniform;
        let d: Box<dyn Distance + Send + Sync> = match kind {
            DistanceKind::Dtw => Box::new(Dtw::new().with_band(params.band).with_weights(weights)),
            DistanceKind::Lcs => Box::new(Lcs::new(params.threshold)),
            DistanceKind::Edit => Box::new(EditDistance::new(params.threshold)),
            DistanceKind::Hausdorff => Box::new(Hausdorff::new()),
            DistanceKind::Hamming => Box::new(Hamming::new(params.threshold)),
            DistanceKind::Manhattan => Box::new(Manhattan::new()),
        };
        let mut v = d.evaluate(p, q)?;
        if (params.weight - 1.0).abs() > 1e-12 {
            // Uniform non-unit weight scales every function linearly.
            v *= params.weight;
        }
        Ok(v)
    }

    /// The configured function, the digital reference (which also
    /// validates the shapes) and the DAC-encoded inputs.
    fn encode_inputs(&self, p: &[f64], q: &[f64]) -> Result<Encoded<'_>, AcceleratorError> {
        let (kind, params) = self
            .configured
            .as_ref()
            .ok_or(AcceleratorError::NotConfigured)?;
        // Validate inputs via the digital reference first (shape errors).
        let reference = Self::reference_distance(*kind, params, p, q)?;
        Ok(Encoded {
            kind: *kind,
            params,
            reference,
            p_volts: self.encoder.encode(p)?,
            q_volts: self.encoder.encode(q)?,
        })
    }

    /// The analog graph of the configured function over encoded inputs.
    fn build_graph(&self, enc: &Encoded<'_>) -> AnalogGraph {
        let (params, p_volts, q_volts) = (enc.params, &enc.p_volts, &enc.q_volts);
        let thr_volts = self.config.value_to_voltage(params.threshold);
        let mut errors = ErrorModel::new(self.config.noise_seed);
        let uniform = || vec![params.weight; p_volts.len().min(q_volts.len())];
        match enc.kind {
            DistanceKind::Dtw => builders::dtw(
                &self.config,
                p_volts,
                q_volts,
                params.weight,
                params.band,
                &mut errors,
            ),
            DistanceKind::Lcs => builders::lcs(
                &self.config,
                p_volts,
                q_volts,
                thr_volts,
                params.weight,
                &mut errors,
            ),
            DistanceKind::Edit => {
                builders::edit(&self.config, p_volts, q_volts, thr_volts, &mut errors)
            }
            DistanceKind::Hausdorff => {
                builders::hausdorff(&self.config, p_volts, q_volts, params.weight, &mut errors)
            }
            DistanceKind::Hamming => builders::hamming(
                &self.config,
                p_volts,
                q_volts,
                thr_volts,
                &uniform(),
                &mut errors,
            ),
            DistanceKind::Manhattan => {
                builders::manhattan(&self.config, p_volts, q_volts, &uniform(), &mut errors)
            }
        }
    }

    /// ADC read-out and decoding of the settled output voltage.
    fn decode(&self, kind: DistanceKind, volts: f64) -> f64 {
        let quantized = self.config.adc.quantize(volts);
        match kind {
            // Step-counting functions decode in Vstep units.
            DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming => {
                quantized / self.config.v_step
            }
            _ => self.config.voltage_to_value(quantized),
        }
    }

    /// Runs one distance computation through the analog model.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::NotConfigured`] before configuration,
    /// [`AcceleratorError::EncodingRange`] for unencodable values, or
    /// [`AcceleratorError::Distance`] for inputs the function rejects
    /// (empty, length mismatch).
    pub fn compute(&self, p: &[f64], q: &[f64]) -> Result<AnalogOutcome, AcceleratorError> {
        let enc = self.encode_inputs(p, q)?;
        let (kind, params, reference) = (enc.kind, enc.params, enc.reference);
        let sim = self.engine.simulate(&self.build_graph(&enc));
        let value = self.decode(kind, sim.final_voltage);

        let relative_error = if reference.abs() > 1e-12 {
            ((value - reference) / reference).abs()
        } else {
            value.abs()
        };

        let band = if kind == DistanceKind::Dtw {
            Some(params.band)
        } else {
            None
        };
        let structure = Structure::for_kind(kind);
        let tiling = TilingPlan::plan(structure, self.config.array, p.len(), q.len());
        let active_pes = self.config.array.active_pes(kind, p.len(), q.len(), band);

        // Tiling multiplies the wall-clock time by the number of passes.
        let convergence_time_s = sim.convergence_time_s * tiling.passes as f64;

        Ok(AnalogOutcome {
            value,
            reference,
            relative_error,
            convergence_time_s,
            active_pes,
            tiling,
            output_trace: sim.output_trace,
        })
    }

    /// The decoded value of [`Self::compute`] — bitwise — through the
    /// trace-free [`AnalogEngine::settle`], with the same validation,
    /// encoding errors, ADC quantization and decoding. With `tapes`, the
    /// compiled tape of the request's shape is reused and only its input
    /// sources are re-programmed.
    ///
    /// # Errors
    ///
    /// As [`Self::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `tapes` was built for another fabric configuration.
    pub fn settle(
        &self,
        p: &[f64],
        q: &[f64],
        tapes: Option<&TapeCache>,
    ) -> Result<f64, AcceleratorError> {
        let enc = self.encode_inputs(p, q)?;
        let compile = || Tape::compile(&self.build_graph(&enc));
        let volts = || enc.p_volts.iter().chain(&enc.q_volts).copied();
        let settled = match tapes {
            None => self.engine.settle(&mut compile()),
            Some(cache) => {
                assert!(
                    cache.config() == &self.config,
                    "tape cache built for another fabric configuration"
                );
                let key = self.shape_key(&enc);
                let mut tape = cache.check_out(&key, compile);
                tape.set_inputs(volts());
                let settled = self.engine.settle(&mut tape);
                cache.check_in(key, tape);
                settled
            }
        };
        Ok(self.decode(enc.kind, settled.final_voltage))
    }

    /// The cache key of a request: what its graph's structure depends on.
    fn shape_key(&self, enc: &Encoded<'_>) -> ShapeKey {
        let thresholded = matches!(
            enc.kind,
            DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming
        );
        ShapeKey {
            kind: enc.kind,
            m: enc.p_volts.len(),
            n: enc.q_volts.len(),
            band: if enc.kind == DistanceKind::Dtw {
                enc.params.band
            } else {
                Band::Full
            },
            threshold_bits: if thresholded {
                self.config.value_to_voltage(enc.params.threshold).to_bits()
            } else {
                0
            },
            weight_bits: enc.params.weight.to_bits(),
        }
    }
}

/// A validated request: the configured function, its digital reference
/// and the DAC-encoded inputs.
struct Encoded<'a> {
    kind: DistanceKind,
    params: &'a FunctionParams,
    reference: f64,
    p_volts: Vec<f64>,
    q_volts: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accelerator(kind: DistanceKind) -> DistanceAccelerator {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure(kind).unwrap();
        acc
    }

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0)
            .collect()
    }

    #[test]
    fn unconfigured_compute_fails() {
        let acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        assert!(matches!(
            acc.compute(&[0.0], &[0.0]),
            Err(AcceleratorError::NotConfigured)
        ));
    }

    #[test]
    fn all_six_functions_compute_with_small_error() {
        // Match margins must be decisive relative to the 8-bit DAC LSB
        // (3.9 mV = 0.195 units): element differences are either ~0.02
        // units (clear match at a 0.5-unit threshold) or ~3 units (clear
        // mismatch) — the regime the thresholded functions are designed for.
        let p = series(8, 0.0);
        let q: Vec<f64> = p
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 2 == 0 { v + 0.02 } else { v + 3.0 })
            .collect();
        for kind in DistanceKind::ALL {
            let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
            acc.configure_with(
                kind,
                FunctionParams {
                    threshold: 0.5,
                    ..FunctionParams::default()
                },
            )
            .unwrap();
            let outcome = acc.compute(&p, &q).unwrap();
            assert!(
                outcome.relative_error < 0.25,
                "{kind}: value {} vs reference {} (rel {})",
                outcome.value,
                outcome.reference,
                outcome.relative_error
            );
            assert!(outcome.convergence_time_s > 0.0, "{kind}");
        }
    }

    #[test]
    fn settle_matches_compute_bitwise_with_and_without_cache() {
        let config = AcceleratorConfig::paper_defaults();
        let tapes = TapeCache::new(config.clone());
        let cases = [
            (DistanceKind::Dtw, Band::Full, 6, 6),
            (DistanceKind::Dtw, Band::SakoeChiba(1), 7, 5),
            (DistanceKind::Lcs, Band::Full, 5, 6),
            (DistanceKind::Edit, Band::Full, 4, 6),
            (DistanceKind::Hausdorff, Band::Full, 7, 3),
            (DistanceKind::Hamming, Band::Full, 6, 6),
            (DistanceKind::Manhattan, Band::Full, 6, 6),
        ];
        // Rounds over different values: the second hits every shape; the
        // third changes the threshold, a new shape for LCS/EdD/HamD only.
        for (round, (phase, threshold)) in
            [(0.0, 0.5), (0.9, 0.5), (0.4, 0.3)].into_iter().enumerate()
        {
            for &(kind, band, m, n) in &cases {
                let mut acc = DistanceAccelerator::new(config.clone());
                acc.configure_with(
                    kind,
                    FunctionParams {
                        threshold,
                        band,
                        ..FunctionParams::default()
                    },
                )
                .unwrap();
                let (p, q) = (series(m, phase), series(n, phase + 0.7));
                let want = acc.compute(&p, &q).unwrap().value.to_bits();
                assert_eq!(acc.settle(&p, &q, None).unwrap().to_bits(), want, "{kind}");
                let cached = acc.settle(&p, &q, Some(&tapes)).unwrap();
                assert_eq!(cached.to_bits(), want, "{kind} round {round}");
            }
        }
        let stats = tapes.stats();
        assert_eq!((stats.misses, stats.hits), (10, 11));
        assert_eq!(stats.tapes, 10);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn settle_keeps_compute_errors() {
        let acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        assert!(matches!(
            acc.settle(&[0.0], &[0.0], None),
            Err(AcceleratorError::NotConfigured)
        ));
        let acc = accelerator(DistanceKind::Manhattan);
        assert!(matches!(
            acc.settle(&[0.0], &[0.0, 1.0], None),
            Err(AcceleratorError::Distance(_))
        ));
        let tapes = TapeCache::new(AcceleratorConfig::paper_defaults());
        assert!(matches!(
            acc.settle(&[0.0, 1.0e6], &[0.0, 1.0], Some(&tapes)),
            Err(AcceleratorError::EncodingRange { .. })
        ));
        assert_eq!(tapes.stats().misses, 0);
    }

    #[test]
    fn reconfiguration_switches_function() {
        let mut acc = accelerator(DistanceKind::Manhattan);
        let p = [0.0, 1.0, 2.0];
        let q = [1.0, 1.0, 1.0];
        let md = acc.compute(&p, &q).unwrap();
        assert!((md.reference - 2.0).abs() < 1e-12);
        acc.configure(DistanceKind::Hamming).unwrap();
        let hd = acc.compute(&p, &q).unwrap();
        assert!((hd.reference - 2.0).abs() < 1e-12);
        assert_eq!(acc.reconfigurations(), 2);
    }

    #[test]
    fn length_mismatch_propagates() {
        let acc = accelerator(DistanceKind::Manhattan);
        assert!(matches!(
            acc.compute(&[0.0], &[0.0, 1.0]),
            Err(AcceleratorError::Distance(_))
        ));
    }

    #[test]
    fn banded_dtw_configuration() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure_with(
            DistanceKind::Dtw,
            FunctionParams {
                band: Band::SakoeChiba(2),
                ..FunctionParams::default()
            },
        )
        .unwrap();
        let p = series(12, 0.0);
        let q = series(12, 0.3);
        let outcome = acc.compute(&p, &q).unwrap();
        assert!(outcome.relative_error < 0.25);
        // The band shrinks the active-PE count below the full square.
        assert!(outcome.active_pes < 12 * 12);
    }

    #[test]
    fn tiling_kicks_in_beyond_array_size() {
        let mut config = AcceleratorConfig::paper_defaults();
        config.array = crate::array::ArrayDimensions::new(8, 8);
        let mut acc = DistanceAccelerator::new(config);
        acc.configure(DistanceKind::Manhattan).unwrap();
        let p = series(20, 0.0);
        let q = series(20, 0.4);
        let outcome = acc.compute(&p, &q).unwrap();
        assert_eq!(outcome.tiling.passes, 3); // ceil(20/8)
        assert!(outcome.relative_error < 0.2);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        assert!(acc
            .configure_with(
                DistanceKind::Lcs,
                FunctionParams {
                    threshold: -1.0,
                    ..FunctionParams::default()
                },
            )
            .is_err());
    }

    #[test]
    fn weighted_computation_scales() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure_with(
            DistanceKind::Manhattan,
            FunctionParams {
                weight: 0.5,
                ..FunctionParams::default()
            },
        )
        .unwrap();
        let p = [2.0, 4.0];
        let q = [0.0, 0.0];
        let outcome = acc.compute(&p, &q).unwrap();
        assert!((outcome.reference - 3.0).abs() < 1e-12);
        assert!(outcome.relative_error < 0.1);
    }
}
