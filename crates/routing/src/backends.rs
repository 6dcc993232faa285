//! The five [`DistanceBackend`] implementations, each wrapping one of the
//! repo's existing answer paths without changing its semantics.

use std::sync::OnceLock;

use mda_acam::OneShotMatcher;
use mda_core::accelerator::FunctionParams;
use mda_core::analog::{TapeCache, TapeCacheStats};
use mda_core::bounds::{acam, behavioural, spice, Bound};
use mda_core::{pe, AcceleratorConfig, DistanceAccelerator};
use mda_distance::dtw::Band;
use mda_distance::lower_bounds::Cascade;
use mda_distance::{
    Distance, DistanceKind, DpScratch, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan,
};
use mda_power::budget::{PowerBudget, PAPER_ELEMENT_RATE};

use crate::backend::{BackendError, BackendId, DistanceBackend, PairRequest};

/// Modeled wall power of the digital host while it computes a DP kernel —
/// one data-center CPU socket's typical sustained draw. The point of the
/// figure is its *order*: digital costs tens of watts where the analog
/// fabric costs single-digit watts (paper Section 4.3), so the router's
/// cheapest-first scan prefers analog whenever the SLA admits it.
pub const DIGITAL_HOST_WATTS: f64 = 65.0;

/// Paper default threshold when a request carries none — the same default
/// `mda-server`'s executor applies.
const DEFAULT_THRESHOLD: f64 = 0.1;

/// The digital DP library, exactly as `mda-server`'s executor drives it:
/// same constructors, same threshold default, same band handling — so its
/// answers are bitwise identical to every pre-routing reply.
#[derive(Debug, Default)]
pub struct DigitalExactBackend;

impl DistanceBackend for DigitalExactBackend {
    fn id(&self) -> BackendId {
        BackendId::DigitalExact
    }

    fn supports(&self, _kind: DistanceKind, _len: usize) -> bool {
        true
    }

    fn bound(&self, _kind: DistanceKind, _len: usize) -> Bound {
        Bound::EXACT
    }

    fn power_w(&self, _kind: DistanceKind, _len: usize) -> f64 {
        DIGITAL_HOST_WATTS
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        let value = match req.kind {
            DistanceKind::Dtw => {
                let mut dtw = Dtw::new();
                if let Some(r) = req.band {
                    dtw = dtw.with_band(Band::SakoeChiba(r));
                }
                dtw.evaluate_with(p, q, scratch)
            }
            DistanceKind::Lcs => Lcs::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Edit => EditDistance::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Hausdorff => Hausdorff::new().evaluate_with(p, q, scratch),
            DistanceKind::Hamming => Hamming::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Manhattan => Manhattan::new().evaluate_with(p, q, scratch),
        }?;
        Ok(value)
    }
}

/// The UCR lower-bound cascade — DTW only. Still exact in value (the
/// cascade only skips work it can prove irrelevant), but entered through
/// the pruning pipeline rather than the plain DP, so the serving tier's
/// subsequence-search path is a first-class backend too.
#[derive(Debug, Default)]
pub struct DigitalPrunedBackend;

impl DistanceBackend for DigitalPrunedBackend {
    fn id(&self) -> BackendId {
        BackendId::DigitalPruned
    }

    fn supports(&self, kind: DistanceKind, _len: usize) -> bool {
        kind == DistanceKind::Dtw
    }

    fn bound(&self, _kind: DistanceKind, _len: usize) -> Bound {
        Bound::EXACT
    }

    fn power_w(&self, _kind: DistanceKind, _len: usize) -> f64 {
        DIGITAL_HOST_WATTS
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        if req.kind != DistanceKind::Dtw {
            return Err(BackendError::Unsupported("non-DTW pruned evaluation"));
        }
        // A radius covering the longer side makes Sakoe–Chiba the full
        // matrix, matching the executor's unbanded default.
        let r = req.band.unwrap_or_else(|| p.len().max(q.len()));
        // With no best-so-far nothing can prune, so the cascade always
        // reaches the DP and carries a computed value.
        let decision = Cascade::new(p, r).decide(q, f64::INFINITY, scratch)?;
        Ok(decision.value())
    }
}

/// The behavioural (array-level) analog accelerator model with the
/// paper-default fabric. Answers come from the trace-free settle path on
/// compiled tapes cached per request shape.
#[derive(Debug)]
pub struct AnalogBackend {
    config: AcceleratorConfig,
    budget: PowerBudget,
    tapes: TapeCache,
}

impl AnalogBackend {
    /// An analog backend over the given fabric configuration.
    pub fn new(config: AcceleratorConfig) -> AnalogBackend {
        AnalogBackend {
            budget: PowerBudget::new(config.clone()),
            tapes: TapeCache::new(config.clone()),
            config,
        }
    }

    /// Hit/miss counters and resident size of the tape cache.
    pub fn tape_stats(&self) -> TapeCacheStats {
        self.tapes.stats()
    }

    /// The fabric's output ceiling in value units: the readout ADC clamps
    /// at ±half its full scale, so answers at or beyond this magnitude may
    /// have saturated.
    pub fn ceiling(&self) -> f64 {
        self.config.adc.full_scale / 2.0 / self.config.voltage_resolution
    }
}

impl Default for AnalogBackend {
    fn default() -> Self {
        AnalogBackend::new(AcceleratorConfig::paper_defaults())
    }
}

impl DistanceBackend for AnalogBackend {
    fn id(&self) -> BackendId {
        BackendId::Analog
    }

    fn supports(&self, _kind: DistanceKind, _len: usize) -> bool {
        true
    }

    fn bound(&self, kind: DistanceKind, len: usize) -> Bound {
        behavioural(kind, len)
    }

    fn power_w(&self, kind: DistanceKind, len: usize) -> f64 {
        self.budget
            .breakdown(kind, len.max(1), PAPER_ELEMENT_RATE)
            .total_w()
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        _scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        let mut acc = DistanceAccelerator::new(self.config.clone());
        acc.configure_with(
            req.kind,
            FunctionParams {
                threshold: req.threshold.unwrap_or(DEFAULT_THRESHOLD),
                weight: 1.0,
                band: match req.band {
                    Some(r) => Band::SakoeChiba(r),
                    None => Band::Full,
                },
            },
        )?;
        Ok(acc.settle(p, q, Some(&self.tapes))?)
    }
}

/// The device-level SPICE-solved PE netlists. Size-gated by
/// [`DistanceBackend::supports`] (matrix netlists grow O(m·n) MNA nodes;
/// the conformance harness's SPICE layer runs exactly this gate), and more
/// expensive than everything else — the host solves the
/// netlist *and* models the fabric — so the router never auto-picks it,
/// but it stays addressable as a first-class backend.
#[derive(Debug)]
pub struct SpiceBackend {
    config: AcceleratorConfig,
    budget: PowerBudget,
}

/// Largest per-side length the matrix-structure netlists (DTW/LCS/EdD/HauD)
/// are solved at.
const SPICE_MATRIX_CAP: usize = 3;
/// Largest length the row-structure netlists (HamD/MD) are solved at.
const SPICE_ROW_CAP: usize = 8;

impl SpiceBackend {
    /// A SPICE backend over the given fabric configuration.
    pub fn new(config: AcceleratorConfig) -> SpiceBackend {
        SpiceBackend {
            budget: PowerBudget::new(config.clone()),
            config,
        }
    }
}

impl Default for SpiceBackend {
    fn default() -> Self {
        SpiceBackend::new(AcceleratorConfig::paper_defaults())
    }
}

impl DistanceBackend for SpiceBackend {
    fn id(&self) -> BackendId {
        BackendId::Spice
    }

    fn supports(&self, kind: DistanceKind, len: usize) -> bool {
        if kind.uses_matrix_structure() {
            len <= SPICE_MATRIX_CAP
        } else {
            len <= SPICE_ROW_CAP
        }
    }

    fn bound(&self, kind: DistanceKind, _len: usize) -> Bound {
        spice(kind)
    }

    fn power_w(&self, kind: DistanceKind, len: usize) -> f64 {
        // The fabric draws its analog budget while the digital host solves
        // the netlist: strictly the most expensive way to get an answer.
        self.budget
            .breakdown(kind, len.max(1), PAPER_ELEMENT_RATE)
            .total_w()
            + DIGITAL_HOST_WATTS
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        _scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        if req.band.is_some() {
            // The device netlists hard-wire the full recurrence fabric.
            return Err(BackendError::Unsupported("banded DTW SPICE netlists"));
        }
        if !self.supports(req.kind, p.len().max(q.len())) {
            return Err(BackendError::Unsupported("netlists above the size cap"));
        }
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        let value = match req.kind {
            DistanceKind::Dtw => pe::dtw::evaluate_dc(&self.config, p, q, 1.0),
            DistanceKind::Lcs => pe::lcs::evaluate_dc(&self.config, p, q, threshold, 1.0),
            DistanceKind::Edit => pe::edit::evaluate_dc(&self.config, p, q, threshold),
            DistanceKind::Hausdorff => pe::hausdorff::evaluate_dc(&self.config, p, q, 1.0),
            DistanceKind::Hamming => {
                pe::hamming::evaluate_dc(&self.config, p, q, threshold, &vec![1.0; p.len()])
            }
            DistanceKind::Manhattan => {
                pe::manhattan::evaluate_dc(&self.config, p, q, &vec![1.0; p.len()])
            }
        }?;
        Ok(value)
    }
}

/// The aCAM one-shot matching plane: thresholded kinds (HamD, thresholded
/// EdD/LCS) answered by interval-comparator match lines instead of a DP
/// iteration. The routed backend models a *tuned* array (closed-loop
/// program-and-verify, so every comparator sits exactly on the digital
/// threshold); variation- and fault-seeded arrays live in the pre-filter
/// and the conformance fault plane, where their one-sided degradation is
/// what's under test.
#[derive(Debug)]
pub struct AcamBackend {
    budget: PowerBudget,
}

/// Largest word the match plane holds: one row of interval cells per
/// element, sized to the paper's array geometry.
const ACAM_MAX_LEN: usize = 1024;

/// Duty factor of a one-shot search against the DP fabric's draw: the
/// match plane fires one precharge/sense cycle per word where the DP
/// fabric clocks a full wavefront, so its time-averaged draw is a small
/// fraction of the analog budget for the same request.
const ACAM_DUTY: f64 = 0.25;

impl AcamBackend {
    /// An aCAM backend drawing against the given fabric configuration's
    /// power model.
    pub fn new(config: AcceleratorConfig) -> AcamBackend {
        AcamBackend {
            budget: PowerBudget::new(config),
        }
    }
}

impl Default for AcamBackend {
    fn default() -> Self {
        AcamBackend::new(AcceleratorConfig::paper_defaults())
    }
}

impl DistanceBackend for AcamBackend {
    fn id(&self) -> BackendId {
        BackendId::Acam
    }

    fn supports(&self, kind: DistanceKind, len: usize) -> bool {
        matches!(
            kind,
            DistanceKind::Hamming | DistanceKind::Edit | DistanceKind::Lcs
        ) && len <= ACAM_MAX_LEN
    }

    fn bound(&self, kind: DistanceKind, len: usize) -> Bound {
        acam(kind, len)
    }

    fn power_w(&self, kind: DistanceKind, len: usize) -> f64 {
        ACAM_DUTY
            * self
                .budget
                .breakdown(kind, len.max(1), PAPER_ELEMENT_RATE)
                .total_w()
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        _scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        if !self.supports(req.kind, p.len().max(q.len())) {
            return Err(BackendError::Unsupported("non-thresholded one-shot kinds"));
        }
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(BackendError::Unsupported(
                "non-finite or negative match thresholds",
            ));
        }
        let value = OneShotMatcher::new(threshold).evaluate(req.kind, p, q)?;
        Ok(value)
    }
}

/// All five backends over one fabric configuration.
#[derive(Debug, Default)]
pub struct BackendSet {
    digital_exact: DigitalExactBackend,
    digital_pruned: DigitalPrunedBackend,
    analog: AnalogBackend,
    acam: AcamBackend,
    spice: SpiceBackend,
}

impl BackendSet {
    /// A set over the given fabric configuration (the digital paths are
    /// configuration-free).
    pub fn new(config: AcceleratorConfig) -> BackendSet {
        BackendSet {
            digital_exact: DigitalExactBackend,
            digital_pruned: DigitalPrunedBackend,
            analog: AnalogBackend::new(config.clone()),
            acam: AcamBackend::new(config.clone()),
            spice: SpiceBackend::new(config),
        }
    }

    /// The backend for an id.
    pub fn get(&self, id: BackendId) -> &dyn DistanceBackend {
        match id {
            BackendId::DigitalExact => &self.digital_exact,
            BackendId::DigitalPruned => &self.digital_pruned,
            BackendId::Analog => &self.analog,
            BackendId::Acam => &self.acam,
            BackendId::Spice => &self.spice,
        }
    }

    /// The analog backend, concretely (for its [`AnalogBackend::ceiling`]).
    pub fn analog(&self) -> &AnalogBackend {
        &self.analog
    }

    /// All five backends in [`BackendId::ALL`] order.
    pub fn all(&self) -> [&dyn DistanceBackend; 5] {
        BackendId::ALL.map(|id| self.get(id))
    }
}

/// The process-wide backend set over the paper-default fabric — what the
/// server's executor dispatches against, so routing state never has to be
/// threaded through the coalescing queue.
pub fn default_backends() -> &'static BackendSet {
    static SET: OnceLock<BackendSet> = OnceLock::new();
    SET.get_or_init(BackendSet::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.4 + phase).sin()).collect()
    }

    #[test]
    fn digital_exact_is_bitwise_identical_to_direct_library_calls() {
        let p = series(16, 0.0);
        let q = series(16, 0.7);
        let mut scratch = DpScratch::new();
        let backend = DigitalExactBackend;
        for kind in DistanceKind::ALL {
            let routed = backend
                .evaluate(&PairRequest::new(kind), &p, &q, &mut scratch)
                .unwrap();
            let direct = mda_distance::boxed_distance(kind).evaluate(&p, &q).unwrap();
            assert_eq!(routed.to_bits(), direct.to_bits(), "{kind}");
        }
    }

    #[test]
    fn digital_pruned_matches_exact_dtw_in_value() {
        let p = series(24, 0.0);
        let q = series(24, 1.1);
        let mut scratch = DpScratch::new();
        let pruned = DigitalPrunedBackend
            .evaluate(&PairRequest::new(DistanceKind::Dtw), &p, &q, &mut scratch)
            .unwrap();
        let exact = Dtw::new().evaluate(&p, &q).unwrap();
        assert!((pruned - exact).abs() < 1e-9, "{pruned} vs {exact}");
        assert!(DigitalPrunedBackend
            .evaluate(&PairRequest::new(DistanceKind::Lcs), &p, &q, &mut scratch)
            .is_err());
    }

    #[test]
    fn analog_answers_stay_within_the_calibrated_bound() {
        let p = series(12, 0.0);
        let q = series(12, 0.5);
        let mut scratch = DpScratch::new();
        let set = default_backends();
        for kind in DistanceKind::ALL {
            let req = PairRequest::new(kind);
            let analog = set
                .get(BackendId::Analog)
                .evaluate(&req, &p, &q, &mut scratch)
                .unwrap();
            let reference = set
                .get(BackendId::DigitalExact)
                .evaluate(&req, &p, &q, &mut scratch)
                .unwrap();
            let bound = behavioural(kind, 12);
            assert!(
                bound.allows(analog, reference),
                "{kind}: {analog} vs {reference}"
            );
        }
    }

    #[test]
    fn power_ordering_prefers_analog_and_penalizes_spice() {
        let set = default_backends();
        for kind in DistanceKind::ALL {
            let analog = set.get(BackendId::Analog).power_w(kind, 128);
            let digital = set.get(BackendId::DigitalExact).power_w(kind, 128);
            let spice = set.get(BackendId::Spice).power_w(kind, 128);
            assert!(analog < digital, "{kind}: {analog} vs {digital}");
            assert!(spice > digital, "{kind}: {spice} vs {digital}");
        }
        // The one-shot match plane undercuts even the DP fabric on the
        // kinds it serves, so the cheapest-first scan reaches it first.
        for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
            let acam_w = set.get(BackendId::Acam).power_w(kind, 128);
            let analog = set.get(BackendId::Analog).power_w(kind, 128);
            assert!(acam_w < analog, "{kind}: {acam_w} vs {analog}");
        }
    }

    #[test]
    fn acam_one_shot_is_bitwise_identical_to_the_digital_kernels() {
        let mut scratch = DpScratch::new();
        let set = default_backends();
        let backend = set.get(BackendId::Acam);
        for (lp, lq) in [(12usize, 12usize), (9, 14), (14, 9)] {
            let p = series(lp, 0.0);
            let q = series(lq, 0.7);
            for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
                if kind == DistanceKind::Hamming && lp != lq {
                    continue;
                }
                for threshold in [None, Some(0.05), Some(0.4)] {
                    let req = PairRequest {
                        kind,
                        threshold,
                        band: None,
                    };
                    let one_shot = backend.evaluate(&req, &p, &q, &mut scratch).unwrap();
                    let digital = set
                        .get(BackendId::DigitalExact)
                        .evaluate(&req, &p, &q, &mut scratch)
                        .unwrap();
                    assert_eq!(
                        one_shot.to_bits(),
                        digital.to_bits(),
                        "{kind} threshold {threshold:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acam_supports_exactly_the_thresholded_kinds() {
        let set = default_backends();
        let backend = set.get(BackendId::Acam);
        for kind in DistanceKind::ALL {
            let thresholded = matches!(
                kind,
                DistanceKind::Hamming | DistanceKind::Edit | DistanceKind::Lcs
            );
            assert_eq!(backend.supports(kind, 16), thresholded, "{kind}");
        }
        assert!(!backend.supports(DistanceKind::Hamming, ACAM_MAX_LEN + 1));
        // Unsupported requests report as such, not as a distance error.
        let p = series(8, 0.0);
        let q = series(8, 0.3);
        let mut scratch = DpScratch::new();
        let err = backend
            .evaluate(&PairRequest::new(DistanceKind::Dtw), &p, &q, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, BackendError::Unsupported(_)), "{err}");
    }

    #[test]
    fn spice_size_gates_mirror_the_conformance_harness() {
        let set = default_backends();
        let spice = set.get(BackendId::Spice);
        assert!(spice.supports(DistanceKind::Dtw, 3));
        assert!(!spice.supports(DistanceKind::Dtw, 4));
        assert!(spice.supports(DistanceKind::Manhattan, 8));
        assert!(!spice.supports(DistanceKind::Manhattan, 9));
    }

    #[test]
    fn analog_ceiling_matches_the_conformance_harness() {
        // 1 V full scale at 20 mV/unit → ±25 units of encodable output.
        assert!((default_backends().analog().ceiling() - 25.0).abs() < 1e-12);
    }
}
