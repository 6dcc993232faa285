//! Modified nodal analysis: system assembly and Newton–Raphson iteration.
//!
//! Unknowns are the non-ground node voltages followed by one branch current
//! per voltage source and per op-amp output. Nonlinear devices (diodes,
//! op-amp saturation) are stamped as linearized companion models around the
//! current Newton iterate; integration uses backward-Euler companion models
//! for capacitors and the op-amp pole.
//!
//! The hot path lives in `MnaSystem`, a persistent workspace built once
//! per analysis: a `StampPlan` (`stamp.rs`) turns per-iteration assembly
//! into `values.fill(0.0)` plus indexed adds, and a structure-caching LU
//! backend (`DenseLu` in `solver.rs` below `SPARSE_THRESHOLD` unknowns,
//! `SparseLu` in `lu.rs` above) factors once and then refactors or even
//! reuses factors across Newton iterations and timesteps. Every solve is
//! allocation-free after construction.

use std::time::Instant;

use crate::error::SpiceError;
use crate::lu::SparseLu;
use crate::netlist::{Netlist, NodeId};
use crate::solver::DenseLu;
use crate::stamp::StampPlan;
use crate::stats::SolveStats;

/// Above this unknown count the sparse solver is used.
const SPARSE_THRESHOLD: usize = 150;

/// Maximum Newton iterations per solve.
const MAX_NEWTON: usize = 200;

/// Per-component Newton update damping, V (helps the diode/comparator
/// nonlinearities converge from poor initial guesses).
const DAMP_LIMIT: f64 = 0.3;

/// Absolute convergence tolerance on the update norm.
const TOL_ABS: f64 = 1.0e-9;

/// Row-wise relative residual gate on solutions obtained through a numeric
/// refactorization: if `|A·x − z|_i` exceeds this fraction of the row's
/// magnitude scale, the frozen pivot order has gone stale and the system is
/// re-factored with a full pivot search.
const RESID_RTOL: f64 = 1.0e-11;

/// Context distinguishing DC from one transient step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepContext<'a> {
    /// DC operating point: capacitors open, op-amp pole ignored.
    Dc,
    /// One implicit step of size `h` from the previous solution.
    Transient {
        /// Step size, s.
        h: f64,
        /// Solution vector at the previous timestep.
        prev: &'a [f64],
        /// Capacitor branch currents at the previous timestep (one slot per
        /// element; unused entries stay 0). `None` selects backward Euler;
        /// `Some` selects the trapezoidal companion model.
        cap_currents: Option<&'a [f64]>,
    },
}

/// The assembled index maps for a netlist.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Unknown index of each non-ground node (`node.index() - 1`).
    node_count: usize,
    /// Branch-current unknown index per element (usize::MAX if none).
    branch_of_element: Vec<usize>,
    /// Total unknowns.
    pub(crate) n_unknowns: usize,
}

impl MnaLayout {
    pub(crate) fn build(netlist: &Netlist) -> Self {
        let node_count = netlist.node_count() - 1;
        let mut next_branch = node_count;
        let branch_of_element = netlist
            .elements()
            .iter()
            .map(|e| {
                if e.has_branch_current() {
                    let idx = next_branch;
                    next_branch += 1;
                    idx
                } else {
                    usize::MAX
                }
            })
            .collect();
        MnaLayout {
            node_count,
            branch_of_element,
            n_unknowns: next_branch,
        }
    }

    /// Unknown index of a node, or `None` for ground.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> Option<usize> {
        if id.is_ground() {
            None
        } else {
            Some(id.index() - 1)
        }
    }

    /// Node voltage from a solution vector (0 for ground).
    #[inline]
    pub(crate) fn voltage(&self, x: &[f64], id: NodeId) -> f64 {
        self.node(id).map_or(0.0, |i| x[i])
    }

    /// Branch-current unknown index of element `ei` (must have one).
    #[inline]
    pub(crate) fn branch_of_element(&self, ei: usize) -> usize {
        let k = self.branch_of_element[ei];
        debug_assert_ne!(k, usize::MAX);
        k
    }

    /// Number of node-voltage unknowns.
    pub(crate) fn node_unknowns(&self) -> usize {
        self.node_count
    }

    /// Number of node-voltage unknowns (for sibling analysis modules).
    pub(crate) fn node_unknowns_public(&self) -> usize {
        self.node_count
    }

    /// A copy of the per-element branch-current indices, rebased so that
    /// index 0 is the first branch current (for recording).
    pub(crate) fn branch_indices(&self) -> Vec<usize> {
        self.branch_of_element
            .iter()
            .map(|&k| {
                if k == usize::MAX {
                    usize::MAX
                } else {
                    k - self.node_count
                }
            })
            .collect()
    }
}

/// Structure-caching linear backend: dense for small systems, sparse above
/// [`SPARSE_THRESHOLD`] unknowns.
#[derive(Debug)]
enum Backend {
    Dense {
        lu: DenseLu,
        /// Dense position (`r·n + c`) of every CSR slot, for scattering.
        dense_pos: Vec<u32>,
    },
    Sparse(SparseLu),
}

/// A persistent per-netlist solver workspace: stamp plan, CSR value array,
/// LU backend and scratch vectors, all allocated once at construction.
#[derive(Debug)]
pub(crate) struct MnaSystem {
    pub(crate) layout: MnaLayout,
    plan: StampPlan,
    backend: Backend,
    /// Assembled CSR values of the current Newton iterate.
    values: Vec<f64>,
    /// Values snapshot at the last (re)factorization, for reuse detection.
    values_at_factor: Vec<f64>,
    have_factor: bool,
    /// Right-hand side.
    z: Vec<f64>,
    /// Linear-solve output (the next Newton iterate before damping).
    xnew: Vec<f64>,
    /// Triangular-solve scratch.
    y: Vec<f64>,
    /// Observability counters, accumulated across every solve.
    pub(crate) stats: SolveStats,
}

impl MnaSystem {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let layout = MnaLayout::build(netlist);
        let plan = StampPlan::build(netlist, &layout);
        let n = layout.n_unknowns;
        let nnz = plan.nnz();
        let backend = if n > SPARSE_THRESHOLD {
            Backend::Sparse(SparseLu::new(n))
        } else {
            let dense_pos = (0..n)
                .flat_map(|r| {
                    plan.col_idx[plan.row_ptr[r]..plan.row_ptr[r + 1]]
                        .iter()
                        .map(move |&c| (r * n + c as usize) as u32)
                })
                .collect();
            Backend::Dense {
                lu: DenseLu::new(n),
                dense_pos,
            }
        };
        let stats = SolveStats {
            n_unknowns: n,
            base_nnz: nnz,
            ..SolveStats::default()
        };
        MnaSystem {
            layout,
            plan,
            backend,
            values: vec![0.0; nnz],
            values_at_factor: vec![0.0; nnz],
            have_factor: false,
            z: vec![0.0; n],
            xnew: vec![0.0; n],
            y: vec![0.0; n],
            stats,
        }
    }

    /// Runs Newton–Raphson to convergence for one analysis point, updating
    /// `x` in place. Allocation-free.
    pub(crate) fn solve_point(
        &mut self,
        netlist: &Netlist,
        x: &mut [f64],
        t: f64,
        ctx: StepContext<'_>,
    ) -> Result<(), SpiceError> {
        let mut last_delta = f64::INFINITY;

        for iteration in 1..=MAX_NEWTON {
            let t0 = Instant::now();
            self.plan.assemble(
                netlist,
                &self.layout,
                x,
                t,
                ctx,
                &mut self.values,
                &mut self.z,
            );
            self.stats.assembly_seconds += t0.elapsed().as_secs_f64();
            self.solve_linear()?;
            self.stats.newton_iterations += 1;

            // Damped update on the voltage unknowns only; branch currents
            // move freely (their scale differs wildly from volts).
            let mut delta: f64 = 0.0;
            for (i, (xi, &xn)) in x.iter_mut().zip(&self.xnew).enumerate() {
                let mut dx = xn - *xi;
                if i < self.layout.node_unknowns() {
                    dx = dx.clamp(-DAMP_LIMIT, DAMP_LIMIT);
                    delta = delta.max(dx.abs());
                }
                *xi += dx;
            }
            last_delta = delta;
            if delta < TOL_ABS {
                self.stats.solve_points += 1;
                return Ok(());
            }
            // Safety valve: a diverging iterate (NaN) is unrecoverable.
            if !delta.is_finite() {
                return Err(SpiceError::NewtonDiverged {
                    time: t,
                    iterations: iteration,
                    residual: delta,
                });
            }
        }
        Err(SpiceError::NewtonDiverged {
            time: t,
            iterations: MAX_NEWTON,
            residual: last_delta,
        })
    }

    /// One linear solve of the assembled system into `self.xnew`, choosing
    /// between factor reuse, numeric refactorization and full factorization.
    fn solve_linear(&mut self) -> Result<(), SpiceError> {
        let reusable = self.have_factor && self.values == self.values_at_factor;
        let mut refactored = false;
        if reusable {
            self.stats.factor_reuses += 1;
        } else {
            let t0 = Instant::now();
            match &mut self.backend {
                Backend::Dense { lu, dense_pos } => {
                    // Dense pivot search is O(n²) against an O(n³)
                    // elimination: a full factorization costs essentially
                    // the same as a replay, so always re-pivot.
                    lu.factor_scattered(dense_pos, &self.values)?;
                    self.stats.full_factorizations += 1;
                    self.stats.factor_nnz = self.layout.n_unknowns * self.layout.n_unknowns;
                }
                Backend::Sparse(lu) => {
                    if lu.is_frozen() && lu.refactor(&self.values) {
                        self.stats.refactorizations += 1;
                        refactored = true;
                    } else {
                        lu.factor(&self.plan.row_ptr, &self.plan.col_idx, &self.values)?;
                        self.stats.full_factorizations += 1;
                    }
                    self.stats.factor_nnz = lu.factor_nnz();
                }
            }
            self.values_at_factor.copy_from_slice(&self.values);
            self.have_factor = true;
            self.stats.factor_seconds += t0.elapsed().as_secs_f64();
        }

        let t1 = Instant::now();
        self.xnew.copy_from_slice(&self.z);
        match &self.backend {
            Backend::Dense { lu, .. } => lu.solve_in_place(&mut self.xnew, &mut self.y),
            Backend::Sparse(lu) => lu.solve_in_place(&mut self.xnew, &mut self.y),
        }

        // A replayed factorization can be numerically stale when the values
        // left the regime the pivots were chosen for (e.g. a diode turning
        // on). Guard with a cheap row-wise residual check and fall back to
        // a full re-pivot. The `!(..)` form routes NaN to the fallback.
        if refactored && !self.residual_ok() {
            self.stats.residual_fallbacks += 1;
            let t2 = Instant::now();
            match &mut self.backend {
                Backend::Sparse(lu) => {
                    lu.factor(&self.plan.row_ptr, &self.plan.col_idx, &self.values)?;
                    self.stats.full_factorizations += 1;
                    self.stats.factor_nnz = lu.factor_nnz();
                }
                Backend::Dense { .. } => unreachable!("refactor is sparse-only"),
            }
            self.values_at_factor.copy_from_slice(&self.values);
            self.stats.factor_seconds += t2.elapsed().as_secs_f64();
            self.xnew.copy_from_slice(&self.z);
            match &self.backend {
                Backend::Sparse(lu) => lu.solve_in_place(&mut self.xnew, &mut self.y),
                Backend::Dense { .. } => unreachable!("refactor is sparse-only"),
            }
        }
        self.stats.solve_seconds += t1.elapsed().as_secs_f64();
        Ok(())
    }

    /// Row-wise residual check of `A·xnew = z` over the assembled CSR.
    // The negated comparison fails the check when the residual is NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn residual_ok(&self) -> bool {
        for r in 0..self.layout.n_unknowns {
            let mut resid = -self.z[r];
            let mut scale = self.z[r].abs();
            for s in self.plan.row_ptr[r]..self.plan.row_ptr[r + 1] {
                let term = self.values[s] * self.xnew[self.plan.col_idx[s] as usize];
                resid += term;
                scale += term.abs();
            }
            if !(resid.abs() <= RESID_RTOL * scale) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn layout_assigns_branches_after_nodes() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(a, b, 1.0);
        net.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        net.voltage_source(b, Netlist::GROUND, Waveform::Dc(2.0));
        let layout = MnaLayout::build(&net);
        assert_eq!(layout.node_unknowns(), 2);
        assert_eq!(layout.n_unknowns, 4);
        assert_eq!(layout.branch_of_element[0], usize::MAX);
        assert_eq!(layout.branch_of_element(1), 2);
        assert_eq!(layout.branch_of_element(2), 3);
    }

    #[test]
    fn voltage_of_ground_is_zero() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.resistor(a, Netlist::GROUND, 1.0);
        let layout = MnaLayout::build(&net);
        let x = vec![3.3];
        assert_eq!(layout.voltage(&x, Netlist::GROUND), 0.0);
        assert_eq!(layout.voltage(&x, a), 3.3);
    }

    #[test]
    fn linear_circuit_reuses_factors_across_iterations() {
        // A purely linear divider assembles identical values every Newton
        // iteration and every solve: exactly one full factorization.
        let mut net = Netlist::new();
        let top = net.node("top");
        let mid = net.node("mid");
        net.voltage_source(top, Netlist::GROUND, Waveform::Dc(1.0));
        net.resistor(top, mid, 1.0e3);
        net.resistor(mid, Netlist::GROUND, 3.0e3);
        let mut sys = MnaSystem::new(&net);
        let mut x = vec![0.0; sys.layout.n_unknowns];
        sys.solve_point(&net, &mut x, 0.0, StepContext::Dc).unwrap();
        let mut x2 = vec![0.0; sys.layout.n_unknowns];
        sys.solve_point(&net, &mut x2, 0.0, StepContext::Dc)
            .unwrap();
        assert_eq!(sys.stats.full_factorizations, 1);
        assert!(sys.stats.factor_reuses >= 1);
        assert_eq!(sys.stats.solve_points, 2);
        assert!((x[1] - 0.75).abs() < 1e-9);
        assert_eq!(x, x2);
    }

    #[test]
    fn stats_record_sizes() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.voltage_source(a, Netlist::GROUND, Waveform::Dc(1.0));
        net.resistor(a, Netlist::GROUND, 1.0e3);
        let sys = MnaSystem::new(&net);
        assert_eq!(sys.stats.n_unknowns, 2);
        // Pattern: (a,a) from R, (a,k)/(k,a) from the source.
        assert_eq!(sys.stats.base_nnz, 3);
    }
}

#[cfg(test)]
mod retune_properties {
    use proptest::prelude::*;

    use super::{MnaSystem, StepContext, SPARSE_THRESHOLD};
    use crate::netlist::{ElementId, Netlist};
    use crate::waveform::Waveform;

    /// A memristor crossbar large enough for the sparse backend, returning
    /// the memristor ids so cases can retune them.
    fn crossbar() -> (Netlist, Vec<ElementId>) {
        let mut net = Netlist::new();
        let n = 12usize;
        let mut nodes = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                nodes.push(net.node(&format!("m{r}_{c}")));
            }
        }
        let at = |r: usize, c: usize| nodes[r * n + c];
        for r in 0..n {
            let drv = net.node(&format!("drv{r}"));
            net.voltage_source(drv, Netlist::GROUND, Waveform::Dc(0.2 + 0.01 * r as f64));
            net.resistor(drv, at(r, 0), 1.0e3);
            net.resistor(at(r, n - 1), Netlist::GROUND, 10.0e3);
        }
        let mut cells = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let ohms = 1.0e3 + 99.0e3 * ((r * 31 + c * 17) % 97) as f64 / 96.0;
                if c + 1 < n {
                    cells.push(net.memristor(at(r, c), at(r, c + 1), ohms));
                }
                if r + 1 < n {
                    cells.push(net.memristor(at(r, c), at(r + 1, c), ohms + 500.0));
                }
            }
        }
        (net, cells)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The satellite invariant of the solver rework: after retuning
        /// memristors (same structure, new values), an in-place numeric
        /// refactorization must produce the same operating point as a cold
        /// pivot-searching factorization of the retuned system.
        #[test]
        fn refactor_after_retune_matches_cold_factorization(
            scales in proptest::collection::vec(0.1f64..10.0, 1..24),
            stride in 1usize..17,
        ) {
            let (mut net, cells) = crossbar();
            let mut sys = MnaSystem::new(&net);
            prop_assert!(sys.layout.n_unknowns > SPARSE_THRESHOLD);
            let mut x = vec![0.0; sys.layout.n_unknowns];
            sys.solve_point(&net, &mut x, 0.0, StepContext::Dc).unwrap();
            prop_assert_eq!(sys.stats.full_factorizations, 1);

            // Retune: scale a scattered subset of cells within the paper's
            // 1 kOhm-100 kOhm tuning range.
            for (i, &scale) in scales.iter().enumerate() {
                let id = cells[(i * stride) % cells.len()];
                net.set_memristor(id, (1.0e3 * scale).clamp(1.0e3, 100.0e3));
            }

            // Warm solve: the changed values must take the refactor path
            // on the frozen structure, never a fresh symbolic analysis.
            let mut x_warm = vec![0.0; sys.layout.n_unknowns];
            sys.solve_point(&net, &mut x_warm, 0.0, StepContext::Dc)
                .unwrap();
            prop_assert!(sys.stats.refactorizations >= 1);
            prop_assert_eq!(sys.stats.full_factorizations, 1);
            prop_assert_eq!(sys.stats.residual_fallbacks, 0);

            // Cold solve of the retuned netlist from scratch.
            let mut cold = MnaSystem::new(&net);
            let mut x_cold = vec![0.0; cold.layout.n_unknowns];
            cold.solve_point(&net, &mut x_cold, 0.0, StepContext::Dc)
                .unwrap();

            for (i, (&w, &c)) in x_warm.iter().zip(&x_cold).enumerate() {
                prop_assert!(
                    (w - c).abs() <= 1.0e-12 * c.abs().max(1.0),
                    "unknown {}: warm {:e} vs cold {:e}", i, w, c
                );
            }
        }
    }
}
