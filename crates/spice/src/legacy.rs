//! Frozen pre-optimization reference solver path.
//!
//! This module preserves, verbatim, the original per-iteration assembly and
//! consuming LU solvers that predate the structure-caching MNA core (see
//! the crate docs): a fresh matrix is allocated and a full pivoted
//! factorization performed on every Newton iteration of every timestep.
//! It exists solely as a golden baseline — the equivalence test suite and
//! the `spice_solver` bench compare the optimized core against it — and
//! must not be changed when the hot path evolves.

use std::collections::HashMap;

use crate::elements::Element;
use crate::error::SpiceError;
use crate::mna::{MnaLayout, StepContext};
use crate::netlist::{Netlist, NodeId};
use crate::transient::{Integration, TransientResult, TransientSpec};

/// The original dense row-major matrix with a consuming pivoted solve.
struct LegacyDense {
    n: usize,
    data: Vec<f64>,
}

impl LegacyDense {
    fn zeros(n: usize) -> Self {
        LegacyDense {
            n,
            data: vec![0.0; n * n],
        }
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += v;
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    fn solve(mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let n = self.n;
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot.
            let mut max_row = k;
            let mut max_val = self.at(perm[k], k).abs();
            for (r, &pr) in perm.iter().enumerate().skip(k + 1) {
                let v = self.at(pr, k).abs();
                if v > max_val {
                    max_val = v;
                    max_row = r;
                }
            }
            if max_val < 1.0e-300 {
                return Err(SpiceError::SingularMatrix { pivot: k });
            }
            perm.swap(k, max_row);
            let pk = perm[k];
            let pivot = self.at(pk, k);
            for &pr in perm.iter().skip(k + 1) {
                let factor = self.at(pr, k) / pivot;
                if factor == 0.0 {
                    continue;
                }
                self.data[pr * n + k] = factor;
                for c in (k + 1)..n {
                    let sub = factor * self.at(pk, c);
                    self.data[pr * n + c] -= sub;
                }
            }
        }

        // Forward substitution (L has unit diagonal, factors stored below).
        let mut y = vec![0.0; n];
        for k in 0..n {
            let mut sum = x[perm[k]];
            for (c, &yc) in y.iter().enumerate().take(k) {
                sum -= self.at(perm[k], c) * yc;
            }
            y[k] = sum;
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut sum = y[k];
            for (c, &xc) in x.iter().enumerate().take(n).skip(k + 1) {
                sum -= self.at(perm[k], c) * xc;
            }
            x[k] = sum / self.at(perm[k], k);
        }
        Ok(x)
    }
}

/// The original hash-row sparse matrix with a consuming pivoted solve.
struct LegacySparse {
    n: usize,
    rows: Vec<HashMap<usize, f64>>,
}

impl LegacySparse {
    fn zeros(n: usize) -> Self {
        LegacySparse {
            n,
            rows: vec![HashMap::new(); n],
        }
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        *self.rows[r].entry(c).or_insert(0.0) += v;
    }

    fn solve(mut self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let n = self.n;
        let mut rhs = b.to_vec();
        // row_of[k] = original row index eliminated at step k.
        let mut active: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot: among active rows, pick the one whose |A[r][k]| is
            // largest (partial pivoting on the k-th column).
            let mut best: Option<(usize, f64)> = None;
            for (pos, &r) in active.iter().enumerate().skip(k) {
                if let Some(&v) = self.rows[r].get(&k) {
                    let a = v.abs();
                    if best.is_none_or(|(_, bv)| a > bv) {
                        best = Some((pos, a));
                    }
                }
            }
            let (pos, mag) = best.ok_or(SpiceError::SingularMatrix { pivot: k })?;
            if mag < 1.0e-300 {
                return Err(SpiceError::SingularMatrix { pivot: k });
            }
            active.swap(k, pos);
            let prow = active[k];
            let pivot = self.rows[prow][&k];

            // Eliminate column k from the remaining active rows.
            let pivot_row: Vec<(usize, f64)> = self.rows[prow]
                .iter()
                .filter(|(&c, _)| c > k)
                .map(|(&c, &v)| (c, v))
                .collect();
            let pivot_rhs = rhs[prow];
            for &r in active.iter().skip(k + 1) {
                let Some(&a_rk) = self.rows[r].get(&k) else {
                    continue;
                };
                let factor = a_rk / pivot;
                self.rows[r].remove(&k);
                for &(c, v) in &pivot_row {
                    let e = self.rows[r].entry(c).or_insert(0.0);
                    *e -= factor * v;
                    if e.abs() < 1.0e-300 {
                        self.rows[r].remove(&c);
                    }
                }
                rhs[r] -= factor * pivot_rhs;
            }
        }

        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let r = active[k];
            let mut sum = rhs[r];
            for (&c, &v) in &self.rows[r] {
                if c > k {
                    sum -= v * x[c];
                }
            }
            x[k] = sum / self.rows[r][&k];
        }
        Ok(x)
    }
}

/// The original per-iteration backend abstraction.
trait LinearBackend {
    fn add(&mut self, r: usize, c: usize, v: f64);
    fn solve_system(self, b: &[f64]) -> Result<Vec<f64>, SpiceError>;
}

impl LinearBackend for LegacyDense {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        LegacyDense::add(self, r, c, v);
    }
    fn solve_system(self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        self.solve(b)
    }
}

impl LinearBackend for LegacySparse {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        LegacySparse::add(self, r, c, v);
    }
    fn solve_system(self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        self.solve(b)
    }
}

const SPARSE_THRESHOLD: usize = 150;
const MAX_NEWTON: usize = 200;
const DAMP_LIMIT: f64 = 0.3;
const TOL_ABS: f64 = 1.0e-9;

/// Stamps every element for the given iterate `x` and context, then solves
/// the linearized system once.
fn assemble_and_solve<B: LinearBackend>(
    mut a: B,
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    t: f64,
    ctx: StepContext<'_>,
) -> Result<Vec<f64>, SpiceError> {
    let mut z = vec![0.0; layout.n_unknowns];

    let stamp_conductance = |a: &mut B, na: NodeId, nb: NodeId, g: f64| {
        if let Some(i) = layout.node(na) {
            a.add(i, i, g);
            if let Some(j) = layout.node(nb) {
                a.add(i, j, -g);
            }
        }
        if let Some(j) = layout.node(nb) {
            a.add(j, j, g);
            if let Some(i) = layout.node(na) {
                a.add(j, i, -g);
            }
        }
    };

    for (ei, e) in netlist.elements().iter().enumerate() {
        match e {
            Element::Resistor { a: na, b: nb, ohms }
            | Element::Memristor { a: na, b: nb, ohms } => {
                stamp_conductance(&mut a, *na, *nb, 1.0 / ohms);
            }
            Element::Switch {
                a: na,
                b: nb,
                state,
                ron,
                roff,
            } => {
                let r = match state {
                    crate::elements::SwitchState::Closed => *ron,
                    crate::elements::SwitchState::Open => *roff,
                };
                stamp_conductance(&mut a, *na, *nb, 1.0 / r);
            }
            Element::Capacitor {
                a: na,
                b: nb,
                farads,
            } => {
                if let StepContext::Transient {
                    h,
                    prev,
                    cap_currents,
                } = ctx
                {
                    let v_prev = layout.voltage(prev, *na) - layout.voltage(prev, *nb);
                    let (g, ieq) = match cap_currents {
                        Some(ic) => {
                            let g = 2.0 * farads / h;
                            (g, g * v_prev + ic[ei])
                        }
                        None => {
                            let g = farads / h;
                            (g, g * v_prev)
                        }
                    };
                    stamp_conductance(&mut a, *na, *nb, g);
                    if let Some(i) = layout.node(*na) {
                        z[i] += ieq;
                    }
                    if let Some(j) = layout.node(*nb) {
                        z[j] -= ieq;
                    }
                }
                // DC: capacitor is open — no stamp.
            }
            Element::VoltageSource { p, n, waveform } => {
                let k = layout.branch_of_element(ei);
                if let Some(i) = layout.node(*p) {
                    a.add(i, k, 1.0);
                    a.add(k, i, 1.0);
                }
                if let Some(j) = layout.node(*n) {
                    a.add(j, k, -1.0);
                    a.add(k, j, -1.0);
                }
                z[k] = waveform.value(t);
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let v = layout.voltage(x, *anode) - layout.voltage(x, *cathode);
                let (i0, gd) = model.current_and_derivative(v);
                stamp_conductance(&mut a, *anode, *cathode, gd);
                let ieq = i0 - gd * v;
                if let Some(i) = layout.node(*anode) {
                    z[i] -= ieq;
                }
                if let Some(j) = layout.node(*cathode) {
                    z[j] += ieq;
                }
            }
            Element::VcSwitch {
                a: na,
                b: nb,
                ctrl,
                threshold,
                active_high,
                ron,
                roff,
                vs,
            } => {
                let vc = layout.voltage(x, *ctrl);
                let vab = layout.voltage(x, *na) - layout.voltage(x, *nb);
                let (g, dg) = crate::elements::vc_switch_conductance(
                    vc,
                    *threshold,
                    *active_high,
                    *ron,
                    *roff,
                    *vs,
                );
                stamp_conductance(&mut a, *na, *nb, g);
                let kc = vab * dg;
                if let Some(c) = layout.node(*ctrl) {
                    if let Some(i) = layout.node(*na) {
                        a.add(i, c, kc);
                    }
                    if let Some(j) = layout.node(*nb) {
                        a.add(j, c, -kc);
                    }
                }
                let ieq = -kc * vc;
                if let Some(i) = layout.node(*na) {
                    z[i] -= ieq;
                }
                if let Some(j) = layout.node(*nb) {
                    z[j] += ieq;
                }
            }
            Element::Opamp {
                inp,
                inn,
                out,
                model,
            } => {
                let k = layout.branch_of_element(ei);
                if let Some(o) = layout.node(*out) {
                    a.add(o, k, 1.0);
                }
                let vd = layout.voltage(x, *inp) - layout.voltage(x, *inn);
                let (sat0, dsat) = model.target_and_derivative(vd);
                match ctx {
                    StepContext::Dc => {
                        if let Some(o) = layout.node(*out) {
                            a.add(k, o, 1.0);
                        }
                        if let Some(i) = layout.node(*inp) {
                            a.add(k, i, -dsat);
                        }
                        if let Some(j) = layout.node(*inn) {
                            a.add(k, j, dsat);
                        }
                        z[k] = sat0 - dsat * vd;
                    }
                    StepContext::Transient { h, prev, .. } => {
                        let tau = model.pole_tau();
                        let alpha = h / tau;
                        let vout_prev = layout.voltage(prev, *out);
                        if let Some(o) = layout.node(*out) {
                            a.add(k, o, 1.0 + alpha);
                        }
                        if let Some(i) = layout.node(*inp) {
                            a.add(k, i, -alpha * dsat);
                        }
                        if let Some(j) = layout.node(*inn) {
                            a.add(k, j, alpha * dsat);
                        }
                        z[k] = vout_prev + alpha * (sat0 - dsat * vd);
                    }
                }
            }
        }
    }
    a.solve_system(&z)
}

/// The original Newton–Raphson loop: a fresh matrix and a full pivoted
/// factorization per iteration.
fn solve_point(
    netlist: &Netlist,
    layout: &MnaLayout,
    initial: &[f64],
    t: f64,
    ctx: StepContext<'_>,
) -> Result<Vec<f64>, SpiceError> {
    let n = layout.n_unknowns;
    let mut x = initial.to_vec();
    let mut last_delta = f64::INFINITY;

    for iteration in 1..=MAX_NEWTON {
        let x_new = if n > SPARSE_THRESHOLD {
            assemble_and_solve(LegacySparse::zeros(n), netlist, layout, &x, t, ctx)?
        } else {
            assemble_and_solve(LegacyDense::zeros(n), netlist, layout, &x, t, ctx)?
        };
        let mut delta: f64 = 0.0;
        for i in 0..n {
            let mut dx = x_new[i] - x[i];
            if i < layout.node_unknowns() {
                dx = dx.clamp(-DAMP_LIMIT, DAMP_LIMIT);
                delta = delta.max(dx.abs());
            }
            x[i] += dx;
        }
        last_delta = delta;
        if delta < TOL_ABS {
            return Ok(x);
        }
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

/// The original DC operating-point analysis.
///
/// # Errors
///
/// Propagates solver failures exactly as the pre-optimization code did.
pub fn solve_dc(netlist: &Netlist) -> Result<Vec<f64>, SpiceError> {
    let layout = MnaLayout::build(netlist);
    let initial = vec![0.0; layout.n_unknowns];
    let x = solve_point(netlist, &layout, &initial, 0.0, StepContext::Dc)?;
    let mut voltages = vec![0.0; netlist.node_count()];
    voltages[1..].copy_from_slice(&x[..netlist.node_count() - 1]);
    Ok(voltages)
}

fn layout_voltage(x: &[f64], id: NodeId) -> f64 {
    if id.is_ground() {
        0.0
    } else {
        x[id.index() - 1]
    }
}

/// The original fixed-step transient driver, repackaged into the current
/// [`TransientResult`] so traces compare index-for-index with the
/// optimized core.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidAnalysis`] for a degenerate spec, or
/// propagates solver errors from individual steps.
pub fn run_transient(
    netlist: &Netlist,
    spec: &TransientSpec,
) -> Result<TransientResult, SpiceError> {
    if spec.step <= 0.0 || spec.stop <= 0.0 || spec.step > spec.stop {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("bad transient spec: stop {} step {}", spec.stop, spec.step),
        });
    }
    let layout = MnaLayout::build(netlist);
    let mut x = if spec.start_from_dc {
        let dc = solve_dc(netlist)?;
        let mut x0 = vec![0.0; layout.n_unknowns];
        for (node, v) in dc.iter().enumerate().skip(1) {
            x0[node - 1] = *v;
        }
        x0
    } else {
        vec![0.0; layout.n_unknowns]
    };

    let steps = (spec.stop / spec.step).round() as usize;
    let node_count = netlist.node_count();
    let n_currents = layout.n_unknowns - (node_count - 1);
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity((steps + 1) * node_count);
    let mut currents = Vec::with_capacity((steps + 1) * n_currents);

    let record = |x: &[f64], voltages: &mut Vec<f64>, currents: &mut Vec<f64>| {
        voltages.push(0.0); // ground
        voltages.extend_from_slice(&x[..node_count - 1]);
        currents.extend_from_slice(&x[node_count - 1..]);
    };

    times.push(0.0);
    record(&x, &mut voltages, &mut currents);

    let mut prev = x.clone();
    let trapezoidal = spec.integration == Integration::Trapezoidal;
    let mut cap_i = vec![0.0f64; netlist.element_count()];
    for s in 1..=steps {
        let t = s as f64 * spec.step;
        let use_trap = trapezoidal && s > 1;
        let ctx = StepContext::Transient {
            h: spec.step,
            prev: &prev,
            cap_currents: use_trap.then_some(&cap_i[..]),
        };
        x = solve_point(netlist, &layout, &x, t, ctx)?;
        if trapezoidal {
            for (ei, e) in netlist.elements().iter().enumerate() {
                if let Element::Capacitor { a, b, farads } = e {
                    let v_new = layout_voltage(&x, *a) - layout_voltage(&x, *b);
                    let v_old = layout_voltage(&prev, *a) - layout_voltage(&prev, *b);
                    cap_i[ei] = if use_trap {
                        2.0 * farads / spec.step * (v_new - v_old) - cap_i[ei]
                    } else {
                        farads / spec.step * (v_new - v_old)
                    };
                }
            }
        }
        times.push(t);
        record(&x, &mut voltages, &mut currents);
        prev.copy_from_slice(&x);
    }

    Ok(TransientResult::from_parts(
        times,
        node_count,
        n_currents,
        voltages,
        currents,
        layout.branch_indices(),
        crate::stats::SolveStats::default(),
    ))
}
