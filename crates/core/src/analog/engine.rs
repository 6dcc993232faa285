//! The behavioural ODE engine: compiles an [`AnalogGraph`] into a
//! level-scheduled [`Tape`], integrates it, and measures the paper's
//! convergence time and relative error.
//!
//! **The tape.** [`Tape::compile`] renumbers the graph's nodes into slots:
//! sources first, then *fixed* nodes (fast stages whose inputs are all
//! constant: after the first step they hold a constant), then every other
//! module sorted by dependency level and, within a level, by op and
//! parameters. Each (level, op) group is one tight loop over contiguous
//! slots with a flat input-slot array — no per-node allocation and no enum
//! dispatch per node-step. Slow modules whose inputs are all constant
//! (*lag* nodes) keep a precomputed target and only relax toward it.
//!
//! **Why the bits do not change.** Within a step every node reads only its
//! inputs, which precede it topologically and are already updated this
//! step, and its own previous value. Any topological order therefore
//! yields identical bits, and each node keeps the arithmetic of
//! [`NodeOp::evaluate`] in the same order: `fold(INFINITY, f64::min)`,
//! `iter().sum()`, `clamp(-vcc, vcc)` and `target + (y − target)·d`.
//!
//! **One stepping loop.** [`AnalogEngine::simulate`] and
//! [`AnalogEngine::simulate_with_probes`] record waveforms through a
//! recorder; [`AnalogEngine::settle`] runs the same loop with none and
//! returns only the final voltage and step count. A tape is reusable: its
//! input sources can be re-programmed with [`Tape::set_inputs`], and every
//! run recomputes the steady state, the convergence bands and the folded
//! values from the current sources in one pass.

use std::sync::Arc;

use mda_spice::Trace;

use crate::analog::graph::{AnalogGraph, NodeOp, NodeRef};

/// Result of one analog simulation.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The settled output voltage, V.
    pub final_voltage: f64,
    /// The paper's convergence time: output within 0.1 % of its final
    /// value, measured from the input edge, s.
    pub convergence_time_s: f64,
    /// The recorded output waveform.
    pub output_trace: Trace,
    /// Number of integration steps taken.
    pub steps: usize,
}

/// Result of a trace-free [`AnalogEngine::settle`]: bitwise the final
/// voltage and step count [`AnalogEngine::simulate`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settled {
    /// The settled output voltage, V.
    pub final_voltage: f64,
    /// Number of integration steps taken.
    pub steps: usize,
}

/// Integrates an [`AnalogGraph`].
///
/// Each node follows `dy/dt = (f(inputs) + offset − y)/τ`, discretized with
/// the exact exponential update `y ← target + (y − target)·e^(−dt/τ)`
/// (unconditionally stable; the decay factor is precomputed per node). Fast
/// diode/TG stages (τ below half a step) are treated as combinational and
/// updated in topological order within the step, so a 40-deep diode max
/// chain doesn't accrue an artificial step-per-stage latency.
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    /// Convergence band as a fraction of the final value (paper: 0.001).
    pub convergence_fraction: f64,
    /// Hard cap on integration steps.
    pub max_steps: usize,
}

impl Default for AnalogEngine {
    fn default() -> Self {
        AnalogEngine {
            convergence_fraction: 0.001,
            max_steps: 2_000_000,
        }
    }
}

/// A module's function with its parameters, as one tape group runs it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Sub,
    Abs {
        weight: f64,
    },
    Min,
    Max,
    Add,
    /// Weighted sum over the first `terms` inputs (`zip` semantics).
    AddWeighted {
        terms: usize,
    },
    SelectMatch {
        threshold: f64,
    },
    Mismatch {
        threshold: f64,
        v_step: f64,
    },
}

impl Op {
    /// Sort key: op code, then parameter bits, so equal ops group.
    fn key(self) -> (u8, u64, u64) {
        match self {
            Op::Sub => (0, 0, 0),
            Op::Abs { weight } => (1, weight.to_bits(), 0),
            Op::Min => (2, 0, 0),
            Op::Max => (3, 0, 0),
            Op::Add => (4, 0, 0),
            Op::AddWeighted { terms } => (5, terms as u64, 0),
            Op::SelectMatch { threshold } => (6, threshold.to_bits(), 0),
            Op::Mismatch { threshold, v_step } => (7, threshold.to_bits(), v_step.to_bits()),
        }
    }
}

/// How a group advances in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Fast, constant inputs: holds its target from the first step on.
    Fixed,
    /// Slow, constant inputs: relaxes toward a precomputed target.
    Lag,
    /// Evaluated every step.
    Live,
}

/// One run of contiguous slots sharing class, op, arity and decay.
#[derive(Debug, Clone)]
struct Group {
    class: Class,
    op: Op,
    /// Slots `start..end`; every input slot precedes `start`.
    start: usize,
    end: usize,
    arity: usize,
    /// Offset of the group's input slots in `Tape::ins`.
    ins: usize,
    /// Offset of the group's weights in `Tape::weights`.
    weights: usize,
    /// `e^(−dt/τ)`; 0.0 for fast groups, which snap to their target.
    decay: f64,
}

/// A compiled, reusable [`AnalogGraph`]: the level-scheduled structure plus
/// the per-run state (see the module docs).
#[derive(Debug, Clone)]
pub struct Tape {
    vcc: f64,
    dt: f64,
    /// Slots `0..sources` are sources; `sources..fixed` are fixed nodes.
    sources: usize,
    fixed: usize,
    /// Groups in slot order (fixed groups first).
    groups: Vec<Group>,
    /// Flat input slots of every group, node by node.
    ins: Vec<u32>,
    /// Flat `AddWeighted` weights, node by node.
    weights: Vec<f64>,
    /// Per-slot output offset, V.
    offset: Vec<f64>,
    /// Programmed voltage of every source slot.
    source_volts: Vec<f64>,
    /// Graph node index → slot.
    slot_of: Vec<u32>,
    /// Slots of the graph's input sources, in [`AnalogGraph::inputs`] order.
    input_slots: Vec<u32>,
    out: usize,
    // Per-run state, recomputed from the sources by `prepare`.
    steady: Vec<f64>,
    band: Vec<f64>,
    /// Values from the first step on: source voltages, fixed values and
    /// lag targets (live slots unused).
    target: Vec<f64>,
    y: Vec<f64>,
}

fn op_of(op: &NodeOp, weight: f64, arity: usize) -> Op {
    match op {
        NodeOp::Const(_) => unreachable!("sources are not tape ops"),
        NodeOp::Sub => Op::Sub,
        NodeOp::Abs => Op::Abs { weight },
        NodeOp::Min => Op::Min,
        NodeOp::Max => Op::Max,
        NodeOp::Add => Op::Add,
        NodeOp::AddWeighted(ws) => Op::AddWeighted {
            terms: ws.len().min(arity),
        },
        NodeOp::SelectMatch { threshold } => Op::SelectMatch {
            threshold: *threshold,
        },
        NodeOp::Mismatch { threshold, v_step } => Op::Mismatch {
            threshold: *threshold,
            v_step: *v_step,
        },
    }
}

impl Tape {
    /// Compiles `graph`. The tape holds copies of everything it needs; the
    /// graph can be dropped.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or has more than `u32::MAX` nodes.
    pub fn compile(graph: &AnalogGraph) -> Tape {
        let nodes = &graph.nodes;
        let n = nodes.len();
        assert!(n > 0, "cannot compile an empty graph");
        assert!(u32::try_from(n).is_ok(), "graph too large for a tape");
        let min_slow_tau = nodes
            .iter()
            .map(|nd| nd.tau)
            .filter(|&t| t > 1.0e-10)
            .fold(f64::INFINITY, f64::min);
        let dt = if min_slow_tau.is_finite() {
            min_slow_tau / 8.0
        } else {
            1.0e-10
        };
        let fast_cutoff = dt / 2.0;

        // Builder graphs hold a handful of distinct time constants.
        let mut decays: Vec<(u64, f64)> = Vec::new();
        let mut decay_of = |tau: f64| {
            if tau <= fast_cutoff {
                return 0.0;
            }
            if let Some(&(_, d)) = decays.iter().find(|(bits, _)| *bits == tau.to_bits()) {
                return d;
            }
            let d = (-dt / tau).exp();
            decays.push((tau.to_bits(), d));
            d
        };

        // Classify and level every module. Sources and fixed nodes are
        // constant from the first step; fixed nodes level among themselves
        // (they are evaluated once, in order), every other module levels
        // above all constants, so lag nodes sit at level 1 and live ones
        // above. The group key sorts fixed nodes first, then by level, op
        // and parameters, arity and decay; ties keep creation order.
        let mut class: Vec<Option<Class>> = vec![None; n];
        let mut level = vec![0u32; n];
        let mut ops: Vec<Option<(Op, f64)>> = vec![None; n];
        let mut keys = vec![Default::default(); n];
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node.op, NodeOp::Const(_)) {
                continue;
            }
            let constant = |r: &NodeRef| matches!(class[r.0], None | Some(Class::Fixed));
            let (op, decay) = (
                op_of(&node.op, node.weight, node.inputs.len()),
                decay_of(node.tau),
            );
            let c = match (node.inputs.iter().all(constant), decay == 0.0) {
                (true, true) => Class::Fixed,
                (true, false) => Class::Lag,
                (false, _) => Class::Live,
            };
            let below = node
                .inputs
                .iter()
                .filter(|r| c == Class::Fixed || !constant(r))
                .map(|r| level[r.0])
                .max()
                .unwrap_or(0);
            class[i] = Some(c);
            level[i] = below + 1;
            ops[i] = Some((op, decay));
            keys[i] = (
                c != Class::Fixed,
                level[i],
                op.key(),
                node.inputs.len(),
                decay.to_bits(),
            );
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| class[i].is_none()).collect();
        let sources = order.len();
        let mut modules: Vec<usize> = (0..n).filter(|&i| class[i].is_some()).collect();
        modules.sort_by_key(|&i| keys[i]);
        order.extend(&modules);

        let mut slot_of = vec![0u32; n];
        for (slot, &i) in order.iter().enumerate() {
            slot_of[i] = slot as u32;
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut ins: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut fixed = sources;
        for (slot, &i) in order.iter().enumerate().skip(sources) {
            let node = &nodes[i];
            let c = class[i].expect("modules follow the sources");
            let (op, decay) = ops[i].expect("modules follow the sources");
            if groups
                .last()
                .is_none_or(|g| keys[order[g.start]] != keys[i])
            {
                groups.push(Group {
                    class: c,
                    op,
                    start: slot,
                    end: slot,
                    arity: node.inputs.len(),
                    ins: ins.len(),
                    weights: weights.len(),
                    decay,
                });
            }
            groups.last_mut().expect("group just ensured").end = slot + 1;
            ins.extend(node.inputs.iter().map(|r| slot_of[r.0]));
            if let (NodeOp::AddWeighted(ws), Op::AddWeighted { terms }) = (&node.op, op) {
                weights.extend_from_slice(&ws[..terms]);
            }
            if c == Class::Fixed {
                fixed = slot + 1;
            }
        }

        let offset = order.iter().map(|&i| nodes[i].offset).collect();
        let source_volts = order[..sources]
            .iter()
            .map(|&i| match nodes[i].op {
                NodeOp::Const(v) => v,
                _ => unreachable!("sources sort first"),
            })
            .collect();
        let input_slots = graph.inputs().iter().map(|r| slot_of[r.0]).collect();
        Tape {
            vcc: graph.vcc(),
            dt,
            sources,
            fixed,
            groups,
            ins,
            weights,
            offset,
            source_volts,
            out: slot_of[graph.output().0] as usize,
            slot_of,
            input_slots,
            steady: vec![0.0; n],
            band: vec![0.0; n],
            target: vec![0.0; n],
            y: vec![0.0; n],
        }
    }

    /// Number of nodes (slots) on the tape.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` if the tape has no slots (never: empty graphs don't compile).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Approximate heap bytes held by the tape.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.groups.capacity() * size_of::<Group>()
            + (self.ins.capacity() + self.slot_of.capacity() + self.input_slots.capacity())
                * size_of::<u32>()
            + (self.weights.capacity()
                + self.offset.capacity()
                + self.source_volts.capacity()
                + self.steady.capacity()
                + self.band.capacity()
                + self.target.capacity()
                + self.y.capacity())
                * size_of::<f64>()
    }

    /// Re-programs the graph's input sources ([`AnalogGraph::inputs`], in
    /// order) to `volts`, overriding any stuck fault injected on one.
    /// Everything else on the tape depends only on the graph's structure,
    /// so this is all a new request changes.
    ///
    /// # Panics
    ///
    /// Panics unless `volts` yields exactly one voltage per input source.
    pub fn set_inputs(&mut self, volts: impl IntoIterator<Item = f64>) {
        let mut volts = volts.into_iter();
        for &slot in &self.input_slots {
            self.source_volts[slot as usize] = volts.next().expect("one voltage per input");
        }
        assert!(volts.next().is_none(), "one voltage per input");
    }

    /// Evaluates group `g`'s clamped targets over `src` (which holds every
    /// input slot, all below `g.start`) and stores `update(old, target)`
    /// into the group's slots `dst`.
    #[inline(always)]
    fn targets(&self, g: &Group, src: &[f64], dst: &mut [f64], update: impl Fn(f64, f64) -> f64) {
        let vcc = self.vcc;
        let len = g.end - g.start;
        let a = g.arity;
        let ins = &self.ins[g.ins..g.ins + len * a];
        let offset = &self.offset[g.start..g.end];
        let x = |s: u32| src[s as usize];
        // One monomorphic loop per op: `$i` is the node's input slots, a
        // fixed-size array for the listed arities so the per-node input
        // loops unroll and index without checks.
        macro_rules! each {
            ([$($n:literal),*], |$k:ident, $i:ident| $f:expr) => {
                match a {
                    0 => {
                        for ($k, (v, &o)) in dst.iter_mut().zip(offset).enumerate() {
                            let $i: &[u32] = &[];
                            *v = update(*v, ($f + o).clamp(-vcc, vcc));
                        }
                    }
                    $($n => {
                        let rows = dst.iter_mut().zip(ins.as_chunks::<$n>().0).zip(offset);
                        for ($k, ((v, $i), &o)) in rows.enumerate() {
                            *v = update(*v, ($f + o).clamp(-vcc, vcc));
                        }
                    })*
                    _ => {
                        let rows = dst.iter_mut().zip(ins.chunks_exact(a)).zip(offset);
                        for ($k, ((v, $i), &o)) in rows.enumerate() {
                            *v = update(*v, ($f + o).clamp(-vcc, vcc));
                        }
                    }
                }
            };
        }
        match g.op {
            Op::Sub => each!([2], |_k, i| x(i[0]) - x(i[1])),
            Op::Abs { weight } => each!([2], |_k, i| weight * (x(i[0]) - x(i[1])).abs()),
            Op::Min => each!([2, 3], |_k, i| i
                .iter()
                .map(|&s| x(s))
                .fold(f64::INFINITY, f64::min)),
            Op::Max => each!([2, 3], |_k, i| i
                .iter()
                .map(|&s| x(s))
                .fold(f64::NEG_INFINITY, f64::max)),
            Op::Add => each!([2, 3], |_k, i| i.iter().map(|&s| x(s)).sum::<f64>()),
            Op::AddWeighted { terms } => {
                let ws = &self.weights[g.weights..g.weights + len * terms];
                each!([], |k, i| i
                    .iter()
                    .zip(&ws[k * terms..k * terms + terms])
                    .map(|(&s, w)| x(s) * w)
                    .sum::<f64>())
            }
            Op::SelectMatch { threshold } => each!([4], |_k, i| {
                if (x(i[0]) - x(i[1])).abs() <= threshold {
                    x(i[2])
                } else {
                    x(i[3])
                }
            }),
            Op::Mismatch { threshold, v_step } => each!([2], |_k, i| {
                if (x(i[0]) - x(i[1])).abs() > threshold {
                    v_step
                } else {
                    0.0
                }
            }),
        }
    }

    /// One pass over the tape: the steady state (sources clamped to the
    /// rails, as [`AnalogGraph::steady_state`] does), the convergence bands,
    /// the fixed values and lag targets (sources unclamped, as the stepping
    /// loop reads them), and the all-zero initial state.
    fn prepare(&mut self, fraction: f64) {
        let (s, vcc) = (self.sources, self.vcc);
        let mut steady = std::mem::take(&mut self.steady);
        let mut target = std::mem::take(&mut self.target);
        for k in 0..s {
            let v = self.source_volts[k];
            target[k] = v;
            steady[k] = (v + self.offset[k]).clamp(-vcc, vcc);
            self.y[k] = v;
        }
        for g in &self.groups {
            let (src, dst) = steady.split_at_mut(g.start);
            self.targets(g, src, &mut dst[..g.end - g.start], |_, t| t);
            if g.class != Class::Live {
                let (src, dst) = target.split_at_mut(g.start);
                self.targets(g, src, &mut dst[..g.end - g.start], |_, t| t);
            }
        }
        for ((b, st), y) in self.band[s..]
            .iter_mut()
            .zip(&steady[s..])
            .zip(&mut self.y[s..])
        {
            *b = (st.abs() * fraction).max(1.0e-6);
            *y = 0.0;
        }
        self.steady = steady;
        self.target = target;
    }

    /// Advances every module by one step. `first` applies the fixed values.
    fn step(&mut self, first: bool) {
        let mut y = std::mem::take(&mut self.y);
        if first {
            y[self.sources..self.fixed].copy_from_slice(&self.target[self.sources..self.fixed]);
        }
        for g in &self.groups {
            let (src, dst) = y.split_at_mut(g.start);
            let dst = &mut dst[..g.end - g.start];
            let d = g.decay;
            match g.class {
                Class::Fixed => {}
                Class::Lag => {
                    for (v, &t) in dst.iter_mut().zip(&self.target[g.start..g.end]) {
                        *v = t + (*v - t) * d;
                    }
                }
                Class::Live if d == 0.0 => self.targets(g, src, dst, |_, t| t),
                Class::Live => self.targets(g, src, dst, |y, t| t + (y - t) * d),
            }
        }
        self.y = y;
    }

    /// Whether every module sits inside its steady-state band.
    fn settled(&self) -> bool {
        let s = self.sources;
        self.y[s..]
            .iter()
            .zip(&self.steady[s..])
            .zip(&self.band[s..])
            .all(|((y, st), b)| (y - st).abs() <= *b)
    }
}

/// Records the output and probe waveforms of a run.
struct Recorder {
    out: usize,
    probes: Vec<usize>,
    times: Vec<f64>,
    values: Vec<f64>,
    probe_values: Vec<Vec<f64>>,
}

impl Recorder {
    fn new(tape: &Tape, probes: &[NodeRef]) -> Recorder {
        Recorder {
            out: tape.out,
            probes: probes.iter().map(|p| tape.slot_of[p.0] as usize).collect(),
            times: Vec::new(),
            values: Vec::new(),
            probe_values: vec![Vec::new(); probes.len()],
        }
    }

    fn record(&mut self, t: f64, y: &[f64]) {
        self.times.push(t);
        self.values.push(y[self.out]);
        for (vals, &p) in self.probe_values.iter_mut().zip(&self.probes) {
            vals.push(y[p]);
        }
    }
}

impl AnalogEngine {
    /// An engine with the paper's 0.1 % convergence criterion.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one stepping loop: from all-zero initial state (inputs step at
    /// t = 0) until every module is inside the convergence band of its
    /// steady state, checked every few steps. Returns the final state and
    /// the elapsed time.
    fn run(&self, tape: &mut Tape, mut recorder: Option<&mut Recorder>) -> (Settled, f64) {
        // Checking the settle condition is as expensive as a step; only do
        // it periodically.
        const SETTLE_CHECK_INTERVAL: usize = 8;
        tape.prepare(self.convergence_fraction);
        let mut t = 0.0;
        let mut steps = 0usize;
        if let Some(r) = recorder.as_deref_mut() {
            r.record(t, &tape.y);
        }
        loop {
            steps += 1;
            t += tape.dt;
            tape.step(steps == 1);
            if let Some(r) = recorder.as_deref_mut() {
                r.record(t, &tape.y);
            }
            if steps >= self.max_steps
                || (steps.is_multiple_of(SETTLE_CHECK_INTERVAL) && tape.settled())
            {
                break;
            }
        }
        let settled = Settled {
            final_voltage: tape.y[tape.out],
            steps,
        };
        (settled, t)
    }

    /// Runs `tape` without recording anything: the served path. Bitwise
    /// the final voltage and step count of [`Self::simulate`] on the graph
    /// the tape was compiled from (with its current inputs).
    pub fn settle(&self, tape: &mut Tape) -> Settled {
        self.run(tape, None).0
    }

    /// Runs the simulation from all-zero initial state (inputs step at
    /// t = 0) until every node is inside the convergence band of its steady
    /// state, then reports the output's convergence time.
    pub fn simulate(&self, graph: &AnalogGraph) -> SimulationOutcome {
        self.simulate_with_probes(graph, &[]).0
    }

    /// Simulates and additionally records the full waveform of a set of
    /// nodes (used by the early-determination analysis).
    pub fn simulate_with_probes(
        &self,
        graph: &AnalogGraph,
        probes: &[NodeRef],
    ) -> (SimulationOutcome, Vec<Trace>) {
        let mut tape = Tape::compile(graph);
        let mut rec = Recorder::new(&tape, probes);
        let (settled, t) = self.run(&mut tape, Some(&mut rec));
        let times: Arc<[f64]> = rec.times.into();
        let trace = Trace::shared(Arc::clone(&times), rec.values);
        let convergence_time_s = trace
            .convergence_time(self.convergence_fraction)
            .unwrap_or(t);
        let outcome = SimulationOutcome {
            final_voltage: settled.final_voltage,
            convergence_time_s,
            output_trace: trace,
            steps: settled.steps,
        };
        let probe_traces = rec
            .probe_values
            .into_iter()
            .map(|vals| Trace::shared(Arc::clone(&times), vals))
            .collect();
        (outcome, probe_traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analog::error_model::ErrorModel;
    use crate::analog::graph::builders;
    use crate::config::AcceleratorConfig;
    use mda_distance::dtw::Band;
    use mda_distance::{Distance, Dtw, Manhattan};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_defaults()
    }

    fn volts(config: &AcceleratorConfig, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| config.value_to_voltage(x)).collect()
    }

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0)
            .collect()
    }

    #[test]
    fn simulation_settles_to_steady_state() {
        let config = cfg();
        let p = series(6, 0.0);
        let q = series(6, 0.3);
        let g = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::ideal(),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let expected = Dtw::new().evaluate(&p, &q).unwrap();
        let got = config.voltage_to_value(outcome.final_voltage);
        assert!(
            (got - expected).abs() < 0.05,
            "settled {got} vs digital {expected}"
        );
        assert!(outcome.convergence_time_s > 0.0);
    }

    #[test]
    fn dtw_convergence_grows_with_length() {
        let config = cfg();
        let engine = AnalogEngine::new();
        let mut last = 0.0;
        for len in [4, 8, 16] {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::dtw(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                1.0,
                Band::Full,
                &mut ErrorModel::ideal(),
            );
            let tc = engine.simulate(&g).convergence_time_s;
            assert!(tc > last, "len {len}: {tc} not > {last}");
            last = tc;
        }
    }

    #[test]
    fn hausdorff_convergence_saturates_with_length() {
        // The paper's Section 4.2 observation: HauD's convergence time is
        // roughly constant once the length exceeds ~10.
        let config = cfg();
        let engine = AnalogEngine::new();
        let tc = |len: usize| {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::hausdorff(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                1.0,
                &mut ErrorModel::ideal(),
            );
            engine.simulate(&g).convergence_time_s
        };
        let t10 = tc(10);
        let t40 = tc(40);
        assert!(
            t40 < t10 * 2.0,
            "HauD convergence should be ~flat: t10 = {t10:.3e}, t40 = {t40:.3e}"
        );
    }

    #[test]
    fn manhattan_convergence_grows_with_length() {
        // Row structure: the adder's summing-node capacitance grows with n.
        let config = cfg();
        let engine = AnalogEngine::new();
        let tc = |len: usize| {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::manhattan(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                &vec![1.0; len],
                &mut ErrorModel::ideal(),
            );
            engine.simulate(&g).convergence_time_s
        };
        let t10 = tc(10);
        let t40 = tc(40);
        assert!(
            t40 > t10 * 1.5,
            "MD convergence should grow: t10 = {t10:.3e}, t40 = {t40:.3e}"
        );
    }

    #[test]
    fn noisy_run_relative_error_is_small() {
        let config = cfg();
        let p = series(8, 0.0);
        let q = series(8, 0.7);
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 8],
            &mut ErrorModel::new(config.noise_seed),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let expected = Manhattan::new().evaluate(&p, &q).unwrap();
        let got = config.voltage_to_value(outcome.final_voltage);
        let rel = ((got - expected) / expected).abs();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn output_trace_is_monotone_charging_for_md() {
        // A row-structure output charges monotonically (single lag chain),
        // which is what makes early determination possible.
        let config = cfg();
        let p = [1.0, 2.0, 0.5, 1.5];
        let q = [0.0, 0.0, 0.0, 0.0];
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 4],
            &mut ErrorModel::ideal(),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let vals = outcome.output_trace.values();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "non-monotone output");
        }
    }

    #[test]
    fn probes_record_waveforms() {
        let config = cfg();
        let p = [1.0, 2.0];
        let q = [0.0, 0.0];
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 2],
            &mut ErrorModel::ideal(),
        );
        let probe = g.output();
        let (outcome, traces) = AnalogEngine::new().simulate_with_probes(&g, &[probe]);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len(), outcome.output_trace.len());
        assert!((traces[0].last() - outcome.final_voltage).abs() < 1e-12);
    }

    #[test]
    fn settle_on_a_reprogrammed_tape_matches_simulate() {
        let config = cfg();
        let build = |p: &[f64], q: &[f64]| {
            builders::lcs(
                &config,
                &volts(&config, p),
                &volts(&config, q),
                config.value_to_voltage(0.3),
                1.0,
                &mut ErrorModel::new(config.noise_seed),
            )
        };
        let (p, q) = (series(6, 0.0), series(6, 0.4));
        let want = AnalogEngine::new().simulate(&build(&p, &q));
        let mut tape = Tape::compile(&build(&q, &p));
        tape.set_inputs(volts(&config, &p).into_iter().chain(volts(&config, &q)));
        let got = AnalogEngine::new().settle(&mut tape);
        assert_eq!(got.final_voltage.to_bits(), want.final_voltage.to_bits());
        assert_eq!(got.steps, want.steps);
    }

    #[test]
    #[should_panic(expected = "one voltage per input")]
    fn set_inputs_rejects_a_short_list() {
        let config = cfg();
        let g = builders::manhattan(
            &config,
            &volts(&config, &[1.0, 2.0]),
            &volts(&config, &[0.0, 0.0]),
            &[1.0; 2],
            &mut ErrorModel::ideal(),
        );
        Tape::compile(&g).set_inputs([0.1, 0.2, 0.3]);
    }

    #[test]
    fn simulate_and_probe_runs_agree() {
        let config = cfg();
        let p = series(5, 0.0);
        let q = series(5, 0.6);
        let g = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::new(1),
        );
        let a = AnalogEngine::new().simulate(&g);
        let (b, _) = AnalogEngine::new().simulate_with_probes(&g, &[]);
        assert_eq!(a.final_voltage, b.final_voltage);
        assert_eq!(a.convergence_time_s, b.convergence_time_s);
    }
}
