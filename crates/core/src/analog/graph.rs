//! The analog dataflow graph: one node per analog module instance.
//!
//! Builders translate a distance computation over *encoded voltages* into a
//! DAG of module nodes. Node time constants follow the module's net count
//! times the Table 1 RC product (nominal memristance × 20 fF); diode-only
//! stages (max networks, TG muxes) are orders of magnitude faster because
//! they charge their load through the diode/TG on-resistance instead of a
//! memristor — this asymmetry is what makes HauD's convergence time flat in
//! the sequence length (Section 4.2).

use crate::analog::error_model::ErrorModel;
use crate::config::AcceleratorConfig;
use mda_distance::dtw::Band;

/// Reference to a node within an [`AnalogGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(pub(crate) usize);

impl NodeRef {
    /// The node's index within its graph (also its position in the
    /// [`AnalogGraph::steady_state`] vector).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The function a module node computes from its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOp {
    /// A source: fixed voltage applied at t = 0.
    Const(f64),
    /// `in0 − in1` (analog subtractor).
    Sub,
    /// `w·|in0 − in1|` (absolution module); the weight is the memristor
    /// ratio configuration.
    Abs,
    /// Minimum over all inputs (complement + diode max + restore).
    Min,
    /// Maximum over all inputs (diode network).
    Max,
    /// Sum of all inputs (op-amp adder).
    Add,
    /// Weighted sum (row-structure analog adder, `M0/Mk` ratios).
    AddWeighted(Vec<f64>),
    /// Selecting module: if `|in0 − in1| ≤ threshold` output `in2`,
    /// else `in3` (comparator + TG pair).
    SelectMatch {
        /// Match threshold, V.
        threshold: f64,
    },
    /// Mismatch detector: if `|in0 − in1| > threshold` output `v_step`,
    /// else 0 (HamD PE).
    Mismatch {
        /// Match threshold, V.
        threshold: f64,
        /// Output level on mismatch, V.
        v_step: f64,
    },
}

impl NodeOp {
    /// Evaluates the ideal module function.
    pub fn evaluate(&self, inputs: &[f64], weight: f64) -> f64 {
        match self {
            NodeOp::Const(v) => *v,
            NodeOp::Sub => inputs[0] - inputs[1],
            NodeOp::Abs => weight * (inputs[0] - inputs[1]).abs(),
            NodeOp::Min => inputs.iter().copied().fold(f64::INFINITY, f64::min),
            NodeOp::Max => inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            NodeOp::Add => inputs.iter().sum(),
            NodeOp::AddWeighted(ws) => inputs.iter().zip(ws).map(|(v, w)| v * w).sum(),
            NodeOp::SelectMatch { threshold } => {
                if (inputs[0] - inputs[1]).abs() <= *threshold {
                    inputs[2]
                } else {
                    inputs[3]
                }
            }
            NodeOp::Mismatch { threshold, v_step } => {
                if (inputs[0] - inputs[1]).abs() > *threshold {
                    *v_step
                } else {
                    0.0
                }
            }
        }
    }

    /// Number of memristor-loaded internal nets (sets the slow RC time
    /// constant). Diode/TG-dominated stages return 0 and use the fast
    /// constant instead.
    fn slow_nets(&self, fan_in: usize) -> usize {
        match self {
            NodeOp::Const(_) => 0,
            NodeOp::Sub => 3,
            NodeOp::Abs => 7,
            // Complement subtractors (parallel) + restore: ~2 sequential
            // op-amp stages of 3 nets each.
            NodeOp::Min => 6,
            NodeOp::Max => 0,
            NodeOp::Add => 3,
            // Summing-node capacitance grows with fan-in.
            NodeOp::AddWeighted(_) => 2 + fan_in,
            // Absolution + comparator dominate; the TG mux itself is fast.
            NodeOp::SelectMatch { .. } => 8,
            NodeOp::Mismatch { .. } => 8,
        }
    }
}

/// One module instance.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) op: NodeOp,
    pub(crate) inputs: Vec<NodeRef>,
    /// Weight applied by `Abs`.
    pub(crate) weight: f64,
    /// First-order time constant, s.
    pub(crate) tau: f64,
    /// Systematic output offset, V.
    pub(crate) offset: f64,
}

/// An analog dataflow graph in topological order (builders only reference
/// already-created nodes).
#[derive(Debug, Clone)]
pub struct AnalogGraph {
    pub(crate) nodes: Vec<Node>,
    output: NodeRef,
    /// The sources carrying the compared sequences, P then Q.
    inputs: Vec<NodeRef>,
    vcc: f64,
}

impl AnalogGraph {
    /// Creates an empty graph for the given supply voltage.
    pub fn new(vcc: f64) -> Self {
        AnalogGraph {
            nodes: Vec::new(),
            output: NodeRef(0),
            inputs: Vec::new(),
            vcc,
        }
    }

    /// The supply voltage (targets are clamped to ±Vcc).
    pub fn vcc(&self) -> f64 {
        self.vcc
    }

    /// Number of module nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The designated output node.
    pub fn output(&self) -> NodeRef {
        self.output
    }

    /// Marks a node as the output.
    pub fn set_output(&mut self, node: NodeRef) {
        assert!(node.0 < self.nodes.len(), "output must be a valid node");
        self.output = node;
    }

    /// Adds a node. `rc` is the base RC product (nominal R × parasitic C);
    /// offsets come from the error model.
    pub fn add_node(
        &mut self,
        op: NodeOp,
        inputs: Vec<NodeRef>,
        weight: f64,
        rc: f64,
        errors: &mut ErrorModel,
    ) -> NodeRef {
        for r in &inputs {
            assert!(r.0 < self.nodes.len(), "inputs must precede the node");
        }
        // Fast (diode/TG) stages: load charged through ~1 kΩ instead of the
        // nominal memristance — two orders of magnitude faster.
        let slow = op.slow_nets(inputs.len());
        let tau = if slow == 0 {
            rc / 100.0
        } else {
            rc * slow as f64
        };
        let offset = errors.offset_for(&op);
        self.nodes.push(Node {
            op,
            inputs,
            weight,
            tau: tau.max(1.0e-12),
            offset,
        });
        NodeRef(self.nodes.len() - 1)
    }

    /// Convenience for `Const` sources.
    pub fn source(&mut self, volts: f64, errors: &mut ErrorModel) -> NodeRef {
        self.add_node(NodeOp::Const(volts), Vec::new(), 1.0, 0.0, errors)
    }

    /// A `Const` source carrying one element of a compared sequence: a
    /// [`Self::source`] that is also listed in [`Self::inputs`].
    pub fn input(&mut self, volts: f64, errors: &mut ErrorModel) -> NodeRef {
        let node = self.source(volts, errors);
        self.inputs.push(node);
        node
    }

    /// The input sources in creation order (the builders create P's, then
    /// Q's). Everything else in a builder graph depends only on the
    /// sequences' lengths and the function's parameters.
    pub fn inputs(&self) -> &[NodeRef] {
        &self.inputs
    }

    /// Injects a stuck-at fault: the node's output is frozen at `volts`
    /// regardless of its inputs — modelling a memristor stuck in HRS/LRS or
    /// a dead op-amp output. Used by the robustness analyses.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn inject_stuck_fault(&mut self, node: NodeRef, volts: f64) {
        let n = &mut self.nodes[node.0];
        n.op = NodeOp::Const(volts);
        n.inputs.clear();
        n.offset = 0.0;
    }

    /// References to all non-source nodes (fault-injection candidates).
    pub fn module_nodes(&self) -> Vec<NodeRef> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !matches!(n.op, NodeOp::Const(_)))
            .map(|(i, _)| NodeRef(i))
            .collect()
    }

    /// The ideal steady-state value of every node (topological evaluation
    /// with offsets applied, clamped to the rails).
    pub fn steady_state(&self) -> Vec<f64> {
        let mut values = vec![0.0; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let inputs: Vec<f64> = node.inputs.iter().map(|r| values[r.0]).collect();
            let v = node.op.evaluate(&inputs, node.weight) + node.offset;
            values[i] = v.clamp(-self.vcc, self.vcc);
        }
        values
    }
}

/// Builders for the six distance-function graphs. All take sequences of
/// *encoded voltages* (already scaled by the voltage resolution and DAC
/// quantization).
pub mod builders {
    use super::*;

    fn rc(config: &AcceleratorConfig) -> f64 {
        config.signal_path_resistance * config.parasitic_capacitance
    }

    /// DTW matrix graph (Fig. 2(a) per cell). `band` restricts built cells;
    /// out-of-band neighbours read the `Vcc/2` "infinity" rail.
    pub fn dtw(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        w: f64,
        band: Band,
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let inf = g.source(config.vcc / 2.0, errors);
        let zero = g.source(0.0, errors);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let (m, n) = (p.len(), q.len());
        let mut d = vec![vec![inf; n + 1]; m + 1];
        d[0][0] = zero;
        for i in 1..=m {
            for j in 1..=n {
                if !band.admissible(i, j, m, n) {
                    continue;
                }
                let abs = g.add_node(NodeOp::Abs, vec![p[i - 1], q[j - 1]], w, rc, errors);
                let min = g.add_node(
                    NodeOp::Min,
                    vec![d[i][j - 1], d[i - 1][j], d[i - 1][j - 1]],
                    1.0,
                    rc,
                    errors,
                );
                d[i][j] = g.add_node(NodeOp::Add, vec![abs, min], 1.0, rc, errors);
            }
        }
        g.set_output(d[m][n]);
        g
    }

    /// LCS matrix graph (Fig. 2(b) per cell).
    pub fn lcs(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        threshold_volts: f64,
        w: f64,
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let zero = g.source(0.0, errors);
        let step = g.source(w * config.v_step, errors);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let (m, n) = (p.len(), q.len());
        let mut l = vec![vec![zero; n + 1]; m + 1];
        for i in 1..=m {
            for j in 1..=n {
                let match_path =
                    g.add_node(NodeOp::Add, vec![l[i - 1][j - 1], step], 1.0, rc, errors);
                let no_match =
                    g.add_node(NodeOp::Max, vec![l[i][j - 1], l[i - 1][j]], 1.0, rc, errors);
                l[i][j] = g.add_node(
                    NodeOp::SelectMatch {
                        threshold: threshold_volts,
                    },
                    vec![p[i - 1], q[j - 1], match_path, no_match],
                    1.0,
                    rc,
                    errors,
                );
            }
        }
        g.set_output(l[m][n]);
        g
    }

    /// Edit-distance matrix graph (Fig. 2(c) per cell).
    pub fn edit(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        threshold_volts: f64,
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let step = g.source(config.v_step, errors);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let (m, n) = (p.len(), q.len());
        let mut e = vec![vec![NodeRef(0); n + 1]; m + 1];
        for (j, cell) in e[0].iter_mut().enumerate() {
            *cell = g.source(j as f64 * config.v_step, errors);
        }
        for (i, row) in e.iter_mut().enumerate().skip(1) {
            row[0] = g.source(i as f64 * config.v_step, errors);
        }
        for i in 1..=m {
            for j in 1..=n {
                let diag_plus =
                    g.add_node(NodeOp::Add, vec![e[i - 1][j - 1], step], 1.0, rc, errors);
                let p1 = g.add_node(
                    NodeOp::SelectMatch {
                        threshold: threshold_volts,
                    },
                    vec![p[i - 1], q[j - 1], e[i - 1][j - 1], diag_plus],
                    1.0,
                    rc,
                    errors,
                );
                let p2 = g.add_node(NodeOp::Add, vec![e[i - 1][j], step], 1.0, rc, errors);
                let p3 = g.add_node(NodeOp::Add, vec![e[i][j - 1], step], 1.0, rc, errors);
                e[i][j] = g.add_node(NodeOp::Min, vec![p1, p2, p3], 1.0, rc, errors);
            }
        }
        g.set_output(e[m][n]);
        g
    }

    /// Hausdorff graph (Fig. 2(d2)): parallel column minima, final maximum.
    pub fn hausdorff(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        w: f64,
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let vcc = g.source(config.vcc, errors);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let mut column_minima = Vec::with_capacity(q.len());
        for &qn in &q {
            // All |P[i] − Q[j]| complements settle in parallel; the running
            // maximum down the column is a fast diode chain.
            let mut hau: Option<NodeRef> = None;
            for &pn in &p {
                let abs = g.add_node(NodeOp::Abs, vec![pn, qn], w, rc, errors);
                let complement = g.add_node(NodeOp::Sub, vec![vcc, abs], 1.0, rc, errors);
                hau = Some(match hau {
                    None => complement,
                    Some(prev) => g.add_node(NodeOp::Max, vec![prev, complement], 1.0, rc, errors),
                });
            }
            let hau = hau.expect("non-empty P");
            // Converter: Vcc − Hau(m, j).
            let min_j = g.add_node(NodeOp::Sub, vec![vcc, hau], 1.0, rc, errors);
            column_minima.push(min_j);
        }
        let out = g.add_node(NodeOp::Max, column_minima, 1.0, rc, errors);
        g.set_output(out);
        g
    }

    /// Hamming row graph (Fig. 2(e)).
    pub fn hamming(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        threshold_volts: f64,
        weights: &[f64],
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let contributions: Vec<NodeRef> = p
            .iter()
            .zip(&q)
            .map(|(&pn, &qn)| {
                g.add_node(
                    NodeOp::Mismatch {
                        threshold: threshold_volts,
                        v_step: config.v_step,
                    },
                    vec![pn, qn],
                    1.0,
                    rc,
                    errors,
                )
            })
            .collect();
        let out = g.add_node(
            NodeOp::AddWeighted(weights.to_vec()),
            contributions,
            1.0,
            rc,
            errors,
        );
        g.set_output(out);
        g
    }

    /// Manhattan row graph (Fig. 2(f)).
    pub fn manhattan(
        config: &AcceleratorConfig,
        p_volts: &[f64],
        q_volts: &[f64],
        weights: &[f64],
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let mut g = AnalogGraph::new(config.vcc);
        let rc = rc(config);
        let p: Vec<NodeRef> = p_volts.iter().map(|&v| g.input(v, errors)).collect();
        let q: Vec<NodeRef> = q_volts.iter().map(|&v| g.input(v, errors)).collect();
        let contributions: Vec<NodeRef> = p
            .iter()
            .zip(&q)
            .map(|(&pn, &qn)| g.add_node(NodeOp::Abs, vec![pn, qn], 1.0, rc, errors))
            .collect();
        let out = g.add_node(
            NodeOp::AddWeighted(weights.to_vec()),
            contributions,
            1.0,
            rc,
            errors,
        );
        g.set_output(out);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::builders;
    use super::*;
    use mda_distance::{Distance, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_defaults()
    }

    fn volts(config: &AcceleratorConfig, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| config.value_to_voltage(x)).collect()
    }

    #[test]
    fn dtw_steady_state_matches_digital_ideal() {
        let config = cfg();
        let p = [0.0, 1.0, 3.0, 2.0];
        let q = [0.5, 1.5, 2.5, 2.0];
        let g = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::ideal(),
        );
        let final_v = g.steady_state()[g.output().0];
        let expected = Dtw::new().evaluate(&p, &q).unwrap();
        assert!(
            (config.voltage_to_value(final_v) - expected).abs() < 1e-9,
            "ideal analog {} vs digital {expected}",
            config.voltage_to_value(final_v)
        );
    }

    #[test]
    fn lcs_steady_state_matches_digital_ideal() {
        let config = cfg();
        let p = [0.0, 1.0, 2.0, 5.0];
        let q = [0.0, 1.1, 2.0, -5.0];
        let g = builders::lcs(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            config.value_to_voltage(0.2),
            1.0,
            &mut ErrorModel::ideal(),
        );
        let final_v = g.steady_state()[g.output().0];
        let expected = Lcs::new(0.2).similarity(&p, &q).unwrap();
        assert!(
            (final_v / config.v_step - expected).abs() < 1e-9,
            "ideal analog {} vs digital {expected}",
            final_v / config.v_step
        );
    }

    #[test]
    fn edit_steady_state_matches_digital_ideal() {
        let config = cfg();
        let p = [0.0, 2.0, 4.0];
        let q = [0.0, 2.0, -4.0, 1.0];
        let g = builders::edit(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            config.value_to_voltage(0.2),
            &mut ErrorModel::ideal(),
        );
        let final_v = g.steady_state()[g.output().0];
        let expected = EditDistance::new(0.2).distance(&p, &q).unwrap();
        assert!(
            (final_v / config.v_step - expected).abs() < 1e-9,
            "ideal analog {} vs digital {expected}",
            final_v / config.v_step
        );
    }

    #[test]
    fn hausdorff_steady_state_matches_digital_ideal() {
        let config = cfg();
        let p = [0.0, 4.0];
        let q = [1.0, 3.5, 10.0];
        let g = builders::hausdorff(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            &mut ErrorModel::ideal(),
        );
        let final_v = g.steady_state()[g.output().0];
        let expected = Hausdorff::new().distance(&p, &q).unwrap();
        assert!(
            (config.voltage_to_value(final_v) - expected).abs() < 1e-9,
            "ideal analog {} vs digital {expected}",
            config.voltage_to_value(final_v)
        );
    }

    #[test]
    fn hamming_and_manhattan_steady_states_match_digital_ideal() {
        let config = cfg();
        let p = [0.0, 1.0, 2.0, 3.0];
        let q = [0.0, 5.0, 2.0, -3.0];
        let g = builders::hamming(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            config.value_to_voltage(0.2),
            &[1.0; 4],
            &mut ErrorModel::ideal(),
        );
        let v = g.steady_state()[g.output().0];
        let expected = Hamming::new(0.2).distance(&p, &q).unwrap();
        assert!((v / config.v_step - expected).abs() < 1e-9);

        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 4],
            &mut ErrorModel::ideal(),
        );
        let v = g.steady_state()[g.output().0];
        let expected = Manhattan::new().distance(&p, &q).unwrap();
        assert!((config.voltage_to_value(v) - expected).abs() < 1e-9);
    }

    #[test]
    fn banded_dtw_skips_cells() {
        let config = cfg();
        let p = vec![0.0; 10];
        let q = vec![0.0; 10];
        let full = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::ideal(),
        );
        let banded = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::SakoeChiba(1),
            &mut ErrorModel::ideal(),
        );
        assert!(banded.len() < full.len());
    }

    #[test]
    fn error_model_shifts_outputs_slightly() {
        let config = cfg();
        let p = [0.0, 1.0, 2.0];
        let q = [0.2, 1.4, 1.9];
        let ideal = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::ideal(),
        );
        let noisy = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::new(config.noise_seed),
        );
        let vi = ideal.steady_state()[ideal.output().0];
        let vn = noisy.steady_state()[noisy.output().0];
        assert_ne!(vi, vn);
        // ... but only slightly: millivolt-scale drift across a 3x3 array.
        assert!((vi - vn).abs() < 25.0e-3, "drift {}", (vi - vn).abs());
    }

    #[test]
    fn stuck_fault_changes_output_but_bounded_cells_limit_damage() {
        let config = cfg();
        let p = [0.0, 1.0, 2.0, 3.0];
        let q = [0.0, 0.0, 0.0, 0.0];
        let mut g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 4],
            &mut ErrorModel::ideal(),
        );
        let healthy = g.steady_state()[g.output().index()];
        // Stick the third abs module's output at 0 V (dead PE whose element
        // contributes |2 - 0| = 2 units).
        let victims = g.module_nodes();
        g.inject_stuck_fault(victims[2], 0.0);
        let faulty = g.steady_state()[g.output().index()];
        let damage = healthy - faulty;
        assert!(
            (damage - config.value_to_voltage(2.0)).abs() < 1e-9,
            "fault damage {} should equal the dead element's contribution",
            damage
        );
    }

    #[test]
    fn module_nodes_excludes_sources() {
        let config = cfg();
        let g = builders::manhattan(
            &config,
            &volts(&config, &[1.0]),
            &volts(&config, &[0.0]),
            &[1.0],
            &mut ErrorModel::ideal(),
        );
        let modules = g.module_nodes();
        // 1 abs + 1 adder.
        assert_eq!(modules.len(), 2);
    }

    #[test]
    fn fast_stages_have_small_tau() {
        let config = cfg();
        let g = builders::hausdorff(
            &config,
            &volts(&config, &[0.0, 1.0]),
            &volts(&config, &[0.5]),
            1.0,
            &mut ErrorModel::ideal(),
        );
        let max_tau = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Max))
            .map(|n| n.tau)
            .fold(0.0f64, f64::max);
        let sub_tau = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Sub))
            .map(|n| n.tau)
            .fold(0.0f64, f64::max);
        assert!(max_tau < sub_tau / 10.0, "max {max_tau} vs sub {sub_tau}");
    }
}
