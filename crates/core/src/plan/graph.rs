//! `EvalGraph` — the SSA dataflow IR the planner optimises.
//!
//! A graph is a sequence of nodes, each consuming and producing *values*
//! (SSA ids standing for ciphertexts). Every value records its producer,
//! its consumers, and level/scale metadata, so the optimizer passes can
//! reason about dataflow (who else rotates this value?) and noise (is a
//! rescale legal and profitable here?) without touching ciphertext data.
//!
//! A value's metadata follows from its producing op and that op's operands
//! by one rule, `EvalGraph::derive_meta`: the builder methods, the values
//! the passes create, and the re-derivation after bootstrap insertion all
//! read it.
//!
//! Graphs come from two front ends:
//!
//! * [`Recorder`](crate::recorder::Recorder) — wraps either backend: each
//!   executed operation resolves its operand ciphertexts to value ids by
//!   digest and appends a node, so *running a program* records its true
//!   dataflow, not just a flat operation count.
//! * [`compile_trace`](crate::plan::compile_trace) — lowers a flat
//!   `.pos` [`OpTrace`](crate::decompose::OpTrace) into an executable
//!   graph.

use std::collections::HashMap;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::integrity::digest_ciphertext;

/// Identifier of an SSA value (a ciphertext produced once, consumed
/// anywhere later).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) usize);

impl ValueId {
    /// The raw index (stable within one graph).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identifier of a graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable within one graph).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The operation a node performs. Plaintext operands are stored in the
/// graph's side table and referenced by index, keeping nodes cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// Graph input: binds the `slot`-th ciphertext the executor is given.
    Input {
        /// Position in the executor's input slice.
        slot: usize,
    },
    /// HAdd, ct+ct.
    Add,
    /// Subtraction (HAdd cost class).
    Sub,
    /// HAdd, ct+pt.
    AddPlain {
        /// Index into the plaintext side table.
        pt: usize,
    },
    /// PMult, ct·pt.
    MulPlain {
        /// Index into the plaintext side table.
        pt: usize,
    },
    /// CMult with relinearisation.
    Mul,
    /// Squaring (CMult cost class).
    Square,
    /// Rescale by the last live prime.
    Rescale,
    /// Level drop by modulus truncation.
    DropToLevel {
        /// Target level.
        level: usize,
    },
    /// Slot rotation.
    Rotate {
        /// Rotation amount.
        steps: i64,
    },
    /// Slot conjugation.
    Conjugate,
    /// Planner-introduced hoisted batch: all rotations of one source pay
    /// the keyswitch digit lift once (`try_rotate_many`). One output per
    /// step, in order.
    RotateMany {
        /// Rotation amounts, one per output.
        steps: Vec<i64>,
    },
    /// Planner-introduced weighted sum of one hoisted batch,
    /// `Σ_r pt_r ⊙ rot_r(x)`: a `RotateMany` whose outputs only ever met in
    /// one `Add` tree (through a `MulPlain` each, or bare), executed as one
    /// key-switch pass (`try_rotate_sum`). One output, the tree's root.
    RotateSum {
        /// Rotation amounts, one per term.
        steps: Vec<i64>,
        /// Per term, its weight's index into the plaintext side table.
        weights: Vec<Option<usize>>,
    },
    /// Planner-introduced ciphertext refresh: drop the operand to level 0,
    /// run the full bootstrapping pipeline, and conform the refreshed
    /// ciphertext to `target_level`. Inserted by the bootstrap-insertion
    /// pass when a chain exhausts the modulus; executed through
    /// `HomomorphicOps::try_bootstrap`.
    Bootstrap {
        /// Level the refreshed ciphertext is dropped to (must not exceed
        /// what the executing `Bootstrapper` can deliver).
        target_level: usize,
    },
}

impl GraphOp {
    /// Short lowercase name for display.
    pub fn name(&self) -> &'static str {
        match self {
            GraphOp::Input { .. } => "input",
            GraphOp::Add => "add",
            GraphOp::Sub => "sub",
            GraphOp::AddPlain { .. } => "add_plain",
            GraphOp::MulPlain { .. } => "mul_plain",
            GraphOp::Mul => "mul",
            GraphOp::Square => "square",
            GraphOp::Rescale => "rescale",
            GraphOp::DropToLevel { .. } => "drop_to_level",
            GraphOp::Rotate { .. } => "rotate",
            GraphOp::Conjugate => "conjugate",
            GraphOp::RotateMany { .. } => "rotate_many",
            GraphOp::RotateSum { .. } => "rotate_sum",
            GraphOp::Bootstrap { .. } => "bootstrap",
        }
    }
}

/// One operation in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node computes.
    pub op: GraphOp,
    /// Consumed values (operand order matters).
    pub inputs: Vec<ValueId>,
    /// Produced values (one, except `RotateMany`).
    pub outputs: Vec<ValueId>,
    pub(crate) dead: bool,
}

/// Metadata of one SSA value.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    /// The node that produces this value.
    pub producer: NodeId,
    /// Every node that consumes it (duplicates allowed when a node uses
    /// the same value twice).
    pub consumers: Vec<NodeId>,
    /// Ciphertext level (live scale primes).
    pub level: usize,
    /// log2 of the tracked scale — the noise-accounting view the rescale
    /// pass matches on.
    pub scale_bits: f64,
    pub(crate) dead: bool,
}

/// The SSA dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct EvalGraph {
    nodes: Vec<Node>,
    values: Vec<ValueInfo>,
    plaintexts: Vec<Plaintext>,
    inputs: Vec<ValueId>,
    outputs: Vec<ValueId>,
    /// Nominal bits removed by one rescale (≈ log2 of a scale prime);
    /// used for metadata propagation where the exact dropped prime is not
    /// known at planning time.
    rescale_bits: f64,
}

impl EvalGraph {
    /// An empty graph. `rescale_bits` is the nominal log2 of a scale
    /// prime (e.g. `params.scale_prime_bits`).
    pub fn new(rescale_bits: f64) -> Self {
        Self {
            rescale_bits,
            ..Self::default()
        }
    }

    /// All nodes, dead ones included ([`live_nodes`](Self::live_nodes)
    /// skips them).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All value records.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// The plaintext side table.
    pub fn plaintexts(&self) -> &[Plaintext] {
        &self.plaintexts
    }

    /// Graph input values, in executor binding order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// Graph output values.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Value lookup.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.0]
    }

    /// Iterator over live (not eliminated) node ids in creation order —
    /// the *unplanned* program order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| NodeId(i))
    }

    /// Number of live nodes.
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Number of live nodes matching a predicate on the op.
    pub fn count_ops(&self, f: impl Fn(&GraphOp) -> bool) -> usize {
        self.nodes.iter().filter(|n| !n.dead && f(&n.op)).count()
    }

    /// Every rotation step any live node needs, deduplicated and sorted —
    /// the key material an executor run requires.
    pub fn required_rotation_steps(&self) -> Vec<i64> {
        let mut steps: Vec<i64> = Vec::new();
        for n in self.nodes.iter().filter(|n| !n.dead) {
            match &n.op {
                GraphOp::Rotate { steps: s } => steps.push(*s),
                GraphOp::RotateMany { steps: ss } | GraphOp::RotateSum { steps: ss, .. } => {
                    steps.extend(ss)
                }
                _ => {}
            }
        }
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    // ---- construction -----------------------------------------------------

    /// The `(level, scale_bits)` of the value `op` produces from `inputs`:
    /// the one propagation rule. `None` for an `Input`, whose metadata is
    /// bound, not derived. A rescale removes the nominal `rescale_bits`,
    /// and a refresh delivers that scale; a `RotateSum`'s weights share one scale, so its first weight
    /// stands for all.
    pub(crate) fn derive_meta(&self, op: &GraphOp, inputs: &[ValueId]) -> Option<(usize, f64)> {
        let meta = |i: usize| {
            let v = &self.values[inputs[i].0];
            (v.level, v.scale_bits)
        };
        let pt_bits = |pt: usize| self.plaintexts[pt].scale().log2();
        Some(match op {
            GraphOp::Input { .. } => return None,
            GraphOp::Add | GraphOp::Sub => {
                let ((la, sa), (lb, sb)) = (meta(0), meta(1));
                (la.min(lb), sa.max(sb))
            }
            GraphOp::Mul => {
                let ((la, sa), (lb, sb)) = (meta(0), meta(1));
                (la.min(lb), sa + sb)
            }
            GraphOp::MulPlain { pt } => {
                let (l, s) = meta(0);
                (l, s + pt_bits(*pt))
            }
            GraphOp::RotateSum { weights, .. } => {
                let (l, s) = meta(0);
                let weight = weights.iter().flatten().next();
                (l, s + weight.map_or(0.0, |&pt| pt_bits(pt)))
            }
            GraphOp::Square => {
                let (l, s) = meta(0);
                (l, 2.0 * s)
            }
            GraphOp::Rescale => {
                let (l, s) = meta(0);
                (l.saturating_sub(1), s - self.rescale_bits)
            }
            GraphOp::DropToLevel { level } => (*level, meta(0).1),
            GraphOp::AddPlain { .. }
            | GraphOp::Rotate { .. }
            | GraphOp::Conjugate
            | GraphOp::RotateMany { .. } => meta(0),
            GraphOp::Bootstrap { target_level } => (*target_level, self.rescale_bits),
        })
    }

    fn push_with_meta(
        &mut self,
        op: GraphOp,
        inputs: Vec<ValueId>,
        (level, scale_bits): (usize, f64),
    ) -> ValueId {
        let nid = NodeId(self.nodes.len());
        for &v in &inputs {
            self.values[v.0].consumers.push(nid);
        }
        let out = ValueId(self.values.len());
        self.values.push(ValueInfo {
            producer: nid,
            consumers: Vec::new(),
            level,
            scale_bits,
            dead: false,
        });
        self.nodes.push(Node {
            op,
            inputs,
            outputs: vec![out],
            dead: false,
        });
        out
    }

    /// Appends `op` over `inputs` and the one value it produces, with the
    /// metadata [`derive_meta`](Self::derive_meta) gives it.
    pub(crate) fn push(&mut self, op: GraphOp, inputs: Vec<ValueId>) -> ValueId {
        let meta = self
            .derive_meta(&op, &inputs)
            .expect("inputs are bound through `input`");
        self.push_with_meta(op, inputs, meta)
    }

    /// Adds a graph input at the given level and scale (log2).
    pub fn input(&mut self, level: usize, scale_bits: f64) -> ValueId {
        let slot = self.inputs.len();
        let out = self.push_with_meta(GraphOp::Input { slot }, Vec::new(), (level, scale_bits));
        self.inputs.push(out);
        out
    }

    /// ct + ct.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(GraphOp::Add, vec![a, b])
    }

    /// ct − ct.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(GraphOp::Sub, vec![a, b])
    }

    /// Interns a plaintext in the side table.
    pub fn intern_plaintext(&mut self, pt: Plaintext) -> usize {
        self.plaintexts.push(pt);
        self.plaintexts.len() - 1
    }

    /// ct + pt.
    pub fn add_plain(&mut self, a: ValueId, pt: usize) -> ValueId {
        self.push(GraphOp::AddPlain { pt }, vec![a])
    }

    /// ct · pt (scale multiplies).
    pub fn mul_plain(&mut self, a: ValueId, pt: usize) -> ValueId {
        self.push(GraphOp::MulPlain { pt }, vec![a])
    }

    /// ct · ct with relinearisation (scales multiply).
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(GraphOp::Mul, vec![a, b])
    }

    /// ct² (scale squares).
    pub fn square(&mut self, a: ValueId) -> ValueId {
        self.push(GraphOp::Square, vec![a])
    }

    /// Rescale: drops a level, removes ≈`rescale_bits`.
    ///
    /// # Panics
    ///
    /// Panics when the value is already at level 0.
    pub fn rescale(&mut self, a: ValueId) -> ValueId {
        assert!(self.values[a.0].level > 0, "cannot rescale at level 0");
        self.push(GraphOp::Rescale, vec![a])
    }

    /// Level drop by truncation (no scale change).
    ///
    /// # Panics
    ///
    /// Panics when `level` exceeds the value's current level.
    pub fn drop_to_level(&mut self, a: ValueId, level: usize) -> ValueId {
        assert!(
            level <= self.values[a.0].level,
            "cannot raise a level by truncation"
        );
        self.push(GraphOp::DropToLevel { level }, vec![a])
    }

    /// Slot rotation.
    pub fn rotate(&mut self, a: ValueId, steps: i64) -> ValueId {
        self.push(GraphOp::Rotate { steps }, vec![a])
    }

    /// Slot conjugation.
    pub fn conjugate(&mut self, a: ValueId) -> ValueId {
        self.push(GraphOp::Conjugate, vec![a])
    }

    /// Ciphertext refresh to `target_level` at the nominal default scale
    /// (≈ `rescale_bits`). The executor drops the
    /// operand to level 0 and runs the bootstrapping pipeline.
    pub fn bootstrap(&mut self, a: ValueId, target_level: usize) -> ValueId {
        self.push(GraphOp::Bootstrap { target_level }, vec![a])
    }

    /// Marks a value as a graph output (idempotent). Outputs survive
    /// dead-value elimination and are returned by the executor in marking
    /// order.
    pub fn mark_output(&mut self, v: ValueId) {
        if !self.outputs.contains(&v) {
            self.outputs.push(v);
        }
    }

    /// Overrides a value's tracked metadata: the recorder, which knows the
    /// *actual* level and scale of the ciphertext it captured, and the
    /// re-derivation after bootstrap insertion.
    pub(crate) fn set_value_meta(&mut self, v: ValueId, level: usize, scale_bits: f64) {
        self.values[v.0].level = level;
        self.values[v.0].scale_bits = scale_bits;
    }

    // ---- pass support -----------------------------------------------------

    pub(crate) fn kill_node(&mut self, n: NodeId) {
        self.nodes[n.0].dead = true;
    }

    pub(crate) fn kill_value(&mut self, v: ValueId) {
        self.values[v.0].dead = true;
    }

    /// Adds `consumer` to `v`'s consumer list (pass rewires that retarget
    /// an existing node onto a new operand).
    pub(crate) fn subscribe(&mut self, v: ValueId, consumer: NodeId) {
        self.values[v.0].consumers.push(consumer);
    }

    /// Removes one occurrence of `consumer` from `v`'s consumer list.
    pub(crate) fn unsubscribe(&mut self, v: ValueId, consumer: NodeId) {
        let list = &mut self.values[v.0].consumers;
        if let Some(pos) = list.iter().position(|&c| c == consumer) {
            list.remove(pos);
        }
    }

    /// Appends a node with explicit outputs (pass rewrites that re-home
    /// existing value ids onto a new producer).
    pub(crate) fn push_raw_node(
        &mut self,
        op: GraphOp,
        inputs: Vec<ValueId>,
        outputs: Vec<ValueId>,
    ) -> NodeId {
        let nid = NodeId(self.nodes.len());
        for &v in &inputs {
            self.values[v.0].consumers.push(nid);
        }
        for &o in &outputs {
            self.values[o.0].producer = nid;
        }
        self.nodes.push(Node {
            op,
            inputs,
            outputs,
            dead: false,
        });
        nid
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Whether `v` is a graph output.
    pub fn is_output(&self, v: ValueId) -> bool {
        self.outputs.contains(&v)
    }

    /// Checks internal coherence: producers/consumers agree with node
    /// input/output lists, live nodes only reference live values, the
    /// graph is schedulable (acyclic). Used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.dead {
                continue;
            }
            for &v in &n.inputs {
                let info = &self.values[v.0];
                if info.dead {
                    return Err(format!("node {i} consumes dead value {}", v.0));
                }
                if !info.consumers.contains(&NodeId(i)) {
                    return Err(format!("value {} missing consumer {i}", v.0));
                }
            }
            for &o in &n.outputs {
                let info = &self.values[o.0];
                if info.dead {
                    return Err(format!("node {i} produces dead value {}", o.0));
                }
                if info.producer != NodeId(i) {
                    return Err(format!("value {} producer mismatch", o.0));
                }
            }
        }
        for &o in &self.outputs {
            if self.values[o.0].dead {
                return Err(format!("graph output {} is dead", o.0));
            }
        }
        // Acyclicity: every live node's inputs must be producible before
        // it in *some* order — Kahn count must cover all live nodes.
        let mut indeg: HashMap<usize, usize> = HashMap::new();
        for id in self.live_nodes() {
            indeg.insert(id.0, self.node(id).inputs.len());
        }
        let mut ready: Vec<usize> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&i, _)| i)
            .collect();
        let mut seen = 0usize;
        while let Some(i) = ready.pop() {
            seen += 1;
            for &o in &self.nodes[i].outputs {
                for &c in &self.values[o.0].consumers {
                    if let Some(d) = indeg.get_mut(&c.0) {
                        *d -= 1;
                        if *d == 0 {
                            ready.push(c.0);
                        }
                    }
                }
            }
        }
        if seen != self.live_node_count() {
            return Err("graph contains a cycle".into());
        }
        Ok(())
    }
}

/// Incremental graph capture by ciphertext digest: resolves operand
/// ciphertexts to SSA ids (first sight of a ciphertext makes it a graph
/// input) and appends nodes as operations execute. The digest is FNV-1a
/// over the full residue data ([`digest_ciphertext`]), so two bit-equal
/// ciphertexts unify onto one value — re-recording a value refreshes the
/// mapping to the newest id.
#[derive(Debug)]
pub(crate) struct GraphRecorder {
    graph: EvalGraph,
    by_digest: HashMap<u64, ValueId>,
    explicit_outputs: bool,
}

impl GraphRecorder {
    /// An empty recorder; `rescale_bits` as in [`EvalGraph::new`].
    pub(crate) fn new(rescale_bits: f64) -> Self {
        Self {
            graph: EvalGraph::new(rescale_bits),
            by_digest: HashMap::new(),
            explicit_outputs: false,
        }
    }

    /// Resolves a ciphertext to its value id, registering it as a fresh
    /// graph input when unseen.
    fn resolve(&mut self, ct: &Ciphertext) -> ValueId {
        let d = digest_ciphertext(ct);
        if let Some(&v) = self.by_digest.get(&d) {
            return v;
        }
        let v = self.graph.input(ct.level(), ct.scale().log2());
        self.by_digest.insert(d, v);
        v
    }

    /// Records `out`, which `op` produced from `operands` (in operand order;
    /// a plaintext operand is interned first, through
    /// [`intern_plaintext`](Self::intern_plaintext)). The value takes the
    /// ciphertext's actual level and scale.
    pub(crate) fn record(&mut self, op: GraphOp, operands: &[&Ciphertext], out: &Ciphertext) {
        let inputs = operands.iter().map(|ct| self.resolve(ct)).collect();
        let v = self.graph.push(op, inputs);
        self.graph
            .set_value_meta(v, out.level(), out.scale().log2());
        self.by_digest.insert(digest_ciphertext(out), v);
    }

    /// Interns a plaintext operand.
    pub(crate) fn intern_plaintext(&mut self, pt: Plaintext) -> usize {
        self.graph.intern_plaintext(pt)
    }

    /// Marks a previously recorded ciphertext as a graph output. Returns
    /// `false` (and does nothing) for a ciphertext the recorder has never
    /// seen.
    pub(crate) fn mark_output(&mut self, ct: &Ciphertext) -> bool {
        let d = digest_ciphertext(ct);
        match self.by_digest.get(&d) {
            Some(&v) => {
                self.graph.mark_output(v);
                self.explicit_outputs = true;
                true
            }
            None => false,
        }
    }

    /// Finishes capture. Without explicit output marks, every leaf value
    /// (produced but never consumed) becomes an output, so a replay
    /// reproduces everything the recorded run kept.
    pub(crate) fn finish(mut self) -> EvalGraph {
        if !self.explicit_outputs {
            let leaves: Vec<ValueId> = self
                .graph
                .values()
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.dead && v.consumers.is_empty())
                .map(|(i, _)| ValueId(i))
                .filter(|&v| {
                    !matches!(
                        self.graph.node(self.graph.value(v).producer).op,
                        GraphOp::Input { .. }
                    )
                })
                .collect();
            for v in leaves {
                self.graph.mark_output(v);
            }
        }
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> (EvalGraph, ValueId) {
        let mut g = EvalGraph::new(40.0);
        let a = g.input(3, 40.0);
        let b = g.input(3, 40.0);
        let s = g.add(a, b);
        let r = g.rotate(s, 1);
        g.mark_output(r);
        (g, s)
    }

    #[test]
    fn builder_tracks_dataflow() {
        let (g, s) = toy_graph();
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.value(s).consumers.len(), 1);
        assert_eq!(g.required_rotation_steps(), vec![1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn metadata_propagates() {
        let mut g = EvalGraph::new(40.0);
        let a = g.input(3, 40.0);
        let sq = g.square(a);
        assert_eq!(g.value(sq).level, 3);
        assert!((g.value(sq).scale_bits - 80.0).abs() < 1e-9);
        let rs = g.rescale(sq);
        assert_eq!(g.value(rs).level, 2);
        assert!((g.value(rs).scale_bits - 40.0).abs() < 1e-9);
        let d = g.drop_to_level(rs, 1);
        assert_eq!(g.value(d).level, 1);
    }

    #[test]
    #[should_panic(expected = "level 0")]
    fn rescale_at_level_zero_is_rejected() {
        let mut g = EvalGraph::new(40.0);
        let a = g.input(0, 40.0);
        let _ = g.rescale(a);
    }

    #[test]
    fn validate_catches_broken_consumer_lists() {
        let (mut g, s) = toy_graph();
        g.values[s.0].consumers.clear();
        assert!(g.validate().is_err());
    }
}
