//! `EvalGraph` — the SSA dataflow IR the planner optimises.
//!
//! A graph is a sequence of nodes, each consuming and producing *values*
//! (SSA ids standing for ciphertexts). Every value records its producer,
//! its consumers, and level/scale metadata, so the optimizer passes can
//! reason about dataflow (who else rotates this value?) and noise (is a
//! rescale legal and profitable here?) without touching ciphertext data.
//!
//! Graphs come from two front ends:
//!
//! * [`GraphRecorder`] — drives graph capture inside
//!   [`RecordingEvaluator`](crate::recorder::RecordingEvaluator): each
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

impl Node {
    /// Whether a pass tombstoned this node.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
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

impl ValueInfo {
    /// Whether a pass tombstoned this value.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
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

    /// Nominal bits one rescale removes.
    pub fn rescale_bits(&self) -> f64 {
        self.rescale_bits
    }

    /// All nodes (including dead ones — check [`Node::is_dead`] or use
    /// [`live_nodes`](Self::live_nodes)).
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

    /// Whether any live node conjugates (needs the conjugation key).
    pub fn needs_conjugation_key(&self) -> bool {
        self.count_ops(|op| matches!(op, GraphOp::Conjugate)) > 0
    }

    // ---- construction -----------------------------------------------------

    fn push_value(&mut self, producer: NodeId, level: usize, scale_bits: f64) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(ValueInfo {
            producer,
            consumers: Vec::new(),
            level,
            scale_bits,
            dead: false,
        });
        id
    }

    fn push_node(
        &mut self,
        op: GraphOp,
        inputs: Vec<ValueId>,
        level: usize,
        scale_bits: f64,
    ) -> ValueId {
        let nid = NodeId(self.nodes.len());
        for &v in &inputs {
            self.values[v.0].consumers.push(nid);
        }
        self.nodes.push(Node {
            op,
            inputs,
            outputs: Vec::new(),
            dead: false,
        });
        let out = self.push_value(nid, level, scale_bits);
        self.nodes[nid.0].outputs.push(out);
        out
    }

    /// Adds a graph input at the given level and scale (log2).
    pub fn input(&mut self, level: usize, scale_bits: f64) -> ValueId {
        let slot = self.inputs.len();
        let out = self.push_node(GraphOp::Input { slot }, Vec::new(), level, scale_bits);
        self.inputs.push(out);
        out
    }

    fn binary_meta(&self, a: ValueId, b: ValueId) -> (usize, f64) {
        let (va, vb) = (&self.values[a.0], &self.values[b.0]);
        (va.level.min(vb.level), va.scale_bits.max(vb.scale_bits))
    }

    /// ct + ct.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let (level, sb) = self.binary_meta(a, b);
        self.push_node(GraphOp::Add, vec![a, b], level, sb)
    }

    /// ct − ct.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let (level, sb) = self.binary_meta(a, b);
        self.push_node(GraphOp::Sub, vec![a, b], level, sb)
    }

    /// Interns a plaintext in the side table.
    pub fn intern_plaintext(&mut self, pt: Plaintext) -> usize {
        self.plaintexts.push(pt);
        self.plaintexts.len() - 1
    }

    /// ct + pt.
    pub fn add_plain(&mut self, a: ValueId, pt: usize) -> ValueId {
        let (level, sb) = (self.values[a.0].level, self.values[a.0].scale_bits);
        self.push_node(GraphOp::AddPlain { pt }, vec![a], level, sb)
    }

    /// ct · pt (scale multiplies).
    pub fn mul_plain(&mut self, a: ValueId, pt: usize) -> ValueId {
        let pt_bits = self.plaintexts[pt].scale().log2();
        let (level, sb) = (self.values[a.0].level, self.values[a.0].scale_bits);
        self.push_node(GraphOp::MulPlain { pt }, vec![a], level, sb + pt_bits)
    }

    /// ct · ct with relinearisation (scales multiply).
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        let (va, vb) = (&self.values[a.0], &self.values[b.0]);
        let (level, sb) = (va.level.min(vb.level), va.scale_bits + vb.scale_bits);
        self.push_node(GraphOp::Mul, vec![a, b], level, sb)
    }

    /// ct² (scale squares).
    pub fn square(&mut self, a: ValueId) -> ValueId {
        let (level, sb) = (self.values[a.0].level, self.values[a.0].scale_bits);
        self.push_node(GraphOp::Square, vec![a], level, 2.0 * sb)
    }

    /// Rescale: drops a level, removes ≈[`rescale_bits`](Self::rescale_bits).
    ///
    /// # Panics
    ///
    /// Panics when the value is already at level 0.
    pub fn rescale(&mut self, a: ValueId) -> ValueId {
        let v = &self.values[a.0];
        assert!(v.level > 0, "cannot rescale at level 0");
        let (level, sb) = (v.level - 1, v.scale_bits - self.rescale_bits);
        self.push_node(GraphOp::Rescale, vec![a], level, sb)
    }

    /// Level drop by truncation (no scale change).
    ///
    /// # Panics
    ///
    /// Panics when `level` exceeds the value's current level.
    pub fn drop_to_level(&mut self, a: ValueId, level: usize) -> ValueId {
        let v = &self.values[a.0];
        assert!(level <= v.level, "cannot raise a level by truncation");
        let sb = v.scale_bits;
        self.push_node(GraphOp::DropToLevel { level }, vec![a], level, sb)
    }

    /// Slot rotation.
    pub fn rotate(&mut self, a: ValueId, steps: i64) -> ValueId {
        let (level, sb) = (self.values[a.0].level, self.values[a.0].scale_bits);
        self.push_node(GraphOp::Rotate { steps }, vec![a], level, sb)
    }

    /// Slot conjugation.
    pub fn conjugate(&mut self, a: ValueId) -> ValueId {
        let (level, sb) = (self.values[a.0].level, self.values[a.0].scale_bits);
        self.push_node(GraphOp::Conjugate, vec![a], level, sb)
    }

    /// Ciphertext refresh to `target_level` at the nominal default scale
    /// (≈ [`rescale_bits`](Self::rescale_bits)). The executor drops the
    /// operand to level 0 and runs the bootstrapping pipeline.
    pub fn bootstrap(&mut self, a: ValueId, target_level: usize) -> ValueId {
        let sb = self.rescale_bits;
        self.push_node(
            GraphOp::Bootstrap { target_level },
            vec![a],
            target_level,
            sb,
        )
    }

    /// Marks a value as a graph output (idempotent). Outputs survive
    /// dead-value elimination and are returned by the executor in marking
    /// order.
    pub fn mark_output(&mut self, v: ValueId) {
        if !self.outputs.contains(&v) {
            self.outputs.push(v);
        }
    }

    /// Overrides a value's tracked metadata (used by the recorder, which
    /// knows the *actual* level and scale of the ciphertext it captured).
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

    /// Creates a fresh value owned by `producer`.
    pub(crate) fn fresh_value(
        &mut self,
        producer: NodeId,
        level: usize,
        scale_bits: f64,
    ) -> ValueId {
        self.push_value(producer, level, scale_bits)
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
#[derive(Debug, Default)]
pub struct GraphRecorder {
    graph: EvalGraph,
    by_digest: HashMap<u64, ValueId>,
    explicit_outputs: bool,
}

impl GraphRecorder {
    /// An empty recorder; `rescale_bits` as in [`EvalGraph::new`].
    pub fn new(rescale_bits: f64) -> Self {
        Self {
            graph: EvalGraph::new(rescale_bits),
            by_digest: HashMap::new(),
            explicit_outputs: false,
        }
    }

    /// Resolves a ciphertext to its value id, registering it as a fresh
    /// graph input when unseen.
    pub fn resolve(&mut self, ct: &Ciphertext) -> ValueId {
        let d = digest_ciphertext(ct);
        if let Some(&v) = self.by_digest.get(&d) {
            return v;
        }
        let v = self.graph.input(ct.level(), ct.scale().log2());
        self.by_digest.insert(d, v);
        v
    }

    fn register(&mut self, out_v: ValueId, out: &Ciphertext) {
        self.graph
            .set_value_meta(out_v, out.level(), out.scale().log2());
        self.by_digest.insert(digest_ciphertext(out), out_v);
    }

    /// Records a two-ciphertext operation.
    pub fn record_binary(&mut self, op: GraphOp, a: &Ciphertext, b: &Ciphertext, out: &Ciphertext) {
        let (va, vb) = (self.resolve(a), self.resolve(b));
        let out_v = match op {
            GraphOp::Add => self.graph.add(va, vb),
            GraphOp::Sub => self.graph.sub(va, vb),
            GraphOp::Mul => self.graph.mul(va, vb),
            other => panic!("not a binary ciphertext op: {}", other.name()),
        };
        self.register(out_v, out);
    }

    /// Records a one-ciphertext operation (plaintext operands are interned
    /// by the caller via [`intern_plaintext`](Self::intern_plaintext)).
    pub fn record_unary(&mut self, op: GraphOp, a: &Ciphertext, out: &Ciphertext) {
        let va = self.resolve(a);
        let out_v = match op {
            GraphOp::AddPlain { pt } => self.graph.add_plain(va, pt),
            GraphOp::MulPlain { pt } => self.graph.mul_plain(va, pt),
            GraphOp::Square => self.graph.square(va),
            GraphOp::Rescale => self.graph.rescale(va),
            GraphOp::DropToLevel { level } => self.graph.drop_to_level(va, level),
            GraphOp::Rotate { steps } => self.graph.rotate(va, steps),
            GraphOp::Conjugate => self.graph.conjugate(va),
            other => panic!("not a unary ciphertext op: {}", other.name()),
        };
        self.register(out_v, out);
    }

    /// Interns a plaintext operand.
    pub fn intern_plaintext(&mut self, pt: Plaintext) -> usize {
        self.graph.intern_plaintext(pt)
    }

    /// Marks a previously recorded ciphertext as a graph output. Returns
    /// `false` (and does nothing) for a ciphertext the recorder has never
    /// seen.
    pub fn mark_output(&mut self, ct: &Ciphertext) -> bool {
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
    pub fn finish(mut self) -> EvalGraph {
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

    /// A snapshot of the graph captured so far (leaf-output completion as
    /// in [`finish`](Self::finish), without consuming the recorder).
    pub fn snapshot(&self) -> EvalGraph {
        let clone = Self {
            graph: self.graph.clone(),
            by_digest: HashMap::new(),
            explicit_outputs: self.explicit_outputs,
        };
        clone.finish()
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
