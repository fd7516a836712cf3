//! Optimizer passes over [`EvalGraph`] and the live-range-aware
//! scheduler that turns an optimized graph into a [`Plan`].
//!
//! Pass pipeline (in application order; every pass always runs, after
//! bootstrap insertion when [`PlanOptions::bootstrap`] asks for it):
//!
//! 1. **Rescale fusion** — `add(rescale(x), rescale(y))` →
//!    `rescale(add(x, y))`, applied to fixpoint so sequential
//!    accumulation chains collapse K rescales into one.
//! 2. **Rotation hoisting** — all rotations of the same source value
//!    anywhere in the graph become one `RotateMany` node, paying the
//!    keyswitch digit lift + forward NTTs once (Halevi-Shoup).
//! 3. **Rotation-sum fusion** — the second hoist: a `RotateMany` whose
//!    outputs only meet again in one `Add` tree, each bare or through one
//!    `MulPlain`, becomes one `RotateSum` node — the whole layer
//!    `Σ_r pt_r ⊙ rot_r(x)` as one key-switch pass, one inverse NTT and
//!    Moddown for the sum instead of one per rotation.
//! 4. **Dead-value elimination** — reverse reachability from the graph
//!    outputs; unreached compute nodes are tombstoned.
//! 5. **Scheduling** — Kahn's algorithm with a deterministic score that
//!    prefers (a) nodes that release their operands (shrinking the live
//!    set → scratch-pool reuse) and (b) nodes sharing an operand with the
//!    previously scheduled node (keyswitch-key/digit cache affinity).
//!
//! Passes 2, 4 and 5 are bit-preserving; pass 1 changes where rescales
//! land and pass 3 rounds a sum once instead of once per term, which change
//! ciphertext bits but preserve decrypted values (same primes dropped, same
//! final level/scale) — the plan records this in [`Plan::value_preserving`]
//! so callers know whether digest pinning applies.

use std::collections::HashMap;
use std::sync::OnceLock;

use he_ckks::context::CkksContext;
use he_ckks::error::EvalError;
use he_ckks::eval::{Evaluator, PlainOperand};
use he_ckks::params::CkksParams;

use crate::plan::compile::SCALE_MARGIN_BITS;
use crate::plan::graph::{EvalGraph, GraphOp, NodeId, ValueId};
use crate::plan::PlanError;

/// Rotations of one source it takes before hoisting them into a
/// `RotateMany` pays.
const MIN_HOIST: usize = 2;

/// What [`plan`] is given besides the graph. Every pass always runs;
/// [`Plan::passthrough`] is the unplanned baseline. Default: a fan cap of 8,
/// no bootstrap insertion.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// `.pos` lowering fan cap, forwarded to
    /// [`CompileOptions::count_cap`](crate::plan::compile::CompileOptions)
    /// by [`plan_trace`](crate::plan::compile::plan_trace).
    pub count_cap: u64,
    /// Enable the bootstrap-insertion pass: a chain that exhausts the
    /// modulus gets a refresh, or [`plan`] reports why it cannot.
    pub bootstrap: Option<BootstrapOptions>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            count_cap: 8,
            bootstrap: None,
        }
    }
}

/// The modulus-chain budget the bootstrap-insertion pass checks values
/// against — the same pressure rule the `.pos` lowering applies
/// ([`SCALE_MARGIN_BITS`] of decryption headroom under the live modulus
/// bits).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseBudget {
    /// log2 of the first (base) prime.
    pub first_prime_bits: f64,
    /// log2 of one scale prime (bits regained per level).
    pub scale_prime_bits: f64,
    /// Required decryption headroom.
    pub margin_bits: f64,
}

impl NoiseBudget {
    /// The budget implied by a parameter set, with the lowering's margin.
    fn from_params(params: &CkksParams) -> Self {
        Self {
            first_prime_bits: f64::from(params.first_prime_bits),
            scale_prime_bits: f64::from(params.scale_prime_bits),
            margin_bits: SCALE_MARGIN_BITS,
        }
    }

    /// Live modulus bits at `level`.
    pub fn total_bits(&self, level: usize) -> f64 {
        self.first_prime_bits + level as f64 * self.scale_prime_bits
    }

    /// Would a value at `level` with `scale_bits` still decrypt (with
    /// margin)?
    pub fn fits(&self, level: usize, scale_bits: f64) -> bool {
        scale_bits + self.margin_bits < self.total_bits(level)
    }
}

/// Policy for the bootstrap-insertion pass.
#[derive(Debug, Clone)]
pub struct BootstrapOptions {
    /// Whether the executing tenant holds bootstrap key material (sparse
    /// secret, required rotation + conjugation keys). When false, an
    /// exhausted chain is a typed [`PlanError::BudgetExhausted`] instead
    /// of an inserted refresh.
    pub key_available: bool,
    /// Level inserted `Bootstrap` nodes refresh to. Must not exceed what
    /// the executing `Bootstrapper` delivers (the executor fails with
    /// `LevelMismatch` otherwise). Levels ≥ 2 leave room for a squaring
    /// right after the refresh.
    pub refresh_level: usize,
    /// The modulus budget violations are measured against.
    pub budget: NoiseBudget,
}

impl BootstrapOptions {
    /// Insertion enabled for a tenant holding bootstrap keys.
    pub fn for_params(params: &CkksParams, refresh_level: usize) -> Self {
        Self {
            key_available: true,
            refresh_level,
            budget: NoiseBudget::from_params(params),
        }
    }

    /// Budget *checking* without key material: exhausted chains become
    /// typed errors at plan time instead of runtime garbage.
    pub fn without_key(params: &CkksParams, refresh_level: usize) -> Self {
        Self {
            key_available: false,
            refresh_level,
            budget: NoiseBudget::from_params(params),
        }
    }
}

/// What the passes did, for reporting and assertions.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Live nodes before any pass ran.
    pub nodes_before: usize,
    /// Live nodes after all passes.
    pub nodes_after: usize,
    /// Rescale nodes before / after placement.
    pub rescales_before: usize,
    /// Rescale nodes after placement.
    pub rescales_after: usize,
    /// Add-of-rescales rewrites applied.
    pub rescales_fused: usize,
    /// Sizes of each hoisted rotation batch (≥ 2 each).
    pub hoist_batches: Vec<usize>,
    /// Sizes of the hoisted batches that were fused, with their plaintext
    /// products and `Add` tree, into one `RotateSum` node each.
    pub rotation_sums: Vec<usize>,
    /// Nodes removed by dead-value elimination.
    pub dead_removed: usize,
    /// Peak live ciphertext count of the creation-order schedule.
    pub max_live_before: usize,
    /// Peak live ciphertext count of the emitted schedule.
    pub max_live_after: usize,
    /// `.pos` fan repetitions the lowering cap dropped (filled by
    /// [`plan_trace`](crate::plan::compile::plan_trace); 0 for recorded
    /// graphs).
    pub truncated: u64,
    /// `Bootstrap` nodes the insertion pass added.
    pub bootstraps_inserted: usize,
}

/// An optimized, executable schedule over an [`EvalGraph`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// The (rewritten) graph.
    pub graph: EvalGraph,
    /// Topological node order the executor replays.
    pub schedule: Vec<NodeId>,
    /// `release[i]` — values whose last use is step `i` (graph outputs
    /// excluded); the executor frees their slots after the step.
    pub release: Vec<Vec<ValueId>>,
    /// Whether every applied rewrite was bit-preserving. When true, a
    /// planned replay on `Evaluator` is digest-identical to the unplanned
    /// one; when false (rescale placement or rotation-sum fusion fired)
    /// outputs agree only as decrypted values.
    pub value_preserving: bool,
    /// Pass telemetry.
    pub stats: PlanStats,
    /// Per side-table plaintext, its prepared form once a `RotateSum` has
    /// asked for it: built by the plan's first execution, read by the rest.
    /// Kept here and nowhere wider, so it is freed with the plan and can
    /// never be served to another plan's plaintext.
    operands: Vec<OnceLock<PlainOperand>>,
}

impl Plan {
    /// The unplanned baseline: creation-order schedule, no rewrites.
    pub fn passthrough(graph: EvalGraph) -> Self {
        let schedule: Vec<NodeId> = graph.live_nodes().collect();
        let (release, max_live) = compute_release(&graph, &schedule);
        let n = graph.live_node_count();
        let rescales = graph.count_ops(|op| matches!(op, GraphOp::Rescale));
        Plan {
            operands: Vec::new(),
            graph,
            schedule,
            release,
            value_preserving: true,
            stats: PlanStats {
                nodes_before: n,
                nodes_after: n,
                rescales_before: rescales,
                rescales_after: rescales,
                max_live_before: max_live,
                max_live_after: max_live,
                ..PlanStats::default()
            },
        }
    }
}

impl Plan {
    /// Side-table plaintext `pt` as a `RotateSum` weight: prepared over
    /// `ctx` at the plaintext's own level — every level it could multiply
    /// at — on first use, then kept.
    pub(crate) fn operand(&self, pt: usize, ctx: &CkksContext) -> Result<&PlainOperand, EvalError> {
        let cell = &self.operands[pt];
        if let Some(prepared) = cell.get() {
            return Ok(prepared);
        }
        let plain = &self.graph.plaintexts()[pt];
        let eval = Evaluator::new(ctx);
        let prepared = eval.prepare_plain(plain, plain.level())?;
        Ok(cell.get_or_init(|| prepared))
    }
}

/// Runs the pass pipeline — including the bootstrap-insertion pass when
/// [`PlanOptions::bootstrap`] is set — and schedules the result.
///
/// # Errors
///
/// Only with [`PlanOptions::bootstrap`] set:
/// [`PlanError::BudgetExhausted`] when a chain exhausts the modulus and no
/// bootstrap key is available; [`PlanError::ScaleOverflow`] when even a
/// refreshed operand cannot fund the exhausted operation.
pub fn plan(mut graph: EvalGraph, opts: &PlanOptions) -> Result<Plan, PlanError> {
    let mut stats = PlanStats {
        nodes_before: graph.live_node_count(),
        rescales_before: graph.count_ops(|op| matches!(op, GraphOp::Rescale)),
        ..PlanStats::default()
    };
    {
        let creation: Vec<NodeId> = graph.live_nodes().collect();
        let (_, max_live) = compute_release(&graph, &creation);
        stats.max_live_before = max_live;
    }

    if let Some(bs) = &opts.bootstrap {
        stats.bootstraps_inserted = insert_bootstraps(&mut graph, bs)?;
    }
    loop {
        let fused = fuse_rescales(&mut graph);
        if fused == 0 {
            break;
        }
        stats.rescales_fused += fused;
    }
    stats.hoist_batches = hoist_rotations(&mut graph);
    stats.rotation_sums = fuse_rotation_sums(&mut graph);
    stats.dead_removed = eliminate_dead(&mut graph);
    debug_assert_eq!(graph.validate(), Ok(()));
    // A refresh re-encrypts through the bootstrapping pipeline, a fused
    // rescale drops its prime elsewhere, and a fused sum rounds once
    // instead of once per rotation: decrypted values agree, bits do not.
    let value_preserving = stats.bootstraps_inserted == 0
        && stats.rescales_fused == 0
        && stats.rotation_sums.is_empty();

    let schedule = schedule_affinity(&graph);
    let (release, max_live) = compute_release(&graph, &schedule);

    stats.nodes_after = graph.live_node_count();
    stats.rescales_after = graph.count_ops(|op| matches!(op, GraphOp::Rescale));
    stats.max_live_after = max_live;

    Ok(Plan {
        operands: vec![OnceLock::new(); graph.plaintexts().len()],
        graph,
        schedule,
        release,
        value_preserving,
        stats,
    })
}

/// Deterministic topological order (Kahn, lowest node index first) over
/// the live nodes — creation order is not topological once passes append
/// nodes that feed earlier consumers.
fn topo_order(g: &EvalGraph) -> Vec<NodeId> {
    let mut indeg: HashMap<NodeId, usize> = HashMap::new();
    for nid in g.live_nodes() {
        indeg.insert(nid, g.node(nid).inputs.len());
    }
    let mut ready: Vec<NodeId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    // Descending sort so `pop()` yields the smallest id.
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(indeg.len());
    while let Some(nid) = ready.pop() {
        order.push(nid);
        for &o in &g.node(nid).outputs {
            for &c in &g.value(o).consumers {
                if let Some(d) = indeg.get_mut(&c) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        ready.sort_unstable_by(|a, b| b.cmp(a));
        ready.dedup();
    }
    debug_assert_eq!(order.len(), g.live_node_count());
    order
}

/// Re-derives every live value's level/scale metadata from its producer in
/// topological order, by [`EvalGraph::derive_meta`]; inputs keep theirs.
/// Needed after bootstrap insertion: a refresh raises its operand's level,
/// and everything downstream shifts with it.
fn recompute_metadata(g: &mut EvalGraph) {
    for nid in topo_order(g) {
        let node = g.node(nid);
        let Some((level, scale_bits)) = g.derive_meta(&node.op, &node.inputs) else {
            continue;
        };
        for o in node.outputs.clone() {
            g.set_value_meta(o, level, scale_bits);
        }
    }
}

/// First (topologically) live non-input node producing a value outside
/// the budget, with that value.
fn first_violation(g: &EvalGraph, budget: &NoiseBudget) -> Option<(NodeId, ValueId)> {
    for nid in topo_order(g) {
        let node = g.node(nid);
        // Inputs arrive as-is; an explicit level descent adds no scale
        // (a squeezed-but-decryptable value at the chain floor — the
        // exhaust-before-refresh idiom — only becomes a violation when
        // an arithmetic consumer pushes it past the modulus, and that
        // consumer is where the refresh belongs).
        if matches!(node.op, GraphOp::Input { .. } | GraphOp::DropToLevel { .. }) {
            continue;
        }
        for &o in &node.outputs {
            let v = g.value(o);
            if !v.dead && !budget.fits(v.level, v.scale_bits) {
                return Some((nid, o));
            }
        }
    }
    None
}

/// The bootstrap-insertion pass: while some node's output exhausts the
/// modulus budget, splice a `Bootstrap` refresh onto that node's
/// ciphertext operand (the condition under which the `.pos` lowering's
/// `make_room` closes a segment). Insertion is rejected — with a typed
/// error — when no bootstrap key is registered, or when even a refreshed
/// operand cannot fund the operation (parameters too small).
fn insert_bootstraps(g: &mut EvalGraph, opts: &BootstrapOptions) -> Result<usize, PlanError> {
    let mut inserted = 0usize;
    loop {
        let Some((nid, violating)) = first_violation(g, &opts.budget) else {
            return Ok(inserted);
        };
        let (level, scale_bits) = {
            let i = g.value(violating);
            (i.level, i.scale_bits)
        };
        if !opts.key_available {
            return Err(PlanError::BudgetExhausted {
                value: violating.index(),
                level,
                scale_bits,
                reason: "no bootstrap key registered for this tenant",
            });
        }
        let node = g.node(nid);
        let Some(&x) = node.inputs.first() else {
            return Err(PlanError::BudgetExhausted {
                value: violating.index(),
                level,
                scale_bits,
                reason: "exhausted value has no ciphertext operand to refresh",
            });
        };
        // If the operand is already freshly bootstrapped (or the node IS
        // a refresh), another refresh cannot help: the op itself does not
        // fit the chain.
        if matches!(node.op, GraphOp::Bootstrap { .. })
            || matches!(g.node(g.value(x).producer).op, GraphOp::Bootstrap { .. })
        {
            return Err(PlanError::ScaleOverflow {
                level,
                scale_bits,
                total_bits: opts.budget.total_bits(level),
            });
        }
        // Splice: bootstrap(x) → b, retarget every occurrence of x in
        // `nid` onto b (other consumers keep the unrefreshed x).
        let refresh = GraphOp::Bootstrap {
            target_level: opts.refresh_level,
        };
        let b = g.push(refresh, vec![x]);
        let occurrences = g.node(nid).inputs.iter().filter(|&&i| i == x).count();
        for _ in 0..occurrences {
            g.unsubscribe(x, nid);
            g.subscribe(b, nid);
        }
        for inp in g.node_mut(nid).inputs.iter_mut() {
            if *inp == x {
                *inp = b;
            }
        }
        inserted += 1;
        recompute_metadata(g);
        debug_assert_eq!(g.validate(), Ok(()));
    }
}

/// Is `v` produced by a live `Rescale` node that nothing else consumes?
/// Returns the rescale node and its input value.
fn sole_rescale_producer(g: &EvalGraph, v: ValueId) -> Option<(NodeId, ValueId)> {
    let info = g.value(v);
    if info.dead || g.is_output(v) {
        return None;
    }
    let p = info.producer;
    let node = g.node(p);
    if node.dead || !matches!(node.op, GraphOp::Rescale) {
        return None;
    }
    if info.consumers.len() != 1 {
        return None;
    }
    Some((p, node.inputs[0]))
}

/// `add(rescale(x), rescale(y))` → `rescale(add(x, y))` — one pass over
/// the graph; call to fixpoint. The rewrite keeps the *original* output
/// value id on the new rescale node so downstream consumers are untouched.
fn fuse_rescales(g: &mut EvalGraph) -> usize {
    let mut fused = 0;
    let candidates: Vec<NodeId> = g
        .live_nodes()
        .filter(|&n| matches!(g.node(n).op, GraphOp::Add | GraphOp::Sub))
        .collect();
    for nid in candidates {
        let node = g.node(nid);
        if node.dead || node.inputs.len() != 2 {
            continue;
        }
        let (u, v) = (node.inputs[0], node.inputs[1]);
        if u == v {
            continue;
        }
        let (Some((ru, x)), Some((rv, y))) =
            (sole_rescale_producer(g, u), sole_rescale_producer(g, v))
        else {
            continue;
        };
        // Legal only when both pre-rescale values live at the same level
        // (> 0 by construction) with matching scales, so the fused add is
        // well-formed and the single rescale drops the same prime.
        let (ix, iy) = (g.value(x), g.value(y));
        if ix.level != iy.level || (ix.scale_bits - iy.scale_bits).abs() > 0.5 {
            continue;
        }
        let op = g.node(nid).op.clone();
        let w = g.node(nid).outputs[0];

        // Detach the old structure.
        g.unsubscribe(u, nid);
        g.unsubscribe(v, nid);
        g.unsubscribe(x, ru);
        g.unsubscribe(y, rv);
        g.kill_node(ru);
        g.kill_node(rv);
        g.kill_node(nid);
        g.kill_value(u);
        g.kill_value(v);

        // add/sub at the pre-rescale level, then one rescale producing the
        // original output value id.
        let na = g.push(op, vec![x, y]);
        g.push_raw_node(GraphOp::Rescale, vec![na], vec![w]);
        fused += 1;
    }
    fused
}

/// Groups all live rotations per source value into `RotateMany` nodes.
/// Returns the batch sizes.
fn hoist_rotations(g: &mut EvalGraph) -> Vec<usize> {
    let mut batches = Vec::new();
    let value_count = g.values().len();
    for raw in 0..value_count {
        let x = ValueId(raw);
        if g.value(x).dead {
            continue;
        }
        let rotators: Vec<NodeId> = {
            let mut seen = Vec::new();
            for &c in &g.value(x).consumers {
                let node = g.node(c);
                if !node.dead && matches!(node.op, GraphOp::Rotate { .. }) && !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        };
        if rotators.len() < MIN_HOIST {
            continue;
        }
        let mut steps = Vec::with_capacity(rotators.len());
        let mut outputs = Vec::with_capacity(rotators.len());
        for &r in &rotators {
            let node = g.node(r);
            let s = match node.op {
                GraphOp::Rotate { steps } => steps,
                _ => unreachable!(),
            };
            steps.push(s);
            outputs.push(node.outputs[0]);
            g.unsubscribe(x, r);
            g.kill_node(r);
        }
        batches.push(steps.len());
        g.push_raw_node(GraphOp::RotateMany { steps }, vec![x], outputs);
    }
    batches
}

/// The node that is all of `v`'s use: `v` is live, no graph output, and
/// consumed exactly once.
fn sole_consumer(g: &EvalGraph, v: ValueId) -> Option<NodeId> {
    let info = g.value(v);
    let consumed_once = !info.dead && !g.is_output(v) && info.consumers.len() == 1;
    consumed_once.then(|| info.consumers[0])
}

/// [`sole_consumer`], if it is an `Add`.
fn sole_add(g: &EvalGraph, v: ValueId) -> Option<NodeId> {
    sole_consumer(g, v).filter(|&c| matches!(g.node(c).op, GraphOp::Add))
}

/// A `RotateMany` and everything between it and the one value its outputs
/// sum to.
struct RotationSum {
    /// Per rotation, the plaintext its output is multiplied by first.
    weights: Vec<Option<usize>>,
    /// The `MulPlain`s and `Add`s the sum replaces.
    nodes: Vec<NodeId>,
    /// The values only they produced and consumed.
    interior: Vec<ValueId>,
    /// The last `Add`'s output, which the fused node now produces.
    root: ValueId,
}

/// Matches the layer `Σ_r pt_r ⊙ rot_r(x)` below the `RotateMany` node
/// `fan`: every rotation output consumed once, by an `Add`, or by a
/// `MulPlain` whose product is consumed once, by an `Add`; the weights all
/// of one scale (or all absent); and those leaves reduced, through `Add`s
/// whose results are themselves consumed once and no graph outputs, to a
/// single root. Balanced trees and linear chains both; anything else —
/// a leaf that is a graph output, read twice, subtracted, summed with a
/// value from outside the fan — leaves the fan as it is.
fn match_rotation_sum(g: &EvalGraph, fan: NodeId) -> Option<RotationSum> {
    let (mut weights, mut nodes, mut interior) = (Vec::new(), Vec::new(), Vec::new());
    let mut pending = Vec::new();
    for &rotated in &g.node(fan).outputs {
        let consumer = sole_consumer(g, rotated)?;
        match g.node(consumer).op {
            GraphOp::Add => {
                weights.push(None);
                pending.push(rotated);
            }
            GraphOp::MulPlain { pt } => {
                let product = g.node(consumer).outputs[0];
                sole_add(g, product)?;
                weights.push(Some(pt));
                nodes.push(consumer);
                interior.push(rotated);
                pending.push(product);
            }
            _ => return None,
        }
    }
    let scale = |w: &Option<usize>| w.map_or(1.0, |pt| g.plaintexts()[pt].scale());
    let one_scale = |w| EvalError::check_scales(scale(&weights[0]), scale(w)).is_ok();
    if !weights.iter().all(one_scale) {
        return None;
    }
    while pending.len() > 1 {
        // Some `Add` of two pending values, both of which it alone reads.
        let (at, with, add) = pending.iter().enumerate().find_map(|(at, &v)| {
            let add = sole_add(g, v)?;
            let inputs = &g.node(add).inputs;
            let other = inputs[usize::from(inputs[0] == v)];
            let with = pending.iter().position(|&p| p == other && p != v)?;
            sole_add(g, other).map(|_| (at, with, add))
        })?;
        interior.extend([pending[at], pending[with]]);
        pending.swap_remove(at.max(with));
        pending.swap_remove(at.min(with));
        pending.push(g.node(add).outputs[0]);
        nodes.push(add);
    }
    Some(RotationSum {
        weights,
        nodes,
        interior,
        root: pending[0],
    })
}

/// The second hoist: every `RotateMany` whose outputs are only ever weighted
/// and summed (see [`match_rotation_sum`]) becomes one `RotateSum` node
/// producing the sum — all or nothing per fan. A `Rescale` of the sum stays
/// where it is. Returns the sizes of the fused fans.
fn fuse_rotation_sums(g: &mut EvalGraph) -> Vec<usize> {
    let mut fused = Vec::new();
    let fans: Vec<NodeId> = g
        .live_nodes()
        .filter(|&n| matches!(g.node(n).op, GraphOp::RotateMany { .. }))
        .collect();
    for fan in fans {
        let Some(sum) = match_rotation_sum(g, fan) else {
            continue;
        };
        let GraphOp::RotateMany { steps } = g.node(fan).op.clone() else {
            unreachable!()
        };
        let x = g.node(fan).inputs[0];
        g.unsubscribe(x, fan);
        g.kill_node(fan);
        for node in sum.nodes {
            g.kill_node(node);
        }
        for value in sum.interior {
            g.kill_value(value);
        }
        fused.push(steps.len());
        let weights = sum.weights;
        g.push_raw_node(
            GraphOp::RotateSum { steps, weights },
            vec![x],
            vec![sum.root],
        );
    }
    fused
}

/// Tombstones nodes whose outputs can't reach a graph output. `Input`
/// nodes are kept (the executor binds them positionally). Returns the
/// number of compute nodes removed.
fn eliminate_dead(g: &mut EvalGraph) -> usize {
    let mut live = vec![false; g.values().len()];
    let mut stack: Vec<ValueId> = g.outputs().to_vec();
    while let Some(v) = stack.pop() {
        if live[v.0] {
            continue;
        }
        live[v.0] = true;
        let p = g.value(v).producer;
        for &inp in &g.node(p).inputs {
            if !live[inp.0] {
                stack.push(inp);
            }
        }
        // Sibling outputs of a multi-output producer stay alive with it.
        for &o in &g.node(p).outputs {
            if !live[o.0] {
                stack.push(o);
            }
        }
    }
    let mut removed = 0;
    let node_count = g.nodes().len();
    for raw in 0..node_count {
        let nid = NodeId(raw);
        let node = g.node(nid);
        if node.dead || matches!(node.op, GraphOp::Input { .. }) {
            continue;
        }
        if node.outputs.iter().all(|o| !live[o.0]) {
            let inputs = node.inputs.clone();
            let outputs = node.outputs.clone();
            for v in inputs {
                g.unsubscribe(v, nid);
            }
            for o in outputs {
                g.kill_value(o);
            }
            g.kill_node(nid);
            removed += 1;
        }
    }
    removed
}

/// Kahn's algorithm with a deterministic affinity score:
/// `+2` per operand whose last remaining use is this node (freeing its
/// scratch slot), `+3` when the node shares an operand with the node just
/// scheduled (keyswitch digit / key-cache affinity). Ties break to the
/// lowest node index (stable, creation-order-biased).
fn schedule_affinity(g: &EvalGraph) -> Vec<NodeId> {
    let mut indeg: HashMap<NodeId, usize> = HashMap::new();
    for nid in g.live_nodes() {
        indeg.insert(nid, g.node(nid).inputs.len());
    }
    let mut remaining_uses: Vec<usize> = g
        .values()
        .iter()
        .map(|v| v.consumers.iter().filter(|c| !g.node(**c).dead).count())
        .collect();

    let mut ready: Vec<NodeId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    ready.sort_unstable();

    let mut order = Vec::with_capacity(indeg.len());
    let mut prev_inputs: Vec<ValueId> = Vec::new();
    while !ready.is_empty() {
        let mut best = 0usize;
        let mut best_score = i64::MIN;
        for (i, &cand) in ready.iter().enumerate() {
            let node = g.node(cand);
            let mut score = 0i64;
            for &v in &node.inputs {
                if remaining_uses[v.0] == 1 && !g.is_output(v) {
                    score += 2;
                }
                if prev_inputs.contains(&v) {
                    score += 3;
                }
            }
            // Deterministic tie-break: only a strictly better score wins,
            // and `ready` is sorted, so equal scores keep the earliest
            // (lowest-index) candidate.
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        let nid = ready.remove(best);
        let node = g.node(nid);
        prev_inputs = node.inputs.clone();
        for &v in &node.inputs {
            remaining_uses[v.0] = remaining_uses[v.0].saturating_sub(1);
        }
        for &o in &node.outputs {
            for &c in &g.value(o).consumers {
                if let Some(d) = indeg.get_mut(&c) {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        ready.sort_unstable();
        ready.dedup();
        order.push(nid);
    }
    debug_assert_eq!(order.len(), g.live_node_count());
    order
}

/// Last-use analysis: for each schedule step, which values die there
/// (graph outputs never die). Also returns the peak live value count.
fn compute_release(g: &EvalGraph, schedule: &[NodeId]) -> (Vec<Vec<ValueId>>, usize) {
    let mut last_use: HashMap<ValueId, usize> = HashMap::new();
    for (i, &nid) in schedule.iter().enumerate() {
        for &v in &g.node(nid).inputs {
            last_use.insert(v, i);
        }
    }
    let mut release: Vec<Vec<ValueId>> = vec![Vec::new(); schedule.len()];
    for (&v, &i) in &last_use {
        if !g.is_output(v) {
            release[i].push(v);
        }
    }
    for r in &mut release {
        r.sort_unstable();
    }
    // Peak live count: births at producer step, deaths at last use (or
    // never for outputs / unused values).
    let mut live = 0usize;
    let mut max_live = 0usize;
    for (i, &nid) in schedule.iter().enumerate() {
        live += g.node(nid).outputs.len();
        max_live = max_live.max(live);
        live -= release[i].len();
    }
    (release, max_live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotation_fan() -> EvalGraph {
        let mut g = EvalGraph::new(40.0);
        let x = g.input(3, 40.0);
        let mut outs = Vec::new();
        for s in 1..=8i64 {
            outs.push(g.rotate(x, s));
        }
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = g.add(acc, o);
        }
        g.mark_output(acc);
        g
    }

    /// Eight rotations of one input, each a graph output of its own.
    fn separate_rotations() -> EvalGraph {
        let mut g = EvalGraph::new(40.0);
        let x = g.input(3, 40.0);
        for s in 1..=8i64 {
            let r = g.rotate(x, s);
            g.mark_output(r);
        }
        g
    }

    #[test]
    fn hoisting_groups_all_rotations_of_one_source() {
        let p = plan(separate_rotations(), &PlanOptions::default()).unwrap();
        assert_eq!(p.stats.hoist_batches, vec![8]);
        assert!(p.stats.rotation_sums.is_empty());
        assert_eq!(
            p.graph.count_ops(|op| matches!(op, GraphOp::Rotate { .. })),
            0
        );
        assert_eq!(
            p.graph
                .count_ops(|op| matches!(op, GraphOp::RotateMany { .. })),
            1
        );
        assert!(p.value_preserving);
        assert!(p.graph.validate().is_ok());
    }

    fn mask(g: &mut EvalGraph, scale_bits: i32) -> usize {
        let basis = he_rns::RnsBasis::generate(16, 28, 1);
        let poly = he_rns::RnsPoly::from_i64_coeffs(&basis, &[1; 16]);
        g.intern_plaintext(he_ckks::cipher::Plaintext::new(poly, 2f64.powi(scale_bits)))
    }

    /// `Σ_r pt_r ⊙ rot_r(x)` over four rotations, the products summed by
    /// `reduce`; `scale_bits(r)` is term `r`'s plaintext scale.
    fn weighted_fan(
        scale_bits: impl Fn(usize) -> i32,
        reduce: impl Fn(&mut EvalGraph, Vec<ValueId>) -> ValueId,
    ) -> EvalGraph {
        let mut g = EvalGraph::new(40.0);
        let x = g.input(3, 40.0);
        let products = (0..4)
            .map(|r| {
                let rot = g.rotate(x, r as i64 + 1);
                let pt = mask(&mut g, scale_bits(r));
                g.mul_plain(rot, pt)
            })
            .collect();
        let sum = reduce(&mut g, products);
        let out = g.rescale(sum);
        g.mark_output(out);
        g
    }

    fn chain(g: &mut EvalGraph, terms: Vec<ValueId>) -> ValueId {
        let first = terms[0];
        terms[1..].iter().fold(first, |acc, &t| g.add(acc, t))
    }

    fn tree(g: &mut EvalGraph, t: Vec<ValueId>) -> ValueId {
        let (left, right) = (g.add(t[0], t[1]), g.add(t[2], t[3]));
        g.add(left, right)
    }

    #[test]
    fn a_summed_fan_fuses_into_one_node_tree_or_chain() {
        for (shape, graph) in [
            ("bare chain", rotation_fan()),
            ("weighted chain", weighted_fan(|_| 40, chain)),
            ("weighted tree", weighted_fan(|_| 40, tree)),
        ] {
            let before = graph.outputs()[0];
            let (level, bits) = (graph.value(before).level, graph.value(before).scale_bits);
            let p = plan(graph, &PlanOptions::default()).unwrap();
            let terms = p.stats.hoist_batches[0];
            assert_eq!(p.stats.rotation_sums, vec![terms], "{shape}");
            assert!(!p.value_preserving, "{shape}: one rounding is not R");
            assert_eq!(p.graph.validate(), Ok(()), "{shape}");
            let count = |f: fn(&GraphOp) -> bool| p.graph.count_ops(f);
            assert_eq!(count(|op| matches!(op, GraphOp::RotateSum { .. })), 1);
            assert_eq!(count(|op| matches!(op, GraphOp::RotateMany { .. })), 0);
            assert_eq!(count(|op| matches!(op, GraphOp::MulPlain { .. })), 0);
            assert_eq!(count(|op| matches!(op, GraphOp::Add)), 0, "{shape}");
            // The output is the value it was, and the keys are still asked for.
            assert_eq!(p.graph.outputs(), [before]);
            let out = p.graph.value(before);
            assert_eq!((out.level, out.scale_bits), (level, bits), "{shape}");
            let steps: Vec<i64> = (1..=terms as i64).collect();
            assert_eq!(p.graph.required_rotation_steps(), steps, "{shape}");
        }
        // The weighted layers keep the rescale of the sum and nothing else.
        let p = plan(weighted_fan(|_| 40, tree), &PlanOptions::default()).unwrap();
        assert_eq!(p.stats.nodes_after, 3);
    }

    #[test]
    fn a_fan_whose_outputs_are_used_apart_is_left_alone() {
        let not_summed: [(&str, EvalGraph); 5] = [
            ("a rotation is a graph output", {
                let mut g = rotation_fan();
                let rotated = g.node(NodeId(1)).outputs[0];
                g.mark_output(rotated);
                g
            }),
            ("a rotation is read twice", {
                let mut g = rotation_fan();
                let rotated = g.node(NodeId(1)).outputs[0];
                let sq = g.square(rotated);
                g.mark_output(sq);
                g
            }),
            (
                "a term is subtracted",
                weighted_fan(
                    |_| 40,
                    |g, t| {
                        let (left, right) = (g.add(t[0], t[1]), g.add(t[2], t[3]));
                        g.sub(left, right)
                    },
                ),
            ),
            (
                "a value from outside the fan sits inside the sum",
                weighted_fan(
                    |_| 40,
                    |g, mut t| {
                        t.insert(1, g.input(3, 80.0));
                        chain(g, t)
                    },
                ),
            ),
            (
                "the plaintext scales differ",
                weighted_fan(|r| 40 + r as i32 % 2, tree),
            ),
        ];
        for (why, graph) in not_summed {
            let p = plan(graph, &PlanOptions::default()).unwrap();
            assert_eq!(p.stats.hoist_batches.len(), 1, "{why}");
            assert!(p.stats.rotation_sums.is_empty(), "{why}");
            let fans = |op: &GraphOp| matches!(op, GraphOp::RotateMany { .. });
            assert_eq!(p.graph.count_ops(fans), 1, "{why}");
            assert_eq!(p.graph.validate(), Ok(()), "{why}");
        }
    }

    #[test]
    fn hoisting_is_cross_graph_not_adjacent_only() {
        // Interleave rotations of x with unrelated work so they are never
        // adjacent in creation order.
        let mut g = EvalGraph::new(40.0);
        let x = g.input(3, 40.0);
        let y = g.input(3, 40.0);
        let r1 = g.rotate(x, 1);
        let y2 = g.square(y);
        let r2 = g.rotate(x, 2);
        let y3 = g.add(y2, y2);
        let r3 = g.rotate(x, 3);
        let s = g.add(r1, r2);
        let s = g.add(s, r3);
        let s = g.add(s, y3);
        g.mark_output(s);
        let p = plan(g, &PlanOptions::default()).unwrap();
        assert_eq!(p.stats.hoist_batches, vec![3]);
    }

    #[test]
    fn fusion_collapses_add_chain_rescales() {
        // acc = rescale(t1); for t in t2..t4 { acc = add(acc, rescale(t)) }
        // Not directly that shape — model the common per-term form:
        // add(rescale(a), rescale(b)) chains.
        let mut g = EvalGraph::new(40.0);
        let terms: Vec<ValueId> = (0..4)
            .map(|_| {
                let x = g.input(3, 40.0);
                g.square(x)
            })
            .collect();
        let rs: Vec<ValueId> = terms.iter().map(|&t| g.rescale(t)).collect();
        let mut acc = rs[0];
        for &r in &rs[1..] {
            acc = g.add(acc, r);
        }
        g.mark_output(acc);
        let before = g.count_ops(|op| matches!(op, GraphOp::Rescale));
        assert_eq!(before, 4);
        let p = plan(g, &PlanOptions::default()).unwrap();
        // The chain collapses to a single rescale at the root.
        assert_eq!(p.stats.rescales_after, 1);
        assert!(p.stats.rescales_fused >= 3);
        assert!(!p.value_preserving);
        assert!(p.graph.validate().is_ok());
        // Metadata of the preserved output value is unchanged.
        let out = p.graph.outputs()[0];
        assert_eq!(p.graph.value(out).level, 2);
        assert!((p.graph.value(out).scale_bits - 40.0).abs() < 1e-9);
    }

    #[test]
    fn dead_value_elimination_removes_unreachable_compute() {
        let mut g = EvalGraph::new(40.0);
        let x = g.input(3, 40.0);
        let used = g.square(x);
        let dead1 = g.rotate(x, 5);
        let _dead2 = g.add(dead1, dead1);
        g.mark_output(used);
        let p = plan(g, &PlanOptions::default()).unwrap();
        assert_eq!(p.stats.dead_removed, 2);
        assert_eq!(p.stats.nodes_after, 2); // input + square
    }

    #[test]
    fn passthrough_keeps_creation_order() {
        let g = rotation_fan();
        let creation: Vec<NodeId> = g.live_nodes().collect();
        let p = Plan::passthrough(g);
        assert_eq!(p.schedule, creation);
        assert!(p.value_preserving);
        assert!(p.stats.hoist_batches.is_empty());
        assert_eq!(p.stats.nodes_after, p.stats.nodes_before);
    }

    #[test]
    fn schedule_is_topological_and_complete() {
        let p = plan(rotation_fan(), &PlanOptions::default()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for &nid in &p.schedule {
            for &v in &p.graph.node(nid).inputs {
                assert!(seen.contains(&p.graph.value(v).producer));
            }
            seen.insert(nid);
        }
        assert_eq!(p.schedule.len(), p.graph.live_node_count());
    }

    #[test]
    fn release_frees_everything_but_outputs() {
        let p = plan(rotation_fan(), &PlanOptions::default()).unwrap();
        let released: usize = p.release.iter().map(|r| r.len()).sum();
        // Every consumed value except the final output dies somewhere.
        assert!(released > 0);
        for r in p.release.iter().flatten() {
            assert!(!p.graph.is_output(*r));
        }
        assert!(p.stats.max_live_after <= p.stats.max_live_before);
    }

    // ---- bootstrap insertion ---------------------------------------------

    /// bootstrap_demo-shaped budget: first 48, scale primes 45.
    fn demo_budget() -> NoiseBudget {
        NoiseBudget {
            first_prime_bits: 48.0,
            scale_prime_bits: 45.0,
            margin_bits: 10.0,
        }
    }

    /// A chain that exhausts the modulus: squaring a level-0 value needs
    /// 90 scale bits against 48 live modulus bits.
    fn exhausted_graph() -> EvalGraph {
        let mut g = EvalGraph::new(45.0);
        let x = g.input(0, 45.0);
        let sq = g.square(x);
        g.mark_output(sq);
        g
    }

    fn bootstrap_opts(key: bool) -> PlanOptions {
        PlanOptions {
            bootstrap: Some(BootstrapOptions {
                key_available: key,
                refresh_level: 2,
                budget: demo_budget(),
            }),
            ..PlanOptions::default()
        }
    }

    #[test]
    fn exhausted_chain_gets_a_bootstrap_inserted() {
        let p = plan(exhausted_graph(), &bootstrap_opts(true)).expect("repairable");
        assert_eq!(p.stats.bootstraps_inserted, 1);
        assert_eq!(
            p.graph
                .count_ops(|op| matches!(op, GraphOp::Bootstrap { .. })),
            1
        );
        assert!(!p.value_preserving);
        assert!(p.graph.validate().is_ok());
        // The refresh lifted the chain: the square now runs at the
        // refresh level and its output fits the budget again.
        let out = p.graph.outputs()[0];
        let v = p.graph.value(out);
        assert_eq!(v.level, 2);
        assert!(demo_budget().fits(v.level, v.scale_bits));
        // The schedule stays topological even though the bootstrap node
        // was appended after its consumer.
        let mut seen = std::collections::HashSet::new();
        for &nid in &p.schedule {
            for &v in &p.graph.node(nid).inputs {
                assert!(seen.contains(&p.graph.value(v).producer));
            }
            seen.insert(nid);
        }
    }

    #[test]
    fn missing_bootstrap_key_is_a_typed_error() {
        let err = plan(exhausted_graph(), &bootstrap_opts(false)).expect_err("no key → no repair");
        assert!(
            matches!(err, PlanError::BudgetExhausted { .. }),
            "expected BudgetExhausted, got {err:?}"
        );
    }

    #[test]
    fn unfundable_op_even_after_refresh_is_scale_overflow() {
        // refresh_level 0: the refreshed operand still cannot fund the
        // squaring, so a second refresh is pointless — typed overflow.
        let opts = PlanOptions {
            bootstrap: Some(BootstrapOptions {
                key_available: true,
                refresh_level: 0,
                budget: demo_budget(),
            }),
            ..PlanOptions::default()
        };
        let err = plan(exhausted_graph(), &opts).expect_err("refresh cannot help at level 0");
        assert!(matches!(err, PlanError::ScaleOverflow { .. }));
    }

    #[test]
    fn non_exhausted_graph_plans_identically_with_insertion_enabled() {
        let base = plan(rotation_fan(), &PlanOptions::default()).unwrap();
        let p = plan(rotation_fan(), &bootstrap_opts(true)).expect("nothing to repair");
        assert_eq!(p.stats.bootstraps_inserted, 0);
        assert_eq!(
            p.graph
                .count_ops(|op| matches!(op, GraphOp::Bootstrap { .. })),
            0
        );
        assert_eq!(p.schedule, base.schedule);
        assert_eq!(p.value_preserving, base.value_preserving);
    }

    // ---- one metadata rule ------------------------------------------------

    /// Every live value's `(level, scale_bits)`, by value id.
    fn live_meta(g: &EvalGraph) -> Vec<Option<(usize, f64)>> {
        let values = g.values().iter();
        values
            .map(|v| (!v.dead).then_some((v.level, v.scale_bits)))
            .collect()
    }

    /// Every builder op once, plus what makes `plan` emit a `RotateMany` (two
    /// rotations of one value used apart), a `RotateSum` (a weighted fan,
    /// summed) and an inserted `Bootstrap` (a level-0 squaring).
    fn every_op() -> EvalGraph {
        let mut g = EvalGraph::new(45.0);
        let x = g.input(3, 45.0);
        let y = g.input(3, 45.0);
        let pt = mask(&mut g, 45);
        let s = g.add(x, y);
        let d = g.sub(s, y);
        let a = g.add_plain(d, pt);
        let m = g.mul(a, x);
        let r = g.rescale(m);
        let sq = g.square(r);
        let r = g.rescale(sq);
        let c = g.conjugate(r);
        let low = g.drop_to_level(c, 0);
        let fresh = g.bootstrap(low, 2);
        for steps in [1, 2] {
            let rotated = g.rotate(fresh, steps);
            g.mark_output(rotated);
        }
        let products: Vec<ValueId> = (1..=3)
            .map(|steps| {
                let rotated = g.rotate(y, steps);
                let pt = mask(&mut g, 45);
                g.mul_plain(rotated, pt)
            })
            .collect();
        let sum = chain(&mut g, products);
        g.mark_output(sum);
        let z = g.input(0, 45.0);
        let exhausted = g.square(z);
        g.mark_output(exhausted);
        g
    }

    #[test]
    fn rederiving_metadata_changes_no_value() {
        let built = every_op();
        let mut rederived = built.clone();
        recompute_metadata(&mut rederived);
        assert_eq!(live_meta(&rederived), live_meta(&built), "builder");

        let opts = PlanOptions {
            bootstrap: Some(BootstrapOptions {
                key_available: true,
                refresh_level: 2,
                budget: demo_budget(),
            }),
            ..PlanOptions::default()
        };
        let p = plan(built, &opts).unwrap();
        assert_eq!(p.stats.bootstraps_inserted, 1);
        assert_eq!(p.stats.rotation_sums, vec![3]);
        let count = |f: fn(&GraphOp) -> bool| p.graph.count_ops(f);
        assert_eq!(count(|op| matches!(op, GraphOp::RotateMany { .. })), 1);
        assert_eq!(count(|op| matches!(op, GraphOp::RotateSum { .. })), 1);
        assert_eq!(count(|op| matches!(op, GraphOp::Bootstrap { .. })), 2);
        let mut rederived = p.graph.clone();
        recompute_metadata(&mut rederived);
        assert_eq!(live_meta(&rederived), live_meta(&p.graph), "passes");
    }
}
