//! `.pos` front end: lowers a flat [`OpTrace`] (the format
//! `sim::program::parse` produces) into an executable [`EvalGraph`].
//!
//! A `.pos` file is an op-count stream at *hardware* scale (ring degree
//! 2^16, virtual levels up to 57, repetition counts in the hundreds) —
//! there is no dataflow in the file. The lowering synthesises a
//! deterministic dataflow with the same operational shape, sized for the
//! executing context:
//!
//! * A **current value** `cur` accumulates the computation; rotation and
//!   keyswitch entries spread it into a **fan** of parallel terms
//!   (rotations by cycling step counts), `pmult` masks each term,
//!   `rescale` rescales each term, `hadd` reduces the fan back into
//!   `cur` — the BSGS diagonal-matvec shape. Fans reduce by a balanced
//!   add tree (depth ⌈log₂k⌉; modular addition is associative, so the
//!   result is bit-identical to a linear chain).
//! * Repetition counts are capped at [`CompileOptions::count_cap`]
//!   (dropped work is reported in [`CompiledProgram::truncated`] and
//!   surfaced through `PlanStats::truncated` / the `plan.truncated`
//!   telemetry scope, never silently).
//! * Virtual levels are mapped onto the context's chain by ratio; level
//!   descents become `drop_to_level` nodes.
//! * A **pressure rule** keeps the tracked scale decryptable at every
//!   step: an operation that would push `log2(scale)` within
//!   [`SCALE_MARGIN_BITS`] of the live modulus bits forces an eager
//!   rescale, or — when no level is left — closes the segment and
//!   restarts from a fresh top-level input ([`CompiledProgram::segments`]
//!   counts these), or — when even a fresh input cannot fund the
//!   operation — fails with a typed [`PlanError::ScaleOverflow`] instead
//!   of silently exceeding the modulus. [`plan_trace`] with bootstrap
//!   keys lowers without resets instead: it leaves the exhausted values
//!   standing for the planner's bootstrap-insertion pass to repair. The
//!   policy follows from whether bootstrap keys exist; it is not an
//!   option.

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;

use crate::decompose::{BasicOp, OpTrace};
use crate::plan::graph::{EvalGraph, ValueId};
use crate::plan::passes::{plan, Plan, PlanOptions};
use crate::plan::PlanError;

mod tel {
    poseidon_telemetry::scope_fn! {
        /// Fan repetitions dropped by `count_cap` (items = ops dropped).
        pub truncated = "plan.truncated";
    }
}

/// Decryption headroom: the tracked scale must stay this many bits below
/// the live modulus product.
pub const SCALE_MARGIN_BITS: f64 = 10.0;

/// Rotation steps cycle through `1..=MAX_ROTATION_STEP`.
const MAX_ROTATION_STEP: i64 = 8;

/// What the lowering does when the level/scale budget is exhausted and
/// rescaling cannot make room: [`compile_trace`] always resets,
/// [`plan_trace`] defers when it may insert bootstraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exhaustion {
    /// Close the segment (mark `cur` as an output) and restart from a
    /// fresh top-level input — at most once per squeeze; if a *fresh*
    /// input still cannot fund the operation, fail with
    /// [`PlanError::ScaleOverflow`] rather than emit a value past the
    /// modulus.
    SegmentReset,
    /// Never reset: keep a single dataflow and let the exhausted
    /// level/scale metadata stand, counting each event in
    /// [`CompiledProgram::exhausted`]. The planner's bootstrap-insertion
    /// pass repairs these values with `Bootstrap` nodes (or rejects the
    /// program with a typed error).
    Defer,
}

/// Lowering knobs.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Per-entry repetition cap (`.pos` counts above this are truncated
    /// and reported).
    pub count_cap: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self { count_cap: 8 }
    }
}

/// A lowered `.pos` program.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The executable dataflow graph.
    pub graph: EvalGraph,
    /// Operations the cap dropped (sum over entries of `count - emitted`).
    pub truncated: u64,
    /// Number of lowering segments (1 + resets forced by exhausted
    /// level/scale budget).
    pub segments: usize,
    /// Budget-exhaustion events left in the graph for the planner to
    /// repair (always 0 from [`compile_trace`], which resets instead).
    pub exhausted: u64,
    /// Rotation steps the graph uses (generate these keys before
    /// executing).
    pub rotation_steps: Vec<i64>,
}

struct Lowering<'a> {
    g: EvalGraph,
    ctx: &'a CkksContext,
    count_cap: u64,
    exhaustion: Exhaustion,
    cur: ValueId,
    fan: Vec<ValueId>,
    pt_counter: usize,
    truncated: u64,
    segments: usize,
    exhausted: u64,
    rot_cursor: i64,
    default_bits: f64,
}

impl<'a> Lowering<'a> {
    fn new(ctx: &'a CkksContext, count_cap: u64, exhaustion: Exhaustion) -> Self {
        let default_bits = ctx.default_scale().log2();
        let mut g = EvalGraph::new(f64::from(ctx.params().scale_prime_bits));
        let cur = g.input(ctx.max_level(), default_bits);
        Self {
            g,
            ctx,
            count_cap,
            exhaustion,
            cur,
            fan: Vec::new(),
            pt_counter: 0,
            truncated: 0,
            segments: 1,
            exhausted: 0,
            rot_cursor: 0,
            default_bits,
        }
    }

    fn level(&self, v: ValueId) -> usize {
        self.g.value(v).level
    }

    fn sb(&self, v: ValueId) -> f64 {
        self.g.value(v).scale_bits
    }

    /// Live modulus bits at `level`.
    fn total_bits(&self, level: usize) -> f64 {
        let p = self.ctx.params();
        f64::from(p.first_prime_bits) + level as f64 * f64::from(p.scale_prime_bits)
    }

    /// Would a value at `level` with `scale_bits` still decrypt?
    fn fits(&self, level: usize, scale_bits: f64) -> bool {
        scale_bits + SCALE_MARGIN_BITS < self.total_bits(level)
    }

    fn cap(&mut self, count: u64) -> u64 {
        let k = count.min(self.count_cap);
        self.truncated += count - k;
        k
    }

    fn next_step(&mut self) -> i64 {
        self.rot_cursor = self.rot_cursor % MAX_ROTATION_STEP + 1;
        self.rot_cursor
    }

    /// Encodes a fresh deterministic mask plaintext at `level`, keeping its
    /// slot values beside it in the graph. Mask magnitudes sit near 0.1 so
    /// value growth (8-term reductions, squarings) never races the modulus
    /// even in deep programs — the pressure rule tracks scale bits, not
    /// message magnitude.
    fn plaintext_at(&mut self, level: usize) -> usize {
        let slots = 8.min(self.ctx.params().n / 2);
        let z: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(0.09 + 0.005 * ((self.pt_counter + i) % 8) as f64, 0.0))
            .collect();
        self.pt_counter += 1;
        let basis = self.ctx.level_basis(level);
        let pt = Plaintext::new(
            self.ctx
                .encoder()
                .encode_rns(&basis, &z, self.ctx.default_scale()),
            self.ctx.default_scale(),
        );
        self.g.intern_encoded(pt, z)
    }

    /// Reduces the fan into `cur` with a balanced add tree (no-op when
    /// the fan is empty). Depth ⌈log₂k⌉ instead of the k−1 of a linear
    /// chain; modular addition is associative, so the reduced value is
    /// bit-identical either way.
    fn reduce(&mut self) {
        if self.fan.is_empty() {
            return;
        }
        let mut layer = std::mem::take(&mut self.fan);
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < layer.len() {
                next.push(self.g.add(layer[i], layer[i + 1]));
                i += 2;
            }
            if i < layer.len() {
                // Odd term rides up to the next round unpaired.
                next.push(layer[i]);
            }
            layer = next;
        }
        self.cur = layer[0];
    }

    /// Exhausted level/scale budget: close the segment (mark `cur` as an
    /// output) and restart from a fresh top-level input.
    fn reset(&mut self) {
        debug_assert!(self.fan.is_empty(), "reset with a pending fan");
        self.g.mark_output(self.cur);
        self.cur = self.g.input(self.ctx.max_level(), self.default_bits);
        self.segments += 1;
    }

    /// Rescales every fan term once (uniform level/scale by
    /// construction).
    fn rescale_fan(&mut self) {
        let fan = std::mem::take(&mut self.fan);
        self.fan = fan.into_iter().map(|t| self.g.rescale(t)).collect();
    }

    /// Level descent requested by the virtual-level mapping.
    fn maybe_drop(&mut self, target: usize) {
        if self.fan.is_empty() && target < self.level(self.cur) {
            self.cur = self.g.drop_to_level(self.cur, target);
        }
    }

    /// Makes room on `cur` for an operation that adds `extra_bits` of
    /// scale. Rescales while a level and scale headroom remain; on
    /// exhaustion, applies the lowering's [`Exhaustion`] policy. Under
    /// [`Exhaustion::SegmentReset`], at most one reset — if even a fresh
    /// top-level input cannot fund the operation, the program does not
    /// fit the parameter set and a typed [`PlanError::ScaleOverflow`] is
    /// returned (a margin-only squeeze that still stays under the
    /// modulus is tolerated, for tiny test parameter sets).
    fn make_room(&mut self, extra_bits: f64) -> Result<(), PlanError> {
        let mut reset_done = false;
        loop {
            let (lv, s) = (self.level(self.cur), self.sb(self.cur));
            if self.fits(lv, s + extra_bits) {
                return Ok(());
            }
            if lv > 0 && s > self.default_bits + 0.5 {
                self.cur = self.g.rescale(self.cur);
            } else if self.exhaustion == Exhaustion::Defer {
                self.exhausted += 1;
                return Ok(());
            } else if !reset_done {
                self.reset();
                reset_done = true;
            } else if s + extra_bits >= self.total_bits(lv) {
                return Err(PlanError::ScaleOverflow {
                    level: lv,
                    scale_bits: s + extra_bits,
                    total_bits: self.total_bits(lv),
                });
            } else {
                // Inside the margin but still under the modulus: tolerate
                // (tiny parameter sets land here on their first op).
                return Ok(());
            }
        }
    }

    fn lower_entry(&mut self, op: BasicOp, target: usize, count: u64) -> Result<(), PlanError> {
        match op {
            BasicOp::Rotation | BasicOp::Keyswitch => {
                self.reduce();
                self.maybe_drop(target);
                let k = self.cap(count);
                self.fan = (0..k)
                    .map(|_| {
                        let s = self.next_step();
                        self.g.rotate(self.cur, s)
                    })
                    .collect();
            }
            BasicOp::PMult => {
                if self.fan.is_empty() {
                    self.maybe_drop(target);
                    let k = self.cap(count);
                    self.make_room(self.default_bits)?;
                    let lv = self.level(self.cur);
                    self.fan = (0..k)
                        .map(|_| {
                            let pt = self.plaintext_at(lv);
                            self.g.mul_plain(self.cur, pt)
                        })
                        .collect();
                } else {
                    // One mask per fan term keeps the fan uniform; excess
                    // repetitions are truncated.
                    let n = self.fan.len() as u64;
                    self.truncated += count.saturating_sub(n);
                    let (lv, s) = (self.level(self.fan[0]), self.sb(self.fan[0]));
                    if !self.fits(lv, s + self.default_bits) {
                        if lv > 0 && s > self.default_bits + 0.5 {
                            self.rescale_fan();
                        } else if self.exhaustion == Exhaustion::Defer {
                            self.exhausted += 1;
                        } else if lv == 0 {
                            // No scale room at the chain floor — close the
                            // segment rather than exceed the modulus.
                            self.reduce();
                            self.reset();
                        } else if s + self.default_bits >= self.total_bits(lv) {
                            return Err(PlanError::ScaleOverflow {
                                level: lv,
                                scale_bits: s + self.default_bits,
                                total_bits: self.total_bits(lv),
                            });
                        }
                        // else: margin squeeze that stays under the
                        // modulus — tolerated (tiny parameter sets).
                    }
                    if self.fan.is_empty() {
                        // Segment reset: rebuild the fan from the fresh input.
                        let k = n.clamp(1, self.count_cap);
                        let lvc = self.level(self.cur);
                        self.fan = (0..k)
                            .map(|_| {
                                let pt = self.plaintext_at(lvc);
                                self.g.mul_plain(self.cur, pt)
                            })
                            .collect();
                    } else {
                        let lv = self.level(self.fan[0]);
                        let fan = std::mem::take(&mut self.fan);
                        self.fan = fan
                            .into_iter()
                            .map(|t| {
                                let pt = self.plaintext_at(lv);
                                self.g.mul_plain(t, pt)
                            })
                            .collect();
                    }
                }
            }
            BasicOp::Rescale => {
                if !self.fan.is_empty() {
                    let (lv, s) = (self.level(self.fan[0]), self.sb(self.fan[0]));
                    if lv > 0 && s > self.default_bits + 0.5 {
                        self.rescale_fan();
                    }
                } else if self.level(self.cur) > 0 && self.sb(self.cur) > self.default_bits + 0.5 {
                    self.cur = self.g.rescale(self.cur);
                }
                // Already at default scale (or level 0): the request is
                // satisfied vacuously.
            }
            BasicOp::HAdd => {
                let k = self.cap(count);
                if self.fan.len() >= 2 {
                    self.reduce();
                } else {
                    self.reduce(); // fan of one → cur
                    for _ in 0..k.min(2) {
                        self.cur = self.g.add(self.cur, self.cur);
                    }
                }
            }
            BasicOp::CMult => {
                self.reduce();
                self.maybe_drop(target);
                let k = self.cap(count);
                for _ in 0..k {
                    let s = self.sb(self.cur);
                    self.make_room(s)?;
                    self.cur = self.g.square(self.cur);
                }
            }
            BasicOp::Moddown => {
                self.reduce();
                let k = self.cap(count) as usize;
                let lv = self.level(self.cur);
                let dropped = k.min(lv);
                if dropped > 0 {
                    self.cur = self.g.drop_to_level(self.cur, lv - dropped);
                }
            }
            BasicOp::Modup => {
                // Basis extension has no dataflow effect at this level.
            }
        }
        Ok(())
    }

    fn finish(mut self) -> CompiledProgram {
        self.reduce();
        self.g.mark_output(self.cur);
        let rotation_steps = self.g.required_rotation_steps();
        CompiledProgram {
            graph: self.g,
            truncated: self.truncated,
            segments: self.segments,
            exhausted: self.exhausted,
            rotation_steps,
        }
    }
}

/// Lowers a parsed `.pos` trace into an executable graph for `ctx`.
///
/// # Errors
///
/// [`PlanError::ScaleOverflow`] when the parameter set cannot fund the
/// program — even a fresh top-level input would exceed the modulus.
pub fn compile_trace(
    trace: &OpTrace,
    ctx: &CkksContext,
    opts: &CompileOptions,
) -> Result<CompiledProgram, PlanError> {
    lower(trace, ctx, opts.count_cap, Exhaustion::SegmentReset)
}

/// The lowering behind [`compile_trace`] and [`plan_trace`]. Never errors
/// under [`Exhaustion::Defer`]: the planner repairs or rejects instead.
fn lower(
    trace: &OpTrace,
    ctx: &CkksContext,
    count_cap: u64,
    exhaustion: Exhaustion,
) -> Result<CompiledProgram, PlanError> {
    let virt_max = trace
        .entries()
        .iter()
        .map(|(_, p, _)| p.components)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let max_level = ctx.max_level();
    let mut lowering = Lowering::new(ctx, count_cap, exhaustion);
    for &(op, params, count) in trace.entries() {
        let target = ((params.components as f64 / virt_max) * max_level as f64).ceil() as usize;
        let target = target.min(max_level);
        lowering.lower_entry(op, target, count)?;
    }
    Ok(lowering.finish())
}

/// End-to-end `.pos` planning: lower the trace (with `opts.count_cap`;
/// with `opts.bootstrap`, exhausted values are left standing for bootstrap
/// insertion instead of resetting the segment), run the pass
/// pipeline, and surface lowering telemetry (`PlanStats::truncated`,
/// `plan.truncated` scope) in the resulting [`Plan`].
///
/// # Errors
///
/// Propagates [`PlanError`] from the lowering (scale overflow) or from
/// bootstrap insertion (budget exhausted with no key, or refresh costed
/// above re-encryption).
pub fn plan_trace(
    trace: &OpTrace,
    ctx: &CkksContext,
    opts: &PlanOptions,
) -> Result<Plan, PlanError> {
    let exhaustion = if opts.bootstrap.is_some() {
        Exhaustion::Defer
    } else {
        Exhaustion::SegmentReset
    };
    let prog = lower(trace, ctx, opts.count_cap, exhaustion)?;
    if prog.truncated > 0 {
        tel::truncated().add(prog.truncated);
    }
    let mut planned = plan(prog.graph, opts)?;
    planned.stats.truncated = prog.truncated;
    Ok(planned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::OpParams;
    use crate::plan::graph::{GraphOp, NodeId};
    use he_ckks::params::CkksParams;

    fn trace_of(entries: &[(BasicOp, usize, u64)]) -> OpTrace {
        let mut t = OpTrace::new();
        for &(op, components, count) in entries {
            t.push(op, OpParams::new(1 << 16, components, 2), count);
        }
        t
    }

    #[test]
    fn bsgs_shape_produces_a_rotation_fan() {
        let ctx = CkksContext::new(CkksParams::toy());
        let trace = trace_of(&[
            (BasicOp::Rotation, 20, 8),
            (BasicOp::PMult, 20, 8),
            (BasicOp::Rescale, 20, 8),
            (BasicOp::HAdd, 20, 8),
        ]);
        let prog = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        assert!(prog.graph.validate().is_ok());
        assert_eq!(prog.rotation_steps, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(prog.segments, 1);
        assert_eq!(prog.exhausted, 0);
        assert_eq!(prog.graph.outputs().len(), 1);
        // 8 rotations of one source — prime hoisting material.
        assert_eq!(
            prog.graph
                .count_ops(|op| matches!(op, GraphOp::Rotate { .. })),
            8
        );
    }

    #[test]
    fn counts_are_capped_and_reported() {
        let ctx = CkksContext::new(CkksParams::toy());
        let trace = trace_of(&[(BasicOp::Rotation, 14, 46), (BasicOp::HAdd, 14, 46)]);
        let prog = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        assert!(prog.truncated >= 38);
        assert!(prog.graph.validate().is_ok());
    }

    #[test]
    fn raising_the_cap_lowers_a_wide_fan_fully() {
        let ctx = CkksContext::new(CkksParams::toy());
        let trace = trace_of(&[
            (BasicOp::Rotation, 20, 32),
            (BasicOp::PMult, 20, 32),
            (BasicOp::HAdd, 20, 32),
        ]);
        // Default cap truncates the fan of 32...
        let capped = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        assert!(capped.truncated > 0);
        // ...raising it lowers every repetition.
        let opts = CompileOptions { count_cap: 32 };
        let full = compile_trace(&trace, &ctx, &opts).expect("fits");
        assert_eq!(full.truncated, 0);
        assert!(full.graph.validate().is_ok());
        assert_eq!(
            full.graph
                .count_ops(|op| matches!(op, GraphOp::Rotate { .. })),
            32
        );
        assert_eq!(
            full.graph
                .count_ops(|op| matches!(op, GraphOp::MulPlain { .. })),
            32
        );
    }

    /// Longest chain of `Add` nodes feeding `Add` nodes — the reduction
    /// depth.
    fn add_depth(g: &EvalGraph) -> usize {
        fn depth_of(g: &EvalGraph, n: NodeId, memo: &mut Vec<Option<usize>>) -> usize {
            if let Some(d) = memo[n.index()] {
                return d;
            }
            let node = g.node(n);
            let d = if matches!(node.op, GraphOp::Add) {
                1 + node
                    .inputs
                    .iter()
                    .map(|&v| depth_of(g, g.value(v).producer, memo))
                    .max()
                    .unwrap_or(0)
            } else {
                0
            };
            memo[n.index()] = Some(d);
            d
        }
        let mut memo = vec![None; g.nodes().len()];
        (0..g.nodes().len())
            .map(|i| depth_of(g, NodeId(i), &mut memo))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn fan_reduction_is_a_balanced_tree() {
        let ctx = CkksContext::new(CkksParams::toy());
        let trace = trace_of(&[(BasicOp::Rotation, 20, 8), (BasicOp::HAdd, 20, 8)]);
        let prog = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        // 8 terms still need 7 adds, but in ⌈log₂8⌉ = 3 layers rather
        // than a 7-deep chain.
        assert_eq!(prog.graph.count_ops(|op| matches!(op, GraphOp::Add)), 7);
        assert_eq!(add_depth(&prog.graph), 3);
    }

    #[test]
    fn deep_mul_chain_respects_scale_budget() {
        let ctx = CkksContext::new(CkksParams::toy());
        let trace = trace_of(&[
            (BasicOp::CMult, 30, 4),
            (BasicOp::Rescale, 29, 4),
            (BasicOp::CMult, 28, 4),
        ]);
        let prog = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        assert!(prog.graph.validate().is_ok());
        // Every live value stays within the decryption margin.
        for v in prog.graph.values().iter().filter(|v| !v.dead) {
            let p = ctx.params();
            let total =
                f64::from(p.first_prime_bits) + v.level as f64 * f64::from(p.scale_prime_bits);
            assert!(
                v.scale_bits < total,
                "scale {} exceeds modulus {} at level {}",
                v.scale_bits,
                total,
                v.level
            );
        }
    }

    #[test]
    fn level_descents_follow_the_virtual_chain() {
        let ctx = CkksContext::new(CkksParams::small());
        let trace = trace_of(&[
            (BasicOp::Keyswitch, 44, 4),
            (BasicOp::HAdd, 44, 4),
            (BasicOp::Keyswitch, 32, 4),
            (BasicOp::HAdd, 32, 4),
            (BasicOp::Keyswitch, 8, 4),
            (BasicOp::HAdd, 8, 4),
        ]);
        let prog = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("fits");
        assert!(prog.graph.validate().is_ok());
        assert!(prog
            .graph
            .nodes()
            .iter()
            .any(|n| matches!(n.op, GraphOp::DropToLevel { .. })));
    }

    /// Parameter set whose modulus cannot fund a single squaring even
    /// from a fresh top-level input: 2·45 scale bits ≥ 36 + 1·40 live
    /// bits. Proceeding would produce a value past the modulus, so the
    /// lowering must refuse with a typed error.
    fn overflowing_params() -> CkksParams {
        let mut p = CkksParams::toy();
        p.n = 32;
        p.first_prime_bits = 36;
        p.scale_prime_bits = 40;
        p.chain_len = 2;
        p.scale = (1u64 << 45) as f64;
        p
    }

    #[test]
    fn unfundable_square_is_a_typed_overflow_not_a_silent_one() {
        let ctx = CkksContext::new(overflowing_params());
        let trace = trace_of(&[(BasicOp::CMult, 30, 1)]);
        let err = compile_trace(&trace, &ctx, &CompileOptions::default())
            .expect_err("2*45 scale bits cannot fit a 76-bit modulus");
        assert!(
            matches!(err, PlanError::ScaleOverflow { level: _, .. }),
            "expected ScaleOverflow, got {err:?}"
        );
    }

    /// A program that walks the chain to level 0 and then squares: the
    /// lowering `compile_trace` uses splits it into two segments; the one
    /// `plan_trace` uses with bootstrap keys keeps one dataflow and counts
    /// the exhaustion.
    #[test]
    fn an_exhausting_program_resets_or_defers_by_policy() {
        let ctx = CkksContext::new(CkksParams::bootstrap_demo());
        let trace = trace_of(&[
            (BasicOp::Moddown, 24, 8),
            (BasicOp::Moddown, 16, 8),
            (BasicOp::Moddown, 8, 8),
            (BasicOp::CMult, 1, 1),
            (BasicOp::Rescale, 1, 1),
            (BasicOp::HAdd, 1, 1),
        ]);
        let reset = compile_trace(&trace, &ctx, &CompileOptions::default()).expect("compiles");
        assert!(
            reset.segments >= 2,
            "SegmentReset must split the exhausted chain, got {} segment(s)",
            reset.segments
        );
        assert_eq!(reset.exhausted, 0);

        let count_cap = CompileOptions::default().count_cap;
        let defer = lower(&trace, &ctx, count_cap, Exhaustion::Defer).expect("compiles");
        assert_eq!(defer.segments, 1, "Defer must keep one dataflow");
        assert!(defer.exhausted >= 1, "exhaustion must be counted");
    }

    #[test]
    fn defer_mode_keeps_one_dataflow_and_counts_exhaustion() {
        let ctx = CkksContext::new(overflowing_params());
        let trace = trace_of(&[(BasicOp::CMult, 30, 1)]);
        let count_cap = CompileOptions::default().count_cap;
        let prog = lower(&trace, &ctx, count_cap, Exhaustion::Defer).expect("defer never errors");
        assert!(prog.exhausted >= 1);
        assert_eq!(prog.segments, 1);
        assert!(prog.graph.validate().is_ok());
    }
}
