//! Trace recording: run a real CKKS computation and capture the basic-
//! operation stream it performed, ready for the accelerator model.
//!
//! This closes the loop between the functional library and the simulator:
//! instead of hand-writing a workload (as `poseidon-sim::workloads` does
//! for the paper's benchmarks), wrap the backend, run *your actual
//! program*, and simulate the recorded trace. The recorder is a decorator,
//! not a backend of its own: it wraps either the software evaluator or the
//! machine, and the simulator reads the per-operation (op, level) sequence
//! it keeps, which neither the pool's counters nor the telemetry registry
//! do.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::error::EvalError;
use he_ckks::keys::KeySet;

use crate::decompose::{BasicOp, OpParams, OpTrace};
use crate::ops::{rotate_sum_composed, HomomorphicOps, Weight};
use crate::plan::graph::{EvalGraph, GraphOp, GraphRecorder};

/// A [`HomomorphicOps`] backend that runs every operation on `B` and, once
/// it succeeds, records it twice: as an [`OpTrace`] entry in its Table I
/// cost class at the operand's level (keyswitch-bearing operations with
/// the paper's single digit, `dnum = 1`), and as a node of the SSA dataflow
/// graph. A rejected operation records nothing; so does a rotation by a
/// multiple of the slot count (the identity) and a level drop on the trace
/// (free data movement), though the graph keeps the drop so a planned
/// replay reproduces the descent.
///
/// `try_rotate_many` and `try_rotate_sum` run as the rotations, products
/// and additions they compose, each recorded; `try_bootstrap` keeps the
/// trait's default and reports [`EvalError::BootstrapUnavailable`].
///
/// # Examples
///
/// ```no_run
/// # use he_ckks::prelude::*;
/// # use poseidon_core::recorder::Recorder;
/// # use poseidon_core::HomomorphicOps;
/// # let ctx = CkksContext::new(CkksParams::toy());
/// # let mut rng = rand::thread_rng();
/// # let keys = KeySet::generate(&ctx, &mut rng);
/// # let ct: Ciphertext = unimplemented!();
/// let mut rec = Recorder::new(&ctx, Evaluator::new(&ctx));
/// let sum = rec.try_add(&ct, &ct)?;
/// let prod = rec.try_mul(&sum, &ct, &keys)?;
/// let (trace, graph) = rec.into_recordings(); // trace: poseidon_sim::Simulator::run
/// # Ok::<(), EvalError>(())
/// ```
#[derive(Debug)]
pub struct Recorder<B> {
    inner: B,
    special: usize,
    trace: OpTrace,
    graph: GraphRecorder,
}

impl<B> Recorder<B> {
    /// Wraps `inner`, a backend over `ctx`.
    pub fn new(ctx: &CkksContext, inner: B) -> Self {
        Self {
            inner,
            special: ctx.special_basis().len(),
            trace: OpTrace::new(),
            graph: GraphRecorder::new(f64::from(ctx.params().scale_prime_bits)),
        }
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &OpTrace {
        &self.trace
    }

    /// Marks a previously produced ciphertext as a graph output (the
    /// values a later [`plan`](crate::plan) replay must reproduce).
    /// Returns `false` for a ciphertext this recorder never saw. Without
    /// any explicit mark, every leaf value becomes an output.
    pub fn mark_output(&mut self, ct: &Ciphertext) -> bool {
        self.graph.mark_output(ct)
    }

    /// Consumes the recorder, returning both recordings: the flat
    /// hardware trace and the SSA dataflow graph.
    pub fn into_recordings(self) -> (OpTrace, EvalGraph) {
        (self.trace, self.graph.finish())
    }

    /// Records `out`, which the backend produced by `op` from `operands`.
    fn record(&mut self, op: GraphOp, operands: &[&Ciphertext], out: Ciphertext) -> Ciphertext {
        if let Some(class) = cost_class(&op) {
            let a = operands[0];
            let params = OpParams::new(a.n(), a.level() + 1, self.special);
            self.trace.push(class, params, 1);
        }
        self.graph.record(op, operands, &out);
        out
    }
}

/// The Table I operation whose cost `op` has on the accelerator; `None` for
/// a level drop, which is free data movement.
fn cost_class(op: &GraphOp) -> Option<BasicOp> {
    Some(match op {
        GraphOp::Add | GraphOp::Sub | GraphOp::AddPlain { .. } => BasicOp::HAdd,
        GraphOp::MulPlain { .. } => BasicOp::PMult,
        GraphOp::Mul | GraphOp::Square => BasicOp::CMult,
        GraphOp::Rescale => BasicOp::Rescale,
        GraphOp::Rotate { .. } | GraphOp::Conjugate => BasicOp::Rotation,
        _ => return None,
    })
}

impl<B: HomomorphicOps> HomomorphicOps for Recorder<B> {
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_add(a, b)?;
        Ok(self.record(GraphOp::Add, &[a, b], out))
    }

    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_sub(a, b)?;
        Ok(self.record(GraphOp::Sub, &[a, b], out))
    }

    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_add_plain(a, pt)?;
        let pt = self.graph.intern_plaintext(pt.clone());
        Ok(self.record(GraphOp::AddPlain { pt }, &[a], out))
    }

    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_mul_plain(a, pt)?;
        let pt = self.graph.intern_plaintext(pt.clone());
        Ok(self.record(GraphOp::MulPlain { pt }, &[a], out))
    }

    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_mul(a, b, keys)?;
        Ok(self.record(GraphOp::Mul, &[a, b], out))
    }

    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_square(a, keys)?;
        Ok(self.record(GraphOp::Square, &[a], out))
    }

    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_rescale(a)?;
        Ok(self.record(GraphOp::Rescale, &[a], out))
    }

    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_drop_to_level(a, level)?;
        Ok(self.record(GraphOp::DropToLevel { level }, &[a], out))
    }

    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        if keys.rotation_switch(steps)?.is_none() {
            return Ok(a.clone());
        }
        let out = self.inner.try_rotate(a, steps, keys)?;
        Ok(self.record(GraphOp::Rotate { steps }, &[a], out))
    }

    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_conjugate(a, keys)?;
        Ok(self.record(GraphOp::Conjugate, &[a], out))
    }

    fn try_rotate_sum(
        &mut self,
        a: &Ciphertext,
        terms: &[(i64, Option<Weight<'_>>)],
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        rotate_sum_composed(self, a, terms, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_ckks::encoding::Complex;
    use he_ckks::prelude::*;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7EC0);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_key(1, &mut rng);
        (ctx, keys, rng)
    }

    fn encrypt(
        ctx: &CkksContext,
        keys: &KeySet,
        rng: &mut rand::rngs::StdRng,
        v: f64,
    ) -> Ciphertext {
        let z = vec![Complex::new(v, 0.0)];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    }

    #[test]
    fn records_the_operations_it_executes() {
        let (ctx, keys, mut rng) = setup();
        let mut rec = Recorder::new(&ctx, Evaluator::new(&ctx));
        let a = encrypt(&ctx, &keys, &mut rng, 2.0);
        let b = encrypt(&ctx, &keys, &mut rng, 3.0);
        let s = rec.try_add(&a, &b).unwrap();
        let p = rec.try_mul(&s, &a, &keys).unwrap();
        let r = rec.try_rescale(&p).unwrap();
        let _ = rec.try_rotate(&r, 1, &keys).unwrap();
        let (trace, _) = rec.into_recordings();
        let ops: Vec<BasicOp> = trace.entries().iter().map(|(op, _, _)| *op).collect();
        assert_eq!(
            ops,
            vec![
                BasicOp::HAdd,
                BasicOp::CMult,
                BasicOp::Rescale,
                BasicOp::Rotation
            ]
        );
        // Levels were captured per entry: rescale ran at the pre-drop level.
        assert_eq!(trace.entries()[2].1.components, a.level() + 1);
        assert_eq!(trace.entries()[3].1.components, a.level());
        assert!(trace.entries().iter().all(|(_, p, _)| p.dnum == 1));
    }

    #[test]
    fn recorded_results_match_unrecorded_evaluator() {
        let (ctx, keys, mut rng) = setup();
        let eval = Evaluator::new(&ctx);
        let mut rec = Recorder::new(&ctx, eval.clone());
        let a = encrypt(&ctx, &keys, &mut rng, 1.5);
        let b = encrypt(&ctx, &keys, &mut rng, -0.5);
        assert_eq!(rec.try_add(&a, &b).unwrap(), eval.try_add(&a, &b).unwrap());
        assert_eq!(
            rec.try_mul(&a, &b, &keys).unwrap(),
            eval.try_mul(&a, &b, &keys).unwrap()
        );
    }
}
