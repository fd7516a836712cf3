//! Trace recording: run a real CKKS computation and capture the basic-
//! operation stream it performed, ready for the accelerator model.
//!
//! This closes the loop between the functional library and the simulator:
//! instead of hand-writing a workload (as `poseidon-sim::workloads` does
//! for the paper's benchmarks), wrap the evaluator, run *your actual
//! program*, and simulate the recorded trace.

use std::cell::RefCell;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;

use crate::decompose::{BasicOp, OpParams, OpTrace};
use crate::plan::graph::{EvalGraph, GraphOp, GraphRecorder};

/// An evaluator wrapper that records every basic operation it executes.
///
/// # Examples
///
/// ```no_run
/// # use he_ckks::prelude::*;
/// # use poseidon_core::recorder::RecordingEvaluator;
/// # let ctx = CkksContext::new(CkksParams::toy());
/// # let mut rng = rand::thread_rng();
/// # let keys = KeySet::generate(&ctx, &mut rng);
/// # let ct: Ciphertext = unimplemented!();
/// let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
/// let sum = rec.try_add(&ct, &ct)?;
/// let prod = rec.try_mul(&ct, &ct, &keys)?;
/// let trace = rec.into_trace(); // feed to poseidon_sim::Simulator::run
/// # Ok::<(), EvalError>(())
/// ```
#[derive(Debug)]
pub struct RecordingEvaluator {
    inner: Evaluator,
    special: usize,
    dnum: usize,
    trace: RefCell<OpTrace>,
    graph: RefCell<GraphRecorder>,
}

impl RecordingEvaluator {
    /// Wraps an evaluator; `dnum` sets the keyswitch digit count recorded
    /// for the *hardware* cost of keyswitch-bearing operations (the
    /// software library itself uses per-prime digits).
    pub fn new(inner: Evaluator, dnum: usize) -> Self {
        let special = inner.context().special_basis().len();
        let rescale_bits = f64::from(inner.context().params().scale_prime_bits);
        Self {
            inner,
            special,
            dnum,
            trace: RefCell::new(OpTrace::new()),
            graph: RefCell::new(GraphRecorder::new(rescale_bits)),
        }
    }

    /// The wrapped evaluator (for operations that need no recording).
    pub fn inner(&self) -> &Evaluator {
        &self.inner
    }

    /// The recorded trace so far (cloned).
    pub fn trace(&self) -> OpTrace {
        self.trace.borrow().clone()
    }

    /// Consumes the recorder, returning the trace.
    pub fn into_trace(self) -> OpTrace {
        self.trace.into_inner()
    }

    /// Marks a previously produced ciphertext as a graph output (the
    /// values a later [`plan`](crate::plan) replay must reproduce).
    /// Returns `false` for a ciphertext this recorder never saw. Without
    /// any explicit mark, every leaf value becomes an output.
    pub fn mark_output(&self, ct: &Ciphertext) -> bool {
        self.graph.borrow_mut().mark_output(ct)
    }

    /// A snapshot of the dataflow graph captured so far (see
    /// [`EvalGraph`]). Unconsumed values become graph outputs unless
    /// [`mark_output`](Self::mark_output) was used.
    pub fn eval_graph(&self) -> EvalGraph {
        self.graph.borrow().snapshot()
    }

    /// Consumes the recorder, returning both recordings: the flat
    /// hardware trace and the SSA dataflow graph.
    pub fn into_recordings(self) -> (OpTrace, EvalGraph) {
        (self.trace.into_inner(), self.graph.into_inner().finish())
    }

    fn record(&self, op: BasicOp, ct: &Ciphertext) {
        let p = OpParams::with_dnum(
            ct.n(),
            ct.level() + 1,
            self.special,
            self.dnum.min(ct.level() + 1),
        );
        self.trace.borrow_mut().push(op, p, 1);
    }

    fn record_graph2(&self, op: GraphOp, a: &Ciphertext, b: &Ciphertext, out: &Ciphertext) {
        self.graph.borrow_mut().record_binary(op, a, b, out);
    }

    fn record_graph1(&self, op: GraphOp, a: &Ciphertext, out: &Ciphertext) {
        self.graph.borrow_mut().record_unary(op, a, out);
    }

    /// Recorded HAdd: nothing is recorded when the operands are
    /// rejected (the operation never executed).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_add(a, b)?;
        self.record(BasicOp::HAdd, a);
        self.record_graph2(GraphOp::Add, a, b, &out);
        Ok(out)
    }

    /// Recorded HAdd (subtraction variant — same operator cost).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_sub(a, b)?;
        self.record(BasicOp::HAdd, a);
        self.record_graph2(GraphOp::Sub, a, b, &out);
        Ok(out)
    }

    /// Recorded ciphertext-plaintext addition.
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_add_plain(a, pt)?;
        self.record(BasicOp::HAdd, a);
        let idx = self.graph.borrow_mut().intern_plaintext(pt.clone());
        self.record_graph1(GraphOp::AddPlain { pt: idx }, a, &out);
        Ok(out)
    }

    /// Recorded PMult.
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_mul_plain(a, pt)?;
        self.record(BasicOp::PMult, a);
        let idx = self.graph.borrow_mut().intern_plaintext(pt.clone());
        self.record_graph1(GraphOp::MulPlain { pt: idx }, a, &out);
        Ok(out)
    }

    /// Recorded CMult (with relinearisation).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_mul(a, b, keys)?;
        self.record(BasicOp::CMult, a);
        self.record_graph2(GraphOp::Mul, a, b, &out);
        Ok(out)
    }

    /// Recorded squaring (CMult cost class).
    ///
    /// # Errors
    ///
    /// Propagates the evaluator's [`EvalError`].
    pub fn try_square(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_square(a, keys)?;
        self.record(BasicOp::CMult, a);
        self.record_graph1(GraphOp::Square, a, &out);
        Ok(out)
    }

    /// Recorded Rescale.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError::RescaleAtLevelZero`] from the evaluator.
    pub fn try_rescale(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_rescale(a)?;
        self.record(BasicOp::Rescale, a);
        self.record_graph1(GraphOp::Rescale, a, &out);
        Ok(out)
    }

    /// Recorded level drop. The flat trace skips it (free data
    /// movement, no hardware op), but the dataflow graph needs the node
    /// so a planned replay reproduces the level descent.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] when `level` exceeds the current one.
    pub fn try_drop_to_level(&self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_drop_to_level(a, level)?;
        self.record_graph1(GraphOp::DropToLevel { level }, a, &out);
        Ok(out)
    }

    /// Recorded Rotation: nothing is recorded when the key is
    /// missing (the operation never executed), nor for a multiple of the
    /// slot count (the identity: no operation to execute).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError::MissingRotationKey`] from the evaluator.
    pub fn try_rotate(
        &self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        if keys.rotation_switch(steps)?.is_none() {
            return Ok(a.clone());
        }
        let out = self.inner.try_rotate(a, steps, keys)?;
        self.record(BasicOp::Rotation, a);
        self.record_graph1(GraphOp::Rotate { steps }, a, &out);
        Ok(out)
    }

    /// Recorded conjugation (Rotation cost class).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError::MissingConjugationKey`] from the evaluator.
    pub fn try_conjugate(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        let out = self.inner.try_conjugate(a, keys)?;
        self.record(BasicOp::Rotation, a);
        self.record_graph1(GraphOp::Conjugate, a, &out);
        Ok(out)
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
        let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let a = encrypt(&ctx, &keys, &mut rng, 2.0);
        let b = encrypt(&ctx, &keys, &mut rng, 3.0);
        let s = rec.try_add(&a, &b).unwrap();
        let p = rec.try_mul(&s, &a, &keys).unwrap();
        let r = rec.try_rescale(&p).unwrap();
        let _ = rec.try_rotate(&r, 1, &keys).unwrap();
        let trace = rec.into_trace();
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
    }

    #[test]
    fn recorded_results_match_unrecorded_evaluator() {
        let (ctx, keys, mut rng) = setup();
        let eval = Evaluator::new(&ctx);
        let rec = RecordingEvaluator::new(eval.clone(), 1);
        let a = encrypt(&ctx, &keys, &mut rng, 1.5);
        let b = encrypt(&ctx, &keys, &mut rng, -0.5);
        assert_eq!(rec.try_add(&a, &b).unwrap(), eval.try_add(&a, &b).unwrap());
        assert_eq!(
            rec.try_mul(&a, &b, &keys).unwrap(),
            eval.try_mul(&a, &b, &keys).unwrap()
        );
    }

    #[test]
    fn dnum_is_clamped_to_available_components() {
        let (ctx, keys, mut rng) = setup();
        let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 99);
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let _ = rec.try_mul(&a, &a, &keys).unwrap();
        let trace = rec.into_trace();
        assert!(trace.entries()[0].1.dnum <= trace.entries()[0].1.components);
    }
}
