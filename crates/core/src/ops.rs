//! `HomomorphicOps` — the shared homomorphic-operation surface.
//!
//! Three executors expose the same CKKS basic operations with different
//! backends: the software [`Evaluator`], the trace-capturing
//! [`RecordingEvaluator`], and the operator-pool [`PoseidonMachine`].
//! Before this trait each duplicated its own ad-hoc method list; now a
//! workload written against `HomomorphicOps` runs unchanged on any of
//! them — the pattern the `tables metrics` report uses to drive one HELR
//! pipeline through both the evaluator and the machine.
//!
//! Methods take `&mut self` for the machine's sake (its pool mutates
//! per-call state); the evaluator backends simply ignore the mutability.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;

use crate::machine::PoseidonMachine;
use crate::recorder::RecordingEvaluator;

/// The basic-operation surface shared by every executor (paper Table I's
/// operation vocabulary, minus bootstrapping).
///
/// Every operation is specified by its fallible `try_` form — backends
/// implement only those — and the familiar panicking methods are provided
/// wrappers that format the [`EvalError`] (preserving the legacy panic
/// messages). Checked backends surface persistent datapath corruption as
/// [`EvalError::IntegrityFault`] through the same `try_` surface.
///
/// # Examples
///
/// ```no_run
/// use he_ckks::prelude::*;
/// use poseidon_core::{HomomorphicOps, PoseidonMachine};
///
/// fn double_and_spin<B: HomomorphicOps>(
///     b: &mut B,
///     ct: &Ciphertext,
///     keys: &KeySet,
/// ) -> Ciphertext {
///     let s = b.add(ct, ct);
///     b.rotate(&s, 1, keys)
/// }
/// ```
pub trait HomomorphicOps {
    /// Fallible HAdd, ct+ct.
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] / [`EvalError::LevelMismatch`] on
    /// operand mismatch; [`EvalError::IntegrityFault`] from checked
    /// backends.
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// Fallible subtraction (HAdd cost class).
    ///
    /// # Errors
    ///
    /// As [`try_add`](Self::try_add).
    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// Fallible HAdd, ct+pt.
    ///
    /// # Errors
    ///
    /// As [`try_add`](Self::try_add).
    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError>;

    /// Fallible PMult, ct·pt (scale multiplies; rescale afterwards).
    ///
    /// # Errors
    ///
    /// Reserved for [`EvalError::IntegrityFault`] from checked backends.
    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError>;

    /// Fallible CMult with relinearisation.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] on unaligned operands (machine);
    /// [`EvalError::IntegrityFault`] from checked backends.
    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError>;

    /// Fallible squaring (CMult cost class).
    ///
    /// # Errors
    ///
    /// As [`try_mul`](Self::try_mul).
    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError>;

    /// Fallible rescale.
    ///
    /// # Errors
    ///
    /// [`EvalError::RescaleAtLevelZero`] at level 0.
    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// Fallible level drop by modulus truncation (no scale change).
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] when `level` exceeds the current
    /// level.
    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError>;

    /// HAdd, ct+ct.
    ///
    /// # Panics
    ///
    /// Panics on operand mismatch or escalated integrity fault.
    fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.try_add(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// HAdd cost class, subtraction.
    ///
    /// # Panics
    ///
    /// As [`add`](Self::add).
    fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.try_sub(a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// HAdd, ct+pt.
    ///
    /// # Panics
    ///
    /// As [`add`](Self::add).
    fn add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.try_add_plain(a, pt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// PMult, ct·pt (scale multiplies; rescale afterwards).
    ///
    /// # Panics
    ///
    /// Panics on escalated integrity fault.
    fn mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.try_mul_plain(a, pt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// CMult with relinearisation.
    ///
    /// # Panics
    ///
    /// As [`add`](Self::add).
    fn mul(&mut self, a: &Ciphertext, b: &Ciphertext, keys: &KeySet) -> Ciphertext {
        self.try_mul(a, b, keys).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Squaring (CMult cost class).
    ///
    /// # Panics
    ///
    /// As [`mul`](Self::mul).
    fn square(&mut self, a: &Ciphertext, keys: &KeySet) -> Ciphertext {
        self.try_square(a, keys).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rescale: drops the chain's last prime and divides the scale.
    ///
    /// # Panics
    ///
    /// Panics at level 0.
    fn rescale(&mut self, a: &Ciphertext) -> Ciphertext {
        self.try_rescale(a).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Level drop by modulus truncation (no scale change).
    ///
    /// # Panics
    ///
    /// Panics when `level` exceeds the current level.
    fn drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Ciphertext {
        self.try_drop_to_level(a, level)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible slot rotation.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] when no key for `steps` exists.
    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError>;

    /// Fallible slot conjugation.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingConjugationKey`] when the key is absent.
    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError>;

    /// Fallible batch rotation of one ciphertext by every step in `steps`.
    ///
    /// The default implementation is a plain loop of [`try_rotate`];
    /// backends with a hoisted rotation engine (the evaluator, the
    /// machine) override it to pay the digit decomposition once for the
    /// whole batch.
    ///
    /// [`try_rotate`]: Self::try_rotate
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] for the first step without a key.
    fn try_rotate_many(
        &mut self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        steps.iter().map(|&s| self.try_rotate(a, s, keys)).collect()
    }

    /// Slot rotation.
    ///
    /// # Panics
    ///
    /// Panics when the rotation key is missing.
    fn rotate(&mut self, a: &Ciphertext, steps: i64, keys: &KeySet) -> Ciphertext {
        self.try_rotate(a, steps, keys)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batch slot rotation.
    ///
    /// # Panics
    ///
    /// Panics when any rotation key is missing.
    fn rotate_many(&mut self, a: &Ciphertext, steps: &[i64], keys: &KeySet) -> Vec<Ciphertext> {
        self.try_rotate_many(a, steps, keys)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Slot conjugation.
    ///
    /// # Panics
    ///
    /// Panics when the conjugation key is missing.
    fn conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Ciphertext {
        self.try_conjugate(a, keys)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible ciphertext refresh through the full bootstrapping
    /// pipeline (`a` must be at level 0 — see
    /// [`Bootstrapper::try_bootstrap`]). The default implementation
    /// reports [`EvalError::BootstrapUnavailable`]; backends with a
    /// bootstrap path (the evaluator, the machine) override it.
    ///
    /// [`Bootstrapper::try_bootstrap`]: he_ckks::bootstrap::Bootstrapper::try_bootstrap
    ///
    /// # Errors
    ///
    /// [`EvalError::BootstrapUnavailable`] on backends without a
    /// bootstrap path; otherwise whatever the pipeline reports (missing
    /// rotation/conjugation keys, chain too short).
    fn try_bootstrap(
        &mut self,
        a: &Ciphertext,
        bs: &he_ckks::bootstrap::Bootstrapper,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        let _ = (a, bs, keys);
        Err(EvalError::BootstrapUnavailable)
    }
}

impl HomomorphicOps for Evaluator {
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        Evaluator::try_add(self, a, b)
    }

    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        Evaluator::try_sub(self, a, b)
    }

    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        Evaluator::try_add_plain(self, a, pt)
    }

    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        Evaluator::try_mul_plain(self, a, pt)
    }

    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        Evaluator::try_mul(self, a, b, keys)
    }

    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        Evaluator::try_square(self, a, keys)
    }

    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        Evaluator::try_rescale(self, a)
    }

    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        Evaluator::try_drop_to_level(self, a, level)
    }

    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        Evaluator::try_rotate(self, a, steps, keys)
    }

    fn try_rotate_many(
        &mut self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        Evaluator::try_rotate_many(self, a, steps, keys)
    }

    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        Evaluator::try_conjugate(self, a, keys)
    }

    fn try_bootstrap(
        &mut self,
        a: &Ciphertext,
        bs: &he_ckks::bootstrap::Bootstrapper,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        bs.try_bootstrap(self, keys, a)
    }
}

impl HomomorphicOps for RecordingEvaluator {
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_add(self, a, b)
    }

    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_sub(self, a, b)
    }

    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_add_plain(self, a, pt)
    }

    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_mul_plain(self, a, pt)
    }

    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_mul(self, a, b, keys)
    }

    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_square(self, a, keys)
    }

    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_rescale(self, a)
    }

    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        // Free data movement — no hardware-trace entry, but the dataflow
        // graph records the descent.
        RecordingEvaluator::try_drop_to_level(self, a, level)
    }

    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_rotate(self, a, steps, keys)
    }

    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        RecordingEvaluator::try_conjugate(self, a, keys)
    }
}

impl HomomorphicOps for PoseidonMachine {
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_hadd(self, a, b)
    }

    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_hsub(self, a, b)
    }

    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_add_plain(self, a, pt)
    }

    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_pmult(self, a, pt)
    }

    fn try_mul(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_cmult(self, a, b, keys)
    }

    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_square(self, a, keys)
    }

    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_rescale(self, a)
    }

    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_drop_to_level(self, a, level)
    }

    fn try_rotate(
        &mut self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_rotate(self, a, steps, keys)
    }

    fn try_rotate_many(
        &mut self,
        a: &Ciphertext,
        steps: &[i64],
        keys: &KeySet,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        PoseidonMachine::try_rotate_many(self, a, steps, keys)
    }

    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_conjugate(self, a, keys)
    }

    fn try_bootstrap(
        &mut self,
        a: &Ciphertext,
        bs: &he_ckks::bootstrap::Bootstrapper,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        PoseidonMachine::try_bootstrap(self, a, bs, keys)
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0535);
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

    fn decrypt_slot0(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext) -> f64 {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder().decode_rns(pt.poly(), pt.scale(), 1)[0].re
    }

    /// One generic pipeline: (a + b)·a, rescaled, rotated by one slot.
    fn pipeline<B: HomomorphicOps>(
        backend: &mut B,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Ciphertext {
        let s = backend.add(a, b);
        let p = backend.mul(&s, a, keys);
        let r = backend.rescale(&p);
        backend.rotate(&r, 1, keys)
    }

    #[test]
    fn all_three_backends_agree_through_the_trait() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 2.0);
        let b = encrypt(&ctx, &keys, &mut rng, 3.0);
        let expected = (2.0 + 3.0) * 2.0;

        let mut eval = Evaluator::new(&ctx);
        let mut rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);

        // slot 0 rotated away; with a single replicated slot in toy params
        // the rotated slot still carries the value in slot 0's image, so
        // decode slot 0 after rotating back is unnecessary — the encoder
        // replicates a single value across all slots.
        for out in [
            pipeline(&mut eval, &a, &b, &keys),
            pipeline(&mut rec, &a, &b, &keys),
            pipeline(&mut machine, &a, &b, &keys),
        ] {
            let got = decrypt_slot0(&ctx, &keys, &out);
            assert!(
                (got - expected).abs() < 0.05,
                "backend disagreed: got {got}, expected {expected}"
            );
        }
        assert!(
            machine.usage().total() > 0,
            "machine counted no operator work"
        );
        assert_eq!(rec.trace().entries().len(), 4, "recorder missed ops");
    }

    #[test]
    fn rotate_many_agrees_with_single_rotations_on_every_backend() {
        let (ctx, mut keys, mut rng) = setup();
        keys.add_rotation_key(2, &mut rng);
        let a = encrypt(&ctx, &keys, &mut rng, 1.75);
        let steps = [1i64, 2];

        // Evaluator and recorder share the hoisted engine, whose outputs
        // are bit-identical to the per-call path.
        let mut eval = Evaluator::new(&ctx);
        let batch = HomomorphicOps::rotate_many(&mut eval, &a, &steps, &keys);
        for (&s, out) in steps.iter().zip(&batch) {
            assert_eq!(out, &HomomorphicOps::rotate(&mut eval, &a, s, &keys));
        }

        // The machine's hoisted dataflow uses a different (still
        // CRT-consistent) digit representative than its per-call rotate,
        // so agreement is at the decrypted-value level.
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let batch = machine.rotate_many(&a, &steps, &keys);
        for (&s, out) in steps.iter().zip(&batch) {
            let single = machine.rotate(&a, s, &keys);
            let got = decrypt_slot0(&ctx, &keys, out);
            let want = decrypt_slot0(&ctx, &keys, &single);
            assert!((got - want).abs() < 1e-3, "step {s}: {got} vs {want}");
        }
    }

    #[test]
    fn machine_hoisted_batch_saves_ntt_traffic() {
        let (ctx, mut keys, mut rng) = setup();
        for s in 2..=4i64 {
            keys.add_rotation_key(s, &mut rng);
        }
        let a = encrypt(&ctx, &keys, &mut rng, 0.5);
        let steps = [1i64, 2, 3, 4];

        let mut unhoisted = PoseidonMachine::new(&ctx, 8, 1);
        for &s in &steps {
            let _ = unhoisted.rotate(&a, s, &keys);
        }
        let mut hoisted = PoseidonMachine::new(&ctx, 8, 1);
        let _ = hoisted.rotate_many(&a, &steps, &keys);

        let (nh, nu) = (hoisted.usage().ntt, unhoisted.usage().ntt);
        assert!(
            nh * 2 <= nu,
            "hoisted NTT traffic {nh} not ≥2× below unhoisted {nu}"
        );
    }

    #[test]
    fn trait_plain_ops_report_a_low_plaintext_on_every_backend() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let mut eval = Evaluator::new(&ctx);
        let mut rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let low = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), 0);

        fn probe<B: HomomorphicOps>(b: &mut B, a: &Ciphertext, low: &Plaintext) {
            let want = EvalError::LevelMismatch {
                a: a.level(),
                b: low.level(),
            };
            assert_eq!(b.try_add_plain(a, low), Err(want.clone()));
            assert_eq!(b.try_mul_plain(a, low), Err(want));
        }
        probe(&mut eval, &a, &low);
        probe(&mut rec, &a, &low);
        probe(&mut machine, &a, &low);
        assert_eq!(
            rec.trace().entries().len(),
            0,
            "a refused operand must not be recorded"
        );
    }

    #[test]
    fn trait_try_rotate_reports_missing_key_on_every_backend() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let mut eval = Evaluator::new(&ctx);
        let mut rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);

        fn probe<B: HomomorphicOps>(b: &mut B, a: &Ciphertext, keys: &KeySet) {
            assert_eq!(
                b.try_rotate(a, 5, keys),
                Err(EvalError::MissingRotationKey { steps: 5 })
            );
        }
        probe(&mut eval, &a, &keys);
        probe(&mut rec, &a, &keys);
        probe(&mut machine, &a, &keys);
        assert_eq!(
            rec.trace().entries().len(),
            0,
            "failed rotation must not be recorded"
        );
    }
}
