//! `HomomorphicOps` — the shared homomorphic-operation surface.
//!
//! Three executors expose the same CKKS basic operations with different
//! backends: the software [`Evaluator`], the trace-capturing
//! [`RecordingEvaluator`], and the operator-pool [`PoseidonMachine`]. A
//! workload written against `HomomorphicOps` runs unchanged on any of
//! them — the pattern the `tables metrics` report uses to drive one HELR
//! pipeline through both the evaluator and the machine, and the interface
//! `plan::execute` replays a plan through.
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
/// operation vocabulary, plus the bootstrapping refresh).
///
/// Twelve methods, every one returning `Result<_, EvalError>`: ten a
/// backend must implement, and two with defaults ([`try_rotate_many`] as a
/// loop of [`try_rotate`], [`try_bootstrap`] as "unavailable") that a
/// backend with a hoisted rotation engine or a bootstrap path overrides.
/// The backends agree on which [`EvalError`] a rejected operand yields;
/// checked backends surface persistent datapath corruption as
/// [`EvalError::IntegrityFault`] through the same methods.
///
/// [`try_rotate`]: Self::try_rotate
/// [`try_rotate_many`]: Self::try_rotate_many
/// [`try_bootstrap`]: Self::try_bootstrap
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
/// ) -> Result<Ciphertext, EvalError> {
///     let s = b.try_add(ct, ct)?;
///     b.try_rotate(&s, 1, keys)
/// }
/// ```
pub trait HomomorphicOps {
    /// HAdd, ct+ct.
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] / [`EvalError::LevelMismatch`] on
    /// operand mismatch; [`EvalError::IntegrityFault`] from checked
    /// backends.
    fn try_add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// Subtraction (HAdd cost class).
    ///
    /// # Errors
    ///
    /// As [`try_add`](Self::try_add).
    fn try_sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// HAdd, ct+pt.
    ///
    /// # Errors
    ///
    /// As [`try_add`](Self::try_add); a plaintext below the ciphertext's
    /// level is a [`EvalError::LevelMismatch`].
    fn try_add_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError>;

    /// PMult, ct·pt (scale multiplies; rescale afterwards).
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] for a plaintext below the ciphertext's
    /// level; [`EvalError::IntegrityFault`] from checked backends.
    fn try_mul_plain(&mut self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError>;

    /// CMult with relinearisation.
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

    /// Squaring (CMult cost class).
    ///
    /// # Errors
    ///
    /// As [`try_mul`](Self::try_mul).
    fn try_square(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError>;

    /// Rescale: drops the chain's last prime and divides the scale.
    ///
    /// # Errors
    ///
    /// [`EvalError::RescaleAtLevelZero`] at level 0.
    fn try_rescale(&mut self, a: &Ciphertext) -> Result<Ciphertext, EvalError>;

    /// Level drop by modulus truncation (no scale change).
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] when `level` exceeds the current
    /// level.
    fn try_drop_to_level(&mut self, a: &Ciphertext, level: usize) -> Result<Ciphertext, EvalError>;

    /// Slot rotation.
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

    /// Slot conjugation.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingConjugationKey`] when the key is absent.
    fn try_conjugate(&mut self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError>;

    /// Batch rotation of one ciphertext by every step in `steps`.
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

    /// Ciphertext refresh through the full bootstrapping pipeline (`a`
    /// must be at level 0 — see [`Bootstrapper::try_bootstrap`]). The
    /// default implementation reports [`EvalError::BootstrapUnavailable`];
    /// backends with a bootstrap path (the evaluator, the machine)
    /// override it.
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
    ) -> Result<Ciphertext, EvalError> {
        let s = backend.try_add(a, b)?;
        let p = backend.try_mul(&s, a, keys)?;
        let r = backend.try_rescale(&p)?;
        backend.try_rotate(&r, 1, keys)
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
            let got = decrypt_slot0(&ctx, &keys, &out.unwrap());
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
        let batch = HomomorphicOps::try_rotate_many(&mut eval, &a, &steps, &keys).unwrap();
        for (&s, out) in steps.iter().zip(&batch) {
            let single = HomomorphicOps::try_rotate(&mut eval, &a, s, &keys).unwrap();
            assert_eq!(out, &single);
        }

        // The machine's hoisted dataflow uses a different (still
        // CRT-consistent) digit representative than its per-call rotate,
        // so agreement is at the decrypted-value level.
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let batch = machine.try_rotate_many(&a, &steps, &keys).unwrap();
        for (&s, out) in steps.iter().zip(&batch) {
            let single = machine.try_rotate(&a, s, &keys).unwrap();
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
            let _ = unhoisted.try_rotate(&a, s, &keys).unwrap();
        }
        let mut hoisted = PoseidonMachine::new(&ctx, 8, 1);
        let _ = hoisted.try_rotate_many(&a, &steps, &keys).unwrap();

        let (nh, nu) = (hoisted.usage().ntt, unhoisted.usage().ntt);
        assert!(
            nh * 2 <= nu,
            "hoisted NTT traffic {nh} not ≥2× below unhoisted {nu}"
        );
    }

    /// Every operand a backend must refuse, and the error it must refuse it
    /// with — the same on every backend.
    fn rejects<B: HomomorphicOps>(b: &mut B, ctx: &CkksContext, a: &Ciphertext, keys: &KeySet) {
        let mut scaled = a.clone();
        scaled.set_scale(a.scale() * 3.0);
        let mismatch = EvalError::ScaleMismatch {
            a: a.scale(),
            b: scaled.scale(),
        };
        assert_eq!(b.try_add(a, &scaled), Err(mismatch.clone()));
        assert_eq!(b.try_sub(a, &scaled), Err(mismatch.clone()));
        let encode = |scale: f64, level: usize| {
            let basis = ctx.level_basis(level);
            let z = [Complex::new(0.5, 0.0)];
            Plaintext::new(ctx.encoder().encode_rns(&basis, &z, scale), scale)
        };
        let scaled_pt = encode(scaled.scale(), a.level());
        assert_eq!(b.try_add_plain(a, &scaled_pt), Err(mismatch));

        let low_pt = encode(a.scale(), 0);
        let low = EvalError::LevelMismatch { a: a.level(), b: 0 };
        assert_eq!(b.try_add_plain(a, &low_pt), Err(low.clone()));
        assert_eq!(b.try_mul_plain(a, &low_pt), Err(low));

        let bottom = b
            .try_drop_to_level(a, 0)
            .expect("level 0 is below every level");
        assert_eq!(b.try_rescale(&bottom), Err(EvalError::RescaleAtLevelZero));
        assert_eq!(
            b.try_drop_to_level(&bottom, 1),
            Err(EvalError::LevelMismatch { a: 0, b: 1 })
        );

        assert_eq!(
            b.try_rotate(a, 5, keys),
            Err(EvalError::MissingRotationKey { steps: 5 })
        );
        assert_eq!(
            b.try_rotate_many(a, &[5, 1], keys),
            Err(EvalError::MissingRotationKey { steps: 5 })
        );
        assert_eq!(
            b.try_conjugate(a, keys),
            Err(EvalError::MissingConjugationKey)
        );
    }

    #[test]
    fn every_backend_rejects_the_same_operands_with_the_same_error() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let mut eval = Evaluator::new(&ctx);
        let mut rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        rejects(&mut eval, &ctx, &a, &keys);
        rejects(&mut rec, &ctx, &a, &keys);
        rejects(&mut machine, &ctx, &a, &keys);
        // The one accepted call is the free level drop `rejects` sets up
        // with; the flat trace does not list it.
        assert_eq!(
            rec.trace().entries().len(),
            0,
            "a refused operation must not be recorded"
        );
    }
}
