//! `HomomorphicOps` — the shared homomorphic-operation surface.
//!
//! Two backends implement the CKKS basic operations: the software
//! [`Evaluator`] (the impl below forwards to its inherent methods) and the
//! operator-pool [`PoseidonMachine`](crate::machine::PoseidonMachine), whose
//! operations live only in its impl of this trait. The
//! [`Recorder`](crate::recorder::Recorder) decorates either one, recording
//! each operation it forwards. A workload written against `HomomorphicOps`
//! runs unchanged on any of them — the pattern the conformance tests below
//! use to drive one pipeline through all of them, and the interface
//! `plan::execute` replays a plan through.
//!
//! Methods take `&mut self` for the machine's and the recorder's sake (the
//! pool and the recordings mutate per call); the evaluator ignores the
//! mutability.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::error::EvalError;
use he_ckks::eval::{Evaluator, PlainOperand};
use he_ckks::keys::KeySet;

/// The weight of one term of a rotation sum, as `plan::execute` hands it to
/// a backend: the plaintext as the program wrote it, for a backend that
/// multiplies by it on its own cores, and the same plaintext prepared for
/// the software key-switch engine.
#[derive(Debug, Clone, Copy)]
pub struct Weight<'a> {
    /// The plaintext.
    pub plain: &'a Plaintext,
    /// [`Evaluator::prepare_plain`] of it, at or above the sum's level.
    pub prepared: &'a PlainOperand,
}

/// The basic-operation surface shared by every executor (paper Table I's
/// operation vocabulary, plus the bootstrapping refresh).
///
/// Thirteen methods, every one returning `Result<_, EvalError>`: ten a
/// backend must implement, and three with defaults — [`try_rotate_many`] as
/// a loop of [`try_rotate`] and [`try_bootstrap`] as "unavailable", which a
/// backend with a hoisted rotation engine or a bootstrap path overrides, and
/// [`try_rotate_sum`] as the software engine itself, which a backend that
/// counts or models its own operations overrides with their composition.
/// The backends agree on which [`EvalError`] a rejected operand yields;
/// checked backends surface persistent datapath corruption as
/// [`EvalError::IntegrityFault`] through the same methods.
///
/// [`try_rotate`]: Self::try_rotate
/// [`try_rotate_many`]: Self::try_rotate_many
/// [`try_rotate_sum`]: Self::try_rotate_sum
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

    /// The weighted sum of rotations `Σ_r pt_r ⊙ rot_r(a)` a planned
    /// `RotateSum` node stands for (a term without a weight is the bare
    /// rotation).
    ///
    /// The default is the software engine, [`Evaluator::try_rotate_sum`], on
    /// an evaluator over the keys' context — not the composition of this
    /// backend's own rotations, products and additions. A backend that
    /// forwards its operations to an [`Evaluator`] (to time them, say) and
    /// knows nothing of this method then keeps agreeing with the evaluator
    /// bit for bit on every plan, which the composition — one Moddown
    /// rounding per term instead of one — would not. The machine and the
    /// recorder, whose point is the operations they count, override it with
    /// [`rotate_sum_composed`].
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] for no terms;
    /// [`EvalError::MissingRotationKey`] for the first step without a key;
    /// [`EvalError::LevelMismatch`] / [`EvalError::ScaleMismatch`] for
    /// weights below the ciphertext's level or of different scales.
    fn try_rotate_sum(
        &mut self,
        a: &Ciphertext,
        terms: &[(i64, Option<Weight<'_>>)],
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        engine_rotate_sum(&Evaluator::new(keys.context()), a, terms, keys)
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

fn engine_rotate_sum(
    eval: &Evaluator,
    a: &Ciphertext,
    terms: &[(i64, Option<Weight<'_>>)],
    keys: &KeySet,
) -> Result<Ciphertext, EvalError> {
    let terms: Vec<_> = terms
        .iter()
        .map(|&(steps, w)| (steps, w.map(|w| w.prepared)))
        .collect();
    eval.try_rotate_sum(a, &terms, keys)
}

/// A rotation sum as the backend's own operations: one `try_rotate_many`,
/// a `try_mul_plain` per weighted term, a chain of `try_add`s — what the
/// unfused graph ran, so a backend that counts operations counts what it
/// always did.
///
/// # Errors
///
/// [`EvalError::EmptyOperands`] for no terms; otherwise whatever the
/// backend's operations return.
pub fn rotate_sum_composed<B: HomomorphicOps>(
    backend: &mut B,
    a: &Ciphertext,
    terms: &[(i64, Option<Weight<'_>>)],
    keys: &KeySet,
) -> Result<Ciphertext, EvalError> {
    let steps: Vec<i64> = terms.iter().map(|&(steps, _)| steps).collect();
    let rotated = backend.try_rotate_many(a, &steps, keys)?;
    let mut sum: Option<Ciphertext> = None;
    for (rot, (_, weight)) in rotated.into_iter().zip(terms) {
        let term = match weight {
            Some(w) => backend.try_mul_plain(&rot, w.plain)?,
            None => rot,
        };
        sum = Some(match sum {
            None => term,
            Some(sum) => backend.try_add(&sum, &term)?,
        });
    }
    sum.ok_or(EvalError::EmptyOperands)
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

    fn try_rotate_sum(
        &mut self,
        a: &Ciphertext,
        terms: &[(i64, Option<Weight<'_>>)],
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        engine_rotate_sum(self, a, terms, keys)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PoseidonMachine;
    use crate::recorder::Recorder;
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
    fn both_backends_agree_through_the_trait_recorded_or_not() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 2.0);
        let b = encrypt(&ctx, &keys, &mut rng, 3.0);
        let expected = (2.0 + 3.0) * 2.0;

        let mut eval = Evaluator::new(&ctx);
        let mut rec = Recorder::new(&ctx, Evaluator::new(&ctx));
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let mut recorded_machine = Recorder::new(&ctx, PoseidonMachine::new(&ctx, 8, 1));

        // slot 0 rotated away; with a single replicated slot in toy params
        // the rotated slot still carries the value in slot 0's image, so
        // decode slot 0 after rotating back is unnecessary — the encoder
        // replicates a single value across all slots.
        for out in [
            pipeline(&mut eval, &a, &b, &keys),
            pipeline(&mut rec, &a, &b, &keys),
            pipeline(&mut machine, &a, &b, &keys),
            pipeline(&mut recorded_machine, &a, &b, &keys),
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
        assert_eq!(recorded_machine.trace(), rec.trace());
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

    /// A rotation by a multiple of the slot count is the operand, on every
    /// backend, alone and at its position in a fan: `galois_element` is 1 and
    /// no key is ever generated for it.
    fn rotates_by_nothing<B: HomomorphicOps>(
        b: &mut B,
        ctx: &CkksContext,
        a: &Ciphertext,
        keys: &KeySet,
    ) {
        let slots = ctx.params().slots() as i64;
        assert_eq!(b.try_rotate(a, 0, keys).as_ref(), Ok(a));
        assert_eq!(b.try_rotate(a, -slots, keys).as_ref(), Ok(a));
        let fan = b.try_rotate_many(a, &[0, 1, 2 * slots], keys).unwrap();
        assert_eq!((&fan[0], &fan[2]), (a, a));
        let got = decrypt_slot0(ctx, keys, &fan[1]);
        let want = decrypt_slot0(ctx, keys, &b.try_rotate(a, 1, keys).unwrap());
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        assert_eq!(
            b.try_rotate_many(a, &[0, slots], keys).unwrap(),
            [a.clone(), a.clone()]
        );
    }

    #[test]
    fn every_backend_rejects_the_same_operands_with_the_same_error() {
        let (ctx, keys, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let mut eval = Evaluator::new(&ctx);
        let mut rec = Recorder::new(&ctx, Evaluator::new(&ctx));
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let mut recorded_machine = Recorder::new(&ctx, PoseidonMachine::new(&ctx, 8, 1));
        rejects(&mut eval, &ctx, &a, &keys);
        rejects(&mut rec, &ctx, &a, &keys);
        rejects(&mut machine, &ctx, &a, &keys);
        rejects(&mut recorded_machine, &ctx, &a, &keys);
        // The one accepted call is the free level drop `rejects` sets up
        // with; the flat trace does not list it.
        assert_eq!(
            rec.trace().entries().len(),
            0,
            "a refused operation must not be recorded"
        );

        rotates_by_nothing(&mut eval, &ctx, &a, &keys);
        rotates_by_nothing(&mut rec, &ctx, &a, &keys);
        rotates_by_nothing(&mut machine, &ctx, &a, &keys);
        rotates_by_nothing(&mut recorded_machine, &ctx, &a, &keys);
        // Two real rotations by one slot; the identities recorded nothing.
        assert_eq!(rec.trace().entries().len(), 2);
        assert_eq!(recorded_machine.trace(), rec.trace());
    }
}
