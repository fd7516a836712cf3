//! Checked execution: the one place a detected datapath fault is answered.
//!
//! The FPGA carries no ECC on its datapath BRAMs, so Poseidon-class
//! accelerators must assume residues, twiddle tables, and key material can
//! be silently corrupted in flight. Every check in the stack — the
//! duplicated runs of [`CheckedEvaluator`], the machine model's MA-core
//! retire check — reports what it saw to one policy, [`retry_once`]:
//!
//! 1. **detect** — an attempt reports a fault (duplicate digests disagree,
//!    one run panicked on poisoned data, a retire invariant failed).
//! 2. **retry once** — run the attempt again. A *transient* fault (the
//!    model's single-shot injections) has passed; the clean attempt
//!    succeeds and the caller never notices beyond the
//!    `integrity.retried` counter.
//! 3. **escalate** — the retry saw a fault too: the fault is persistent
//!    (stuck-at bit, corrupted table). The operation returns
//!    [`EvalError::IntegrityFault`] — never a panic — so services can
//!    fail the request, quarantine the accelerator, and continue.
//!
//! [`CheckedEvaluator`] detects by dual modular redundancy: each operation
//! runs twice and the two results are compared by FNV digest
//! ([`digest_ciphertext`], over [`he_rns::integrity::digest_poly`]).
//! Persistent faults are caught because the deterministic injector
//! (`poseidon-faults`) derives each corruption from its global hit
//! counter, just as a real stuck-at bit corrupts different data each time
//! different values stream past it: the two runs are corrupted
//! *differently*, so their digests cannot agree.
//!
//! The policy's counters are process-global (mirroring
//! `poseidon_par`'s `par.contained`) and live only in the telemetry
//! registry, as the scopes `integrity.checked` / `.detected` / `.retried`
//! / `.escalated`; only [`retry_once`] bumps them and [`integrity_stats`]
//! reads them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use he_rns::integrity::{digest_poly, fnv1a_words};

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::KeySet;

/// Process-wide integrity counters (see the module docs for the policy
/// each one marks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Operations executed under duplicate-execution checking.
    pub checked: u64,
    /// Digest mismatches (or contained panics) observed on a first pair.
    pub detected: u64,
    /// Detections that recovered on the retried pair (transient faults).
    pub retried: u64,
    /// Detections that persisted across the retry and surfaced as
    /// [`EvalError::IntegrityFault`].
    pub escalated: u64,
}

/// Snapshot of the global integrity counters.
pub fn integrity_stats() -> IntegrityStats {
    IntegrityStats {
        checked: tel::checked().count(),
        detected: tel::detected().count(),
        retried: tel::retried().count(),
        escalated: tel::escalated().count(),
    }
}

/// The detect → retry-once → escalate policy around one checked operation.
///
/// `attempt` runs the operation under whatever check its caller makes and
/// returns `Ok(Some(v))` when the check passed, `Ok(None)` when it saw a
/// fault, and `Err(e)` for a deterministic operand error (which no retry
/// can change, so it passes straight through). A first fault is retried
/// once; a second one escalates.
///
/// # Errors
///
/// `attempt`'s own error, or [`EvalError::IntegrityFault`] naming `site`
/// when both attempts saw a fault.
///
/// # Examples
///
/// ```
/// use he_ckks::error::EvalError;
/// use he_ckks::integrity::retry_once;
///
/// // A transient fault: the first attempt sees it, the retry is clean.
/// let mut attempts = 0;
/// let got = retry_once("demo", || {
///     attempts += 1;
///     Ok((attempts > 1).then_some(7))
/// });
/// assert_eq!((got, attempts), (Ok(7), 2));
///
/// // A persistent one escalates.
/// let got: Result<u8, _> = retry_once("demo", || Ok(None));
/// assert_eq!(got, Err(EvalError::IntegrityFault { site: "demo" }));
/// ```
pub fn retry_once<T>(
    site: &'static str,
    mut attempt: impl FnMut() -> Result<Option<T>, EvalError>,
) -> Result<T, EvalError> {
    tel::checked().add(1);
    if let Some(v) = attempt()? {
        return Ok(v);
    }
    tel::detected().add(1);
    match attempt()? {
        Some(v) => {
            tel::retried().add(1);
            Ok(v)
        }
        None => {
            tel::escalated().add(1);
            Err(EvalError::IntegrityFault { site })
        }
    }
}

mod tel {
    poseidon_telemetry::scope_fn! {
        pub checked = "integrity.checked";
        pub detected = "integrity.detected";
        pub retried = "integrity.retried";
        pub escalated = "integrity.escalated";
    }
}

/// Cheap structural checksum of a ciphertext: FNV over both component
/// polynomials' residues (form-tagged) and the scale bits.
pub fn digest_ciphertext(ct: &Ciphertext) -> u64 {
    fnv1a_words(&[
        digest_poly(ct.c0()),
        digest_poly(ct.c1()),
        ct.scale().to_bits(),
    ])
}

/// An [`Evaluator`] wrapper that runs every operation twice, compares the
/// results' digests, and answers a mismatch with [`retry_once`]. All
/// methods return `Result`: deterministic operand errors (scale/level
/// mismatch, missing keys) pass through unchanged; datapath corruption
/// that survives the retry surfaces as [`EvalError::IntegrityFault`] —
/// never a panic.
///
/// # Examples
///
/// ```
/// use he_ckks::integrity::CheckedEvaluator;
/// use he_ckks::prelude::*;
/// use he_ckks::encoding::Complex;
///
/// let ctx = CkksContext::new(CkksParams::toy());
/// let mut rng = rand::thread_rng();
/// let keys = KeySet::generate(&ctx, &mut rng);
/// let eval = CheckedEvaluator::new(&ctx);
/// let z = vec![Complex::new(1.0, 0.0); 4];
/// let pt = Plaintext::new(
///     ctx.encoder().encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
///     ctx.default_scale(),
/// );
/// let ct = keys.public().encrypt(&pt, &mut rng);
/// let sum = eval.add(&ct, &ct).expect("no faults armed");
/// # let _ = sum;
/// ```
#[derive(Debug, Clone)]
pub struct CheckedEvaluator {
    inner: Evaluator,
}

impl CheckedEvaluator {
    /// Creates a checked evaluator for `ctx`.
    pub fn new(ctx: &CkksContext) -> Self {
        Self {
            inner: Evaluator::new(ctx),
        }
    }

    /// The wrapped (unchecked) evaluator.
    pub fn inner(&self) -> &Evaluator {
        &self.inner
    }

    /// One duplicated, digest-compared attempt. `Ok(Some)` = pair agreed,
    /// `Ok(None)` = mismatch or contained panic (a fault was live),
    /// `Err` = deterministic operand error (identical in both runs —
    /// propagate, nothing to retry).
    fn attempt(
        &self,
        f: &impl Fn() -> Result<Ciphertext, EvalError>,
    ) -> Result<Option<Ciphertext>, EvalError> {
        let run = || catch_unwind(AssertUnwindSafe(f));
        let (first, second) = (run(), run());
        match (first, second) {
            (Ok(Ok(a)), Ok(Ok(b))) => {
                if digest_ciphertext(&a) == digest_ciphertext(&b) {
                    Ok(Some(a))
                } else {
                    Ok(None)
                }
            }
            // The same operand error from both runs is deterministic
            // operand validation, not corruption.
            (Ok(Err(ea)), Ok(Err(eb))) if ea == eb => Err(ea),
            // Any panic, or divergent error/ok outcomes: poisoned data
            // tripped an internal invariant in at least one run.
            _ => Ok(None),
        }
    }

    /// [`retry_once`] over duplicated, digest-compared attempts of `f`.
    fn checked(
        &self,
        site: &'static str,
        f: impl Fn() -> Result<Ciphertext, EvalError>,
    ) -> Result<Ciphertext, EvalError> {
        retry_once(site, || self.attempt(&f))
    }

    /// Checked HAdd (ct+ct).
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] on operand mismatch;
    /// [`EvalError::IntegrityFault`] on persistent corruption.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.checked("add", || self.inner.try_add(a, b))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// As [`add`](Self::add).
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.checked("sub", || self.inner.try_sub(a, b))
    }

    /// Checked ct+pt addition.
    ///
    /// # Errors
    ///
    /// As [`add`](Self::add).
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        self.checked("add_plain", || self.inner.try_add_plain(a, pt))
    }

    /// Checked PMult.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if the plaintext sits below the
    /// ciphertext's level; [`EvalError::IntegrityFault`] on persistent
    /// corruption.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext, EvalError> {
        self.checked("mul_plain", || self.inner.try_mul_plain(a, pt))
    }

    /// Checked CMult with relinearisation (covers the keyswitch datapath:
    /// digit lift, NTTs, key products, Moddown).
    ///
    /// # Errors
    ///
    /// [`EvalError::IntegrityFault`] on persistent corruption.
    pub fn mul(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        self.checked("mul", || self.inner.try_mul(a, b, keys))
    }

    /// Checked squaring.
    ///
    /// # Errors
    ///
    /// As [`mul`](Self::mul).
    pub fn square(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        self.checked("square", || self.inner.try_square(a, keys))
    }

    /// Checked rescale.
    ///
    /// # Errors
    ///
    /// [`EvalError::RescaleAtLevelZero`] at level 0;
    /// [`EvalError::IntegrityFault`] on persistent corruption.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.checked("rescale", || self.inner.try_rescale(a))
    }

    /// Checked rotation (covers keyswitch + automorphism).
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] when no key exists;
    /// [`EvalError::IntegrityFault`] on persistent corruption.
    pub fn rotate(
        &self,
        a: &Ciphertext,
        steps: i64,
        keys: &KeySet,
    ) -> Result<Ciphertext, EvalError> {
        self.checked("rotate", || self.inner.try_rotate(a, steps, keys))
    }

    /// Checked conjugation.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingConjugationKey`] when no key exists;
    /// [`EvalError::IntegrityFault`] on persistent corruption.
    pub fn conjugate(&self, a: &Ciphertext, keys: &KeySet) -> Result<Ciphertext, EvalError> {
        self.checked("conjugate", || self.inner.try_conjugate(a, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    /// Held by every test here that moves the process-wide counters, so
    /// each can read exact deltas.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn setup() -> (CkksContext, KeySet, CheckedEvaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = CheckedEvaluator::new(&ctx);
        (ctx, keys, eval, rng)
    }

    fn encrypt(
        ctx: &CkksContext,
        keys: &KeySet,
        rng: &mut rand::rngs::StdRng,
        v: f64,
    ) -> Ciphertext {
        let z = vec![crate::encoding::Complex::new(v, 0.0)];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    }

    #[test]
    fn checked_ops_match_unchecked_when_clean() {
        let _counters = lock_counters();
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 2.0);
        let b = encrypt(&ctx, &keys, &mut rng, 3.0);
        let plain = Evaluator::new(&ctx);
        assert_eq!(eval.add(&a, &b).unwrap(), plain.try_add(&a, &b).unwrap());
        assert_eq!(eval.sub(&a, &b).unwrap(), plain.try_sub(&a, &b).unwrap());
        assert_eq!(
            eval.mul(&a, &b, &keys).unwrap(),
            plain.try_mul(&a, &b, &keys).unwrap()
        );
        assert_eq!(
            eval.rescale(&eval.mul(&a, &b, &keys).unwrap()).unwrap(),
            plain
                .try_rescale(&plain.try_mul(&a, &b, &keys).unwrap())
                .unwrap()
        );
    }

    #[test]
    fn deterministic_operand_errors_pass_through() {
        let _counters = lock_counters();
        let (ctx, keys, eval, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let before = integrity_stats();
        // Missing rotation key: deterministic, must not count as a
        // detection (both duplicate runs fail identically).
        assert!(matches!(
            eval.rotate(&a, 7, &keys),
            Err(EvalError::MissingRotationKey { steps: 7 })
        ));
        let low = eval.inner().try_drop_to_level(&a, 0).unwrap();
        assert!(matches!(
            eval.rescale(&low),
            Err(EvalError::RescaleAtLevelZero)
        ));
        let after = integrity_stats();
        assert_eq!(after.detected, before.detected);
        assert_eq!(after.escalated, before.escalated);
    }

    #[test]
    fn policy_answers_each_scripted_sequence() {
        let _counters = lock_counters();
        let operand = EvalError::RescaleAtLevelZero;
        let escalated = EvalError::IntegrityFault { site: "scripted" };
        // (case, attempt results in order, policy result, attempts run,
        //  checked/detected/retried/escalated deltas)
        let cases = [
            ("agree", vec![Ok(Some(1))], Ok(1), 1, [1, 0, 0, 0]),
            (
                "disagree then agree",
                vec![Ok(None), Ok(Some(2))],
                Ok(2),
                2,
                [1, 1, 1, 0],
            ),
            (
                "disagree twice",
                vec![Ok(None), Ok(None)],
                Err(escalated),
                2,
                [1, 1, 0, 1],
            ),
            (
                "same operand error twice",
                vec![Err(operand.clone()), Err(operand.clone())],
                Err(operand),
                1,
                [1, 0, 0, 0],
            ),
        ];
        for (case, script, want, want_runs, want_deltas) in cases {
            let before = integrity_stats();
            let mut runs = 0;
            let got = retry_once("scripted", || {
                runs += 1;
                script[runs - 1].clone()
            });
            let after = integrity_stats();
            let deltas = [
                after.checked - before.checked,
                after.detected - before.detected,
                after.retried - before.retried,
                after.escalated - before.escalated,
            ];
            assert_eq!(got, want, "{case}");
            assert_eq!(runs, want_runs, "{case}: attempts");
            assert_eq!(deltas, want_deltas, "{case}: counter deltas");
        }
    }

    #[test]
    fn digest_distinguishes_ciphertexts() {
        let (ctx, keys, _, mut rng) = setup();
        let a = encrypt(&ctx, &keys, &mut rng, 1.0);
        let b = encrypt(&ctx, &keys, &mut rng, 1.0);
        assert_eq!(digest_ciphertext(&a), digest_ciphertext(&a));
        // Different encryption randomness → different residues.
        assert_ne!(digest_ciphertext(&a), digest_ciphertext(&b));
    }
}
