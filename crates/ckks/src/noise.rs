//! Noise measurement and budget estimation (requires the secret key —
//! a development/diagnostics tool, as in other FHE libraries).
//!
//! CKKS is approximate: "noise" is the deviation of the decrypted slot
//! values from the intended message. This module measures it against a
//! known reference and converts it into the familiar bits-of-precision /
//! remaining-budget views used when tuning parameters.

use crate::cipher::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::keys::SecretKey;

/// Noise statistics of a ciphertext measured against a reference message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// Maximum absolute slot error.
    pub max_error: f64,
    /// Root-mean-square slot error.
    pub rms_error: f64,
    /// Bits of precision: `−log2(max_error)` (∞ clamped to 64).
    pub precision_bits: f64,
    /// Remaining modulus budget in bits: Σ log2(q_i) over live primes,
    /// minus the scale bits — an upper bound on how much more
    /// multiplication depth the ciphertext supports.
    pub budget_bits: f64,
    /// Ciphertext level.
    pub level: usize,
}

/// Measures the slot-wise error of `ct` against the expected `reference`
/// values (first `reference.len()` slots).
///
/// # Errors
///
/// [`EvalError::EmptyOperands`] if `reference` is empty,
/// [`EvalError::InvalidParams`] if it exceeds the slot count.
pub fn try_measure(
    ctx: &CkksContext,
    sk: &SecretKey,
    ct: &Ciphertext,
    reference: &[Complex],
) -> Result<NoiseReport, EvalError> {
    if reference.is_empty() {
        return Err(EvalError::EmptyOperands);
    }
    if reference.len() > ctx.params().slots() {
        return Err(EvalError::InvalidParams(format!(
            "reference has {} values but the context only has {} slots",
            reference.len(),
            ctx.params().slots()
        )));
    }
    let dec = sk.decrypt(ct);
    let got = ctx
        .encoder()
        .decode_rns(dec.poly(), dec.scale(), reference.len());
    let mut max_error = 0.0f64;
    let mut sum_sq = 0.0f64;
    for (g, r) in got.iter().zip(reference) {
        let e = (*g - *r).abs();
        max_error = max_error.max(e);
        sum_sq += e * e;
    }
    let rms_error = (sum_sq / reference.len() as f64).sqrt();
    let precision_bits = if max_error > 0.0 {
        (-max_error.log2()).min(64.0)
    } else {
        64.0
    };
    let live_bits: f64 = ct
        .c0()
        .basis()
        .primes()
        .iter()
        .map(|&q| (q as f64).log2())
        .sum();
    Ok(NoiseReport {
        max_error,
        rms_error,
        precision_bits,
        budget_bits: live_bits - ct.scale().log2(),
        level: ct.level(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::Plaintext;
    use crate::eval::Evaluator;
    use crate::keys::KeySet;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        (ctx, keys, eval, rng)
    }

    #[test]
    fn fresh_ciphertext_has_high_precision() {
        let (ctx, keys, _, mut rng) = setup();
        let z = vec![Complex::new(1.5, 0.0); 4];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let r = try_measure(&ctx, keys.secret(), &ct, &z).unwrap();
        assert!(r.precision_bits > 15.0, "precision {:.1}", r.precision_bits);
        assert_eq!(r.level, ctx.max_level());
        assert!(r.budget_bits > 0.0);
    }

    #[test]
    fn multiplication_reduces_precision_and_budget() {
        let (ctx, keys, eval, mut rng) = setup();
        let z = vec![Complex::new(2.0, 0.0); 4];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let fresh = try_measure(&ctx, keys.secret(), &ct, &z).unwrap();
        let sq = eval
            .try_rescale(&eval.try_square(&ct, &keys).unwrap())
            .unwrap();
        let z_sq = vec![Complex::new(4.0, 0.0); 4];
        let after = try_measure(&ctx, keys.secret(), &sq, &z_sq).unwrap();
        assert!(after.budget_bits < fresh.budget_bits);
        assert!(after.precision_bits <= fresh.precision_bits + 1.0);
        assert_eq!(sq.level(), ct.level() - 1);
    }

    #[test]
    fn wrong_reference_reports_large_error() {
        let (ctx, keys, _, mut rng) = setup();
        let z = vec![Complex::new(1.0, 0.0); 4];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let wrong = vec![Complex::new(5.0, 0.0); 4];
        let r = try_measure(&ctx, keys.secret(), &ct, &wrong).unwrap();
        assert!(r.max_error > 3.9);
        assert!(r.precision_bits < 0.0 + 1.0);
    }

    #[test]
    fn try_measure_rejects_bad_references() {
        let (ctx, keys, _, mut rng) = setup();
        let z = vec![Complex::new(1.0, 0.0); 4];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        assert!(matches!(
            try_measure(&ctx, keys.secret(), &ct, &[]),
            Err(EvalError::EmptyOperands)
        ));
        let too_many = vec![Complex::new(0.0, 0.0); ctx.params().slots() + 1];
        assert!(matches!(
            try_measure(&ctx, keys.secret(), &ct, &too_many),
            Err(EvalError::InvalidParams(_))
        ));
        assert!(try_measure(&ctx, keys.secret(), &ct, &z).is_ok());
    }

    #[test]
    fn decrypting_with_wrong_key_destroys_the_message() {
        // Failure injection: a different secret key must not recover the
        // plaintext (the error is of ciphertext magnitude).
        let (ctx, keys, _, mut rng) = setup();
        let z = vec![Complex::new(0.5, 0.0); 4];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        let other = KeySet::generate(&ctx, &mut rng);
        let r = try_measure(&ctx, other.secret(), &ct, &z).unwrap();
        assert!(
            r.max_error > 1e3,
            "wrong key should yield garbage, got error {}",
            r.max_error
        );
    }
}
