//! Polynomial evaluation on ciphertexts — the engine behind EvalMod.
//!
//! Powers are built with a balanced product tree (`x^j = x^⌈j/2⌉ ·
//! x^⌊j/2⌋`), so a degree-d polynomial consumes ⌈log2 d⌉ + 1 levels instead
//! of Horner's d. Branches of different depth are re-aligned with
//! [`Evaluator::try_adjust`].

use std::collections::HashMap;

use crate::cipher::Ciphertext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::KeySet;

/// Lazily materialised powers of a ciphertext.
///
/// # Examples
///
/// ```no_run
/// # use he_ckks::prelude::*;
/// # use he_ckks::polyeval::PowerBasis;
/// # let ctx = CkksContext::new(CkksParams::small());
/// # let mut rng = rand::thread_rng();
/// # let keys = KeySet::generate(&ctx, &mut rng);
/// # let eval = Evaluator::new(&ctx);
/// # let ct: Ciphertext = unimplemented!();
/// let mut powers = PowerBasis::new(ct);
/// let x3 = powers.try_power(&eval, &keys, 3)?; // x·x² with one relinearisation
/// # Ok::<(), EvalError>(())
/// ```
#[derive(Debug)]
pub struct PowerBasis {
    cache: HashMap<u32, Ciphertext>,
}

impl PowerBasis {
    /// Starts a power basis from `x` (power 1).
    pub fn new(x: Ciphertext) -> Self {
        let mut cache = HashMap::new();
        cache.insert(1, x);
        Self { cache }
    }

    /// Returns `x^j`, computing and caching intermediate powers.
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] if `j == 0` (constants are not
    /// ciphertext powers);
    /// [`EvalError::RescaleAtLevelZero`] when the modulus chain runs out
    /// of levels mid-tree.
    pub fn try_power(
        &mut self,
        eval: &Evaluator,
        keys: &KeySet,
        j: u32,
    ) -> Result<Ciphertext, EvalError> {
        if j == 0 {
            return Err(EvalError::EmptyOperands);
        }
        if let Some(ct) = self.cache.get(&j) {
            return Ok(ct.clone());
        }
        let hi = j / 2 + j % 2;
        let lo = j / 2;
        let a = self.try_power(eval, keys, hi)?;
        let b = self.try_power(eval, keys, lo)?;
        // Align operands, multiply, rescale back to the working scale.
        let level = a.level().min(b.level());
        let a = eval.try_drop_to_level(&a, level)?;
        let b = eval.try_drop_to_level(&b, level)?;
        let prod = eval.try_rescale(&eval.try_mul(&a, &b, keys)?)?;
        self.cache.insert(j, prod.clone());
        Ok(prod)
    }
}

/// Evaluates `Σ_j coeffs[j] · x^j` (monomial basis, real coefficients) on
/// the ciphertext `x` whose powers `powers` holds: the powers it lacks are
/// computed and kept there, so polynomials in the same `x` share their
/// products (EvalMod's sine and cosine do). Zero coefficients cost nothing;
/// the result sits at the level of the deepest power used, one more for the
/// coefficient products.
///
/// # Errors
///
/// [`EvalError::EmptyOperands`] if `coeffs` is empty;
/// [`EvalError::RescaleAtLevelZero`] when the chain runs out of levels.
pub fn try_evaluate_monomial(
    eval: &Evaluator,
    keys: &KeySet,
    powers: &mut PowerBasis,
    coeffs: &[f64],
) -> Result<Ciphertext, EvalError> {
    let Some(&constant) = coeffs.first() else {
        return Err(EvalError::EmptyOperands);
    };
    // Materialise all needed powers first to learn the deepest level.
    let mut terms = Vec::new();
    for (j, &c) in coeffs.iter().enumerate().skip(1).filter(|(_, &c)| c != 0.0) {
        terms.push((c, powers.try_power(eval, keys, j as u32)?));
    }
    let terms: Vec<_> = terms.iter().map(|(c, t)| (*c, t)).collect();
    try_combine(eval, &powers.cache[&1], constant, &terms)
}

/// The step both evaluators end with, `constant + Σ c·t` over the `(c, t)`
/// terms: each term multiplied by its coefficient (PMult + rescale), all
/// aligned to the deepest resulting level and working scale, summed, and the
/// constant added. With no terms, the constant on a zero ciphertext at `x`'s
/// level and scale.
fn try_combine(
    eval: &Evaluator,
    x: &Ciphertext,
    constant: f64,
    terms: &[(f64, &Ciphertext)],
) -> Result<Ciphertext, EvalError> {
    if terms.is_empty() {
        // Callers normally avoid this path.
        let zero = eval.try_sub(x, x)?;
        let pt = eval.encode_at_level(&[Complex::new(constant, 0.0)], zero.scale(), zero.level());
        return eval.try_add_plain(&zero, &pt);
    }
    let mut scaled = Vec::with_capacity(terms.len());
    for &(c, ct) in terms {
        scaled.push(eval.try_rescale(&eval.mul_const(ct, Complex::new(c, 0.0)))?);
    }
    let deepest = scaled.iter().min_by_key(|c| c.level()).expect("non-empty");
    let (target_level, target_scale) = (deepest.level(), deepest.scale());
    let mut acc = eval.try_adjust(&scaled.remove(0), target_level, target_scale)?;
    for t in &scaled {
        acc = eval.try_add(&acc, &eval.try_adjust(t, target_level, target_scale)?)?;
    }
    if constant != 0.0 {
        let pt = eval.encode_at_level(&[Complex::new(constant, 0.0)], acc.scale(), acc.level());
        acc = eval.try_add_plain(&acc, &pt)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        (ctx, keys, eval, rng)
    }

    fn encrypt(
        ctx: &CkksContext,
        keys: &KeySet,
        rng: &mut rand::rngs::StdRng,
        vals: &[f64],
    ) -> Ciphertext {
        let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let pt = crate::cipher::Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    }

    fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext) -> f64 {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder().decode_rns(pt.poly(), pt.scale(), 1)[0].re
    }

    #[test]
    fn powers_match_plain_arithmetic() {
        let (ctx, keys, eval, mut rng) = setup();
        let x = 1.1f64;
        let ct = encrypt(&ctx, &keys, &mut rng, &[x]);
        let mut powers = PowerBasis::new(ct);
        for j in [2u32, 3, 4, 5] {
            let got = decrypt(&ctx, &keys, &powers.try_power(&eval, &keys, j).unwrap());
            let want = x.powi(j as i32);
            assert!((got - want).abs() < 0.02, "x^{j}: {got} vs {want}");
        }
    }

    #[test]
    fn power_tree_depth_is_logarithmic() {
        let (ctx, keys, eval, mut rng) = setup();
        let ct = encrypt(&ctx, &keys, &mut rng, &[0.9]);
        let top = ct.level();
        let mut powers = PowerBasis::new(ct);
        let x7 = powers.try_power(&eval, &keys, 7).unwrap();
        // Depth 3 (x², x³=x·x², x⁷=x³·x⁴) not 6.
        assert!(top - x7.level() <= 3, "depth {} too deep", top - x7.level());
    }

    #[test]
    fn cubic_polynomial_evaluates() {
        let (ctx, keys, eval, mut rng) = setup();
        let x = 0.7f64;
        let ct = encrypt(&ctx, &keys, &mut rng, &[x]);
        // p(x) = 2 − x + 0.5x³
        let got = decrypt(
            &ctx,
            &keys,
            &try_evaluate_monomial(
                &eval,
                &keys,
                &mut PowerBasis::new(ct),
                &[2.0, -1.0, 0.0, 0.5],
            )
            .unwrap(),
        );
        let want = 2.0 - x + 0.5 * x * x * x;
        assert!((got - want).abs() < 0.02, "{got} vs {want}");
    }

    #[test]
    fn degree7_sine_taylor_is_accurate() {
        let (ctx, keys, eval, mut rng) = setup();
        let x = 0.6f64;
        let ct = encrypt(&ctx, &keys, &mut rng, &[x]);
        let coeffs = [
            0.0,
            1.0,
            0.0,
            -1.0 / 6.0,
            0.0,
            1.0 / 120.0,
            0.0,
            -1.0 / 5040.0,
        ];
        let got = decrypt(
            &ctx,
            &keys,
            &try_evaluate_monomial(&eval, &keys, &mut PowerBasis::new(ct), &coeffs).unwrap(),
        );
        assert!((got - x.sin()).abs() < 0.01, "{got} vs {}", x.sin());
    }

    #[test]
    fn sine_and_cosine_share_one_power_basis_bit_for_bit() {
        let (ctx, keys, eval, mut rng) = setup();
        let ct = encrypt(&ctx, &keys, &mut rng, &[0.3]);
        let sin = [
            0.0,
            1.0,
            0.0,
            -1.0 / 6.0,
            0.0,
            1.0 / 120.0,
            0.0,
            -1.0 / 5040.0,
        ];
        let cos = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0, -1.0 / 720.0];
        let fresh = |coeffs: &[f64]| {
            try_evaluate_monomial(&eval, &keys, &mut PowerBasis::new(ct.clone()), coeffs).unwrap()
        };
        let mut shared = PowerBasis::new(ct.clone());
        let s = try_evaluate_monomial(&eval, &keys, &mut shared, &sin).unwrap();
        let c = try_evaluate_monomial(&eval, &keys, &mut shared, &cos).unwrap();
        assert_eq!(s, fresh(&sin), "sine over the shared basis");
        assert_eq!(c, fresh(&cos), "cosine over the shared basis");
        let mut held: Vec<u32> = shared.cache.keys().copied().collect();
        held.sort_unstable();
        assert_eq!(held, (1..=7).collect::<Vec<_>>());
    }
}

/// Evaluates `Σ_j coeffs[j] · T_j(x)` in the Chebyshev basis (first kind),
/// the numerically preferred basis for EvalMod-style approximations on
/// `[-1, 1]`.
///
/// Uses the recurrence `T_{j+1} = 2x·T_j − T_{j−1}` with ciphertext
/// caching, costing one level per recurrence step beyond `T_1` plus one
/// for the coefficient products.
///
/// # Errors
///
/// [`EvalError::EmptyOperands`] if `coeffs` is empty;
/// [`EvalError::RescaleAtLevelZero`] when the chain runs out of levels.
pub fn evaluate_chebyshev(
    eval: &Evaluator,
    keys: &KeySet,
    x: &Ciphertext,
    coeffs: &[f64],
) -> Result<Ciphertext, EvalError> {
    if coeffs.is_empty() {
        return Err(EvalError::EmptyOperands);
    }
    // Materialise T_1..T_d with the recurrence.
    let mut t_polys: Vec<Ciphertext> = Vec::with_capacity(coeffs.len());
    if coeffs.len() > 1 {
        t_polys.push(x.clone()); // T_1
    }
    for j in 2..coeffs.len() {
        let prev = &t_polys[j - 2]; // T_{j-1}
        let level = prev.level().min(x.level());
        // 2x·T_{j−1}
        let x_al = eval.try_adjust(x, level, prev.scale())?;
        let prev_al = eval.try_adjust(prev, level, prev.scale())?;
        let prod = eval.try_rescale(&eval.try_mul(&x_al, &prev_al, keys)?)?;
        let two_x_t = eval.try_add(&prod, &prod)?;
        let t_next = if j == 2 {
            // T_2 = 2x² − 1
            let one =
                eval.encode_at_level(&[Complex::new(1.0, 0.0)], two_x_t.scale(), two_x_t.level());
            eval.try_sub_plain(&two_x_t, &one)?
        } else {
            // T_j = 2x·T_{j−1} − T_{j−2}
            let t_m2 = &t_polys[j - 3];
            let aligned = eval.try_adjust(t_m2, two_x_t.level(), two_x_t.scale())?;
            eval.try_sub(&two_x_t, &aligned)?
        };
        t_polys.push(t_next);
    }

    // Combine: c_0 + Σ_{j≥1} c_j·T_j.
    let terms: Vec<_> = coeffs[1..]
        .iter()
        .copied()
        .zip(&t_polys)
        .filter(|&(c, _)| c != 0.0)
        .collect();
    try_combine(eval, x, coeffs[0], &terms)
}

/// Computes the Chebyshev interpolation coefficients of `f` on `[-1, 1]`
/// at degree `d` (Chebyshev nodes, discrete cosine transform form) — a
/// plaintext helper for preparing EvalMod-style approximations.
pub fn chebyshev_coefficients<F: Fn(f64) -> f64>(f: F, d: usize) -> Vec<f64> {
    let n = d + 1;
    let samples: Vec<f64> = (0..n)
        .map(|k| {
            let xk = (std::f64::consts::PI * (k as f64 + 0.5) / n as f64).cos();
            f(xk)
        })
        .collect();
    (0..n)
        .map(|j| {
            let sum: f64 = (0..n)
                .map(|k| {
                    samples[k]
                        * (std::f64::consts::PI * j as f64 * (k as f64 + 0.5) / n as f64).cos()
                })
                .sum();
            let norm = if j == 0 { 1.0 } else { 2.0 };
            norm * sum / n as f64
        })
        .collect()
}

#[cfg(test)]
mod chebyshev_tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    #[test]
    fn chebyshev_coefficients_reconstruct_function() {
        // Plaintext check: the interpolant of sin on [-1, 1] at degree 9.
        let coeffs = chebyshev_coefficients(f64::sin, 9);
        for x in [-0.9f64, -0.3, 0.0, 0.5, 0.99] {
            // Clenshaw evaluation.
            let (mut b1, mut b2) = (0.0f64, 0.0f64);
            for &c in coeffs.iter().rev() {
                let b0 = 2.0 * x * b1 - b2 + c;
                b2 = b1;
                b1 = b0;
            }
            let val = b1 - x * b2 - coeffs[0] / 2.0 + coeffs[0] / 2.0;
            let got = b1 - x * b2; // T-basis Clenshaw with c0 included once
            let want = x.sin();
            let _ = val;
            // Clenshaw above double-counts nothing for our convention:
            // p(x) = Σ c_j T_j with c_0 already halved by the DCT norm.
            assert!((got - want).abs() < 1e-6, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn homomorphic_chebyshev_matches_plaintext() {
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        let x = 0.4f64;
        let z = vec![Complex::new(x, 0.0)];
        let pt = crate::cipher::Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct = keys.public().encrypt(&pt, &mut rng);
        // p(x) = 0.5·T_0 + 0.25·T_1 − 0.125·T_2 + 0.0625·T_3
        let coeffs = [0.5, 0.25, -0.125, 0.0625];
        let got_ct = evaluate_chebyshev(&eval, &keys, &ct, &coeffs).unwrap();
        let dec = keys.secret().decrypt(&got_ct);
        let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 1)[0].re;
        let t = [1.0, x, 2.0 * x * x - 1.0, 4.0 * x * x * x - 3.0 * x];
        let want: f64 = coeffs.iter().zip(&t).map(|(c, t)| c * t).sum();
        assert!((got - want).abs() < 0.02, "{got} vs {want}");
    }
}
