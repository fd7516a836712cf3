//! Application kernels built on the public API — the workload classes of
//! the paper's benchmarks, packaged as reusable components.
//!
//! Currently: encrypted logistic-regression inference (the HELR class,
//! paper Table V's LR benchmark).

use crate::cipher::Ciphertext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::KeySet;
use crate::linear::try_inner_product_plain;
use crate::polyeval::{try_evaluate_monomial, PowerBasis};

/// The HELR degree-3 sigmoid approximation on [−4, 4]:
/// σ(x) ≈ 0.5 + 0.197·x − 0.004·x³.
pub const HELR_SIGMOID: [f64; 4] = [0.5, 0.197, 0.0, -0.004];

/// An encrypted logistic-regression scorer with plaintext weights.
///
/// The feature count must be a power of two dividing the slot count;
/// rotation keys for 1, 2, …, features/2 must exist.
#[derive(Debug, Clone)]
pub struct LogisticModel {
    weights: Vec<Complex>,
    bias: f64,
}

impl LogisticModel {
    /// Builds a model from plaintext weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or not power-of-two sized.
    pub fn new(weights: &[f64], bias: f64) -> Self {
        assert!(
            !weights.is_empty() && weights.len().is_power_of_two(),
            "feature count must be a power of two"
        );
        Self {
            weights: weights.iter().map(|&w| Complex::new(w, 0.0)).collect(),
            bias,
        }
    }

    /// Number of features.
    pub fn features(&self) -> usize {
        self.weights.len()
    }

    /// Scores an encrypted feature vector: `σ(⟨w, x⟩ + b)` via the HELR
    /// polynomial. Consumes 3–4 levels.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] if a rotation key for the fold is
    /// missing; [`EvalError::RescaleAtLevelZero`] if the chain runs out of
    /// levels.
    pub fn score(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        x: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let logit = try_inner_product_plain(eval, keys, x, &self.weights)?;
        // Add the bias before the sigmoid.
        let with_bias = {
            let pt = eval.encode_at_level(
                &[Complex::new(self.bias, 0.0)],
                logit.scale(),
                logit.level(),
            );
            eval.try_add_plain(&logit, &pt)?
        };
        try_evaluate_monomial(eval, keys, &mut PowerBasis::new(with_bias), &HELR_SIGMOID)
    }

    /// Plaintext reference of [`score`] for validation.
    ///
    /// [`score`]: Self::score
    pub fn score_plain(&self, x: &[f64]) -> f64 {
        let logit: f64 = x
            .iter()
            .zip(&self.weights)
            .map(|(xi, wi)| xi * wi.re)
            .sum::<f64>()
            + self.bias;
        HELR_SIGMOID[0] + HELR_SIGMOID[1] * logit + HELR_SIGMOID[3] * logit.powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::Plaintext;
    use crate::context::CkksContext;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    fn setup(features: usize) -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        let mut s = 1;
        while s < features {
            keys.add_rotation_key(s as i64, &mut rng);
            s *= 2;
        }
        (ctx.clone(), keys, Evaluator::new(&ctx), rng)
    }

    fn encrypt(
        ctx: &CkksContext,
        keys: &KeySet,
        rng: &mut rand::rngs::StdRng,
        vals: &[f64],
    ) -> Ciphertext {
        let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    }

    fn decrypt0(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext) -> f64 {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder().decode_rns(pt.poly(), pt.scale(), 1)[0].re
    }

    #[test]
    fn logistic_score_matches_plaintext() {
        let (ctx, keys, eval, mut rng) = setup(8);
        let model = LogisticModel::new(&[0.2, -0.4, 0.1, 0.3, -0.2, 0.05, 0.15, -0.1], 0.25);
        let x = [1.0, 0.5, -1.0, 2.0, 0.0, -0.5, 1.5, 0.75];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        let got = decrypt0(&ctx, &keys, &model.score(&eval, &keys, &ct).unwrap());
        let want = model.score_plain(&x);
        assert!((got - want).abs() < 0.02, "{got} vs {want}");
        // Probabilities stay in a sane range for bounded logits.
        assert!(got > 0.0 && got < 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn model_rejects_odd_feature_counts() {
        let _ = LogisticModel::new(&[1.0, 2.0, 3.0], 0.0);
    }
}
