//! Homomorphic linear algebra: slot folds, diagonal matrix-vector
//! products, and their baby-step/giant-step (BSGS) variant.
//!
//! These are the building blocks of the paper's benchmark workloads — the
//! HELR inner product, the LSTM 128×128 matrix products, and the
//! CoeffToSlot/SlotToCoeff transforms inside bootstrapping — exposed as a
//! reusable API.

use crate::cipher::Ciphertext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::KeySet;

/// Sums the first `width` slots of a ciphertext into every one of them via
/// a log-depth rotate-and-add fold.
///
/// `width` must be a power of two; the rotation keys for 1, 2, …, width/2
/// must exist. Consumes no levels (additions only).
///
/// # Errors
///
/// [`EvalError::InvalidParams`] if `width` is not a power of two;
/// [`EvalError::MissingRotationKey`] for an absent fold key.
pub fn try_fold_sum(
    eval: &Evaluator,
    keys: &KeySet,
    ct: &Ciphertext,
    width: usize,
) -> Result<Ciphertext, EvalError> {
    check_fold_width(width)?;
    // Each iteration rotates the freshly updated accumulator, so there is
    // no shared ciphertext to hoist across — `try_rotate` (internally
    // hoisted for its single application) is already optimal here.
    let mut acc = ct.clone();
    let mut step = width / 2;
    while step >= 1 {
        let rot = eval.try_rotate(&acc, step as i64, keys)?;
        acc = eval.try_add(&acc, &rot)?;
        step /= 2;
    }
    Ok(acc)
}

fn check_fold_width(width: usize) -> Result<(), EvalError> {
    if width.is_power_of_two() {
        Ok(())
    } else {
        Err(EvalError::InvalidParams(format!(
            "fold width must be a power of two: {width}"
        )))
    }
}

/// Homomorphic inner product `⟨x, w⟩` with a plaintext weight vector of
/// power-of-two length: elementwise PMult, rescale, then [`try_fold_sum`].
/// Every slot of the result holds the inner product. Consumes one level.
///
/// # Errors
///
/// [`EvalError::InvalidParams`] for a non-power-of-two weight vector;
/// [`EvalError::RescaleAtLevelZero`] on an exhausted ciphertext;
/// [`EvalError::MissingRotationKey`] for an absent fold key.
pub fn try_inner_product_plain(
    eval: &Evaluator,
    keys: &KeySet,
    ct: &Ciphertext,
    weights: &[Complex],
) -> Result<Ciphertext, EvalError> {
    // Checked before encoding: the encoder asserts its own (weaker) bound.
    check_fold_width(weights.len())?;
    let pt = eval.encode_at_level(weights, eval.context().default_scale(), ct.level());
    let prod = eval.try_rescale(&eval.try_mul_plain(ct, &pt)?)?;
    try_fold_sum(eval, keys, &prod, weights.len())
}

/// A plaintext matrix prepared for homomorphic matrix-vector products on
/// `dim` slots (`dim` a power of two dividing the slot count).
///
/// # Examples
///
/// ```no_run
/// # use he_ckks::prelude::*;
/// # use he_ckks::encoding::Complex;
/// # use he_ckks::linear::PlainMatrix;
/// # let ctx = CkksContext::new(CkksParams::small());
/// let m = vec![vec![Complex::new(1.0, 0.0); 8]; 8];
/// let mat = PlainMatrix::new(m);
/// assert_eq!(mat.dim(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct PlainMatrix {
    dim: usize,
    /// Generalised diagonals: `diag[d][i] = M[i][(i+d) mod dim]`.
    diagonals: Vec<Vec<Complex>>,
}

impl PlainMatrix {
    /// Builds the diagonal decomposition of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty, ragged, or not power-of-two sized.
    pub fn new(rows: Vec<Vec<Complex>>) -> Self {
        let dim = rows.len();
        assert!(dim.is_power_of_two(), "dimension must be a power of two");
        assert!(rows.iter().all(|r| r.len() == dim), "matrix must be square");
        let diagonals = (0..dim)
            .map(|d| (0..dim).map(|i| rows[i][(i + d) % dim]).collect())
            .collect();
        Self { dim, diagonals }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Diagonal `d` (for inspection/tests).
    #[inline]
    pub fn diagonal(&self, d: usize) -> &[Complex] {
        &self.diagonals[d]
    }

    /// Whether diagonal `d` is entirely (numerically) zero.
    fn diagonal_is_zero(&self, d: usize) -> bool {
        self.diagonals[d].iter().all(|c| c.abs() < 1e-300)
    }

    /// The rotation steps [`try_apply`]/[`try_apply_bsgs`] need keys for.
    ///
    /// [`try_apply`]: Self::try_apply
    /// [`try_apply_bsgs`]: Self::try_apply_bsgs
    pub fn required_rotations(&self) -> Vec<i64> {
        // BSGS also uses the giant steps; they are multiples of the baby
        // block, already contained in 1..dim.
        (1..self.dim as i64).collect()
    }

    /// Applies `M·v` with the plain diagonal method — one rotation and one
    /// PMult per non-zero diagonal, summed — as a single
    /// [`try_rotate_sum`](Evaluator::try_rotate_sum) pass (the diagonals
    /// prepared once per call), and one rescale at the end. Consumes one
    /// level.
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] if every diagonal is numerically zero;
    /// [`EvalError::MissingRotationKey`] for an absent key;
    /// [`EvalError::RescaleAtLevelZero`] on an exhausted ciphertext.
    pub fn try_apply(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        v: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let (scale, level) = (eval.context().default_scale(), v.level());
        // Diagonal `d` weighs the rotation by `d`; diagonal 0, the input.
        let weights = (0..self.dim)
            .filter(|&d| !self.diagonal_is_zero(d))
            .map(|d| {
                let pt = eval.encode_at_level(&self.diagonals[d], scale, level);
                Ok((d as i64, eval.prepare_plain(&pt, level)?))
            })
            .collect::<Result<Vec<_>, EvalError>>()?;
        let terms: Vec<_> = weights.iter().map(|(d, w)| (*d, Some(w))).collect();
        eval.try_rescale(&eval.try_rotate_sum(v, &terms, keys)?)
    }

    /// Applies `M·v` with baby-step/giant-step: `√dim` baby rotations of
    /// the input plus `√dim` giant rotations of partial sums — the
    /// rotation count drops from `dim − 1` to `≈ 2√dim`. Consumes one
    /// level. Requires rotation keys for the baby steps `1..bs` and the
    /// giant steps `bs, 2bs, …`.
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] if every diagonal is numerically zero;
    /// [`EvalError::MissingRotationKey`] for an absent baby/giant key;
    /// [`EvalError::RescaleAtLevelZero`] on an exhausted ciphertext.
    pub fn try_apply_bsgs(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        v: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let dim = self.dim;
        let bs = (dim as f64).sqrt().ceil() as usize; // baby block
        let gs = dim.div_ceil(bs);
        let scale = eval.context().default_scale();

        // Baby rotations of the input, computed once — and hoisted once:
        // all of them rotate the same `v`, so a single digit decomposition
        // serves the whole block.
        let baby_steps: Vec<i64> = (1..bs as i64).collect();
        let mut baby = Vec::with_capacity(bs);
        baby.push(v.clone());
        baby.extend(eval.try_rotate_many(v, &baby_steps, keys)?);

        // For giant block g: Σ_b diag[g·bs + b] rotated... Using the BSGS
        // identity: M·v = Σ_g rot_{g·bs}( Σ_b rot_{-g·bs}(diag_{g·bs+b}) ⊙
        // rot_b(v) ); rotating the diagonal in plaintext is free.
        let mut acc: Option<Ciphertext> = None;
        for g in 0..gs {
            let mut inner: Option<Ciphertext> = None;
            for (b, ct_b) in baby.iter().enumerate().take(bs) {
                let d = g * bs + b;
                if d >= dim || self.diagonal_is_zero(d) {
                    continue;
                }
                // Plaintext-rotated diagonal: entry i of rot_{-g·bs}(diag_d)
                // is diag_d[(i + dim - g·bs) mod dim]... rotation left by
                // −g·bs means index (i − g·bs) mod dim.
                let shift = g * bs;
                let rotated_diag: Vec<Complex> = (0..dim)
                    .map(|i| self.diagonals[d][(i + dim - shift) % dim])
                    .collect();
                let pt = eval.encode_at_level(&rotated_diag, scale, ct_b.level());
                let term = eval.try_mul_plain(ct_b, &pt)?;
                match &mut inner {
                    None => inner = Some(term),
                    Some(a) => eval.try_add_assign(a, &term)?,
                }
            }
            if let Some(inner) = inner {
                // Each giant step rotates a *different* inner sum, so
                // there is nothing to hoist across them.
                let shifted = if g == 0 {
                    inner
                } else {
                    eval.try_rotate(&inner, (g * bs) as i64, keys)?
                };
                match &mut acc {
                    None => acc = Some(shifted),
                    Some(a) => eval.try_add_assign(a, &shifted)?,
                }
            }
        }
        eval.try_rescale(&acc.ok_or(EvalError::EmptyOperands)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::Plaintext;
    use crate::context::CkksContext;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    const DIM: usize = 8;

    fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
        let ctx = CkksContext::new(CkksParams::small());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        for d in 1..DIM as i64 {
            keys.add_rotation_key(d, &mut rng);
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

    fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext) -> Vec<f64> {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder()
            .decode_rns(pt.poly(), pt.scale(), DIM)
            .iter()
            .map(|c| c.re)
            .collect()
    }

    fn test_matrix() -> (PlainMatrix, Vec<Vec<f64>>) {
        let raw: Vec<Vec<f64>> = (0..DIM)
            .map(|i| {
                (0..DIM)
                    .map(|j| ((i * 3 + j) % 5) as f64 * 0.25 - 0.5)
                    .collect()
            })
            .collect();
        let m = PlainMatrix::new(
            raw.iter()
                .map(|r| r.iter().map(|&v| Complex::new(v, 0.0)).collect())
                .collect(),
        );
        (m, raw)
    }

    #[test]
    fn fold_sum_totals_all_slots() {
        let (ctx, keys, eval, mut rng) = setup();
        let vals = [1.0, 2.0, 3.0, 4.0, -1.0, -2.0, 0.5, 0.25];
        let ct = encrypt(&ctx, &keys, &mut rng, &vals);
        let folded = try_fold_sum(&eval, &keys, &ct, DIM).unwrap();
        let got = decrypt(&ctx, &keys, &folded);
        let want: f64 = vals.iter().sum();
        for (i, g) in got.iter().enumerate() {
            assert!((g - want).abs() < 1e-2, "slot {i}: {g} vs {want}");
        }
    }

    #[test]
    fn inner_product_matches_plaintext() {
        let (ctx, keys, eval, mut rng) = setup();
        let x = [0.5, -1.0, 2.0, 0.25, 1.5, -0.75, 0.0, 1.0];
        let w: Vec<f64> = vec![0.1, 0.2, -0.3, 0.4, -0.5, 0.6, 0.7, -0.8];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        let wz: Vec<Complex> = w.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let ip = try_inner_product_plain(&eval, &keys, &ct, &wz).unwrap();
        let got = decrypt(&ctx, &keys, &ip)[0];
        let want: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((got - want).abs() < 1e-2, "{got} vs {want}");
    }

    #[test]
    fn diagonal_matvec_matches_plaintext() {
        let (ctx, keys, eval, mut rng) = setup();
        let (m, raw) = test_matrix();
        let x = [1.0, -0.5, 0.25, 2.0, 0.0, 1.5, -1.0, 0.75];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        let got = decrypt(&ctx, &keys, &m.try_apply(&eval, &keys, &ct).unwrap());
        for i in 0..DIM {
            let want: f64 = (0..DIM).map(|j| raw[i][j] * x[j]).sum();
            assert!(
                (got[i] - want).abs() < 2e-2,
                "row {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn bsgs_matches_plain_diagonal_method() {
        let (ctx, keys, eval, mut rng) = setup();
        let (m, _) = test_matrix();
        let x = [0.3, 0.6, -0.9, 1.2, -1.5, 0.1, 0.4, -0.2];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        let plain = decrypt(&ctx, &keys, &m.try_apply(&eval, &keys, &ct).unwrap());
        let bsgs = decrypt(&ctx, &keys, &m.try_apply_bsgs(&eval, &keys, &ct).unwrap());
        for i in 0..DIM {
            assert!((plain[i] - bsgs[i]).abs() < 2e-2, "row {i}");
        }
    }

    #[test]
    fn sparse_matrix_skips_zero_diagonals() {
        let (ctx, keys, eval, mut rng) = setup();
        // Identity matrix: only diagonal 0 is non-zero.
        let ident = PlainMatrix::new(
            (0..DIM)
                .map(|i| {
                    (0..DIM)
                        .map(|j| Complex::new(if i == j { 1.0 } else { 0.0 }, 0.0))
                        .collect()
                })
                .collect(),
        );
        assert!(ident.diagonal_is_zero(1));
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        let got = decrypt(&ctx, &keys, &ident.try_apply(&eval, &keys, &ct).unwrap());
        for i in 0..DIM {
            assert!((got[i] - x[i]).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_dimension() {
        let _ = PlainMatrix::new(vec![vec![Complex::default(); 3]; 3]);
    }

    #[test]
    fn zero_matrix_reports_empty_operands_instead_of_panicking() {
        let (ctx, keys, eval, mut rng) = setup();
        let zero = PlainMatrix::new(vec![vec![Complex::default(); DIM]; DIM]);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ct = encrypt(&ctx, &keys, &mut rng, &x);
        assert!(matches!(
            zero.try_apply(&eval, &keys, &ct),
            Err(crate::error::EvalError::EmptyOperands)
        ));
        assert!(matches!(
            zero.try_apply_bsgs(&eval, &keys, &ct),
            Err(crate::error::EvalError::EmptyOperands)
        ));
    }

    #[test]
    fn odd_fold_width_is_invalid_params() {
        let (ctx, keys, eval, mut rng) = setup();
        let ct = encrypt(&ctx, &keys, &mut rng, &[1.0; DIM]);
        assert!(matches!(
            try_fold_sum(&eval, &keys, &ct, 6),
            Err(EvalError::InvalidParams(msg)) if msg.contains("power of two: 6")
        ));
        let three = vec![Complex::new(1.0, 0.0); 3];
        assert!(matches!(
            try_inner_product_plain(&eval, &keys, &ct, &three),
            Err(EvalError::InvalidParams(_))
        ));
    }
}
