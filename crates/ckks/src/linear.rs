//! Homomorphic linear algebra: slot folds, diagonal matrix-vector
//! products, and their baby-step/giant-step (BSGS) variant.
//!
//! These are the building blocks of the paper's benchmark workloads — the
//! HELR inner product, the LSTM 128×128 matrix products, and the
//! CoeffToSlot/SlotToCoeff transforms inside bootstrapping — exposed as a
//! reusable API. [`PlainMatrix`] is the one linear-transform type: every
//! product, plain or BSGS, is weighted sums of rotations of one ciphertext
//! through [`Evaluator::try_rotate_sums`], several matrices over one hoist.

use std::ops::Range;

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
    let steps = (0..width.trailing_zeros()).rev().map(|bit| 1 << bit);
    try_fold(eval, keys, ct, steps)
}

/// `acc ← acc + rot_s(acc)` for each step `s` in order, from `acc = ct`: the
/// one rotate-and-add fold, behind [`try_fold_sum`] and bootstrapping's
/// SubSum. Each rotation acts on the freshly updated accumulator, so there
/// is no shared ciphertext to hoist across.
pub(crate) fn try_fold(
    eval: &Evaluator,
    keys: &KeySet,
    ct: &Ciphertext,
    steps: impl IntoIterator<Item = usize>,
) -> Result<Ciphertext, EvalError> {
    let mut acc = ct.clone();
    for step in steps {
        let rot = eval.try_rotate(&acc, step as i64, keys)?;
        acc = eval.try_add(&acc, &rot)?;
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

    /// `M·v` for every matrix `M` of `matrices` with the plain diagonal
    /// method — per matrix one rotation and one PMult per non-zero diagonal,
    /// summed — as one [`try_rotate_sums`](Evaluator::try_rotate_sums) call:
    /// one hoist of `v` and one key-switch pass serve every product. The
    /// products are not rescaled (their scale is `v`'s times Δ), so a sum of
    /// products is rescaled once.
    ///
    /// # Errors
    ///
    /// [`EvalError::EmptyOperands`] for no matrices, or a matrix whose every
    /// diagonal is numerically zero; [`EvalError::MissingRotationKey`] for an
    /// absent key.
    pub fn try_products(
        matrices: &[&PlainMatrix],
        eval: &Evaluator,
        keys: &KeySet,
        v: &Ciphertext,
    ) -> Result<Vec<Ciphertext>, EvalError> {
        let blocks: Vec<_> = matrices.iter().map(|&m| (m, 0..m.dim)).collect();
        try_diagonal_sums(eval, keys, v, &blocks)
    }

    /// Applies `M·v` with the plain diagonal method: the one-matrix case of
    /// [`try_products`](Self::try_products), rescaled. Consumes one level.
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
        eval.try_rescale(&Self::try_products(&[self], eval, keys, v)?[0])
    }

    /// Applies `M·v` with baby-step/giant-step (`bs = ⌈√dim⌉`): one
    /// [`try_rotate_sums`](Evaluator::try_rotate_sums) call with one sum per
    /// non-empty giant block, then the `gs − 1` giant rotations and adds. On
    /// a dense matrix it switches `dim − 1` keys, as
    /// [`try_apply`](Self::try_apply) does, plus one Moddown per block; it
    /// only needs fewer keys (`1..bs` and `bs, 2bs, …`). Consumes one level.
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
        let bs = (dim as f64).sqrt().ceil() as usize;
        // M·v = Σ_g rot_{g·bs}(Σ_{b<bs} rot_{−g·bs}(diag_{g·bs+b}) ⊙ rot_b(v)):
        // one inner sum per non-empty giant block, over one hoist of `v`.
        let blocks: Vec<_> = (0..dim)
            .step_by(bs)
            .map(|giant| (self, giant..dim.min(giant + bs)))
            .filter(|(_, block)| block.clone().any(|d| !self.diagonal_is_zero(d)))
            .collect();
        let inner = try_diagonal_sums(eval, keys, v, &blocks)?;
        // Each giant step rotates a different inner sum: nothing to hoist.
        let mut shifted = blocks
            .iter()
            .zip(&inner)
            .map(|((_, block), sum)| eval.try_rotate(sum, block.start as i64, keys));
        let mut acc = shifted.next().expect("try_rotate_sums refuses no sums")?;
        for term in shifted {
            eval.try_add_assign(&mut acc, &term?)?;
        }
        eval.try_rescale(&acc)
    }
}

/// One [`Evaluator::try_rotate_sums`] call over `v`, one sum per block
/// `(m, diagonals)`: the non-zero diagonals `d` of `m` in the range as
/// weights at `v`'s level, each rotated right by the range's start `g` (a
/// giant step, free in plaintext; 0 for a whole matrix) and weighing the
/// rotation by `d − g`.
fn try_diagonal_sums(
    eval: &Evaluator,
    keys: &KeySet,
    v: &Ciphertext,
    blocks: &[(&PlainMatrix, Range<usize>)],
) -> Result<Vec<Ciphertext>, EvalError> {
    let (level, scale) = (v.level(), eval.context().default_scale());
    let weights = blocks.iter().map(|(m, block)| {
        let shift = block.start;
        let live = block.clone().filter(|&d| !m.diagonal_is_zero(d));
        let weight = |d: usize| {
            let diag: Vec<Complex> = (0..m.dim)
                .map(|i| m.diagonals[d][(i + m.dim - shift) % m.dim])
                .collect();
            let pt = eval.encode_at_level(&diag, scale, level);
            Ok(((d - shift) as i64, eval.prepare_plain(&pt, level)?))
        };
        live.map(weight).collect::<Result<Vec<_>, EvalError>>()
    });
    let weights = weights.collect::<Result<Vec<_>, _>>()?;
    let sums: Vec<Vec<_>> = weights
        .iter()
        .map(|sum| sum.iter().map(|(step, w)| (*step, Some(w))).collect())
        .collect();
    let sums: Vec<&[_]> = sums.iter().map(Vec::as_slice).collect();
    eval.try_rotate_sums(v, &sums, keys)
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
