//! Packed CKKS bootstrapping (the paper's most complex workload, \[30\]).
//!
//! Pipeline, for a ciphertext exhausted down to the single prime `q_0`:
//!
//! 1. **ModRaise** — reinterpret the centred residues modulo the full chain
//!    `Q`. The plaintext becomes `m + q_0·I` for a small integer polynomial
//!    `I` (bounded by the secret's Hamming weight).
//! 2. **SubSum** — for `n' < N/2` sparse slots, apply the trace onto the
//!    subring `Z[X^s]` (`s = N/(2n')`): `log2(N/(2n'))` rotation-adds. This
//!    zeroes every coefficient off the sparse support and multiplies the
//!    rest by `D = N/(2n')`.
//! 3. **CoeffToSlot** — homomorphic linear transform moving the `2n'`
//!    meaningful coefficients into the slots of two ciphertexts: one
//!    conjugation, then the four matrices as two
//!    [`PlainMatrix::try_products`] calls of two (one hoist of the input,
//!    one of its conjugate), an add and a rescale per half.
//! 4. **EvalMod** — approximate `x mod q_0` by `(q_0/2πD)·sin(2πD·x/q_0)`:
//!    scale down, evaluate a degree-7 Taylor sine and degree-6 cosine of
//!    the divided angle over one shared [`PowerBasis`], then apply `r`
//!    double-angle iterations.
//! 5. **SlotToCoeff** — the inverse linear transform, recombining both
//!    halves into a refreshed ciphertext at a high level.
//!
//! The six linear-transform matrices are [`PlainMatrix`]es derived
//! *numerically from the encoder itself* (evaluating unit coefficient
//! vectors), so every convention (bit-reversal, 5^j ordering, replication)
//! is captured by construction; every weighted sum of rotations runs
//! through the key-switch engine ([`Evaluator::try_rotate_sums`]).

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::encoding::Complex;
use crate::error::EvalError;
use crate::eval::Evaluator;
use crate::keys::KeySet;
use crate::linear::{try_fold, PlainMatrix};
use crate::polyeval::{try_evaluate_monomial, PowerBasis};
use he_rns::RnsPoly;

/// Telemetry scopes for the bootstrapping stages (items = slot count).
mod tel {
    poseidon_telemetry::scope_fn! {
        pub modraise = "boot.modraise";
        pub subsum = "boot.subsum";
        pub c2s = "boot.c2s";
        pub evalmod = "boot.evalmod";
        pub s2c = "boot.s2c";
        pub total = "boot.total";
    }
}

/// Degree-7 Taylor coefficients of sin(x).
const SIN_COEFFS: [f64; 8] = [
    0.0,
    1.0,
    0.0,
    -1.0 / 6.0,
    0.0,
    1.0 / 120.0,
    0.0,
    -1.0 / 5040.0,
];

/// Degree-6 Taylor coefficients of cos(x).
const COS_COEFFS: [f64; 7] = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0, -1.0 / 720.0];

/// Precomputed bootstrapping context for a fixed sparse slot count.
///
/// # Examples
///
/// See `crates/ckks/tests` and the `bootstrapping` example binary — a full
/// run needs sparse-secret keys and rotation/conjugation keys from
/// [`Bootstrapper::required_rotations`].
#[derive(Debug, Clone)]
pub struct Bootstrapper {
    ctx: CkksContext,
    /// Sparse slot count `n'`.
    slots: usize,
    /// Double-angle iterations.
    doublings: u32,
    /// `q_0` as float.
    q0: f64,
    /// Coefficient→slot matrices: low/high half from `w` and `conj(w)`.
    a_low_w: PlainMatrix,
    a_low_cw: PlainMatrix,
    a_high_w: PlainMatrix,
    a_high_cw: PlainMatrix,
    /// Slot→coefficient matrices (columns of the forward map F).
    f_low: PlainMatrix,
    f_high: PlainMatrix,
}

impl Bootstrapper {
    /// Builds the bootstrapping context for `slots` sparse slots (a power
    /// of two dividing `N/2`) and `doublings` double-angle iterations.
    ///
    /// # Panics
    ///
    /// Panics if `slots` does not divide `N/2` or is not ≥ 2.
    pub fn new(ctx: &CkksContext, slots: usize, doublings: u32) -> Self {
        let n = ctx.n();
        assert!(
            slots >= 2 && slots.is_power_of_two() && (n / 2).is_multiple_of(slots),
            "slots must be a power of two dividing N/2"
        );
        let stride = n / (2 * slots);
        let enc = ctx.encoder();

        // Forward map F: 2n' strided unit coefficients → n' slots, derived
        // from the encoder itself.
        let two_np = 2 * slots;
        let mut f_cols: Vec<Vec<Complex>> = Vec::with_capacity(two_np);
        for k in 0..two_np {
            let mut coeffs = vec![0.0f64; n];
            coeffs[k * stride] = 1.0;
            f_cols.push(enc.decode_from_coeffs(&coeffs, 1.0, slots));
        }

        // Real 2n'×2n' system: m̃ → (Re w, Im w); invert by Gaussian
        // elimination.
        let dim = two_np;
        let mut m = vec![vec![0.0f64; dim]; dim];
        for (k, col) in f_cols.iter().enumerate() {
            for j in 0..slots {
                m[j][k] = col[j].re;
                m[slots + j][k] = col[j].im;
            }
        }
        let minv = invert_real(&m);

        // Blocks P1..P4 combine into complex matrices applied to w and
        // conj(w): m̃_low = A_lw·w + A_lcw·w̄, m̃_high likewise. The trace
        // factor D = N/(2n') left behind by SubSum is divided away here, so
        // the slots after CoeffToSlot hold `m + q_0·I` directly — keeping
        // the EvalMod sine argument within the double-angle budget.
        let d_factor = stride as f64;
        let build = |rows: std::ops::Range<usize>| {
            let mut aw = vec![vec![Complex::default(); slots]; slots];
            let mut acw = vec![vec![Complex::default(); slots]; slots];
            for (out_i, r) in rows.enumerate() {
                for j in 0..slots {
                    let p_re = minv[r][j] / d_factor; // multiplies Re w_j
                    let p_im = minv[r][slots + j] / d_factor; // multiplies Im w_j
                    aw[out_i][j] = Complex::new(p_re / 2.0, -p_im / 2.0);
                    acw[out_i][j] = Complex::new(p_re / 2.0, p_im / 2.0);
                }
            }
            (PlainMatrix::new(aw), PlainMatrix::new(acw))
        };
        let (a_low_w, a_low_cw) = build(0..slots);
        let (a_high_w, a_high_cw) = build(slots..two_np);

        // Slot→coeff: w_out = F_low·m̃_low + F_high·m̃_high, with F_low/high
        // the column blocks of F as n'×n' matrices.
        let f_block = |first: usize| {
            let rows = (0..slots).map(|j| (0..slots).map(|k| f_cols[first + k][j]).collect());
            PlainMatrix::new(rows.collect())
        };

        Self {
            ctx: ctx.clone(),
            slots,
            doublings,
            q0: ctx.chain_basis().primes()[0] as f64,
            a_low_w,
            a_low_cw,
            a_high_w,
            a_high_cw,
            f_low: f_block(0),
            f_high: f_block(slots),
        }
    }

    /// Sparse slot count `n'`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The rotation steps whose Galois keys must be generated before
    /// calling [`try_bootstrap`] (conjugation key needed as well).
    ///
    /// [`try_bootstrap`]: Self::try_bootstrap
    pub fn required_rotations(&self) -> Vec<i64> {
        // The transforms' 1..n', then the trace's n', 2n', …: sorted, distinct.
        let trace = self.trace_steps().map(|s| s as i64);
        (1..self.slots as i64).chain(trace).collect()
    }

    /// SubSum's rotation steps `n', 2n', …, N/4`.
    fn trace_steps(&self) -> impl Iterator<Item = usize> {
        let total = self.ctx.n() / 2;
        (self.slots.trailing_zeros()..total.trailing_zeros()).map(|bit| 1 << bit)
    }

    /// ModRaise (step 1): reinterpret a level-0 ciphertext modulo the full
    /// chain.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] unless the ciphertext is at level 0.
    pub fn try_mod_raise(&self, ct: &Ciphertext) -> Result<Ciphertext, EvalError> {
        if ct.level() != 0 {
            return Err(EvalError::LevelMismatch {
                a: ct.level(),
                b: 0,
            });
        }
        let _span = tel::modraise().span(self.slots as u64);
        let full = self.ctx.chain_basis();
        let raise = |p: &RnsPoly| {
            let centered = p.to_centered_coeffs();
            RnsPoly::from_i64_coeffs(full, &centered)
        };
        Ok(Ciphertext::new(raise(ct.c0()), raise(ct.c1()), ct.scale()))
    }

    /// SubSum: trace onto the sparse subring (step 2).
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`] for an absent trace rotation key.
    pub fn try_subsum(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let _span = tel::subsum().span(self.slots as u64);
        try_fold(eval, keys, ct, self.trace_steps())
    }

    /// CoeffToSlot (step 3): returns `(ct_low, ct_high)` whose slots hold
    /// the low/high halves of the sparse coefficient vector.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingRotationKey`]/[`EvalError::MissingConjugationKey`]
    /// for absent keys; [`EvalError::RescaleAtLevelZero`] when the chain
    /// is too short; [`EvalError::EmptyOperands`] for a degenerate
    /// (all-zero) transform matrix.
    pub fn try_coeff_to_slot(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        ct: &Ciphertext,
    ) -> Result<(Ciphertext, Ciphertext), EvalError> {
        let _span = tel::c2s().span(self.slots as u64);
        let conj = eval.try_conjugate(ct, keys)?;
        let from_w = PlainMatrix::try_products(&[&self.a_low_w, &self.a_high_w], eval, keys, ct)?;
        let from_cw =
            PlainMatrix::try_products(&[&self.a_low_cw, &self.a_high_cw], eval, keys, &conj)?;
        let half = |w, cw| eval.try_rescale(&eval.try_add(w, cw)?);
        Ok((
            half(&from_w[0], &from_cw[0])?,
            half(&from_w[1], &from_cw[1])?,
        ))
    }

    /// SlotToCoeff (step 5): the inverse linear transform, recombining both
    /// halves into one ciphertext.
    ///
    /// # Errors
    ///
    /// See [`try_coeff_to_slot`](Self::try_coeff_to_slot).
    pub fn try_slot_to_coeff(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        low: &Ciphertext,
        high: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let _span = tel::s2c().span(self.slots as u64);
        let level = low.level().min(high.level());
        let scale = low.scale();
        let low = eval.try_adjust(low, level, scale)?;
        let high = eval.try_adjust(high, level, scale)?;
        let low = PlainMatrix::try_products(&[&self.f_low], eval, keys, &low)?;
        let high = PlainMatrix::try_products(&[&self.f_high], eval, keys, &high)?;
        eval.try_rescale(&eval.try_add(&low[0], &high[0])?)
    }

    /// EvalMod (step 4): approximates `x mod q_0` on the slot values of
    /// `ct`, accounting for the trace factor `D = N/(2n')`.
    ///
    /// # Errors
    ///
    /// [`EvalError::RescaleAtLevelZero`] when the modulus chain runs out
    /// mid-approximation (the chain must fund two argument scalings, the
    /// Taylor tree, and `doublings` double-angle squarings).
    pub fn try_eval_mod(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let _span = tel::evalmod().span(self.slots as u64);
        let r_pow = 2f64.powi(self.doublings as i32);
        // CoeffToSlot leaves slot *values* x = (m + q0·I)/Δ (the natural
        // at-scale-Δ representation), so the effective modulus seen by the
        // value pipeline is q0/Δ. Scale the sine argument accordingly:
        // y = 2π·x / ((q0/Δ)·2^r); the integer multiple 2π·I drops out of
        // the sine after the doublings.
        let q0_eff = self.q0 / self.ctx.default_scale();
        let c = 2.0 * std::f64::consts::PI / (q0_eff * r_pow);
        let half = c.sqrt();
        let mut y = ct.clone();
        for _ in 0..2 {
            y = eval.try_rescale(&eval.mul_const(&y, Complex::new(half, 0.0)))?;
        }

        // Taylor sine and cosine of the divided angle, over one set of
        // powers: y²…y⁷ cost six products between them.
        let mut powers = PowerBasis::new(y);
        let mut s = try_evaluate_monomial(eval, keys, &mut powers, &SIN_COEFFS)?;
        let mut co = try_evaluate_monomial(eval, keys, &mut powers, &COS_COEFFS)?;

        // r double-angle iterations: s ← 2sc, c ← 1 − 2s².
        for _ in 0..self.doublings {
            let level = s.level().min(co.level());
            let scale = s.scale();
            let s_al = eval.try_adjust(&s, level, scale)?;
            let c_al = eval.try_adjust(&co, level, scale)?;
            let sc = eval.try_rescale(&eval.try_mul(&s_al, &c_al, keys)?)?;
            let s2 = eval.try_rescale(&eval.try_square(&s_al, keys)?)?;
            // 2·sc and 1 − 2·s²: doubling by self-addition is exact.
            let mut s_next = eval.try_add(&sc, &sc)?;
            let s2_doubled = eval.try_add(&s2, &s2)?;
            let one = eval.encode_at_level(
                &[Complex::new(1.0, 0.0)],
                s2_doubled.scale(),
                s2_doubled.level(),
            );
            let mut c_next = eval.neg(&eval.try_sub_plain(&s2_doubled, &one)?);
            let level = s_next.level().min(c_next.level());
            s_next = eval.try_adjust(&s_next, level, s_next.scale())?;
            c_next = eval.try_adjust(&c_next, level, c_next.scale())?;
            s = s_next;
            co = c_next;
        }

        // Multiply back: x ≈ sin(2πx'/q0_eff)·q0_eff/(2π). With q0 only a
        // few bits above Δ the constant is O(1) and encodes at the working
        // scale without precision loss.
        let back = q0_eff / (2.0 * std::f64::consts::PI);
        eval.try_rescale(&eval.mul_const(&s, Complex::new(back, 0.0)))
    }

    /// Runs the full bootstrapping pipeline on an exhausted (level 0)
    /// ciphertext, returning a refreshed ciphertext at a high level whose
    /// slots approximate the original message. Every degenerate input —
    /// missing keys, a chain too short for EvalMod, a non-exhausted input,
    /// an all-zero transform matrix — comes back as a typed [`EvalError`].
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] unless the input is at level 0;
    /// [`EvalError::RescaleAtLevelZero`] when the modulus chain is too
    /// short to fund the pipeline; [`EvalError::EmptyOperands`] for a
    /// degenerate linear-transform matrix; the missing-key variants for
    /// absent rotation/conjugation keys.
    pub fn try_bootstrap(
        &self,
        eval: &Evaluator,
        keys: &KeySet,
        ct: &Ciphertext,
    ) -> Result<Ciphertext, EvalError> {
        let _span = tel::total().span(self.slots as u64);
        let raised = self.try_mod_raise(ct)?;
        let traced = self.try_subsum(eval, keys, &raised)?;
        let (low, high) = self.try_coeff_to_slot(eval, keys, &traced)?;
        let low = self.try_eval_mod(eval, keys, &low)?;
        let high = self.try_eval_mod(eval, keys, &high)?;
        self.try_slot_to_coeff(eval, keys, &low, &high)
    }
}

/// Inverts a small dense real matrix by Gauss–Jordan with partial pivoting.
///
/// # Panics
///
/// Panics if the matrix is singular (the embedding map never is).
fn invert_real(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = m.len();
    let mut a: Vec<Vec<f64>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.extend((0..n).map(|j| if i == j { 1.0 } else { 0.0 }));
            r
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
            .unwrap();
        assert!(a[pivot][col].abs() > 1e-12, "singular matrix");
        a.swap(col, pivot);
        let p = a[col][col];
        for v in &mut a[col] {
            *v /= p;
        }
        let pivot_row = a[col].clone();
        for (row, r) in a.iter_mut().enumerate() {
            if row != col {
                let f = r[col];
                if f != 0.0 {
                    for (x, &pv) in r.iter_mut().zip(&pivot_row) {
                        *x -= f * pv;
                    }
                }
            }
        }
    }
    a.into_iter().map(|row| row[n..].to_vec()).collect()
}

/// Truncates a ciphertext to level 0 — test/demo utility producing the
/// "exhausted" input bootstrapping expects.
///
/// # Errors
///
/// As [`Evaluator::try_drop_to_level`].
pub fn exhaust_to_level0(eval: &Evaluator, ct: &Ciphertext) -> Result<Ciphertext, EvalError> {
    eval.try_drop_to_level(ct, 0)
}

/// Encrypt-ready plaintext helper used by the bootstrapping demo binaries.
pub fn encode_for_bootstrap(ctx: &CkksContext, z: &[Complex]) -> Plaintext {
    Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), z, ctx.default_scale()),
        ctx.default_scale(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    #[test]
    fn invert_real_matches_identity() {
        let m = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        let inv = invert_real(&m);
        for (i, mi) in m.iter().enumerate() {
            let prod_row: Vec<f64> = (0..3)
                .map(|j| (0..3).map(|k| mi[k] * inv[k][j]).sum())
                .collect();
            for (j, &dot) in prod_row.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn c2s_matrices_invert_the_encoder() {
        // Plain (non-homomorphic) check: F applied to strided unit coeffs,
        // then the A-matrices, returns the coefficients.
        let ctx = CkksContext::new(CkksParams::toy());
        let bs = Bootstrapper::new(&ctx, 4, 2);
        let slots = 4usize;
        let stride = ctx.n() / (2 * slots);
        // Random sparse coefficient vector.
        let coeffs_small: Vec<f64> = (0..2 * slots).map(|i| (i as f64 - 3.5) * 0.25).collect();
        let mut coeffs = vec![0.0f64; ctx.n()];
        for (k, &v) in coeffs_small.iter().enumerate() {
            coeffs[k * stride] = v;
        }
        let w = ctx.encoder().decode_from_coeffs(&coeffs, 1.0, slots);
        // m̃_low = A_lw·w + A_lcw·conj(w), each product through the
        // matrix's diagonals: (M·v)_i = Σ_d diag_d[i]·v[(i + d) mod n'].
        let apply = |m: &PlainMatrix, v: &[Complex]| -> Vec<Complex> {
            (0..slots)
                .map(|i| {
                    let mut acc = Complex::default();
                    for d in 0..slots {
                        acc = acc + m.diagonal(d)[i] * v[(i + d) % slots];
                    }
                    acc
                })
                .collect()
        };
        let cw: Vec<Complex> = w.iter().map(|c| c.conj()).collect();
        let low: Vec<Complex> = apply(&bs.a_low_w, &w)
            .iter()
            .zip(apply(&bs.a_low_cw, &cw))
            .map(|(a, b)| *a + b)
            .collect();
        let high: Vec<Complex> = apply(&bs.a_high_w, &w)
            .iter()
            .zip(apply(&bs.a_high_cw, &cw))
            .map(|(a, b)| *a + b)
            .collect();
        // The matrices fold in the 1/D trace correction (D = stride).
        let d = stride as f64;
        for k in 0..slots {
            assert!((low[k].re - coeffs_small[k] / d).abs() < 1e-9, "low {k}");
            assert!(low[k].im.abs() < 1e-9);
            assert!(
                (high[k].re - coeffs_small[slots + k] / d).abs() < 1e-9,
                "high {k}"
            );
        }
    }

    #[test]
    fn mod_raise_preserves_message_mod_q0() {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
        let eval = Evaluator::new(&ctx);
        let bs = Bootstrapper::new(&ctx, 4, 2);
        let z = vec![Complex::new(0.5, 0.0); 4];
        let pt = encode_for_bootstrap(&ctx, &z);
        let ct = keys.public().encrypt(&pt, &mut rng);
        let exhausted = exhaust_to_level0(&eval, &ct).unwrap();
        let raised = bs.try_mod_raise(&exhausted).unwrap();
        assert_eq!(raised.level(), ctx.max_level());
        // Decrypting the raised ciphertext yields m + q0·I; check mod q0.
        let dec = keys.secret().decrypt(&raised);
        let q0 = ctx.chain_basis().primes()[0];
        let coeffs = dec.poly().to_centered_coeffs();
        let direct = keys
            .secret()
            .decrypt(&exhausted)
            .poly()
            .to_centered_coeffs();
        for (a, b) in coeffs.iter().zip(&direct) {
            assert_eq!(a.rem_euclid(q0 as i64), b.rem_euclid(q0 as i64));
        }
    }

    #[test]
    fn try_bootstrap_on_short_chain_reports_level_exhaustion() {
        // A 4-prime chain cannot fund EvalMod's Taylor tree: the pipeline
        // must surface RescaleAtLevelZero instead of aborting mid-flight.
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
        let eval = Evaluator::new(&ctx);
        let bs = Bootstrapper::new(&ctx, 4, 2);
        keys.add_rotation_keys(bs.required_rotations(), &mut rng);
        keys.add_conjugation_key(&mut rng);
        let z = vec![Complex::new(0.25, 0.0); 4];
        let pt = encode_for_bootstrap(&ctx, &z);
        let ct = keys.public().encrypt(&pt, &mut rng);
        let exhausted = exhaust_to_level0(&eval, &ct).unwrap();
        let err = bs
            .try_bootstrap(&eval, &keys, &exhausted)
            .expect_err("toy chain is too short to bootstrap");
        assert!(
            matches!(err, EvalError::RescaleAtLevelZero),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn try_bootstrap_on_fresh_ciphertext_reports_level_mismatch() {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
        let eval = Evaluator::new(&ctx);
        let bs = Bootstrapper::new(&ctx, 4, 2);
        let z = vec![Complex::new(0.25, 0.0); 4];
        let pt = encode_for_bootstrap(&ctx, &z);
        let ct = keys.public().encrypt(&pt, &mut rng);
        let err = bs
            .try_bootstrap(&eval, &keys, &ct)
            .expect_err("input is not exhausted");
        assert!(matches!(err, EvalError::LevelMismatch { .. }));
    }

    #[test]
    fn required_rotations_cover_subsum_and_matvec() {
        let ctx = CkksContext::new(CkksParams::toy());
        let bs = Bootstrapper::new(&ctx, 4, 2);
        let rots = bs.required_rotations();
        // matvec rotations 1..4 and subsum 4,8,...,N/4.
        for d in [1i64, 2, 3, 4, 8, 16, 32, 64, 128, 256] {
            assert!(rots.contains(&d), "missing rotation {d}");
        }
    }
}
