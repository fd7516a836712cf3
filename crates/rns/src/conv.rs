//! Fast basis conversion and the Modup/Moddown/Rescale kernels.
//!
//! These implement the paper's Eq. 1–3 exactly:
//!
//! * `RNSconv(a_B → C)` — the HPS *approximate* fast basis conversion:
//!   `a_C[i] = Σ_j ([a_j · q̂_j⁻¹]_{q_j} · q̂_j) mod p_i`. The result equals
//!   `a + e·Q` for some small `0 ≤ e < L`, which downstream Moddown divides
//!   away (the classic RNS-CKKS noise argument).
//! * `Modup(a_Q) → a_{Q∪P}` — extend a polynomial to the keyswitching basis.
//! * `Moddown(ã_{Q∪P}) → ((ã_Q − conv(ã_P)) · P⁻¹)_Q` — exact scaled
//!   reduction back to the ciphertext basis.
//! * `rescale` — drop the last chain prime and rescale by its inverse,
//!   the RNS realisation of CKKS's `Rescale` (paper §II-A.3).
//!
//! All kernels operate on **coefficient-form** polynomials (the conversion
//! mixes residues across primes, which is only meaningful on coefficients);
//! they assert this precondition.

use crate::basis::RnsBasis;
use crate::lazy::LazyDot;
use crate::poly::{Form, RnsPoly};
use he_math::modops::{inv_mod_prime, sub_mod};
use he_math::{BarrettReducer, ShoupMul};

/// Converts `a` from its basis `B` into basis `target` (paper Eq. 1).
///
/// The output is the HPS approximation `a + e·Q_B (mod target)` with
/// `0 ≤ e < |B|`; callers that need exactness follow up with a Moddown-style
/// correction.
///
/// # Panics
///
/// Panics if `a` is not in coefficient form or ring degrees differ.
///
/// # Examples
///
/// ```
/// use he_rns::{RnsBasis, RnsPoly};
/// use he_rns::conv::rns_convert;
/// let b = RnsBasis::generate(16, 28, 2);
/// let p = RnsBasis::new(16, he_math::prime::ntt_prime_chain(30, 32, 1));
/// let a = RnsPoly::from_i64_coeffs(&b, &[42i64; 16]);
/// let out = rns_convert(&a, &p);
/// // The result is congruent to 42 + e·Q for some small e ≥ 0.
/// let p0 = p.primes()[0];
/// let q_mod = b.modulus_product().rem_u64(p0);
/// let got = out.residues(0)[0];
/// assert!((0..2u64).any(|e| (42 + e as u128 * q_mod as u128) % p0 as u128 == got as u128));
/// ```
pub fn rns_convert(a: &RnsPoly, target: &RnsBasis) -> RnsPoly {
    assert_eq!(a.form(), Form::Coeff, "RNSconv operates on coefficients");
    assert_eq!(a.basis().n(), target.n(), "ring degrees must match");
    let src = a.basis();
    let n = src.n();
    let _span = crate::tel::convert().span((src.len() * n) as u64);
    let hat_inv = src.qhat_inv_mod_self();
    let hat_in_target = src.qhat_mod_other(target);

    // t_j = [a_j · q̂_j⁻¹]_{q_j}, once per source prime, limb-parallel; the
    // scratch pool recycles the temporaries across calls.
    let t: Vec<Vec<u64>> = poseidon_par::par_map(src.len(), n, |j| {
        let mut row = poseidon_par::scratch::take(n);
        row.copy_from_slice(a.residues(j));
        scale_row(&mut row, &src.reducers()[j], hat_inv[j]);
        row
    });

    // Target primes are likewise independent: each reads all of t, one
    // multiply–add per source prime and coefficient, summed in 128 bits
    // with one shared Barrett reduction (SBT reuse).
    let src_max = *src.primes().iter().max().expect("non-empty");
    let residues: Vec<Vec<u64>> = poseidon_par::par_map(target.len(), src.len() * n, |i| {
        let red = target.reducers()[i];
        let sum = LazyDot::with_term_bound(red, u128::from(src_max) * u128::from(red.modulus()));
        let hats = &hat_in_target[i];
        (0..n)
            .map(|c| sum.scaled_sum(t.iter().zip(hats).map(|(tj, &hat)| (tj[c], hat))))
            .collect()
    });
    for tj in t {
        poseidon_par::scratch::recycle(tj);
    }
    RnsPoly::from_residues(target, residues, Form::Coeff)
}

/// The first multiplier of RNSconv on one source limb, in place:
/// `t_j = [a_j · q̂_j⁻¹]_{q_j}`.
fn scale_row(row: &mut [u64], red: &BarrettReducer, hat_inv: u64) {
    for x in row {
        *x = red.mul(*x, hat_inv);
    }
}

/// [`lift_exact`] met a coefficient whose centred value lies within `Q/4` of
/// the wrap at `±Q/2`, where the overflow count can no longer be told from
/// its rounding error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftOverflow {
    /// Index of the first such coefficient.
    pub coefficient: usize,
}

impl std::fmt::Display for LiftOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = self.coefficient;
        write!(f, "coefficient {at} lies within Q/4 of the wrap at ±Q/2")
    }
}

impl std::error::Error for LiftOverflow {}

/// The *exact* counterpart of [`rns_convert`], for a polynomial known to be
/// small: the residues modulo `target` of the **centred** integer value of
/// every coefficient of `a`, with no `e·Q` term — what
/// [`RnsPoly::from_i64_coeffs`] would have produced on `target` had the
/// coefficients been at hand.
///
/// The HPS sum `Σ_j y_j·q̂_j` with `y_j = [a_j·q̂_j⁻¹]_{q_j}` exceeds the
/// centred value by `υ·Q`, and `Σ_j y_j/q_j = x/Q + υ`: for `|x| < Q/4` the
/// fraction is below a quarter and `υ` is that sum, rounded — a `f64` sum of
/// `|B|` terms below one, whose error is some `|B|·2⁻⁵²`, nowhere near the
/// quarter that would move the rounding. The correction `υ·(Q mod p_i)` is
/// subtracted on every target limb.
///
/// Where a product with a uniform operand follows (a plaintext meeting a
/// key-switch row over `Q ∪ P`), the approximate conversion is wrong: its
/// `e·Q` is invisible on the `Q` limbs and multiplies the uniform row on the
/// `P` limbs, an inconsistency the size of `Q` that Moddown cannot divide
/// away.
///
/// # Errors
///
/// [`LiftOverflow`] if a coefficient's centred value is not below `Q/4` in
/// magnitude: never a silently wrong multiple of `Q`.
///
/// # Panics
///
/// Panics if `a` is not in coefficient form or ring degrees differ.
///
/// # Examples
///
/// ```
/// use he_rns::{RnsBasis, RnsPoly};
/// use he_rns::conv::lift_exact;
/// let b = RnsBasis::generate(16, 28, 2);
/// let p = RnsBasis::new(16, he_math::prime::ntt_prime_chain(30, 32, 1));
/// let coeffs = [-42i64; 16];
/// let lifted = lift_exact(&RnsPoly::from_i64_coeffs(&b, &coeffs), &p).unwrap();
/// assert_eq!(lifted, RnsPoly::from_i64_coeffs(&p, &coeffs));
/// ```
pub fn lift_exact(a: &RnsPoly, target: &RnsBasis) -> Result<RnsPoly, LiftOverflow> {
    assert_eq!(a.form(), Form::Coeff, "a lift operates on coefficients");
    assert_eq!(a.basis().n(), target.n(), "ring degrees must match");
    let src = a.basis();
    let n = src.n();
    let _span = crate::tel::convert().span((src.len() * n) as u64);
    let hat_inv = src.qhat_inv_mod_self();
    let y: Vec<Vec<u64>> = poseidon_par::par_map(src.len(), n, |j| {
        let mut row = poseidon_par::scratch::take(n);
        row.copy_from_slice(a.residues(j));
        scale_row(&mut row, &src.reducers()[j], hat_inv[j]);
        row
    });

    let inv: Vec<f64> = src.primes().iter().map(|&q| 1.0 / q as f64).collect();
    let upsilon: Vec<u64> = (0..n)
        .map(|c| {
            let v: f64 = y.iter().zip(&inv).map(|(yj, inv)| yj[c] as f64 * inv).sum();
            let rounded = v.round();
            ((v - rounded).abs() < 0.25)
                .then_some(rounded as u64)
                .ok_or(LiftOverflow { coefficient: c })
        })
        .collect::<Result<_, _>>()?;

    let hat_in_target = src.qhat_mod_other(target);
    let q_in_target = src.product_mod_other(target);
    let src_max = *src.primes().iter().max().expect("non-empty");
    let residues = poseidon_par::par_map(target.len(), (src.len() + 1) * n, |i| {
        let red = target.reducers()[i];
        let p = red.modulus();
        let sum = LazyDot::with_term_bound(red, u128::from(src_max) * u128::from(p));
        let (hats, q_mod) = (&hat_in_target[i], q_in_target[i]);
        (0..n)
            .map(|c| {
                let hps = sum.scaled_sum(y.iter().zip(hats).map(|(yj, &hat)| (yj[c], hat)));
                // `υ ≤ |B|`, far below any prime.
                sub_mod(hps, red.mul(upsilon[c], q_mod), p)
            })
            .collect()
    });
    for yj in y {
        poseidon_par::scratch::recycle(yj);
    }
    Ok(RnsPoly::from_residues(target, residues, Form::Coeff))
}

/// The exact lift of one key-switch digit group: for residues `r_k` modulo
/// the primes `q_k` of a small basis, the integer `x ∈ [0, Π q_k)` they
/// stand for, by Garner's mixed-radix recombination
/// `x = Σ_k v_k·Π_{m<k} q_m` with `v_k = (r_k − x_{<k})·(Π_{m<k} q_m)⁻¹ mod
/// q_k`, summed in `u128`. Reducing `x` modulo any other prime is a Modup
/// of the group with no `e·Q` term and no rounding: exact for every residue,
/// where [`lift_exact`] needs a small value.
///
/// # Examples
///
/// ```
/// use he_rns::conv::GroupLift;
/// let (q0, q1) = (97u64, 193u64);
/// let x = 12_345u64;
/// let mut out = [0u128; 1];
/// GroupLift::new(&[q0, q1]).combine(&[&[x % q0], &[x % q1]], &mut out);
/// assert_eq!(out[0], 12_345);
/// ```
#[derive(Debug, Clone)]
pub struct GroupLift {
    /// Per prime after the first: its reducer, `(Π_{m<k} q_m)⁻¹ mod q_k` on
    /// the Shoup path, and the radix `Π_{m<k} q_m`.
    steps: Vec<(BarrettReducer, ShoupMul, u128)>,
}

impl GroupLift {
    /// Builds the recombination constants of `primes`.
    ///
    /// # Panics
    ///
    /// Panics if `primes` is empty, two of them share a factor, or their
    /// product reaches `2^128`.
    pub fn new(primes: &[u64]) -> Self {
        assert!(!primes.is_empty(), "a digit group has a prime");
        let mut radix = u128::from(primes[0]);
        let mut steps = Vec::with_capacity(primes.len() - 1);
        for &q in &primes[1..] {
            let red = BarrettReducer::new(q);
            let inv = inv_mod_prime(red.reduce(radix), q).expect("coprime group primes");
            steps.push((red, ShoupMul::new(inv, q), radix));
            radix = radix
                .checked_mul(u128::from(q))
                .expect("a digit group below 2^128");
        }
        Self { steps }
    }

    /// `x` per coefficient from the residue rows of the group's first
    /// `rows.len()` primes — a prefix, as a level's partial last group is —
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or longer than the group.
    pub fn combine(&self, rows: &[&[u64]], out: &mut [u128]) {
        let (first, rest) = rows.split_first().expect("one row per group prime");
        assert!(
            rest.len() <= self.steps.len(),
            "more rows than group primes"
        );
        for (x, &r) in out.iter_mut().zip(*first) {
            *x = u128::from(r);
        }
        for (row, (red, inv, radix)) in rest.iter().zip(&self.steps) {
            let q = red.modulus();
            for (x, &r) in out.iter_mut().zip(*row) {
                let v = inv.mul(sub_mod(r, red.reduce(*x), q));
                *x += u128::from(v) * radix;
            }
        }
    }
}

/// `Modup` (paper Eq. 3): extends `a` from basis `Q` to `Q ∪ P`.
///
/// Returns the polynomial in the concatenated basis with the original
/// residues preserved and the `P` residues produced by [`rns_convert`].
///
/// # Panics
///
/// Panics if `a` is not in coefficient form or the bases overlap.
pub fn modup(a: &RnsPoly, special: &RnsBasis) -> RnsPoly {
    assert_eq!(a.form(), Form::Coeff, "Modup operates on coefficients");
    let converted = rns_convert(a, special);
    let full = a.basis().concat(special);
    let mut residues = a.all_residues().to_vec();
    residues.extend(converted.all_residues().iter().cloned());
    RnsPoly::from_residues(&full, residues, Form::Coeff)
}

/// One `(Q, P)` split of an extended basis: the constants of Moddown (paper
/// Eq. 2), built once, and its two per-limb halves. [`moddown`] runs them
/// over one polynomial; the key-switch engine calls them inside its limb
/// tasks, once per fan, on rows that never become a polynomial.
#[derive(Debug, Clone)]
pub struct ModdownSplit {
    /// Per `P` limb `j`: its reducer and `p̂_j⁻¹ mod p_j`.
    p_limbs: Vec<(BarrettReducer, u64)>,
    /// Per `Q` limb `i`: `q_i`, the weights `p̂_j mod q_i`, the lazy-sum rule
    /// of their products with the `t_j`, and `P⁻¹ mod q_i` on the Shoup path.
    q_limbs: Vec<(u64, Vec<u64>, LazyDot, ShoupMul)>,
}

impl ModdownSplit {
    /// Splits `basis` into its `q_len` leading primes `Q` and the rest, `P`
    /// — sub-ranges of `basis` itself, so no table is built.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ q_len < basis.len()`.
    pub fn new(basis: &RnsBasis, q_len: usize) -> Self {
        let splits = q_len >= 1 && q_len < basis.len();
        assert!(splits, "q_len must split the basis");
        let q_basis = basis.prefix(q_len);
        let p_basis = basis.range(q_len..basis.len());
        let p_max = *p_basis.primes().iter().max().expect("non-empty");
        let hats = p_basis.qhat_mod_other(&q_basis).into_iter();
        let p_invs = p_basis.product_inv_mod_other(&q_basis);
        let q_limbs = hats.zip(p_invs).zip(q_basis.reducers());
        let hat_invs = p_basis.qhat_inv_mod_self();
        Self {
            p_limbs: p_basis.reducers().iter().copied().zip(hat_invs).collect(),
            q_limbs: q_limbs
                .map(|((hats, p_inv), &red)| {
                    // Each term `t_j·(p̂_j mod q_i)` is below `p_j·q_i`, which
                    // sizes the lazy sum's block: at least 64 terms at 60
                    // bits, so one block covers any realistic special basis.
                    let q = red.modulus();
                    let sum = LazyDot::with_term_bound(red, u128::from(p_max) * u128::from(q));
                    (q, hats, sum, ShoupMul::new(p_inv, q))
                })
                .collect(),
        }
    }

    /// First half, on the coefficient-form row of `P` limb `j`, in place:
    /// `t_j = [a_{p_j} · p̂_j⁻¹]_{p_j}`.
    pub fn scale_p_limb(&self, j: usize, row: &mut [u64]) {
        let _share =
            crate::tel::LimbShare::new(crate::tel::convert(), j, self.p_limbs.len() * row.len());
        let (red, hat_inv) = &self.p_limbs[j];
        scale_row(row, red, *hat_inv);
    }

    /// Second half, on the coefficient-form row of `Q` limb `i`, in place:
    /// `(a_i − Σ_j t_j·(p̂_j mod q_i)) · P⁻¹` given every scaled `P` row
    /// `t` — the sum held in 128 bits and reduced once per coefficient, the
    /// final product on the Shoup fixed-operand path.
    ///
    /// # Panics
    ///
    /// Panics unless `t` holds one row per `P` limb.
    pub fn finish_q_limb(&self, i: usize, t: &[Vec<u64>], row: &mut [u64]) {
        assert_eq!(t.len(), self.p_limbs.len(), "one scaled row per P limb");
        let items = (self.q_limbs.len() + t.len()) * row.len();
        let _share = crate::tel::LimbShare::new(crate::tel::moddown(), i, items);
        // By value: through the reference these are reloaded per coefficient.
        let (q, ref hats, sum, p_inv) = self.q_limbs[i];
        for (c, a) in row.iter_mut().enumerate() {
            let conv = sum.scaled_sum(t.iter().zip(hats).map(|(tj, &hat)| (tj[c], hat)));
            *a = p_inv.mul(sub_mod(*a, conv, q));
        }
    }
}

/// `Moddown` (paper Eq. 2): reduces `a` from basis `Q ∪ P` back to `Q`,
/// dividing by `P` — `((a_Q − conv(a_P → Q)) · P⁻¹) mod Q`.
///
/// `q_len` is the number of leading primes that form `Q`. The two halves of
/// a [`ModdownSplit`]: the few `P` limbs are scaled on the calling thread (a
/// fan-out would cost more than the work), then every `Q` limb is one pass.
/// Exact modular arithmetic throughout, so the output is bit-identical to
/// composing [`rns_convert`], `sub` and `mul_scalar_per_prime`.
///
/// # Panics
///
/// Panics if `a` is not in coefficient form or `q_len` is out of range.
pub fn moddown(a: &RnsPoly, q_len: usize) -> RnsPoly {
    assert_eq!(a.form(), Form::Coeff, "Moddown operates on coefficients");
    let split = ModdownSplit::new(a.basis(), q_len);
    let (n, p_len) = (a.n(), a.level_count() - q_len);
    let mut t = a.all_residues()[q_len..].to_vec();
    for (j, row) in t.iter_mut().enumerate() {
        split.scale_p_limb(j, row);
    }
    // Per coefficient: one multiply–add per `P` limb, the subtraction and
    // the `P⁻¹` product.
    let residues: Vec<Vec<u64>> = poseidon_par::par_map(q_len, (p_len + 2) * n, |i| {
        let mut row = a.residues(i).to_vec();
        split.finish_q_limb(i, &t, &mut row);
        row
    });
    RnsPoly::from_residues(&a.basis().prefix(q_len), residues, Form::Coeff)
}

/// RNS `Rescale`: drops the last chain prime `q_l` and scales by `q_l⁻¹` —
/// `c'_j = [q_l⁻¹]_{q_j} · (c_j − c_l) mod q_j` (paper §II-A.3).
///
/// # Panics
///
/// Panics if `a` is not in coefficient form or has a single component.
pub fn rescale(a: &RnsPoly) -> RnsPoly {
    assert_eq!(a.form(), Form::Coeff, "Rescale operates on coefficients");
    let l = a.level_count();
    assert!(l >= 2, "cannot rescale a single-prime polynomial");
    let _span = crate::tel::rescale().span((l * a.basis().n()) as u64);
    let last_prime = a.basis().primes()[l - 1];
    let lower = a.basis().prefix(l - 1);
    let last = a.residues(l - 1);

    // Each surviving prime rescales independently — limb-parallel. `c_l` is
    // brought into the limb's range by its Barrett reducer and the product
    // with the fixed `q_l⁻¹` runs on the Shoup path: no division per element.
    // (Three operations per coefficient: reduce, subtract, multiply.)
    let residues: Vec<Vec<u64>> = poseidon_par::par_map(l - 1, 3 * a.basis().n(), |j| {
        let qj = lower.primes()[j];
        let red = &lower.reducers()[j];
        let ql_inv = inv_mod_prime(last_prime % qj, qj).expect("distinct primes");
        let ql_inv = ShoupMul::new(ql_inv, qj);
        a.residues(j)
            .iter()
            .zip(last)
            .map(|(&cj, &cl)| ql_inv.mul(sub_mod(cj, red.reduce(u128::from(cl)), qj)))
            .collect()
    });
    RnsPoly::from_residues(&lower, residues, Form::Coeff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bases(n: usize) -> (RnsBasis, RnsBasis) {
        // Q from 28-bit primes, P from 30-bit primes (disjoint by size).
        let q = RnsBasis::generate(n, 28, 3);
        let p = RnsBasis::new(n, he_math::prime::ntt_prime_chain(30, 2 * n as u64, 2));
        (q, p)
    }

    #[test]
    fn convert_is_congruent_for_small_values() {
        // For any value, conversion returns a + e·Q for small e ≥ 0; for a
        // centred negative value the representative is Q + a, so the same
        // bound applies with the representative.
        let (q, p) = bases(16);
        let coeffs: Vec<i64> = (0..16).map(|i| i * 100).collect();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let out = rns_convert(&a, &p);
        let l = q.len() as u64;
        for (i, &pi) in p.primes().iter().enumerate() {
            let q_mod = q.modulus_product().rem_u64(pi);
            for (c, &v) in coeffs.iter().enumerate() {
                let got = out.residues(i)[c];
                let ok = (0..=l)
                    .any(|e| ((v as u128 + e as u128 * q_mod as u128) % pi as u128) as u64 == got);
                assert!(
                    ok,
                    "coefficient {c} prime {pi}: conversion off by more than L·Q"
                );
            }
        }
    }

    #[test]
    fn convert_error_is_multiple_of_q() {
        // For values near Q/2 the approximate conversion may be off by e·Q,
        // 0 ≤ e < L. Check residue-wise that out − a ≡ e·Q (mod p_i) with a
        // consistent small e per coefficient.
        let (q, p) = bases(16);
        let big = q.modulus_product().half(); // ~Q/2, worst case
                                              // Build a polynomial whose coefficient 0 is ~Q/2 via residues.
        let residues: Vec<Vec<u64>> = q
            .primes()
            .iter()
            .map(|&qi| {
                let mut v = vec![0u64; 16];
                v[0] = big.rem_u64(qi);
                v
            })
            .collect();
        let a = RnsPoly::from_residues(&q, residues, Form::Coeff);
        let out = rns_convert(&a, &p);
        let l = q.len() as u64;
        for (i, &pi) in p.primes().iter().enumerate() {
            let expect_base = big.rem_u64(pi);
            let got = out.residues(i)[0];
            let q_mod = q.modulus_product().rem_u64(pi);
            // got = expect_base + e·Q (mod p_i) for some 0 ≤ e < L.
            let mut ok = false;
            for e in 0..l {
                let cand = (expect_base as u128 + e as u128 * q_mod as u128) % pi as u128;
                if cand as u64 == got {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "conversion error must be a small multiple of Q");
        }
    }

    #[test]
    fn modup_preserves_original_residues() {
        let (q, p) = bases(16);
        let a = RnsPoly::from_i64_coeffs(&q, &[12345i64; 16]);
        let up = modup(&a, &p);
        assert_eq!(up.level_count(), q.len() + p.len());
        for j in 0..q.len() {
            assert_eq!(up.residues(j), a.residues(j));
        }
    }

    #[test]
    fn moddown_inverts_modup_times_p() {
        // moddown(modup(a) scaled by P) should return a (exactly, because
        // multiplying by P before the division makes the value divisible).
        let (q, p) = bases(16);
        let coeffs: Vec<i64> = (0..16).map(|i| 37 * i - 290).collect();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let up = modup(&a, &p);
        // Multiply by P in the full basis.
        let full = up.basis().clone();
        let p_prod: Vec<u64> = full
            .primes()
            .iter()
            .map(|&f| {
                p.primes()
                    .iter()
                    .fold(1u64, |acc, &pi| he_math::modops::mul_mod(acc, pi % f, f))
            })
            .collect();
        let scaled = up.mul_scalar_per_prime(&p_prod);
        let down = moddown(&scaled, q.len());
        assert_eq!(down.to_centered_coeffs(), coeffs);
    }

    #[test]
    fn moddown_of_small_noise_rounds_away() {
        // For a value v = P·x + r with |r| small, moddown returns x plus a
        // rounding term bounded by the conversion error. With v = P·x
        // exactly, the result is exactly x.
        let (q, p) = bases(16);
        let x = 777i64;
        let p_prod_i128: i128 = p.primes().iter().map(|&v| v as i128).product();
        let v: i128 = p_prod_i128 * x as i128;
        // Build v in the full basis via i128 reduction.
        let full = q.concat(&p);
        let residues: Vec<Vec<u64>> = full
            .primes()
            .iter()
            .map(|&f| vec![(v.rem_euclid(f as i128)) as u64; 16])
            .collect();
        let poly = RnsPoly::from_residues(&full, residues, Form::Coeff);
        let down = moddown(&poly, q.len());
        assert_eq!(down.to_centered_coeffs(), vec![x; 16]);
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let (q, _) = bases(16);
        let ql = *q.primes().last().unwrap() as i64;
        // Choose coefficients divisible by q_l so rescale is exact.
        let coeffs: Vec<i64> = (0..16).map(|i| ql * (i - 8)).collect();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let r = rescale(&a);
        assert_eq!(r.level_count(), q.len() - 1);
        let want: Vec<i64> = (0..16).map(|i| i - 8).collect();
        assert_eq!(r.to_centered_coeffs(), want);
    }

    #[test]
    fn rescale_rounds_non_divisible_values() {
        let (q, _) = bases(16);
        let ql = *q.primes().last().unwrap() as i64;
        // v = 5·q_l + 3 → rescale gives 5 + (3 - 3)·q_l⁻¹ pattern: exact
        // CKKS analysis says result = round-ish (v - [v]_{q_l}) / q_l = 5.
        let coeffs = vec![5 * ql + 3; 16];
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let r = rescale(&a);
        assert_eq!(r.to_centered_coeffs(), vec![5i64; 16]);
    }

    /// Garner's recombination returns the one integer below the group's
    /// product that the residues stand for, for residues at the edges of
    /// their ranges and for every prefix of the group, at 60-bit primes
    /// whose product fills 120 bits.
    #[test]
    fn a_group_lift_is_the_crt_integer() {
        let primes = he_math::prime::ntt_prime_chain(60, 32, 2);
        let lift = GroupLift::new(&primes);
        let product = u128::from(primes[0]) * u128::from(primes[1]);
        let xs = [0, 1, u128::from(primes[0]) - 1, product / 3, product - 1];
        let rows: Vec<Vec<u64>> = primes
            .iter()
            .map(|&q| xs.iter().map(|&x| (x % u128::from(q)) as u64).collect())
            .collect();
        let rows: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
        let mut out = vec![0u128; xs.len()];
        lift.combine(&rows, &mut out);
        assert_eq!(out, xs);
        lift.combine(&rows[..1], &mut out);
        let first: Vec<u128> = xs.iter().map(|&x| x % u128::from(primes[0])).collect();
        assert_eq!(out, first, "a prefix lifts over its own primes");
    }
}
