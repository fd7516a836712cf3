//! RNS polynomials: ring elements stored residue-wise per prime.

use he_math::modops::{add_mod, neg_mod, reduce_i64, sub_mod};
use he_math::shoup::{mul_shoup_lane, shoup_quotient};
use he_math::{BigUint, ShoupMul};

use crate::basis::RnsBasis;

/// Representation of the residue vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Coefficients of the polynomial (power basis).
    Coeff,
    /// Pointwise evaluations (NTT domain, bit-reversed order).
    Eval,
}

/// A polynomial in `Z_Q[X]/(X^N + 1)` with `Q` given by an [`RnsBasis`].
///
/// The value is stored as one length-N residue vector per basis prime.
/// Pointwise operations require both operands in the same form and basis;
/// form conversions are explicit ([`into_eval`] / [`into_coeff`]) so that
/// operator-level instrumentation (the Poseidon trace layer) sees every NTT.
///
/// [`into_eval`]: Self::into_eval
/// [`into_coeff`]: Self::into_coeff
///
/// # Examples
///
/// ```
/// use he_rns::{RnsBasis, RnsPoly};
/// let basis = RnsBasis::generate(32, 28, 2);
/// let x = RnsPoly::from_i64_coeffs(&basis, &{
///     let mut c = vec![0i64; 32];
///     c[1] = 1;
///     c
/// });
/// let x2 = x.clone().into_eval().mul(&x.into_eval()).into_coeff();
/// assert_eq!(x2.to_centered_coeffs()[2], 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    basis: RnsBasis,
    residues: Vec<Vec<u64>>,
    form: Form,
}

impl RnsPoly {
    /// The all-zero polynomial in the given form.
    pub fn zero(basis: &RnsBasis, form: Form) -> Self {
        Self {
            basis: basis.clone(),
            residues: vec![vec![0; basis.n()]; basis.len()],
            form,
        }
    }

    /// Builds a polynomial from signed coefficients (reduced per prime).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn from_i64_coeffs(basis: &RnsBasis, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), basis.n(), "coefficient count must equal N");
        let residues = basis
            .primes()
            .iter()
            .map(|&q| coeffs.iter().map(|&c| reduce_i64(c, q)).collect())
            .collect();
        Self {
            basis: basis.clone(),
            residues,
            form: Form::Coeff,
        }
    }

    /// Builds a polynomial from raw residues (must already be reduced).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or unreduced residues.
    pub fn from_residues(basis: &RnsBasis, residues: Vec<Vec<u64>>, form: Form) -> Self {
        assert_eq!(residues.len(), basis.len(), "one residue vector per prime");
        for (r, &q) in residues.iter().zip(basis.primes()) {
            assert_eq!(r.len(), basis.n(), "residue vector must have length N");
            debug_assert!(r.iter().all(|&v| v < q), "residues must be reduced");
        }
        Self {
            basis: basis.clone(),
            residues,
            form,
        }
    }

    /// The basis this polynomial lives in.
    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// Current representation form.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.basis.n()
    }

    /// Number of RNS components (basis length).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.basis.len()
    }

    /// Residue vector for prime index `j`.
    #[inline]
    pub fn residues(&self, j: usize) -> &[u64] {
        &self.residues[j]
    }

    /// All residue vectors.
    #[inline]
    pub fn all_residues(&self) -> &[Vec<u64>] {
        &self.residues
    }

    /// Mutable residue vectors (for in-place kernels; invariants are the
    /// caller's responsibility, enforced by debug assertions downstream).
    #[inline]
    pub fn all_residues_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.residues
    }

    /// Converts to evaluation form (applies the forward NTT per prime).
    /// No-op if already in evaluation form.
    ///
    /// Limbs transform independently, so the per-prime NTTs dispatch
    /// across the [`poseidon_par`] engine (the software analogue of the
    /// accelerator streaming one limb per HBM channel).
    pub fn into_eval(mut self) -> Self {
        if self.form == Form::Coeff {
            // Injection point for the `RnsResidue` fault site: corrupt the
            // limbs serially, before the parallel dispatch, so the firing
            // order is independent of thread count.
            poseidon_faults::tamper_rows(
                poseidon_faults::FaultSite::RnsResidue,
                &mut self.residues,
            );
            let tables = self.basis.tables();
            poseidon_par::par_for_each_mut(&mut self.residues, tables[0].weight(), |j, r| {
                tables[j].forward(r);
            });
            self.form = Form::Eval;
        }
        self
    }

    /// Converts to coefficient form (applies the inverse NTT per prime).
    /// No-op if already in coefficient form.
    pub fn into_coeff(mut self) -> Self {
        if self.form == Form::Eval {
            poseidon_faults::tamper_rows(
                poseidon_faults::FaultSite::RnsResidue,
                &mut self.residues,
            );
            let tables = self.basis.tables();
            poseidon_par::par_for_each_mut(&mut self.residues, tables[0].weight(), |j, r| {
                tables[j].inverse(r);
            });
            self.form = Form::Coeff;
        }
        self
    }

    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.basis, other.basis, "operands must share a basis");
        assert_eq!(self.form, other.form, "operands must share a form");
    }

    /// Element-wise modular addition (the MA operator), any form.
    ///
    /// Like every pointwise operation here, the per-prime work is
    /// dispatched limb-parallel through [`poseidon_par`].
    pub fn add(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let primes = self.basis.primes();
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let q = primes[j];
            self.residues[j]
                .iter()
                .zip(&other.residues[j])
                .map(|(&x, &y)| add_mod(x, y, q))
                .collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: self.form,
        }
    }

    /// In-place element-wise modular addition: `self += other`.
    ///
    /// The allocation-free sibling of [`add`](Self::add), used by
    /// accumulation loops (ciphertext sums).
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let primes = self.basis.primes();
        poseidon_par::par_for_each_mut(&mut self.residues, n, |j, r| {
            let q = primes[j];
            for (x, &y) in r.iter_mut().zip(&other.residues[j]) {
                *x = add_mod(*x, y, q);
            }
        });
    }

    /// Element-wise modular subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let primes = self.basis.primes();
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let q = primes[j];
            self.residues[j]
                .iter()
                .zip(&other.residues[j])
                .map(|(&x, &y)| sub_mod(x, y, q))
                .collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: self.form,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let primes = self.basis.primes();
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let q = primes[j];
            self.residues[j].iter().map(|&x| neg_mod(x, q)).collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: self.form,
        }
    }

    /// Element-wise modular multiplication (the MM operator).
    ///
    /// # Panics
    ///
    /// Panics unless both operands are in evaluation form — pointwise
    /// multiplication of coefficients is not ring multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_compatible(other);
        assert_eq!(self.form, Form::Eval, "ring product requires eval form");
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let reducers = self.basis.reducers();
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let red = &reducers[j];
            self.residues[j]
                .iter()
                .zip(&other.residues[j])
                .map(|(&x, &y)| red.mul(x, y))
                .collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: self.form,
        }
    }

    /// In-place element-wise modular multiplication: `self *= other`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are in evaluation form.
    pub fn mul_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        assert_eq!(self.form, Form::Eval, "ring product requires eval form");
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let reducers = self.basis.reducers();
        poseidon_par::par_for_each_mut(&mut self.residues, n, |j, r| {
            let red = &reducers[j];
            for (x, &y) in r.iter_mut().zip(&other.residues[j]) {
                *x = red.mul(*x, y);
            }
        });
    }

    /// In-place multiplication by a precomputed fixed operand:
    /// `self *= op`, with every reduction on the Shoup fast path.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is in evaluation form and shares the operand's
    /// basis.
    pub fn mul_assign_shoup(&mut self, op: &ShoupOperand) {
        assert_eq!(self.basis, op.basis, "operands must share a basis");
        assert_eq!(self.form, Form::Eval, "ring product requires eval form");
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        let primes = self.basis.primes();
        poseidon_par::par_for_each_mut(&mut self.residues, n, |j, r| {
            let q = primes[j];
            let ws = &op.residues[j];
            let wqs = &op.quotients[j];
            for ((x, &w), &wq) in r.iter_mut().zip(ws).zip(wqs) {
                *x = mul_shoup_lane(*x, w, wq, q);
            }
        });
    }

    /// Multiplies every residue of prime `j` by the per-prime scalar
    /// `scalars[j]`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the basis length.
    pub fn mul_scalar_per_prime(&self, scalars: &[u64]) -> Self {
        assert_eq!(scalars.len(), self.basis.len(), "one scalar per prime");
        let n = self.basis.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        // One Shoup precompute per limb amortised over N residues: the
        // fixed-operand path (two multiplies + csub per element) replaces
        // the per-element Barrett reduction.
        let primes = self.basis.primes();
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let q = primes[j];
            let m = ShoupMul::new(scalars[j] % q, q);
            self.residues[j].iter().map(|&x| m.mul(x)).collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: self.form,
        }
    }

    /// Restricts to the first `count` RNS components (level truncation).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the current component count.
    pub fn truncate_basis(&self, count: usize) -> Self {
        let basis = self.basis.prefix(count);
        Self {
            basis,
            residues: self.residues[..count].to_vec(),
            form: self.form,
        }
    }

    /// Applies the Galois automorphism `X ↦ X^g` for odd `g` (paper Eq. 4):
    /// coefficient `i` moves to index `i·g mod N` with sign `−1` whenever
    /// `i·g mod 2N ≥ N` (the negacyclic wraparound).
    ///
    /// This is the *Automorphism* operator of the paper — the reference
    /// implementation that `poseidon-core`'s HFAuto is validated against.
    ///
    /// # Panics
    ///
    /// Panics unless in coefficient form, or if `g` is even.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_rns::{RnsBasis, RnsPoly};
    /// let b = RnsBasis::generate(16, 28, 1);
    /// let mut c = vec![0i64; 16];
    /// c[1] = 1; // X
    /// let x = RnsPoly::from_i64_coeffs(&b, &c);
    /// // X ↦ X^3 under g = 3.
    /// let y = x.automorphism(3);
    /// assert_eq!(y.to_centered_coeffs()[3], 1);
    /// ```
    pub fn automorphism(&self, g: u64) -> Self {
        assert_eq!(
            self.form,
            Form::Coeff,
            "automorphism operates on coefficients"
        );
        let primes = self.basis.primes();
        let residues = poseidon_par::par_map(self.residues.len(), self.n(), |j| {
            let mut out = vec![0u64; self.n()];
            automorphism_add_row(&mut out, &self.residues[j], g, primes[j]);
            out
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: Form::Coeff,
        }
    }

    /// Applies the Galois automorphism `X ↦ X^g` in the **evaluation
    /// domain**: a pure slot permutation, identical for every limb and
    /// free of the negacyclic sign logic (see
    /// [`he_ntt::galois_permutation`]).
    ///
    /// Bit-exact with the coefficient-domain route:
    /// `p.automorphism(g).into_eval() == p.clone().into_eval().automorphism_eval(g)`.
    /// This is the primitive behind rotation hoisting — digits already in
    /// evaluation form can be rotated without any NTT traffic.
    ///
    /// # Panics
    ///
    /// Panics unless in evaluation form, or if `g` is even.
    pub fn automorphism_eval(&self, g: u64) -> Self {
        assert_eq!(
            self.form,
            Form::Eval,
            "eval-domain automorphism needs evaluation form"
        );
        let n = self.n();
        let _span = crate::tel::pointwise().span((self.residues.len() * n) as u64);
        // One index table for all limbs: the slot exponent law depends
        // only on (j, N), never on the prime.
        let perm = he_ntt::galois_permutation(n, g);
        let residues = poseidon_par::par_map(self.residues.len(), n, |j| {
            let src = &self.residues[j];
            perm.iter().map(|&k| src[k]).collect()
        });
        Self {
            basis: self.basis.clone(),
            residues,
            form: Form::Eval,
        }
    }

    /// Consumes the polynomial, yielding its residue vectors (so callers
    /// can recycle the allocations through `poseidon_par::scratch`).
    #[inline]
    pub fn into_residues(self) -> Vec<Vec<u64>> {
        self.residues
    }

    /// CRT-reconstructs coefficient `idx` as a centred big integer in
    /// `(-Q/2, Q/2]`, returned as `(sign_negative, magnitude)`.
    ///
    /// # Panics
    ///
    /// Panics unless in coefficient form.
    pub fn coeff_to_centered_bigint(&self, idx: usize) -> (bool, BigUint) {
        assert_eq!(self.form, Form::Coeff, "reconstruction needs coeff form");
        let q = self.basis.modulus_product();
        let hat_inv = self.basis.qhat_inv_mod_self();
        // v = Σ_j [a_j · q̂_j⁻¹ mod q_j] · q̂_j, then reduce mod Q.
        let mut acc = BigUint::zero();
        for (j, &hi) in hat_inv.iter().enumerate() {
            let t = self.basis.reducers()[j].mul(self.residues[j][idx], hi);
            let mut qhat = BigUint::one();
            for (i, &p) in self.basis.primes().iter().enumerate() {
                if i != j {
                    qhat.mul_u64_assign(p);
                }
            }
            qhat.mul_u64_assign(t);
            acc.add_assign(&qhat);
        }
        // acc < L·Q; reduce by subtracting Q at most L times.
        while acc >= q {
            acc.sub_assign(&q);
        }
        let half = q.half();
        if acc > half {
            (true, q - &acc)
        } else {
            (false, acc)
        }
    }

    /// Centred coefficients as `i64` (values must fit; intended for tests
    /// and small-noise polynomials).
    ///
    /// # Panics
    ///
    /// Panics unless in coefficient form, or if a centred value exceeds
    /// `i64`.
    pub fn to_centered_coeffs(&self) -> Vec<i64> {
        (0..self.n())
            .map(|i| {
                let (neg, mag) = self.coeff_to_centered_bigint(i);
                assert!(mag.bits() <= 63, "coefficient does not fit i64");
                let v = mag.limbs().first().copied().unwrap_or(0) as i64;
                if neg {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    /// Centred coefficients as `f64` (with precision loss for huge values);
    /// used by the CKKS decoder.
    ///
    /// # Panics
    ///
    /// Panics unless in coefficient form.
    pub fn to_centered_f64(&self) -> Vec<f64> {
        (0..self.n())
            .map(|i| {
                let (neg, mag) = self.coeff_to_centered_bigint(i);
                let v = mag.to_f64();
                if neg {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }
}

/// Adds the Galois automorphism `X ↦ X^g` of the coefficient-form residue
/// row `src` into `acc`, modulo `q`: `acc[i·g mod N] ± src[i]`, the sign
/// negative whenever `i·g mod 2N ≥ N` (the negacyclic wraparound). The row
/// form of [`RnsPoly::automorphism`], for callers that fold the permuted row
/// into one they already hold.
///
/// # Panics
///
/// Panics if `g` is even, the rows differ in length, or the length is not a
/// power of two.
pub fn automorphism_add_row(acc: &mut [u64], src: &[u64], g: u64, q: u64) {
    assert_eq!(g % 2, 1, "Galois element must be odd");
    assert_eq!(acc.len(), src.len(), "row length must match");
    assert!(src.len().is_power_of_two(), "ring degree is a power of two");
    let n = src.len() as u64;
    for (i, &v) in src.iter().enumerate() {
        let e = (i as u64).wrapping_mul(g) & (2 * n - 1);
        let (at, term) = if e < n {
            (e, v)
        } else {
            (e - n, neg_mod(v, q))
        };
        acc[at as usize] = add_mod(acc[at as usize], term, q);
    }
}

/// An evaluation-form polynomial prepared as a *fixed* multiplicand: every
/// residue carries its precomputed Shoup quotient `floor(w·2^64/q_j)`.
///
/// This is the RNS-vector analogue of [`ShoupMul`] — the software
/// counterpart of the paper's observation that one factor of `CMult` (the
/// encoded plaintext) is known ahead of the ciphertext. Building the
/// operand costs one `u128` division per residue; each subsequent
/// [`RnsPoly::mul_assign_shoup`] then replaces the per-element Barrett
/// reduction with two multiplies and a conditional subtraction. It pays for
/// itself whenever the operand multiplies more than one residue vector
/// (e.g. both ciphertext components in plaintext multiplication).
///
/// # Examples
///
/// ```
/// use he_rns::{RnsBasis, RnsPoly, ShoupOperand};
/// let b = RnsBasis::generate(16, 28, 2);
/// let x = RnsPoly::from_i64_coeffs(&b, &[3i64; 16]).into_eval();
/// let m_poly = RnsPoly::from_i64_coeffs(&b, &[2i64; 16]).into_eval();
/// let mut y = x.clone();
/// y.mul_assign_shoup(&ShoupOperand::new(&m_poly));
/// assert_eq!(y, x.mul(&m_poly)); // bit-identical to the Barrett path
/// ```
#[derive(Debug, Clone)]
pub struct ShoupOperand {
    basis: RnsBasis,
    /// The operand residues `w` (reduced), one vector per prime.
    residues: Vec<Vec<u64>>,
    /// Per-residue Shoup quotients, same shape as `residues`.
    quotients: Vec<Vec<u64>>,
}

impl ShoupOperand {
    /// Precomputes Shoup lanes for an evaluation-form polynomial.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in evaluation form.
    pub fn new(p: &RnsPoly) -> Self {
        assert_eq!(p.form, Form::Eval, "fixed multiplicands live in eval form");
        let primes = p.basis.primes();
        let quotients = p
            .residues
            .iter()
            .zip(primes)
            .map(|(r, &q)| r.iter().map(|&w| shoup_quotient(w, q)).collect())
            .collect();
        Self {
            basis: p.basis.clone(),
            residues: p.residues.clone(),
            quotients,
        }
    }

    /// The basis the operand lives in.
    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> RnsBasis {
        RnsBasis::generate(16, 28, 3)
    }

    #[test]
    fn shoup_operand_matches_barrett_mul() {
        let b = basis();
        let coeffs: Vec<i64> = (0..16).map(|i| 7 * i - 50).collect();
        let other: Vec<i64> = (0..16).map(|i| 3 - 2 * i).collect();
        let x = RnsPoly::from_i64_coeffs(&b, &coeffs).into_eval();
        let m_poly = RnsPoly::from_i64_coeffs(&b, &other).into_eval();
        let want = x.mul(&m_poly);
        let mut got = x.clone();
        got.mul_assign_shoup(&ShoupOperand::new(&m_poly));
        assert_eq!(want, got);
    }

    #[test]
    fn scalar_per_prime_matches_reference() {
        let b = basis();
        let x = RnsPoly::from_i64_coeffs(&b, &[5i64; 16]);
        // Scalars above q exercise the internal reduction.
        let scalars: Vec<u64> = b.primes().iter().map(|&q| q + 3).collect();
        let got = x.mul_scalar_per_prime(&scalars);
        assert_eq!(got.to_centered_coeffs(), vec![15i64; 16]);
    }

    #[test]
    fn add_matches_signed_semantics() {
        let b = basis();
        let x = RnsPoly::from_i64_coeffs(&b, &[3i64; 16]);
        let y = RnsPoly::from_i64_coeffs(&b, &[-5i64; 16]);
        assert_eq!(x.add(&y).to_centered_coeffs(), vec![-2i64; 16]);
        assert_eq!(x.sub(&y).to_centered_coeffs(), vec![8i64; 16]);
        assert_eq!(y.neg().to_centered_coeffs(), vec![5i64; 16]);
    }

    #[test]
    fn eval_round_trip_preserves_value() {
        let b = basis();
        let coeffs: Vec<i64> = (0..16).map(|i| i * i - 40).collect();
        let x = RnsPoly::from_i64_coeffs(&b, &coeffs);
        let y = x.clone().into_eval().into_coeff();
        assert_eq!(x, y);
    }

    #[test]
    fn ring_multiplication_via_eval() {
        let b = basis();
        // (1 + X) · (1 - X) = 1 - X²
        let mut c1 = vec![0i64; 16];
        c1[0] = 1;
        c1[1] = 1;
        let mut c2 = vec![0i64; 16];
        c2[0] = 1;
        c2[1] = -1;
        let p = RnsPoly::from_i64_coeffs(&b, &c1)
            .into_eval()
            .mul(&RnsPoly::from_i64_coeffs(&b, &c2).into_eval())
            .into_coeff();
        let got = p.to_centered_coeffs();
        let mut want = vec![0i64; 16];
        want[0] = 1;
        want[2] = -1;
        assert_eq!(got, want);
    }

    #[test]
    fn centered_reconstruction_handles_negatives() {
        let b = basis();
        let coeffs: Vec<i64> = (0..16)
            .map(|i| if i % 2 == 0 { -1000 } else { 1000 })
            .collect();
        let x = RnsPoly::from_i64_coeffs(&b, &coeffs);
        assert_eq!(x.to_centered_coeffs(), coeffs);
    }

    #[test]
    fn truncate_drops_highest_components() {
        let b = basis();
        let x = RnsPoly::from_i64_coeffs(&b, &[7i64; 16]);
        let t = x.truncate_basis(2);
        assert_eq!(t.level_count(), 2);
        assert_eq!(t.to_centered_coeffs(), vec![7i64; 16]);
    }

    #[test]
    fn automorphism_eval_matches_coefficient_route() {
        let b = basis();
        let coeffs: Vec<i64> = (0..16).map(|i| 3 * i - 20).collect();
        let p = RnsPoly::from_i64_coeffs(&b, &coeffs);
        for g in [3u64, 5, 15, 31] {
            let via_coeff = p.automorphism(g).into_eval();
            let via_eval = p.clone().into_eval().automorphism_eval(g);
            assert_eq!(via_coeff, via_eval, "g = {g}");
        }
    }

    #[test]
    #[should_panic(expected = "evaluation form")]
    fn automorphism_eval_rejects_coeff_form() {
        let b = basis();
        let p = RnsPoly::from_i64_coeffs(&b, &[1i64; 16]);
        let _ = p.automorphism_eval(3);
    }

    #[test]
    #[should_panic(expected = "eval form")]
    fn mul_rejects_coeff_form() {
        let b = basis();
        let x = RnsPoly::from_i64_coeffs(&b, &[1i64; 16]);
        let _ = x.mul(&x);
    }
}
