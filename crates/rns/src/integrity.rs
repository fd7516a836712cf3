//! Residue-level integrity checking: RRNS guard limbs and FNV checksums.
//!
//! Poseidon's datapath moves every ciphertext limb through register files,
//! a scratchpad, and 32 HBM channels; a single flipped residue silently
//! decrypts to garbage. Redundant-arithmetic NTT datapaths (Alexakis et
//! al.) show the natural detection lever for an RNS pipeline is *residue
//! redundancy*: carry one extra modulus and check consistency. This module
//! implements that idea in a form that survives the mod-`Q` wraps of real
//! CKKS arithmetic, plus cheap FNV-1a checksums for duplicate-execution
//! comparison.
//!
//! # The guard projection
//!
//! A naive RRNS guard (`g_i = x_i mod q_r`, carried through every op) is
//! unsound here: pointwise ops reduce mod `Q`, so after an add the true
//! value has wrapped by an *unknown* multiple of `Q` that the guard limb
//! never saw, and after a multiply the wrap count is unbounded. Instead we
//! anchor the guard with the HPS fast-basis-conversion projection (the
//! same Eq. 1 kernel `RNSconv` uses):
//!
//! ```text
//! s(x)_i = Σ_j [x_{j,i} · q̂_j⁻¹]_{q_j} · (q̂_j mod q_r)  (mod q_r)
//!        = x̂_i + e·Q                                     (mod q_r),  0 ≤ e ≤ L
//! ```
//!
//! where `x̂_i ∈ [0, Q)` is the canonical representative. The invariant is
//! `guard_i ≡ x̂_i + m·Q (mod q_r)` with `|m|` bounded by a tracked
//! [`drift`](GuardedPoly::drift): anchoring gives `m ∈ [0, L]`; each
//! add/sub/neg wraps at most once more, so the bound grows by one per op.
//! [`verify`](GuardedPoly::verify) re-projects from the (possibly
//! corrupted) residues and accepts only if the difference is `t·(Q mod
//! q_r)` for `|t| ≤ drift + L` — a set of a few dozen values out of
//! `q_r ≈ 2²⁸`, so any residue corruption is detected except with
//! probability `≈ (2·drift+2L+1)/q_r < 2⁻²⁰` per coefficient.
//!
//! Multiplication and NTT form changes cannot carry the guard (unbounded
//! wrap / residue permutation), so those paths **verify the inputs, run
//! the op, and re-anchor** — exactly the operator-retire check boundaries
//! the accelerator's MM and NTT cores would implement in hardware.
//!
//! # Examples
//!
//! ```
//! use he_rns::{RnsBasis, RnsPoly};
//! use he_rns::integrity::GuardedPoly;
//!
//! let basis = RnsBasis::generate(16, 28, 3);
//! let x = RnsPoly::from_i64_coeffs(&basis, &[7i64; 16]);
//! let y = RnsPoly::from_i64_coeffs(&basis, &[-3i64; 16]);
//! let qr = GuardedPoly::guard_prime_for(&basis);
//! let gx = GuardedPoly::attach(x, qr);
//! let gy = GuardedPoly::attach(y, qr);
//! let sum = gx.add(&gy);
//! assert!(sum.verify().is_ok());
//!
//! // A corrupted residue is caught:
//! let mut bad = sum.clone();
//! bad.poly_mut().all_residues_mut()[0][3] ^= 1 << 12;
//! assert!(bad.verify().is_err());
//! ```

use he_math::modops::{add_mod, neg_mod, sub_mod};
use he_math::prime::ntt_prime_chain;
use he_math::BarrettReducer;

use crate::basis::RnsBasis;
use crate::poly::{Form, RnsPoly};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of a word slice. The same digest
/// the pinned-digest tests use, exposed here so checksum comparisons
/// across duplicate executions agree byte-for-byte.
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a digest of an entire polynomial: every limb's residues in order,
/// then the form tag, so coeff- and eval-form states never collide.
pub fn digest_poly(p: &RnsPoly) -> u64 {
    let mut h = FNV_OFFSET;
    for j in 0..p.level_count() {
        for &w in p.residues(j) {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h ^= match p.form() {
        Form::Coeff => 1,
        Form::Eval => 2,
    };
    h.wrapping_mul(FNV_PRIME)
}

/// A detected datapath integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The RRNS guard projection disagreed with the carried guard limb at
    /// the given coefficient/slot index.
    GuardMismatch {
        /// First coefficient (or eval slot) where the check failed.
        index: usize,
    },
    /// Duplicate executions of the same kernel produced different digests.
    ChecksumMismatch {
        /// Name of the checked boundary (e.g. `"keyswitch"`, `"ntt"`).
        site: &'static str,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::GuardMismatch { index } => {
                write!(f, "redundant-residue guard mismatch at coefficient {index}")
            }
            IntegrityError::ChecksumMismatch { site } => {
                write!(f, "checksum mismatch across duplicate execution at {site}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// An [`RnsPoly`] carrying a redundant guard limb modulo an extra prime
/// `q_r` disjoint from its basis. See the module docs for the invariant
/// and the wrap-drift accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedPoly {
    poly: RnsPoly,
    red: BarrettReducer,
    guard: Vec<u64>,
    drift: u64,
}

impl GuardedPoly {
    /// Picks a deterministic guard prime for `basis`: the first 28-bit NTT
    /// prime (for this ring degree) not already in the basis, so the guard
    /// channel is the same kind of modulus the datapath lanes carry.
    pub fn guard_prime_for(basis: &RnsBasis) -> u64 {
        let chain = ntt_prime_chain(28, 2 * basis.n() as u64, basis.len() + 1);
        *chain
            .iter()
            .find(|q| !basis.primes().contains(q))
            .expect("chain longer than basis always has a fresh prime")
    }

    /// Attaches a freshly anchored guard limb modulo `guard_prime`.
    ///
    /// # Panics
    ///
    /// Panics if `guard_prime` already belongs to the polynomial's basis
    /// (the projection would degenerate to a plain residue copy).
    pub fn attach(poly: RnsPoly, guard_prime: u64) -> Self {
        assert!(
            !poly.basis().primes().contains(&guard_prime),
            "guard prime must be disjoint from the basis"
        );
        let red = BarrettReducer::new(guard_prime);
        let guard = project(&poly, &red);
        let drift = poly.level_count() as u64;
        Self {
            poly,
            red,
            guard,
            drift,
        }
    }

    /// The guarded polynomial.
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// Mutable access to the polynomial — any change desynchronises the
    /// guard, which is the point for fault-injection tests.
    #[inline]
    pub fn poly_mut(&mut self) -> &mut RnsPoly {
        &mut self.poly
    }

    /// The guard modulus `q_r`.
    #[inline]
    pub fn guard_prime(&self) -> u64 {
        self.red.modulus()
    }

    /// Current bound on the wrap-multiple drift `|m|` (module docs).
    #[inline]
    pub fn drift(&self) -> u64 {
        self.drift
    }

    /// Discards the guard, yielding the polynomial.
    #[inline]
    pub fn into_inner(self) -> RnsPoly {
        self.poly
    }

    /// Re-projects the guard from the residues and checks consistency.
    /// Returns the first offending coefficient on mismatch.
    pub fn verify(&self) -> Result<(), IntegrityError> {
        let fresh = project(&self.poly, &self.red);
        let qr = self.red.modulus();
        let q_mod_r = self.poly.basis().modulus_product().rem_u64(qr);
        // Acceptable differences: t·(Q mod q_r) for |t| ≤ drift + L.
        let span = self.drift + self.poly.level_count() as u64;
        let mut accept = Vec::with_capacity(2 * span as usize + 1);
        let mut pos = 0u64;
        accept.push(0u64);
        for _ in 0..span {
            pos = add_mod(pos, q_mod_r, qr);
            accept.push(pos);
            accept.push(neg_mod(pos, qr));
        }
        accept.sort_unstable();
        accept.dedup();
        for (i, (&g, &f)) in self.guard.iter().zip(&fresh).enumerate() {
            let d = sub_mod(g, f, qr);
            if accept.binary_search(&d).is_err() {
                return Err(IntegrityError::GuardMismatch { index: i });
            }
        }
        Ok(())
    }

    /// Verifies, then re-anchors the guard (drift resets to the anchor
    /// bound `L`). Called at operator-retire boundaries.
    pub fn reanchor(&mut self) -> Result<(), IntegrityError> {
        self.verify()?;
        self.guard = project(&self.poly, &self.red);
        self.drift = self.poly.level_count() as u64;
        Ok(())
    }

    fn assert_same_guard(&self, other: &Self) {
        assert_eq!(
            self.red.modulus(),
            other.red.modulus(),
            "guarded operands must share a guard prime"
        );
    }

    /// Guarded addition: the guard limb rides through the add; drift grows
    /// by one (at most one extra mod-`Q` wrap).
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_guard(other);
        let qr = self.red.modulus();
        let guard = self
            .guard
            .iter()
            .zip(&other.guard)
            .map(|(&a, &b)| add_mod(a, b, qr))
            .collect();
        Self {
            poly: self.poly.add(&other.poly),
            red: self.red,
            guard,
            drift: self.drift + other.drift + 1,
        }
    }

    /// Guarded subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.assert_same_guard(other);
        let qr = self.red.modulus();
        let guard = self
            .guard
            .iter()
            .zip(&other.guard)
            .map(|(&a, &b)| sub_mod(a, b, qr))
            .collect();
        Self {
            poly: self.poly.sub(&other.poly),
            red: self.red,
            guard,
            drift: self.drift + other.drift + 1,
        }
    }

    /// Guarded negation.
    pub fn neg(&self) -> Self {
        let qr = self.red.modulus();
        let guard = self.guard.iter().map(|&a| neg_mod(a, qr)).collect();
        Self {
            poly: self.poly.neg(),
            red: self.red,
            guard,
            drift: self.drift + 1,
        }
    }

    /// Guarded multiplication (the MM operator): the wrap count of a
    /// product is unbounded, so both inputs are verified *before* the
    /// multiply and the result is re-anchored — the retire-boundary
    /// pattern of the accelerator's MM core.
    pub fn mul(&self, other: &Self) -> Result<Self, IntegrityError> {
        self.assert_same_guard(other);
        self.verify()?;
        other.verify()?;
        let poly = self.poly.mul(&other.poly);
        let guard = project(&poly, &self.red);
        let drift = poly.level_count() as u64;
        Ok(Self {
            poly,
            red: self.red,
            guard,
            drift,
        })
    }

    /// Guarded forward NTT: verifies at transform entry, transforms, and
    /// re-anchors at exit (the guard is form-specific — an NTT permutes
    /// the residues it was projected from).
    pub fn into_eval(mut self) -> Result<Self, IntegrityError> {
        self.verify()?;
        self.poly = self.poly.into_eval();
        self.guard = project(&self.poly, &self.red);
        self.drift = self.poly.level_count() as u64;
        Ok(self)
    }

    /// Guarded inverse NTT: verify at entry, re-anchor at exit.
    pub fn into_coeff(mut self) -> Result<Self, IntegrityError> {
        self.verify()?;
        self.poly = self.poly.into_coeff();
        self.guard = project(&self.poly, &self.red);
        self.drift = self.poly.level_count() as u64;
        Ok(self)
    }
}

/// The HPS projection of every coefficient onto the guard modulus:
/// `s_i = Σ_j [x_{j,i}·q̂_j⁻¹]_{q_j}·(q̂_j mod q_r) mod q_r = x̂_i + e·Q`.
/// Form-agnostic: in eval form the CRT applies slot-wise just the same.
fn project(poly: &RnsPoly, red: &BarrettReducer) -> Vec<u64> {
    let basis = poly.basis();
    let qr = red.modulus();
    let hat_inv = basis.qhat_inv_mod_self();
    let hat_mod_r: Vec<u64> = (0..basis.len())
        .map(|j| {
            let mut acc = 1u64;
            for (i, &q) in basis.primes().iter().enumerate() {
                if i != j {
                    acc = red.mul(acc, q % qr);
                }
            }
            acc
        })
        .collect();
    let reducers = basis.reducers();
    (0..poly.n())
        .map(|c| {
            let mut acc: u128 = 0;
            for j in 0..basis.len() {
                let t = reducers[j].mul(poly.residues(j)[c], hat_inv[j]);
                acc += u128::from(t) * u128::from(hat_mod_r[j]);
            }
            red.reduce(acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> RnsBasis {
        RnsBasis::generate(16, 28, 3)
    }

    fn guarded(b: &RnsBasis, coeffs: &[i64]) -> GuardedPoly {
        let qr = GuardedPoly::guard_prime_for(b);
        GuardedPoly::attach(RnsPoly::from_i64_coeffs(b, coeffs), qr)
    }

    #[test]
    fn guard_prime_is_fresh() {
        let b = basis();
        let qr = GuardedPoly::guard_prime_for(&b);
        assert!(!b.primes().contains(&qr));
        assert!(he_math::prime::is_prime(qr));
    }

    #[test]
    fn clean_polynomial_verifies() {
        let b = basis();
        let g = guarded(&b, &[123i64; 16]);
        assert_eq!(g.verify(), Ok(()));
    }

    #[test]
    fn guard_survives_pointwise_chains() {
        let b = basis();
        let x = guarded(&b, &(0..16).map(|i| 31 * i - 200).collect::<Vec<_>>());
        let y = guarded(&b, &(0..16).map(|i| -17 * i + 99).collect::<Vec<_>>());
        let z = x.add(&y).sub(&y).neg().add(&x.neg());
        assert_eq!(z.verify(), Ok(()));
        // Value semantics are untouched by the guard: z = −x − x = −2x.
        let want = RnsPoly::from_i64_coeffs(
            &b,
            &(0..16).map(|i| -2 * (31 * i - 200)).collect::<Vec<_>>(),
        );
        assert_eq!(z.poly().to_centered_coeffs(), want.to_centered_coeffs());
    }

    #[test]
    fn mul_verifies_and_reanchors() {
        let b = basis();
        let x = guarded(&b, &[3i64; 16]);
        let xe = x.into_eval().expect("clean transform");
        let prod = xe.mul(&xe).expect("clean multiply");
        assert_eq!(prod.drift(), b.len() as u64);
        let back = prod.into_coeff().expect("clean inverse transform");
        assert_eq!(back.verify(), Ok(()));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let b = basis();
        let base = guarded(&b, &(0..16).map(|i| 1000 - 111 * i).collect::<Vec<_>>());
        for limb in 0..b.len() {
            for bit in 0..28u32 {
                let mut bad = base.clone();
                bad.poly_mut().all_residues_mut()[limb][5] ^= 1 << bit;
                assert!(
                    bad.verify().is_err(),
                    "flip of bit {bit} in limb {limb} went undetected"
                );
            }
        }
    }

    #[test]
    fn guard_limb_corruption_is_detected_too() {
        let b = basis();
        let mut g = guarded(&b, &[42i64; 16]);
        g.guard[7] ^= 1 << 9;
        assert!(matches!(
            g.verify(),
            Err(IntegrityError::GuardMismatch { index: 7 })
        ));
    }

    #[test]
    fn reanchor_resets_drift() {
        let b = basis();
        let x = guarded(&b, &[5i64; 16]);
        let mut z = x.add(&x).add(&x);
        assert!(z.drift() > b.len() as u64);
        z.reanchor().expect("clean reanchor");
        assert_eq!(z.drift(), b.len() as u64);
    }

    #[test]
    fn transform_entry_check_catches_prior_corruption() {
        let b = basis();
        let mut g = guarded(&b, &[9i64; 16]);
        g.poly_mut().all_residues_mut()[1][0] ^= 1 << 3;
        assert!(g.into_eval().is_err());
    }

    #[test]
    fn fnv_digest_is_stable_and_form_sensitive() {
        let b = basis();
        let p = RnsPoly::from_i64_coeffs(&b, &[7i64; 16]);
        assert_eq!(digest_poly(&p), digest_poly(&p.clone()));
        let e = p.clone().into_eval();
        assert_ne!(digest_poly(&p), digest_poly(&e));
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
        assert_ne!(fnv1a_words(&[1]), fnv1a_words(&[2]));
    }
}
