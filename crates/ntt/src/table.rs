//! Precomputed twiddle tables for the negacyclic NTT.

use he_math::modops::{inv_mod_prime, pow_mod};
use he_math::prime::root_of_unity;
use he_math::{BarrettReducer, ShoupMul};

/// Telemetry scopes for the transform hot paths (items = N).
mod tel {
    poseidon_telemetry::scope_fn! {
        pub forward = "ntt.forward";
        pub inverse = "ntt.inverse";
    }
}

/// Precomputed transform tables for one `(N, q)` pair.
///
/// Holds the powers of the 2N-th primitive root ψ (and its inverse) in
/// bit-reversed order together with their Shoup constants, plus `N⁻¹ mod q`
/// for the inverse transform.
///
/// # Examples
///
/// ```
/// use he_ntt::NttTable;
/// let q = he_math::prime::ntt_prime(30, 1 << 9).unwrap();
/// let t = NttTable::new(256, q);
/// let mut a: Vec<u64> = (0..256u64).collect();
/// let orig = a.clone();
/// t.forward(&mut a);
/// t.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    q: u64,
    log_n: u32,
    /// ψ^brv(i) with Shoup constants, for the forward CT transform.
    psi_rev: Vec<ShoupMul>,
    /// ψ^{-brv(i)} with Shoup constants, for the inverse GS transform.
    inv_psi_rev: Vec<ShoupMul>,
    /// N⁻¹ mod q.
    n_inv: ShoupMul,
    /// Shared Barrett reducer (the crate-level stand-in for the SBT core).
    reducer: BarrettReducer,
}

impl NttTable {
    /// Builds tables for ring degree `n` (a power of two ≥ 2) and NTT prime
    /// `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, if `q ≥ 2^62`, or if `q` is not
    /// an NTT prime for this degree. The forward kernel carries Harvey's
    /// lazy representatives in `[0, 4q)` through the whole transform, and
    /// `4q` must fit in a `u64`.
    pub fn new(n: usize, q: u64) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two ≥ 2"
        );
        assert!(q < 1 << 62, "q must be below 2^62 (4q must fit in a u64)");
        assert!(
            (q - 1).is_multiple_of(2 * n as u64),
            "q must satisfy q ≡ 1 (mod 2n)"
        );
        let log_n = n.trailing_zeros();
        let psi = root_of_unity(2 * n as u64, q);
        let psi_inv = inv_mod_prime(psi, q).expect("psi is a unit");
        let mut psi_rev = Vec::with_capacity(n);
        let mut inv_psi_rev = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let r = bit_reverse(i, log_n);
            psi_rev.push(ShoupMul::new(pow_mod(psi, r, q), q));
            inv_psi_rev.push(ShoupMul::new(pow_mod(psi_inv, r, q), q));
        }
        let n_inv = ShoupMul::new(inv_mod_prime(n as u64, q).expect("n is a unit"), q);
        Self {
            n,
            q,
            log_n,
            psi_rev,
            inv_psi_rev,
            n_inv,
            reducer: BarrettReducer::new(q),
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Modulus `q`.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// `log2(N)`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Estimated element operations of one transform, `N·log₂N` (each of
    /// its `N/2·log₂N` butterflies is a multiply and an add/sub pair): the
    /// per-limb weight NTT call sites hand to `poseidon_par`.
    #[inline]
    pub fn weight(&self) -> usize {
        self.n * self.log_n as usize
    }

    /// The shared Barrett reducer for this modulus.
    #[inline]
    pub fn reducer(&self) -> &BarrettReducer {
        &self.reducer
    }

    /// Raw ψ^brv(i) value at table index `i` (used by the fused kernels).
    #[inline]
    pub(crate) fn psi_rev_value(&self, i: usize) -> u64 {
        self.psi_rev[i].operand()
    }

    /// Forward negacyclic NTT, in place (coefficient → evaluation order).
    ///
    /// Output is in bit-reversed evaluation order, matched by [`inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    ///
    /// [`inverse`]: Self::inverse
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal N");
        let _span = tel::forward().span(self.n as u64);
        // Injection point for the `NttTwiddle` fault site: a corrupted
        // twiddle BRAM word is modeled as corruption of the working vector
        // entering the butterfly network.
        poseidon_faults::tamper(poseidon_faults::FaultSite::NttTwiddle, a);
        crate::kernel::forward_fused(a, &self.psi_rev, self.q);
    }

    /// Inverse negacyclic NTT, in place (evaluation → coefficient order).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal N");
        let _span = tel::inverse().span(self.n as u64);
        poseidon_faults::tamper(poseidon_faults::FaultSite::NttTwiddle, a);
        crate::kernel::inverse_fused(a, &self.inv_psi_rev, &self.n_inv, self.q);
    }

    /// [`forward`](Self::forward) through the plain radix-2 transform of
    /// [`crate::negacyclic`] (a full reduction per stage, no telemetry or
    /// fault hooks) — the oracle the production kernel is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward_oracle(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal N");
        crate::negacyclic::forward_in_place(a, &self.psi_rev, self.q);
    }

    /// [`inverse`](Self::inverse) through the plain radix-2 transform — see
    /// [`forward_oracle`](Self::forward_oracle).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse_oracle(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal N");
        crate::negacyclic::inverse_in_place(a, &self.inv_psi_rev, &self.n_inv, self.q);
    }

    /// Negacyclic polynomial product `a · b mod (X^N + 1, q)` via three
    /// transforms (the CMult datapath of the paper's Fig. 2).
    ///
    /// # Examples
    ///
    /// ```
    /// use he_ntt::NttTable;
    /// let q = he_math::prime::ntt_prime(30, 64).unwrap();
    /// let t = NttTable::new(32, q);
    /// let mut x = vec![0u64; 32];
    /// x[31] = 1; // X^31
    /// let y = x.clone();
    /// let p = t.multiply(&x, &y); // X^62 = -X^30
    /// assert_eq!(p[30], q - 1);
    /// ```
    pub fn multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        // Both temporaries come from the per-thread scratch pool: once a
        // thread is warm, `multiply` performs no heap allocation beyond the
        // returned product itself.
        let mut fa = poseidon_par::scratch::take(a.len());
        fa.copy_from_slice(a);
        let mut fb = poseidon_par::scratch::take(b.len());
        fb.copy_from_slice(b);
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&*fb) {
            *x = self.reducer.mul(*x, *y);
        }
        poseidon_par::scratch::recycle(fb);
        self.inverse(&mut fa);
        fa
    }
}

/// Reverses the lowest `bits` bits of `v`.
#[inline]
pub fn bit_reverse(v: u64, bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        v.reverse_bits() >> (64 - bits)
    }
}

/// The slot permutation realising the Galois automorphism `X ↦ X^g` in the
/// evaluation domain: `out[j] = in[perm[j]]` satisfies
/// `NTT(a(X^g)) = perm(NTT(a))` for every polynomial `a`.
///
/// [`NttTable::forward`] leaves slot `j` holding the evaluation of `a` at
/// `ψ^(2·brv(j)+1)` (see [`crate::naive::negacyclic_ntt`]). Composing with
/// the automorphism, slot `j` of `a(X^g)` holds `a(ψ^((2·brv(j)+1)·g))` —
/// which is slot `k` of `NTT(a)` where `2·brv(k)+1 ≡ (2·brv(j)+1)·g
/// (mod 2N)`. The exponent law depends only on the slot index and `N`,
/// never on the prime, so one permutation serves every RNS limb, and no
/// negacyclic sign correction is needed (the eval-domain automorphism is a
/// pure permutation). This is what makes Halevi–Shoup hoisting cheap:
/// digits decomposed and forward-transformed once can be rotated by any
/// `g` without touching the NTT core again.
///
/// # Panics
///
/// Panics if `n` is not a power of two or `g` is even (even elements are
/// not units mod 2N and do not define ring automorphisms).
///
/// # Examples
///
/// ```
/// use he_ntt::NttTable;
/// use he_ntt::table::galois_permutation;
/// let n = 16;
/// let q = he_math::prime::ntt_prime(20, 2 * n as u64).unwrap();
/// let t = NttTable::new(n, q);
/// let mut a: Vec<u64> = (0..n as u64).collect();
/// // Coefficient-domain automorphism X ↦ X^3 of `a`…
/// let mut auto = vec![0u64; n];
/// for (i, &v) in a.iter().enumerate() {
///     let e = (i * 3) % (2 * n);
///     if e < n { auto[e] = v } else { auto[e - n] = (q - v) % q }
/// }
/// t.forward(&mut auto);
/// // …equals the permuted spectrum of `a`.
/// t.forward(&mut a);
/// let perm = galois_permutation(n, 3);
/// let permuted: Vec<u64> = perm.iter().map(|&k| a[k]).collect();
/// assert_eq!(auto, permuted);
/// ```
pub fn galois_permutation(n: usize, g: u64) -> Vec<usize> {
    assert!(n.is_power_of_two(), "n must be a power of two");
    assert_eq!(g % 2, 1, "Galois element must be odd");
    let log_n = n.trailing_zeros();
    let two_n = 2 * n as u64;
    let g = g % two_n;
    (0..n as u64)
        .map(|j| {
            // Exponent evaluated at slot j, composed with the automorphism.
            let e = ((2 * bit_reverse(j, log_n) + 1) * g) % two_n;
            // Odd · odd stays odd mod 2N, so (e − 1)/2 is exact.
            bit_reverse((e - 1) / 2, log_n) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        assert_eq!(bit_reverse(1, 1), 1);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let q = he_math::prime::ntt_prime(30, 1 << 5).unwrap();
        let t = NttTable::new(16, q);
        let orig: Vec<u64> = (0..16u64).map(|i| (i * i * 37 + 11) % q).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "transform must not be identity");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn constant_transforms_to_constant_vector() {
        let q = he_math::prime::ntt_prime(28, 1 << 4).unwrap();
        let t = NttTable::new(8, q);
        let mut a = vec![0u64; 8];
        a[0] = 5;
        t.forward(&mut a);
        assert!(
            a.iter().all(|&v| v == 5),
            "constant poly evaluates to itself"
        );
    }

    #[test]
    #[should_panic(expected = "q must satisfy")]
    fn rejects_bad_modulus() {
        let _ = NttTable::new(16, 101); // 101 ≢ 1 mod 32
    }

    #[test]
    #[should_panic(expected = "q must be below 2^62")]
    fn rejects_modulus_past_the_lazy_range() {
        // The smallest NTT prime for n = 16 at or above 2^62: a valid
        // modulus in every other respect, but 4q overflows a u64.
        let q = (0..)
            .map(|k: u64| (1 << 62) + 1 + 32 * k)
            .find(|&p| he_math::prime::is_prime(p))
            .unwrap();
        let _ = NttTable::new(16, q);
    }

    #[test]
    fn galois_permutation_matches_coefficient_automorphism() {
        let n = 32usize;
        let q = he_math::prime::ntt_prime(30, 2 * n as u64).unwrap();
        let t = NttTable::new(n, q);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i * 7 + 3) % q).collect();
        // Conjugation 2N−1 alongside rotation-style elements.
        for g in [3u64, 5, 25, 2 * n as u64 - 1] {
            // Coefficient-domain: X ↦ X^g with the negacyclic sign.
            let mut auto = vec![0u64; n];
            for (i, &v) in a.iter().enumerate() {
                let e = (i as u64 * g) % (2 * n as u64);
                if (e as usize) < n {
                    auto[e as usize] = v;
                } else {
                    auto[e as usize - n] = (q - v) % q;
                }
            }
            t.forward(&mut auto);
            let mut spec = a.clone();
            t.forward(&mut spec);
            let perm = galois_permutation(n, g);
            let permuted: Vec<u64> = perm.iter().map(|&k| spec[k]).collect();
            assert_eq!(auto, permuted, "g = {g}");
        }
    }

    #[test]
    fn galois_permutation_agrees_with_naive_oracle() {
        // Independently of the fast transform: apply the automorphism in
        // coefficients and evaluate with the O(N²) DFT definition.
        let n = 16usize;
        let q = he_math::prime::ntt_prime(20, 2 * n as u64).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 1) % q).collect();
        let g = 9u64;
        let mut auto = vec![0u64; n];
        for (i, &v) in a.iter().enumerate() {
            let e = (i as u64 * g) % (2 * n as u64);
            if (e as usize) < n {
                auto[e as usize] = v;
            } else {
                auto[e as usize - n] = (q - v) % q;
            }
        }
        let want = crate::naive::negacyclic_ntt(&auto, q);
        let spec = crate::naive::negacyclic_ntt(&a, q);
        let perm = galois_permutation(n, g);
        let got: Vec<u64> = perm.iter().map(|&k| spec[k]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn galois_permutation_identity_and_inverse() {
        let n = 16usize;
        assert_eq!(galois_permutation(n, 1), (0..n).collect::<Vec<_>>());
        // g·g⁻¹ ≡ 1 (mod 2N) composes to the identity permutation.
        let g = 5u64;
        let g_inv = 13u64; // 5·13 = 65 ≡ 1 (mod 32)
        let p = galois_permutation(n, g);
        let p_inv = galois_permutation(n, g_inv);
        for j in 0..n {
            assert_eq!(p_inv[p[j]], j);
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N/2) · X^(N/2) = X^N = -1 in the ring.
        let q = he_math::prime::ntt_prime(30, 1 << 7).unwrap();
        let t = NttTable::new(64, q);
        let mut x = vec![0u64; 64];
        x[32] = 1;
        let p = t.multiply(&x, &x);
        assert_eq!(p[0], q - 1);
        assert!(p[1..].iter().all(|&v| v == 0));
    }
}
