//! Barrett reduction — the scalar model of Poseidon's *Shared Barrett
//! Reduction (SBT)* operator core.
//!
//! The paper shares one Barrett-reduction datapath among the MM and NTT
//! cores (§IV-A). Here a [`BarrettReducer`] plays that role: every operator
//! model that needs `x mod q` for a product `x < q²` funnels through the same
//! precomputed constant, so the functional semantics of "sharing" the SBT
//! core is a shared `BarrettReducer` value.
//!
//! Barrett's scheme precomputes a fixed-point reciprocal of the modulus and
//! turns the division into a multiply and a shift. The reciprocal here is
//! `M = floor((2^128 − 1) / q)` — 128 fractional bits whatever the width of
//! `q` — so the quotient estimate `floor(x·M / 2^128)` is short of the true
//! quotient by at most 2 for **every** `u128` input, not only for `x < q²`.
//! That matters for the SBT *sharing*: a sum of many products reduced once
//! (Moddown's conversion, the key-switch inner product) costs the same two
//! conditional subtractions as a single product.

use crate::modops;

/// A precomputed Barrett reducer for a fixed modulus `q < 2^62`.
///
/// # Examples
///
/// ```
/// use he_math::BarrettReducer;
/// let r = BarrettReducer::new(0x7fff_ffff); // 2^31 - 1 (Mersenne prime)
/// assert_eq!(r.reduce((0x7fff_fffeu64 as u128) * 0x7fff_fffe), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrettReducer {
    q: u64,
    /// High and low words of `M = floor((2^128 − 1) / q)`.
    m_hi: u64,
    m_lo: u64,
}

impl BarrettReducer {
    /// The bound lazy accumulations budget to: callers that sum products
    /// before one shared reduction (the SBT reuse of Moddown and the
    /// key-switch inner product) keep the sum below it, which leaves two
    /// bits of headroom so adding one more product cannot wrap `u128`.
    pub const REDUCE_LIMIT: u128 = 1 << 126;

    /// Creates a reducer for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62` (three times the modulus must fit a
    /// word for the correction step).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        assert!(q < (1u64 << 62), "modulus must be below 2^62");
        let m = u128::MAX / u128::from(q);
        Self {
            q,
            m_hi: (m >> 64) as u64,
            m_lo: m as u64,
        }
    }

    /// The modulus this reducer was built for.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Reduces `x` to `x mod q`, for any `x`.
    ///
    /// With `E = floor(x·M / 2^128)`: `M·q > 2^128 − 1 − q` gives
    /// `x/q − x·M/2^128 < 1.5`, so `E` is the true quotient or up to 2 below
    /// it and `x − E·q < 3q < 2^64`. Only the low word of `E` and of `E·q`
    /// is therefore needed, and two conditional subtractions finish.
    ///
    /// # Examples
    ///
    /// ```
    /// let r = he_math::BarrettReducer::new(97);
    /// assert_eq!(r.reduce(96 * 96), 1);
    /// assert_eq!(r.reduce(u128::MAX), (u128::MAX % 97) as u64);
    /// ```
    #[inline]
    pub fn reduce(&self, x: u128) -> u64 {
        let (x_hi, x_lo) = ((x >> 64) as u64, x as u64);
        // x·M = x_hi·m_hi·2^128 + (x_hi·m_lo + x_lo·m_hi)·2^64 + x_lo·m_lo;
        // the low word of its top half, carries included.
        let a = u128::from(x_hi) * u128::from(self.m_lo);
        let b = u128::from(x_lo) * u128::from(self.m_hi);
        let c = (u128::from(x_lo) * u128::from(self.m_lo)) >> 64;
        let carry = (u128::from(a as u64) + u128::from(b as u64) + c) >> 64;
        let e = x_hi
            .wrapping_mul(self.m_hi)
            .wrapping_add((a >> 64) as u64)
            .wrapping_add((b >> 64) as u64)
            .wrapping_add(carry as u64);
        let mut r = x_lo.wrapping_sub(e.wrapping_mul(self.q));
        if r >= 2 * self.q {
            r -= 2 * self.q;
        }
        if r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Multiplies two reduced residues modulo `q`.
    ///
    /// # Examples
    ///
    /// ```
    /// let r = he_math::BarrettReducer::new(97);
    /// assert_eq!(r.mul(50, 2), 3);
    /// ```
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce(a as u128 * b as u128)
    }

    /// Adds two reduced residues modulo `q` (delegates to the MA scheme).
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        modops::add_mod(a, b, self.q)
    }

    /// Subtracts two reduced residues modulo `q`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        modops::sub_mod(a, b, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::mul_mod;

    #[test]
    fn matches_reference_small() {
        let r = BarrettReducer::new(97);
        for a in 0..97u64 {
            for b in 0..97u64 {
                assert_eq!(r.mul(a, b), mul_mod(a, b, 97));
            }
        }
    }

    #[test]
    fn matches_reference_large_modulus() {
        let q = (1u64 << 61) - 1; // Mersenne prime 2^61 - 1
        let r = BarrettReducer::new(q);
        let samples = [0u64, 1, 2, q / 2, q - 2, q - 1, 123_456_789_012_345];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(r.mul(a, b), mul_mod(a, b, q), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn reduce_handles_full_square_range() {
        let q = 0xFFFF_FFFBu64; // largest 32-bit prime
        let r = BarrettReducer::new(q);
        assert_eq!(r.reduce((q as u128 - 1) * (q as u128 - 1)), 1);
        assert_eq!(r.reduce(0), 0);
        assert_eq!(r.reduce(q as u128), 0);
        assert_eq!(r.reduce(q as u128 + 1), 1);
    }

    #[test]
    fn reduce_is_exact_far_beyond_the_square() {
        // Sums of many products against a small modulus: the regime where a
        // reciprocal with only 2·bitlen(q) fractional bits needs thousands
        // of corrections.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for q in [
            2u64,
            3,
            4,
            97,
            (1 << 31) - 1,
            1_099_511_480_321, // 40 bits
            (1u64 << 61) - 1,
            (1u64 << 62) - 57,
            (1u64 << 62) - 1,
        ] {
            let r = BarrettReducer::new(q);
            for x in [
                0u128,
                1,
                u128::MAX,
                u128::MAX - 1,
                1 << 126,
                (1 << 127) + 12345,
            ] {
                assert_eq!(u128::from(r.reduce(x)), x % u128::from(q), "q={q} x={x}");
            }
            for _ in 0..2000 {
                let x = (u128::from(next()) << 64) | u128::from(next());
                let x = x >> (next() % 128);
                assert_eq!(u128::from(r.reduce(x)), x % u128::from(q), "q={q} x={x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be at least 2")]
    fn rejects_tiny_modulus() {
        let _ = BarrettReducer::new(1);
    }
}
