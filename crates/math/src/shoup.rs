//! Shoup multiplication: fast modular multiplication by a *fixed* operand.
//!
//! Inside an NTT butterfly the twiddle factor `w` is known ahead of time, so
//! the quotient constant `w' = floor(w · 2^64 / q)` can be precomputed. The
//! reduction then costs one high multiply, one low multiply, and one
//! conditional subtraction — the structure Poseidon hard-codes into its NTT
//! core RTL. We use it both for speed in the software library and to count
//! "one modular reduction" per fused TAM faithfully in the operator models.

/// Multiplier for a fixed operand `w` modulo `q < 2^63`.
///
/// # Examples
///
/// ```
/// use he_math::ShoupMul;
/// let m = ShoupMul::new(3, 17);
/// assert_eq!(m.mul(10), 13); // 30 mod 17
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    w: u64,
    /// `floor(w · 2^64 / q)`.
    w_shoup: u64,
    q: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup constant for operand `w` under modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= q` or `q >= 2^63`.
    #[inline]
    pub fn new(w: u64, q: u64) -> Self {
        assert!(q < (1u64 << 63), "modulus must be below 2^63");
        assert!(w < q, "operand must be reduced");
        let w_shoup = (((w as u128) << 64) / q as u128) as u64;
        Self { w, w_shoup, q }
    }

    /// The fixed operand `w`.
    #[inline]
    pub fn operand(&self) -> u64 {
        self.w
    }

    /// Computes `a · w mod q` for reduced `a`.
    ///
    /// The result of the core step lies in `[0, 2q)`; one conditional
    /// subtraction completes the reduction.
    #[inline]
    pub fn mul(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        let quot = ((self.w_shoup as u128 * a as u128) >> 64) as u64;
        let r = (self.w.wrapping_mul(a)).wrapping_sub(quot.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Computes `a · w mod q` in `[0, 2q)` for **any** `a`, reduced or not.
    ///
    /// This is the multiply of Harvey's lazy butterfly: with
    /// `w' = floor(w·2^64/q)` the quotient estimate
    /// `floor(w'·a / 2^64)` undershoots `floor(w·a/q)` by at most one for
    /// every `a < 2^64`, so the remainder lands in `[0, 2q)` with no
    /// correction — the caller keeps values in redundant representation
    /// and corrects once per stage group (or never, until the final
    /// reduction pass). Requires `q < 2^63` (guaranteed by [`new`]).
    ///
    /// [`new`]: Self::new
    #[inline(always)]
    pub fn mul_lazy_unreduced(&self, a: u64) -> u64 {
        let quot = ((self.w_shoup as u128 * a as u128) >> 64) as u64;
        (self.w.wrapping_mul(a)).wrapping_sub(quot.wrapping_mul(self.q))
    }
}

/// Precomputes the Shoup quotient `floor(w · 2^64 / q)` for a reduced
/// operand `w < q` — the lane-vector form of [`ShoupMul::new`] used when a
/// whole residue vector is a fixed multiplicand (plaintext lanes, twiddle
/// lanes) and storing per-element `ShoupMul` structs would triple memory.
///
/// # Panics
///
/// Panics (debug) if `w >= q`.
#[inline]
pub fn shoup_quotient(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "operand must be reduced");
    (((w as u128) << 64) / q as u128) as u64
}

/// Computes `a · w mod q` (fully reduced) from a raw `(w, quotient)` lane
/// pair as produced by [`shoup_quotient`]. Valid for any `a < 2^64` and
/// `q < 2^63`.
///
/// # Examples
///
/// ```
/// use he_math::shoup::{mul_shoup_lane, shoup_quotient};
/// let (w, q) = (3u64, 17u64);
/// let wq = shoup_quotient(w, q);
/// assert_eq!(mul_shoup_lane(10, w, wq, q), 13);
/// ```
#[inline(always)]
pub fn mul_shoup_lane(a: u64, w: u64, w_quot: u64, q: u64) -> u64 {
    let quot = ((w_quot as u128 * a as u128) >> 64) as u64;
    let r = (w.wrapping_mul(a)).wrapping_sub(quot.wrapping_mul(q));
    crate::modops::csub(r, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::mul_mod;

    #[test]
    fn matches_reference_exhaustively_small() {
        let q = 97u64;
        for w in 0..q {
            let m = ShoupMul::new(w, q);
            for a in 0..q {
                assert_eq!(m.mul(a), mul_mod(a, w, q), "w={w} a={a}");
            }
        }
    }

    #[test]
    fn matches_reference_large() {
        let q = (1u64 << 62) + 135; // not prime; Shoup does not require it
        let samples = [0u64, 1, q / 3, q / 2, q - 2, q - 1];
        for &w in &samples {
            let m = ShoupMul::new(w, q);
            for &a in &samples {
                assert_eq!(m.mul(a), mul_mod(a, w, q), "w={w} a={a}");
            }
        }
    }

    #[test]
    fn lazy_unreduced_accepts_redundant_inputs() {
        // Inputs up to 4q (the Harvey butterfly range) stay within [0, 2q)
        // and agree with the reference modulo q.
        let q = (1u64 << 61) - 1;
        let m = ShoupMul::new(q - 3, q);
        for a in [0u64, 1, q - 1, q, q + 5, 2 * q - 1, 2 * q, 4 * q - 1] {
            let r = m.mul_lazy_unreduced(a);
            assert!(r < 2 * q, "a={a}");
            assert_eq!(r % q, mul_mod(a % q, q - 3, q), "a={a}");
        }
    }

    #[test]
    fn lane_form_matches_struct_form() {
        let q = 786_433u64;
        for w in [0u64, 1, 5, q / 2, q - 1] {
            let m = ShoupMul::new(w, q);
            let wq = shoup_quotient(w, q);
            assert_eq!(wq, m.w_shoup);
            for a in [0u64, 1, q - 1, 2 * q - 1, u64::MAX] {
                assert_eq!(mul_shoup_lane(a, w, wq, q), mul_mod(a % q, w, q));
            }
        }
    }
}
