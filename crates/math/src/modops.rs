//! Plain modular arithmetic on `u64` residues.
//!
//! All functions assume their residue inputs are already reduced
//! (`< modulus`) unless documented otherwise, mirroring the invariant the
//! paper's MA core relies on ("each input polynomial has already performed
//! modular reduction", §IV-B). Violations are caught by `debug_assert!`.

/// Adds two residues modulo `q` using the compare-and-correct scheme of the
/// paper's MA core (Eq. 5): compute `a + b` and subtract `q` once if needed.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::add_mod(5, 6, 7), 4);
/// ```
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "inputs must be reduced");
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::sub_mod(3, 5, 7), 5);
/// ```
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "inputs must be reduced");
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates a residue modulo `q`.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::neg_mod(0, 7), 0);
/// assert_eq!(he_math::modops::neg_mod(2, 7), 5);
/// ```
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q, "input must be reduced");
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Conditionally subtracts `m` once: maps `[0, 2m)` to `[0, m)`.
///
/// The correction step of every lazy-reduction kernel: Harvey butterflies
/// keep values in a redundant range (`[0, 2q)` or `[0, 4q)`) and call this
/// at entry or at stage-group boundaries instead of running a full modular
/// reduction per stage. Branch-predictable and compiled to a `cmov`, it is
/// the software analogue of the single compare-and-correct stage of the
/// paper's MA core.
///
/// Unlike the reduced-input operations above, `a` may be any value below
/// `2m`; larger inputs are folded by only one `m`, so chains of `csub`
/// calls (`csub(csub(v, 2q), q)`) handle wider redundant ranges.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::csub(9, 7), 2);
/// assert_eq!(he_math::modops::csub(5, 7), 5);
/// ```
#[inline(always)]
pub fn csub(a: u64, m: u64) -> u64 {
    if a >= m {
        a - m
    } else {
        a
    }
}

/// Multiplies two residues modulo `q` through a `u128` intermediate.
///
/// This is the reference implementation that the Barrett and Shoup fast
/// paths are property-tested against.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::mul_mod(6, 6, 7), 1);
/// ```
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(q > 0);
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Raises `base` to `exp` modulo `q` by square-and-multiply.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::pow_mod(2, 10, 1_000_000_007), 1024);
/// ```
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    debug_assert!(q > 0);
    base %= q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo `q` for prime `q` via Fermat's
/// little theorem. Returns `None` when `a ≡ 0 (mod q)`.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::inv_mod_prime(3, 7), Some(5));
/// assert_eq!(he_math::modops::inv_mod_prime(0, 7), None);
/// ```
pub fn inv_mod_prime(a: u64, q: u64) -> Option<u64> {
    if a.is_multiple_of(q) {
        return None;
    }
    Some(pow_mod(a, q - 2, q))
}

/// Reduces a signed integer into `[0, q)`.
///
/// # Examples
///
/// ```
/// assert_eq!(he_math::modops::reduce_i64(-1, 7), 6);
/// assert_eq!(he_math::modops::reduce_i64(8, 7), 1);
/// ```
#[inline]
pub fn reduce_i64(a: i64, q: u64) -> u64 {
    (a as i128).rem_euclid(q as i128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(6, 6, 7), 5);
        assert_eq!(add_mod(0, 0, 7), 0);
        assert_eq!(add_mod(3, 3, 7), 6);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub_mod(0, 1, 7), 6);
        assert_eq!(sub_mod(6, 6, 7), 0);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in 0..13u64 {
            assert_eq!(add_mod(a, neg_mod(a, 13), 13), 0);
        }
    }

    #[test]
    fn pow_edge_cases() {
        assert_eq!(pow_mod(0, 0, 5), 1);
        assert_eq!(pow_mod(5, 0, 5), 1);
        assert_eq!(pow_mod(7, 1, 11), 7);
        // Goldilocks prime: 2^64 ≡ 2^32 - 1 (mod 2^64 - 2^32 + 1).
        let goldilocks = 0xFFFF_FFFF_0000_0001u64;
        assert_eq!(pow_mod(2, 64, goldilocks), (1u64 << 32) - 1);
    }

    #[test]
    fn fermat_inverse_round_trips() {
        let q = 1_000_000_007u64;
        for a in [1u64, 2, 999, q - 1] {
            let inv = inv_mod_prime(a, q).unwrap();
            assert_eq!(mul_mod(a, inv, q), 1);
        }
    }
}
