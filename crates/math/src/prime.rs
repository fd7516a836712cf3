//! Prime generation for NTT-friendly modulus chains.
//!
//! RNS-CKKS needs chains of primes `q ≡ 1 (mod 2N)` so that the ring
//! `Z_q[X]/(X^N + 1)` has a 2N-th primitive root of unity (enabling the
//! negacyclic NTT). This module provides a deterministic Miller–Rabin test
//! for `u64`, a search for such primes at a given bit size, and
//! primitive-root discovery.

use crate::modops::{mul_mod, pow_mod};

/// Deterministically tests whether `n` is prime (valid for all `u64`).
///
/// Uses the 12-witness set that is known to be sufficient below 3.3·10^24.
///
/// # Examples
///
/// ```
/// assert!(he_math::prime::is_prime(786_433));
/// assert!(!he_math::prime::is_prime(786_435));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the largest prime `p < 2^bits` with `p ≡ 1 (mod modulo)`.
///
/// Returns `None` if no such prime exists in `(modulo, 2^bits)`.
///
/// # Examples
///
/// ```
/// let p = he_math::prime::ntt_prime(30, 1 << 13).unwrap();
/// assert!(he_math::prime::is_prime(p));
/// assert_eq!(p % (1 << 13), 1);
/// assert!(p < (1 << 30));
/// ```
pub fn ntt_prime(bits: u32, modulo: u64) -> Option<u64> {
    assert!((2..=62).contains(&bits), "bit size out of range");
    let top = 1u64 << bits;
    // Largest candidate of form k·modulo + 1 below 2^bits.
    let mut cand = ((top - 2) / modulo) * modulo + 1;
    while cand > modulo {
        if is_prime(cand) {
            return Some(cand);
        }
        cand -= modulo;
    }
    None
}

/// Generates a descending chain of `count` distinct primes, each `≡ 1 (mod
/// modulo)` and just below `2^bits`.
///
/// This is how the CKKS modulus chain and the keyswitching special basis are
/// provisioned.
///
/// # Panics
///
/// Panics if fewer than `count` such primes exist below `2^bits`.
///
/// # Examples
///
/// ```
/// let chain = he_math::prime::ntt_prime_chain(30, 1 << 13, 4);
/// assert_eq!(chain.len(), 4);
/// for w in chain.windows(2) { assert!(w[0] > w[1]); }
/// ```
pub fn ntt_prime_chain(bits: u32, modulo: u64, count: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(count);
    let top = 1u64 << bits;
    let mut cand = ((top - 2) / modulo) * modulo + 1;
    while primes.len() < count && cand > modulo {
        if is_prime(cand) {
            primes.push(cand);
        }
        cand -= modulo;
    }
    assert!(
        primes.len() == count,
        "only {} primes of {} bits with p ≡ 1 mod {} exist",
        primes.len(),
        bits,
        modulo
    );
    primes
}

/// Finds the smallest primitive root modulo prime `p`.
///
/// # Panics
///
/// Panics if `p` is not prime.
fn primitive_root(p: u64) -> u64 {
    assert!(is_prime(p), "primitive_root requires a prime modulus");
    if p == 2 {
        return 1;
    }
    let phi = p - 1;
    let factors = distinct_prime_factors(phi);
    'cand: for g in 2..p {
        for &f in &factors {
            if pow_mod(g, phi / f, p) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

/// Returns a primitive `order`-th root of unity modulo prime `p`.
///
/// # Panics
///
/// Panics if `order` does not divide `p - 1`.
///
/// # Examples
///
/// ```
/// use he_math::modops::pow_mod;
/// let p = 786_433u64; // 3·2^18 + 1
/// let w = he_math::prime::root_of_unity(1 << 8, p);
/// assert_eq!(pow_mod(w, 1 << 8, p), 1);
/// assert_ne!(pow_mod(w, 1 << 7, p), 1);
/// ```
pub fn root_of_unity(order: u64, p: u64) -> u64 {
    assert_eq!((p - 1) % order, 0, "order must divide p - 1");
    let g = primitive_root(p);
    pow_mod(g, (p - 1) / order, p)
}

/// Distinct prime factors of `n` by trial division (adequate for `p - 1` of
/// our ≤ 62-bit NTT primes, whose cofactor after stripping the power of two
/// is small).
fn distinct_prime_factors(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 65537, 786_433];
        let composites = [0u64, 1, 4, 9, 561, 1_000_000, 65537 * 3];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to small bases.
        for c in [3_215_031_751u64, 3_474_749_660_383, 341_550_071_728_321] {
            assert!(!is_prime(c), "{c} must be rejected");
        }
    }

    #[test]
    fn ntt_prime_has_required_form() {
        for bits in [20u32, 28, 30, 32, 45, 60] {
            for log2n in [10u64, 13, 16] {
                let m = 1u64 << (log2n + 1);
                if m >= (1 << bits) {
                    continue;
                }
                let p = ntt_prime(bits, m).unwrap();
                assert!(is_prime(p));
                assert_eq!(p % m, 1);
                assert!(p < (1u64 << bits));
            }
        }
    }

    #[test]
    fn chain_is_distinct_and_descending() {
        let chain = ntt_prime_chain(32, 1 << 17, 8);
        for w in chain.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn primitive_roots_generate_full_group() {
        for p in [5u64, 7, 11, 65537, 786_433] {
            let g = primitive_root(p);
            // g^k != 1 for all proper divisors of p-1 is already checked by
            // construction; spot-check the order via a few powers.
            assert_eq!(pow_mod(g, p - 1, p), 1);
            for &f in &distinct_prime_factors(p - 1) {
                assert_ne!(pow_mod(g, (p - 1) / f, p), 1);
            }
        }
    }

    #[test]
    fn root_of_unity_has_exact_order() {
        let p = ntt_prime(30, 1 << 14).unwrap();
        let w = root_of_unity(1 << 14, p);
        assert_eq!(pow_mod(w, 1 << 14, p), 1);
        assert_ne!(pow_mod(w, 1 << 13, p), 1);
    }
}
