//! Property-based tests pinning the fast modular-arithmetic paths to the
//! `u128` reference implementation and the bignum to a `u128` oracle.

use he_math::modops::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod};
use he_math::prime::{is_prime, ntt_prime};
use he_math::{BarrettReducer, BigUint, ShoupMul};
use proptest::prelude::*;

fn arb_modulus() -> impl Strategy<Value = u64> {
    (2u64..(1u64 << 62)).prop_filter("nontrivial", |q| *q >= 2)
}

proptest! {
    #[test]
    fn barrett_mul_matches_reference(q in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % q, b % q);
        let r = BarrettReducer::new(q);
        prop_assert_eq!(r.mul(a, b), mul_mod(a, b, q));
    }

    #[test]
    fn barrett_reduce_matches_reference(q in arb_modulus(), x in any::<u128>()) {
        // Any input, not only x < q²: lazy accumulations reduce sums.
        let r = BarrettReducer::new(q);
        prop_assert_eq!(r.reduce(x), (x % q as u128) as u64);
    }

    #[test]
    fn shoup_matches_reference(q in 2u64..(1u64 << 62), w in any::<u64>(), a in any::<u64>()) {
        let (w, a) = (w % q, a % q);
        let m = ShoupMul::new(w, q);
        prop_assert_eq!(m.mul(a), mul_mod(a, w, q));
    }

    #[test]
    fn add_sub_are_inverse(q in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(sub_mod(add_mod(a, b, q), b, q), a);
    }

    #[test]
    fn pow_respects_exponent_addition(q in arb_modulus(), a in any::<u64>(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let a = a % q;
        let lhs = pow_mod(a, e1 + e2, q);
        let rhs = mul_mod(pow_mod(a, e1, q), pow_mod(a, e2, q), q);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn inv_mod_is_inverse_when_it_exists(m in 2u64..(1u64 << 40), a in 1u64..(1u64 << 40)) {
        let a = a % m;
        if let Some(inv) = inv_mod(a, m) {
            prop_assert_eq!(mul_mod(a, inv, m), 1);
        }
    }

    #[test]
    fn bignum_mul_matches_u128(x in any::<u64>(), y in any::<u64>()) {
        let p = &BigUint::from(x) * &BigUint::from(y);
        prop_assert_eq!(p, BigUint::from(x as u128 * y as u128));
    }

    #[test]
    fn bignum_add_then_sub_round_trips(x in any::<u128>(), y in any::<u128>()) {
        let a = BigUint::from(x);
        let b = BigUint::from(y);
        let sum = a.clone() + &b;
        prop_assert_eq!(sum.clone() - &b, a);
        prop_assert_eq!(sum - &BigUint::from(x), b);
    }

    #[test]
    fn bignum_div_rem_consistent(x in any::<u128>(), d in 1u64..u64::MAX) {
        let mut q = BigUint::from(x);
        let r = q.div_u64_assign(d);
        // x = q*d + r
        let mut back = q;
        back.mul_u64_assign(d);
        back.add_u64_assign(r);
        prop_assert_eq!(back, BigUint::from(x));
    }

    #[test]
    fn ntt_primes_exist_at_useful_sizes(bits in 25u32..45, log2n in 10u32..15) {
        let p = ntt_prime(bits, 1u64 << (log2n + 1));
        if let Some(p) = p {
            prop_assert!(is_prime(p));
            prop_assert_eq!(p % (1u64 << (log2n + 1)), 1);
        }
    }
}
