//! Property-based tests for the operator layer: HFAuto's lemma over random
//! parameters and decomposition invariants.

use poseidon_core::decompose::{BasicOp, OpParams};
use poseidon_core::{HfAuto, Operator, OperatorPool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's lemma, machine-checked: for every (N, C, odd g), the
    /// four-stage HFAuto schedule equals the element-wise automorphism.
    #[test]
    fn hfauto_lemma(log_n in 3u32..9, log_c_frac in 0u32..4, g_raw in any::<u64>(), seed in any::<u64>()) {
        let n = 1usize << log_n;
        let c = 1usize << (log_n - log_n.min(log_c_frac * 2)).min(log_n);
        let q = he_math::prime::ntt_prime(28, 2 * n as u64).unwrap();
        let g = (g_raw % (2 * n as u64)) | 1; // odd, < 2N after the or? keep odd:
        let g = if g >= 2 * n as u64 { g - 2 * n as u64 + 1 } else { g };
        let g = g | 1;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % q).collect();
        let hf = HfAuto::new(n, c);
        let (naive, _) = hf.apply_naive(&data, g, q);
        prop_assert_eq!(hf.apply(&data, g, q), naive, "n={} c={} g={}", n, c, g);
    }

    /// HFAuto with the inverse Galois element undoes the mapping.
    #[test]
    fn hfauto_inverse_element_round_trips(log_n in 3u32..8, e in 0u64..6, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let two_n = 2 * n as u64;
        let g = he_math::modops::pow_mod(5, e, two_n);
        // 5 has order N/2 modulo 2N, so g^(N/2 - 1) = g^-1.
        let g_inv = he_math::modops::pow_mod(g, n as u64 / 2 - 1, two_n);
        let q = he_math::prime::ntt_prime(28, two_n).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % q).collect();
        let hf = HfAuto::new(n, (n / 4).max(1));
        let round = hf.apply(&hf.apply(&data, g, q), g_inv, q);
        prop_assert_eq!(round, data);
    }

    /// Operator counts are monotone in every parameter.
    #[test]
    fn counts_monotone_in_components(log_n in 3u32..10, l in 1usize..20, k in 1usize..4) {
        let n = 1usize << log_n;
        let p_small = OpParams::new(n, l, k);
        let p_big = OpParams::new(n, l + 1, k);
        for op in BasicOp::ALL {
            let a = op.operator_counts(&p_small);
            let b = op.operator_counts(&p_big);
            for o in Operator::ALL {
                prop_assert!(b.get(o) >= a.get(o), "{} {o}", op.name());
            }
        }
    }

    /// dnum scales keyswitch NTT work linearly in the digit count.
    #[test]
    fn keyswitch_scales_with_dnum(l in 2usize..20) {
        let p1 = OpParams::with_dnum(1 << 12, l, 2, 1);
        let pl = OpParams::with_dnum(1 << 12, l, 2, l);
        let c1 = BasicOp::Keyswitch.operator_counts(&p1);
        let cl = BasicOp::Keyswitch.operator_counts(&pl);
        prop_assert!(cl.ntt > c1.ntt);
        prop_assert!(cl.mm >= c1.mm);
    }

    /// The pooled MA/MM cores match scalar reference arithmetic on random
    /// vectors and any NTT-friendly modulus.
    #[test]
    fn pool_cores_match_reference(seed in any::<u64>()) {
        let n = 64usize;
        let q = he_math::prime::ntt_prime(28, 2 * n as u64).unwrap();
        let mut pool = OperatorPool::new(n, 16, 3);
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed.rotate_left(7) | 3) % q).collect();
        let s = pool.ma(&a, &b, q);
        let m = pool.mm(&a, &b, q);
        for i in 0..n {
            prop_assert_eq!(s[i], he_math::modops::add_mod(a[i], b[i], q));
            prop_assert_eq!(m[i], he_math::modops::mul_mod(a[i], b[i], q));
        }
    }

    /// Pool NTT round trip for random vectors.
    #[test]
    fn pool_ntt_round_trips(seed in any::<u64>()) {
        let n = 64usize;
        let q = he_math::prime::ntt_prime(28, 2 * n as u64).unwrap();
        let mut pool = OperatorPool::new(n, 16, 3);
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % q).collect();
        let mut d = a.clone();
        pool.ntt(&mut d, q);
        pool.intt(&mut d, q);
        prop_assert_eq!(d, a);
    }
}
