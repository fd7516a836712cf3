//! Bit-exactness of the limb-parallel engine: every RNS kernel must
//! produce identical outputs at one thread (the pre-engine serial path)
//! and at many threads.
//!
//! The ring degree is 2048 with five primes, where the NTTs cross
//! `poseidon_par::PAR_THRESHOLD` and fan out; the cut-off is priced in
//! element operations, so the pointwise and conversion kernels stay on the
//! caller at that size and `large_polynomials_fan_out_every_kernel` repeats
//! them at `N = 2^13`, eight primes, where they do not. `with_threads` is
//! thread-local, so pinning counts here cannot race the parallel test
//! harness.

use he_rns::conv::{moddown, modup, rescale, rns_convert};
use he_rns::{RnsBasis, RnsPoly, ShoupOperand};
use poseidon_par::with_threads;
use proptest::prelude::*;

const N: usize = 2048;

fn bases() -> (RnsBasis, RnsBasis) {
    let q = RnsBasis::generate(N, 28, 3);
    let p = RnsBasis::new(N, he_math::prime::ntt_prime_chain(30, 2 * N as u64, 2));
    (q, p)
}

/// Sparse signed coefficients: a handful of seeds expanded over N slots so
/// case generation stays cheap at the large ring degree.
fn arb_coeffs() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-(1i64 << 20)..(1i64 << 20), 16).prop_map(|seed| {
        (0..N)
            .map(|i| seed[i % seed.len()].wrapping_mul(i as i64 % 31 + 1))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ntt_round_trip_is_thread_count_invariant(coeffs in arb_coeffs()) {
        let (q, _) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let serial = with_threads(1, || a.clone().into_eval());
        let parallel = with_threads(8, || a.clone().into_eval());
        prop_assert_eq!(&serial, &parallel);
        let back_s = with_threads(1, || serial.clone().into_coeff());
        let back_p = with_threads(8, || parallel.into_coeff());
        prop_assert_eq!(&back_s, &back_p);
        prop_assert_eq!(back_s, a);
    }

    #[test]
    fn pointwise_ops_are_thread_count_invariant(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a).into_eval();
        let pb = RnsPoly::from_i64_coeffs(&q, &b).into_eval();
        let mul_s = with_threads(1, || pa.mul(&pb));
        let mul_p = with_threads(8, || pa.mul(&pb));
        prop_assert_eq!(mul_s, mul_p);
        let add_s = with_threads(1, || pa.add(&pb));
        let add_p = with_threads(8, || pa.add(&pb));
        prop_assert_eq!(add_s, add_p);
        let sub_s = with_threads(1, || pa.sub(&pb));
        let sub_p = with_threads(8, || pa.sub(&pb));
        prop_assert_eq!(sub_s, sub_p);
        let neg_s = with_threads(1, || pa.neg());
        let neg_p = with_threads(8, || pa.neg());
        prop_assert_eq!(neg_s, neg_p);
    }

    #[test]
    fn assign_ops_match_allocating_ops(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a).into_eval();
        let pb = RnsPoly::from_i64_coeffs(&q, &b).into_eval();
        let mut acc = pa.clone();
        with_threads(8, || acc.mul_assign(&pb));
        prop_assert_eq!(&acc, &with_threads(1, || pa.mul(&pb)));
        let mut acc = pa.clone();
        with_threads(8, || acc.add_assign(&pb));
        prop_assert_eq!(&acc, &with_threads(1, || pa.add(&pb)));
    }

    #[test]
    fn basis_conversion_is_thread_count_invariant(coeffs in arb_coeffs()) {
        let (q, p) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let conv_s = with_threads(1, || rns_convert(&a, &p));
        let conv_p = with_threads(8, || rns_convert(&a, &p));
        prop_assert_eq!(conv_s, conv_p);
        let up_s = with_threads(1, || modup(&a, &p));
        let up_p = with_threads(8, || modup(&a, &p));
        prop_assert_eq!(&up_s, &up_p);
        let down_s = with_threads(1, || moddown(&up_s, q.len()));
        let down_p = with_threads(8, || moddown(&up_p, q.len()));
        prop_assert_eq!(down_s, down_p);
    }

    #[test]
    fn rescale_is_thread_count_invariant(coeffs in arb_coeffs()) {
        let (q, _) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let r_s = with_threads(1, || rescale(&a));
        let r_p = with_threads(8, || rescale(&a));
        prop_assert_eq!(r_s, r_p);
    }

    #[test]
    fn limb_parallel_ntt_matches_the_oracle(coeffs in arb_coeffs()) {
        // The limb-parallel transform path at every thread count must
        // produce the bit-exact residues of the serial radix-2 oracle.
        let (q, _) = bases();
        let p = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let mut want = p.all_residues().to_vec();
        for (limb, table) in want.iter_mut().zip(q.tables()) {
            table.forward_oracle(limb);
        }
        for threads in [1usize, 8] {
            let got = with_threads(threads, || p.clone().into_eval());
            prop_assert_eq!(
                got.all_residues(), &want[..],
                "{} threads diverged from the oracle", threads
            );
            let back = with_threads(threads, || got.into_coeff());
            prop_assert_eq!(&back, &p, "{} threads failed round trip", threads);
        }
    }

    #[test]
    fn shoup_operand_is_thread_count_invariant(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a).into_eval();
        let pb = RnsPoly::from_i64_coeffs(&q, &b).into_eval();
        let op = ShoupOperand::new(&pb);
        let want = with_threads(1, || pa.mul(&pb));
        for threads in [1usize, 8] {
            let mut acc = pa.clone();
            with_threads(threads, || acc.mul_assign_shoup(&op));
            prop_assert_eq!(&acc, &want, "Shoup lanes diverged at {} threads", threads);
        }
    }

    #[test]
    fn automorphism_is_thread_count_invariant(coeffs in arb_coeffs(), ge in 0u64..5) {
        let (q, _) = bases();
        let two_n = 2 * N as u64;
        let g = he_math::modops::pow_mod(5, ge, two_n);
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let s = with_threads(1, || a.automorphism(g));
        let p = with_threads(8, || a.automorphism(g));
        prop_assert_eq!(s, p);
    }
}

/// The pointwise and conversion kernels at a size whose cheapest member (a
/// limb-wise add) still feeds two participants, so the fan-out really runs.
#[test]
fn large_polynomials_fan_out_every_kernel() {
    const BIG: usize = 1 << 13;
    const LIMBS: usize = 8;
    const { assert!(LIMBS * BIG >= 2 * poseidon_par::PAR_THRESHOLD) };
    let q = RnsBasis::generate(BIG, 28, LIMBS);
    let p = RnsBasis::new(BIG, he_math::prime::ntt_prime_chain(30, 2 * BIG as u64, 2));
    let coeffs = |salt: i64| -> Vec<i64> {
        (0..BIG as i64)
            .map(|i| (i * 7919 + salt).wrapping_mul(i % 31 + 1) % (1 << 20))
            .collect()
    };
    let a = RnsPoly::from_i64_coeffs(&q, &coeffs(3));
    let b = RnsPoly::from_i64_coeffs(&q, &coeffs(11));
    let (ea, eb) = (a.clone().into_eval(), b.clone().into_eval());
    let op = ShoupOperand::new(&eb);
    let scalars: Vec<u64> = (0..LIMBS as u64).map(|j| 12345 + j).collect();
    let g = 5u64;

    let run = |threads: usize| {
        with_threads(threads, || {
            let mut mul_acc = ea.clone();
            mul_acc.mul_assign(&eb);
            let mut add_acc = ea.clone();
            add_acc.add_assign(&eb);
            let mut shoup_acc = ea.clone();
            shoup_acc.mul_assign_shoup(&op);
            let up = modup(&a, &p);
            let down = moddown(&up, q.len());
            (
                vec![ea.add(&eb), ea.sub(&eb), ea.neg(), ea.mul(&eb)],
                vec![mul_acc, add_acc, shoup_acc],
                vec![
                    ea.mul_scalar_per_prime(&scalars),
                    a.automorphism(g),
                    ea.automorphism_eval(g),
                ],
                vec![rns_convert(&a, &p), up, down, rescale(&a)],
            )
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(2));
    assert_eq!(serial, run(4));
}
