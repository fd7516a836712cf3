//! Property-based tests for the RNS layer: CRT reconstruction, ring
//! semantics, automorphism group laws, and conversion error bounds.

use he_math::modops::{add_mod, mul_mod};
use he_math::BarrettReducer;
use he_rns::conv::{lift_exact, moddown, modup, rescale, rns_convert, LiftOverflow};
use he_rns::{Form, LazyDot, RnsBasis, RnsPoly};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const N: usize = 16;

fn bases() -> (RnsBasis, RnsBasis) {
    let q = RnsBasis::generate(N, 28, 3);
    let p = RnsBasis::new(N, he_math::prime::ntt_prime_chain(30, 2 * N as u64, 2));
    (q, p)
}

fn arb_coeffs() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-(1i64 << 20)..(1i64 << 20), N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn centered_reconstruction_round_trips(coeffs in arb_coeffs()) {
        let (q, _) = bases();
        let poly = RnsPoly::from_i64_coeffs(&q, &coeffs);
        prop_assert_eq!(poly.to_centered_coeffs(), coeffs);
    }

    #[test]
    fn add_sub_round_trip(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a);
        let pb = RnsPoly::from_i64_coeffs(&q, &b);
        prop_assert_eq!(pa.add(&pb).sub(&pb), pa);
    }

    #[test]
    fn ring_multiplication_is_commutative(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a).into_eval();
        let pb = RnsPoly::from_i64_coeffs(&q, &b).into_eval();
        prop_assert_eq!(pa.mul(&pb), pb.mul(&pa));
    }

    #[test]
    fn mul_distributes_over_add(a in arb_coeffs(), b in arb_coeffs(), c in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a).into_eval();
        let pb = RnsPoly::from_i64_coeffs(&q, &b).into_eval();
        let pc = RnsPoly::from_i64_coeffs(&q, &c).into_eval();
        let lhs = pa.mul(&pb.add(&pc));
        let rhs = pa.mul(&pb).add(&pa.mul(&pc));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorphism_composes_multiplicatively(coeffs in arb_coeffs(), g1e in 0u64..5, g2e in 0u64..5) {
        // τ_{g1} ∘ τ_{g2} = τ_{g1·g2 mod 2N} for g = 5^e.
        let (q, _) = bases();
        let two_n = 2 * N as u64;
        let g1 = he_math::modops::pow_mod(5, g1e, two_n);
        let g2 = he_math::modops::pow_mod(5, g2e, two_n);
        let p = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let lhs = p.automorphism(g2).automorphism(g1);
        let rhs = p.automorphism((g1 * g2) % two_n);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorphism_preserves_addition(a in arb_coeffs(), b in arb_coeffs()) {
        let (q, _) = bases();
        let pa = RnsPoly::from_i64_coeffs(&q, &a);
        let pb = RnsPoly::from_i64_coeffs(&q, &b);
        prop_assert_eq!(
            pa.add(&pb).automorphism(3),
            pa.automorphism(3).add(&pb.automorphism(3))
        );
    }

    #[test]
    fn conversion_error_is_bounded_multiple_of_q(coeffs in arb_coeffs()) {
        let (q, p) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let out = rns_convert(&a, &p);
        let l = q.len() as u64;
        // Check every coefficient's residue against a + e·Q, 0 ≤ e ≤ L,
        // where a's representative lies in [0, Q).
        for (i, &pi) in p.primes().iter().enumerate() {
            let q_mod = q.modulus_product().rem_u64(pi);
            for c in 0..N {
                // Representative of the signed coefficient in [0, Q).
                let rep = {
                    let (neg, mag) = a.coeff_to_centered_bigint(c);
                    if neg {
                        let mut qq = q.modulus_product();
                        qq.sub_assign(&mag);
                        qq.rem_u64(pi)
                    } else {
                        mag.rem_u64(pi)
                    }
                };
                let got = out.residues(i)[c];
                let ok = (0..=l).any(|e| {
                    ((rep as u128 + e as u128 * q_mod as u128) % pi as u128) as u64 == got
                });
                prop_assert!(ok, "coeff {c}, prime {pi}");
            }
        }
    }

    #[test]
    fn moddown_inverts_scaled_modup(coeffs in arb_coeffs()) {
        let (q, p) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let up = modup(&a, &p);
        let full = up.basis().clone();
        let p_prod: Vec<u64> = full
            .primes()
            .iter()
            .map(|&f| {
                p.primes()
                    .iter()
                    .fold(1u64, |acc, &pi| he_math::modops::mul_mod(acc, pi % f, f))
            })
            .collect();
        let down = moddown(&up.mul_scalar_per_prime(&p_prod), q.len());
        prop_assert_eq!(down.to_centered_coeffs(), coeffs);
    }

    #[test]
    fn rescale_approximates_division(scale_mult in 1i64..1000, noise in -3i64..4) {
        let (q, _) = bases();
        let ql = *q.primes().last().unwrap() as i64;
        let coeffs: Vec<i64> = (0..N as i64).map(|i| scale_mult * ql * (i - 8) + noise).collect();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        let r = rescale(&a);
        let got = r.to_centered_coeffs();
        for (i, &g) in got.iter().enumerate() {
            let want = scale_mult * (i as i64 - 8);
            prop_assert!((g - want).abs() <= 1, "coeff {i}: {g} vs {want}");
        }
    }

    /// The key-switch kernel against a reduction per product: random rows,
    /// random slot permutations (or none), 1..=70 digits, row lengths that
    /// end inside a coefficient block, and every fold regime — a 60-bit
    /// prime (64 products a block, so 70 digits fold), a 31-bit one (never),
    /// and bounds that fold every 2 and every 9 terms (digit groups of 1
    /// and 8) — and a 51-bit prime, the widest the AVX-512 IFMA kernel sums
    /// (on a CPU that has it; the 31-bit cases take it too).
    #[test]
    fn pair_kernel_matches_a_reduction_per_product(
        seed in any::<u64>(),
        digits in 1usize..71,
        rule in 0usize..5,
        permuted in 0u8..2,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..700usize);
        let bits = match rule {
            0 => 60,
            4 => 51,
            _ => 31,
        };
        let q = he_math::prime::ntt_prime_chain(bits, 32, 1)[0];
        let red = BarrettReducer::new(q);
        let dot = match rule {
            0 | 1 | 4 => LazyDot::new(red),
            2 => LazyDot::with_term_bound(red, BarrettReducer::REDUCE_LIMIT / 2),
            _ => LazyDot::with_term_bound(red, BarrettReducer::REDUCE_LIMIT / 9),
        };
        let mut rows = |count: usize| -> Vec<Vec<u64>> {
            (0..count).map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect()).collect()
        };
        let (xs, bs, az) = (rows(digits), rows(digits), rows(digits));
        let perm = (permuted == 1).then(|| {
            // Fisher–Yates.
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, rng.gen_range(0..=i));
            }
            p
        });
        let x_refs: Vec<&[u64]> = xs.iter().map(Vec::as_slice).collect();
        let keys: Vec<(&[u64], &[u64])> =
            bs.iter().zip(&az).map(|(b, a)| (b.as_slice(), a.as_slice())).collect();
        let (mut got_b, mut got_a) = (vec![0; n], vec![0; n]);
        dot.dot_pair(&x_refs, perm.as_deref(), &keys, &mut got_b, &mut got_a);
        for c in 0..n {
            let src = perm.as_ref().map_or(c, |p| p[c]);
            let sum = |ys: &[Vec<u64>]| {
                xs.iter().zip(ys).fold(0, |s, (x, y)| add_mod(s, mul_mod(x[src], y[c], q), q))
            };
            prop_assert_eq!(got_b[c], sum(&bs), "b, coefficient {}", c);
            prop_assert_eq!(got_a[c], sum(&az), "a, coefficient {}", c);
        }
    }

    /// The rotation sum's row against a reduction per product, over the same
    /// four fold regimes: 1..=70 terms added a row at a time, weighted or
    /// bare, the row reduced once at the end.
    #[test]
    fn weighted_row_matches_a_reduction_per_product(
        seed in any::<u64>(),
        terms in 1usize..71,
        rule in 0usize..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..700usize);
        let q = he_math::prime::ntt_prime_chain(if rule == 0 { 60 } else { 31 }, 32, 1)[0];
        let red = BarrettReducer::new(q);
        let dot = match rule {
            0 | 1 => LazyDot::new(red),
            2 => LazyDot::with_term_bound(red, BarrettReducer::REDUCE_LIMIT / 2),
            _ => LazyDot::with_term_bound(red, BarrettReducer::REDUCE_LIMIT / 9),
        };
        let mut row = dot.row(n);
        let mut want = vec![0; n];
        for _ in 0..terms {
            let x: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let w: Option<Vec<u64>> =
                rng.gen_bool(0.75).then(|| (0..n).map(|_| rng.gen_range(0..q)).collect());
            row.add_weighted(&x, w.as_deref());
            for c in 0..n {
                let term = w.as_ref().map_or(x[c], |w| mul_mod(x[c], w[c], q));
                want[c] = add_mod(want[c], term, q);
            }
        }
        let mut got = vec![0; n];
        row.reduce_into(&mut got);
        prop_assert_eq!(got, want);
    }

    /// The exact lift is `from_i64_coeffs` on the target basis: random
    /// centred polynomials with negative coefficients, up to 2^100 in
    /// magnitude (built as `hi·2^50 + lo` on either basis), onto one, two
    /// and three target primes.
    #[test]
    fn exact_lift_is_the_centred_value_on_the_target_basis(
        hi in proptest::collection::vec(-(1i64 << 50)..(1i64 << 50), N),
        lo in proptest::collection::vec(-(1i64 << 50)..(1i64 << 50), N),
        p_len in 1usize..4,
    ) {
        // Q is 140 bits: a quarter of it is far above 2^100.
        let q = RnsBasis::generate(N, 28, 5);
        let p = RnsBasis::new(N, he_math::prime::ntt_prime_chain(30, 2 * N as u64, p_len));
        let on = |basis: &RnsBasis| {
            let shift: Vec<u64> = basis.primes().iter().map(|&m| (1u64 << 50) % m).collect();
            RnsPoly::from_i64_coeffs(basis, &hi)
                .mul_scalar_per_prime(&shift)
                .add(&RnsPoly::from_i64_coeffs(basis, &lo))
        };
        prop_assert_eq!(lift_exact(&on(&q), &p), Ok(on(&p)));
        // A single source prime, where the overflow count is the sign.
        let q0 = q.prefix(1);
        let small: Vec<i64> = lo.iter().map(|&v| v >> 26).collect();
        prop_assert_eq!(
            lift_exact(&RnsPoly::from_i64_coeffs(&q0, &small), &p),
            Ok(RnsPoly::from_i64_coeffs(&p, &small))
        );
    }

    #[test]
    fn truncation_preserves_small_values(coeffs in arb_coeffs()) {
        let (q, _) = bases();
        let a = RnsPoly::from_i64_coeffs(&q, &coeffs);
        prop_assert_eq!(a.truncate_basis(2).to_centered_coeffs(), coeffs);
    }
}

/// A coefficient near `±Q/2` has no unambiguous overflow count: the exact
/// lift names it instead of returning a value off by `Q`.
#[test]
fn exact_lift_refuses_a_coefficient_near_the_wrap() {
    let (q, p) = bases();
    let half = q.modulus_product().half();
    for (at, offset) in [(0, 0u64), (5, 12_345), (N - 1, 1 << 40)] {
        let rows = q
            .primes()
            .iter()
            .map(|&m| {
                let mut row = vec![7; N];
                row[at] = (half.rem_u64(m) + offset % m) % m;
                row
            })
            .collect();
        let a = RnsPoly::from_residues(&q, rows, Form::Coeff);
        assert_eq!(lift_exact(&a, &p), Err(LiftOverflow { coefficient: at }));
    }
}
