//! Production-vs-oracle equivalence for the NTT kernels.
//!
//! [`NttTable::forward`]/`inverse` (the fused radix-8 lazy kernel, or its
//! AVX-512 IFMA twin where the CPU and a prime below 2^50 select it) must be
//! *bit-identical* — not merely congruent — to the radix-2 oracle
//! ([`NttTable::forward_oracle`]/`inverse_oracle`) at every transform
//! length: lazy reduction changes how values are carried between stages,
//! never what leaves the kernel. The suite sweeps every log N in 1..=13
//! plus 2^16 (the paper's N) over 20- to 62-bit primes, random, all-`(q−1)`
//! and lazy inputs up to the kernel's bound, against both the scalar kernel
//! ([`NttTable::forward_scalar`]/`inverse_scalar`) and the oracle; sends
//! words past the lazy bound, which must reach the scalar kernel; checks
//! `multiply` against the schoolbook product; and pins a deterministic
//! transform digest. On a CPU without IFMA the production and the scalar
//! kernel are one.
//!
//! The debug-build counter tests reconcile the kernel with the analytic
//! [`FusionAnalysis`] model of paper Table II: one fused radix-8 block
//! performs 2^k modular reductions (not k·2^k), and a whole transform
//! performs one per output, while the twiddle multiply count stays at the
//! unfused k·2^k tally.

use he_ntt::kernel::op_counters;
use he_ntt::{naive, FusionAnalysis, NttTable};
use proptest::prelude::*;

/// Every stage-group shape (radix-8 groups with radix-4/2 remainders) up
/// to 2^13, plus the paper's ring degree.
const LOG_NS: [u32; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16];

fn prime_for(n: usize, bits: u32) -> u64 {
    he_math::prime::ntt_prime(bits, 2 * n as u64).unwrap()
}

fn random_vector(n: usize, q: u64, seed: u64) -> Vec<u64> {
    // Deterministic splitmix-style fill, independent of the RNG shim.
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s % q
        })
        .collect()
}

/// `forward` (or `inverse`) of `input` against the scalar kernel, and
/// against the oracle on `input` reduced: the transform is linear, so a
/// lazy input has its reduced residues' image.
fn assert_direction(t: &NttTable, input: &[u64], forward: bool, what: &str) {
    let (q, n) = (t.modulus(), t.n());
    let mut got = input.to_vec();
    let mut scalar = input.to_vec();
    let mut oracle: Vec<u64> = input.iter().map(|&v| v % q).collect();
    if forward {
        t.forward(&mut got);
        t.forward_scalar(&mut scalar);
        t.forward_oracle(&mut oracle);
    } else {
        t.inverse(&mut got);
        t.inverse_scalar(&mut scalar);
        t.inverse_oracle(&mut oracle);
    }
    let dir = if forward { "forward" } else { "inverse" };
    assert_eq!(
        got, scalar,
        "{dir} diverged from the scalar kernel: {what}, n={n}"
    );
    assert_eq!(got, oracle, "{dir} diverged from the oracle: {what}, n={n}");
}

/// Forward, inverse and round trip of the reduced `input` through the
/// production kernel, each compared bit-for-bit with the scalar kernel
/// and the oracle.
fn assert_matches_oracle(t: &NttTable, input: &[u64], what: &str) {
    assert_direction(t, input, true, what);
    assert_direction(t, input, false, what);
    let mut got = input.to_vec();
    t.forward(&mut got);
    t.inverse(&mut got);
    assert_eq!(got, input, "round trip failed: {what}, n={}", t.n());
}

/// Primes of 20–50 bits take the vector kernel on an IFMA host (for
/// `N ≥ 16`); 51–62-bit primes the scalar kernel everywhere. 61- and
/// 62-bit primes push the [0, 4q) redundant range right up against u64 (62
/// bits is the widest `NttTable::new` accepts).
const BITS: [u32; 9] = [20, 30, 40, 49, 50, 51, 55, 61, 62];

#[test]
fn production_kernel_is_bit_identical_to_the_oracle() {
    for log_n in LOG_NS {
        let n = 1usize << log_n;
        for bits in BITS {
            let q = prime_for(n, bits);
            let t = NttTable::new(n, q);
            let seed = 0x5eed ^ ((log_n as u64) << 8) ^ bits as u64;
            let what = |input: &str| format!("{input}, {bits}-bit q");
            assert_matches_oracle(&t, &random_vector(n, q, seed), &what("random"));
            // All-(q−1) inputs maximise every intermediate.
            assert_matches_oracle(&t, &vec![q - 1; n], &what("all q-1"));
            // The lazy contract's widest inputs: [0, 4q) forward, [0, 2q)
            // inverse, and its last word.
            for (forward, bound) in [(true, 4 * q), (false, 2 * q)] {
                assert_direction(&t, &random_vector(n, bound, seed), forward, &what("lazy"));
                assert_direction(&t, &vec![bound - 1; n], forward, &what("all bound-1"));
            }
        }
    }
}

/// A word at or past the lazy bound — at the bound, past bit 52 (where
/// `vpmadd52` would not see it) or far past it — sends the whole call to
/// the scalar kernel, whose bits it then has. The scalar butterflies are
/// total on any word (their sums wrap), so neither call may panic, in a
/// debug build or an optimised one.
#[test]
fn words_past_the_lazy_bound_reach_the_scalar_kernel() {
    type Transform = fn(&NttTable, &mut [u64]);
    let run = |t: &NttTable, f: Transform, mut a: Vec<u64>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f(t, &mut a);
            a
        }))
        .ok()
    };
    for log_n in [4u32, 5, 11, 13] {
        let n = 1usize << log_n;
        for bits in [31u32, 50] {
            let q = prime_for(n, bits);
            let t = NttTable::new(n, q);
            let directions: [(Transform, Transform, u64); 2] = [
                (NttTable::forward, NttTable::forward_scalar, 4 * q),
                (NttTable::inverse, NttTable::inverse_scalar, 2 * q),
            ];
            for (dispatch, scalar, bound) in directions {
                for past in [bound, bound + 1, (1 << 52) | 3, (1 << 60) + 7] {
                    let mut input = random_vector(n, q, past ^ log_n as u64);
                    input[n / 3] = past;
                    let at = format!("n={n}, {bits}-bit q, bound {bound:#x}, word {past:#x}");
                    let got = run(&t, dispatch, input.clone())
                        .unwrap_or_else(|| panic!("the dispatching transform panicked ({at})"));
                    let want = run(&t, scalar, input)
                        .unwrap_or_else(|| panic!("the scalar transform panicked ({at})"));
                    assert_eq!(got, want, "{at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_inputs_match_the_oracle(log_n in 1u32..=13, big in any::<bool>(), seed in any::<u64>()) {
        let n = 1usize << log_n;
        let q = prime_for(n, if big { 61 } else { 30 });
        assert_matches_oracle(&NttTable::new(n, q), &random_vector(n, q, seed), "proptest");
    }

    #[test]
    fn multiply_matches_schoolbook(log_n in 1u32..=8, s1 in any::<u64>(), s2 in any::<u64>()) {
        // `multiply` routes through the scratch pool and three transforms;
        // the O(N²) product shares no code with any of them.
        let n = 1usize << log_n;
        let q = prime_for(n, 30);
        let a = random_vector(n, q, s1);
        let b = random_vector(n, q, s2);
        prop_assert_eq!(
            NttTable::new(n, q).multiply(&a, &b),
            naive::negacyclic_mul_schoolbook(&a, &b, q)
        );
    }
}

/// FNV-1a over a word stream.
fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digests a fixed transform sweep through `forward`/`inverse` closures.
fn sweep_digest(
    forward: impl Fn(&NttTable, &mut [u64]),
    inverse: impl Fn(&NttTable, &mut [u64]),
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for log_n in 2..=13u32 {
        let n = 1usize << log_n;
        let q = prime_for(n, 30);
        let t = NttTable::new(n, q);
        let mut a = random_vector(n, q, 0x9e3779b97f4a7c15 ^ log_n as u64);
        forward(&t, &mut a);
        a.iter().for_each(|&v| fnv1a(&mut h, v));
        inverse(&t, &mut a);
        a.iter().for_each(|&v| fnv1a(&mut h, v));
    }
    h
}

/// The pinned transform digest.
#[test]
fn kernel_digest() {
    let h = sweep_digest(NttTable::forward, NttTable::inverse);
    let h_oracle = sweep_digest(NttTable::forward_oracle, NttTable::inverse_oracle);
    assert_eq!(h, h_oracle, "production digest diverged from the oracle");
    const PINNED: u64 = 0x034f_a40a_7b63_09d1;
    assert_eq!(
        h, PINNED,
        "transform digest moved: got {h:#018x}, pinned {PINNED:#018x}. A legitimate \
         change updates this constant and the same value in DESIGN.md §2."
    );
}

/// The instrumented kernels count what they do. The forward kernel carries
/// `[0, 4q)` representatives across every group boundary and reduces each
/// output once, so a length-n transform performs exactly `n` modular
/// reductions — fewer than the Table II model's per-phase tally (`2^k`
/// per block per phase) whenever there is more than one phase — and keeps
/// the unfused multiply tally, `n·log2(n)` (each Shoup product = 2
/// hardware multiplies, as Table II counts them).
/// The inverse also reduces once per output, in its `N⁻¹` pass, whose
/// Shoup products add `2n` multiplies.
///
/// Counters only exist in debug builds; the release hot path is untouched.
#[cfg(debug_assertions)]
#[test]
fn fused_reduction_count_matches_table2_model() {
    let a3 = FusionAnalysis::for_radix(3);
    for log_n in [1u32, 2, 3, 4, 5, 6, 9, 12, 13] {
        let n = 1usize << log_n;
        // Table II's tally: blocks per phase × phases × reductions per block.
        let model = (n as u64 >> 3.min(log_n)).max(1)
            * u64::from(log_n.div_ceil(a3.k))
            * a3.reductions_fused;
        let q = prime_for(n, 30);
        let t = NttTable::new(n, q);
        let mut a = random_vector(n, q, 7 + log_n as u64);
        op_counters::reset();
        t.forward(&mut a);
        assert_eq!(
            op_counters::reductions(),
            n as u64,
            "forward reductions at n={n}"
        );
        assert!(op_counters::reductions() <= model);
        assert_eq!(
            op_counters::multiplies(),
            n as u64 * log_n as u64,
            "forward multiplies at n={n}"
        );
        op_counters::reset();
        t.inverse(&mut a);
        assert_eq!(
            op_counters::reductions(),
            n as u64,
            "inverse reductions at n={n}"
        );
        assert_eq!(
            op_counters::multiplies(),
            n as u64 * log_n as u64 + 2 * n as u64,
            "inverse multiplies at n={n}"
        );
    }
}

/// Sanity for the per-block ratio itself: one radix-8 phase of a length-8
/// transform is one fused block — 8 reductions (2^k), 24 multiplies (k·2^k).
#[cfg(debug_assertions)]
#[test]
fn single_block_counts_match_table2_row() {
    let a3 = FusionAnalysis::for_radix(3);
    let n = 8usize;
    let q = prime_for(n, 30);
    let t = NttTable::new(n, q);
    let mut a = random_vector(n, q, 42);
    op_counters::reset();
    t.forward(&mut a);
    assert_eq!(op_counters::reductions(), a3.reductions_fused);
    assert_eq!(op_counters::multiplies(), a3.mult_unfused);
    assert_ne!(
        op_counters::reductions(),
        a3.reductions_unfused,
        "fusion must beat the k·2^k unfused reduction count"
    );
}
