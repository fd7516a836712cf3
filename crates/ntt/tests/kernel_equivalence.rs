//! Production-vs-oracle equivalence for the NTT kernel.
//!
//! [`NttTable::forward`]/`inverse` (the fused radix-8 lazy kernel) must be
//! *bit-identical* — not merely congruent — to the radix-2 oracle
//! ([`NttTable::forward_oracle`]/`inverse_oracle`) at every transform
//! length: lazy reduction changes how values are carried between stages,
//! never what leaves the kernel. The suite sweeps every log N in 1..=13
//! plus 2^16 (the paper's N) over 30- and 61-bit primes, random and
//! all-`(q−1)` inputs, checks `multiply` against the schoolbook product,
//! and pins a deterministic transform digest.
//!
//! The debug-build counter tests reconcile the kernel with the analytic
//! [`FusionAnalysis`] model of paper Table II: per 2^k block a fused stage
//! group performs exactly 2^k modular reductions (not k·2^k), while the
//! twiddle multiply count stays at the unfused k·2^k tally.

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

/// Forward, inverse and round trip of `input` through the production
/// kernel, each compared bit-for-bit with the oracle.
fn assert_matches_oracle(t: &NttTable, input: &[u64], what: &str) {
    let n = t.n();
    let mut want = input.to_vec();
    t.forward_oracle(&mut want);
    let mut got = input.to_vec();
    t.forward(&mut got);
    assert_eq!(got, want, "forward diverged: {what}, n={n}");
    t.inverse(&mut got);
    assert_eq!(got, input, "round trip failed: {what}, n={n}");

    // The inverse on its own, fed the same (non-spectrum) vector.
    let mut want = input.to_vec();
    t.inverse_oracle(&mut want);
    let mut got = input.to_vec();
    t.inverse(&mut got);
    assert_eq!(got, want, "inverse diverged: {what}, n={n}");
}

#[test]
fn production_kernel_is_bit_identical_to_the_oracle() {
    for log_n in LOG_NS {
        let n = 1usize << log_n;
        // 61-bit primes push the [0, 4q) redundant range right up against
        // u64, and all-(q−1) inputs maximise every intermediate in it.
        for bits in [30u32, 61] {
            let q = prime_for(n, bits);
            let t = NttTable::new(n, q);
            let random = random_vector(n, q, 0x5eed ^ ((log_n as u64) << 8) ^ bits as u64);
            assert_matches_oracle(&t, &random, &format!("random, {bits}-bit q"));
            assert_matches_oracle(&t, &vec![q - 1; n], &format!("all q-1, {bits}-bit q"));
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

/// The instrumented fused kernel must land exactly on the analytic Table II
/// model: a full length-n transform at fusion degree k=3 performs
/// `FusionAnalysis::reductions_full_transform(n)` modular reductions —
/// 2^k per block per phase, *not* k·2^k.
///
/// Counters only exist in debug builds; the release hot path is untouched.
#[cfg(debug_assertions)]
#[test]
fn fused_reduction_count_matches_table2_model() {
    let a3 = FusionAnalysis::for_radix(3);
    for log_n in [3u32, 5, 6, 9, 12] {
        let n = 1usize << log_n;
        let q = prime_for(n, 30);
        let t = NttTable::new(n, q);
        let mut a = random_vector(n, q, 7 + log_n as u64);
        op_counters::reset();
        t.forward(&mut a);
        assert_eq!(
            op_counters::reductions(),
            a3.reductions_full_transform(n),
            "reductions at n={n}"
        );
        // The butterfly-fused kernel keeps the unfused multiply tally:
        // k·2^k per block per phase (each Shoup product = 2 hardware
        // multiplies, as Table II counts them) — i.e. n·log2(n) total.
        assert_eq!(
            op_counters::multiplies(),
            n as u64 * log_n as u64,
            "multiplies at n={n}"
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
