//! Bit-exactness of the limb-parallel engine at the CKKS layer: CMult,
//! keyswitch, and rescale must produce identical ciphertexts at one
//! thread (the pre-engine serial path) and at many threads.
//!
//! Ring degree 2048 puts the NTTs and the key-switch inner product over
//! `poseidon_par::PAR_THRESHOLD`, so the parallel dispatch genuinely runs
//! (the pointwise passes between them are cheap enough to stay on the
//! caller). Key material is generated once
//! (keygen draws from a shared rng and is deliberately serial) and shared
//! across cases.

use std::sync::OnceLock;

use he_ckks::cipher::Plaintext;
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use poseidon_par::with_threads;
use proptest::prelude::*;
use rand::SeedableRng;

fn fixture() -> &'static (CkksContext, KeySet, Evaluator) {
    static FIXTURE: OnceLock<(CkksContext, KeySet, Evaluator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::paper_32bit(1 << 11, 3));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        (ctx, keys, eval)
    })
}

fn encrypt(vals: &[f64], seed: u64) -> Ciphertext {
    let (ctx, keys, _) = fixture();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, &mut rng)
}

fn arb_vals() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cmult_is_thread_count_invariant(a in arb_vals(), b in arb_vals(), seed in 1u64..1000) {
        let (_, keys, eval) = fixture();
        let ct_a = encrypt(&a, seed);
        let ct_b = encrypt(&b, seed + 1);
        let serial = with_threads(1, || eval.try_mul(&ct_a, &ct_b, keys).unwrap());
        let parallel = with_threads(8, || eval.try_mul(&ct_a, &ct_b, keys).unwrap());
        prop_assert_eq!(serial.c0(), parallel.c0());
        prop_assert_eq!(serial.c1(), parallel.c1());
    }

    #[test]
    fn keyswitch_is_thread_count_invariant(a in arb_vals(), seed in 1u64..1000) {
        let (_, keys, eval) = fixture();
        let ct = encrypt(&a, seed);
        let (s0, s1) = with_threads(1, || eval.keyswitch(ct.c1(), keys.relin()));
        let (p0, p1) = with_threads(8, || eval.keyswitch(ct.c1(), keys.relin()));
        prop_assert_eq!(s0, p0);
        prop_assert_eq!(s1, p1);
    }

    #[test]
    fn rescale_is_thread_count_invariant(a in arb_vals(), seed in 1u64..1000) {
        let (_, _, eval) = fixture();
        let ct = encrypt(&a, seed);
        let serial = with_threads(1, || eval.try_rescale(&ct).unwrap());
        let parallel = with_threads(8, || eval.try_rescale(&ct).unwrap());
        prop_assert_eq!(serial.c0(), parallel.c0());
        prop_assert_eq!(serial.c1(), parallel.c1());
    }

    #[test]
    fn rotation_is_thread_count_invariant(a in arb_vals(), seed in 1u64..1000) {
        static ROT_KEYS: OnceLock<KeySet> = OnceLock::new();
        let keys = ROT_KEYS.get_or_init(|| {
            let (_, keys, _) = fixture();
            let mut keys = keys.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
            keys.add_rotation_key(1, &mut rng);
            keys
        });
        let (_, _, eval) = fixture();
        let ct = encrypt(&a, seed);
        let serial = with_threads(1, || eval.try_rotate(&ct, 1, keys).unwrap());
        let parallel = with_threads(8, || eval.try_rotate(&ct, 1, keys).unwrap());
        prop_assert_eq!(serial.c0(), parallel.c0());
        prop_assert_eq!(serial.c1(), parallel.c1());
    }
}
