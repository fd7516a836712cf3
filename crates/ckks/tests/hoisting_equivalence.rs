//! Bit-exactness of the hoisted rotation engine:
//! `apply_galois_hoisted`/`rotate_many` must reproduce the per-call
//! `rotate`/`apply_galois` outputs exactly, across levels, step sets, and
//! thread counts.
//!
//! Ring degree 2048 puts the hoist and the key-switch inner product over
//! `poseidon_par::PAR_THRESHOLD`, so the limb-parallel dispatch genuinely
//! runs under the hoisted engine.

use std::sync::OnceLock;

use he_ckks::cipher::Plaintext;
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use poseidon_par::with_threads;
use proptest::prelude::*;
use rand::SeedableRng;

const STEPS: [i64; 4] = [1, 2, 3, 5];

fn fixture() -> &'static (CkksContext, KeySet, Evaluator) {
    static FIXTURE: OnceLock<(CkksContext, KeySet, Evaluator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::paper_32bit(1 << 11, 3));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        for s in STEPS {
            keys.add_rotation_key(s, &mut rng);
        }
        keys.add_conjugation_key(&mut rng);
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

    /// One hoisted batch == N independent rotations, bit for bit, at any
    /// level of the chain.
    #[test]
    fn rotate_many_is_bit_identical_to_rotate(
        a in arb_vals(),
        seed in 1u64..1000,
        level in 0usize..3,
    ) {
        let (_, keys, eval) = fixture();
        let ct = eval.try_drop_to_level(&encrypt(&a, seed), level).unwrap();
        let batch = eval.try_rotate_many(&ct, &STEPS, keys).unwrap();
        prop_assert_eq!(batch.len(), STEPS.len());
        for (&s, hoisted) in STEPS.iter().zip(&batch) {
            let single = eval.try_rotate(&ct, s, keys).unwrap();
            prop_assert_eq!(hoisted.c0(), single.c0(), "c0 diverged at step {}", s);
            prop_assert_eq!(hoisted.c1(), single.c1(), "c1 diverged at step {}", s);
        }
    }

    /// The hoisted engine is deterministic across thread counts.
    #[test]
    fn rotate_many_is_thread_count_invariant(a in arb_vals(), seed in 1u64..1000) {
        let (_, keys, eval) = fixture();
        let ct = encrypt(&a, seed);
        let serial = with_threads(1, || eval.try_rotate_many(&ct, &STEPS, keys).unwrap());
        let parallel = with_threads(8, || eval.try_rotate_many(&ct, &STEPS, keys).unwrap());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.c0(), p.c0());
            prop_assert_eq!(s.c1(), p.c1());
        }
    }

    /// Explicit hoist + apply covers conjugation too (any Galois element,
    /// not just rotation powers of 5).
    #[test]
    fn hoisted_conjugation_matches_conjugate(a in arb_vals(), seed in 1u64..1000) {
        let (_, keys, eval) = fixture();
        let ct = encrypt(&a, seed);
        let g = keys.conjugation_element();
        let key = keys.galois_key(g).expect("conjugation key generated");
        let h = eval.hoist(&ct);
        let hoisted = eval.apply_galois_hoisted(&ct, &h, g, key);
        let plain = eval.try_conjugate(&ct, keys).unwrap();
        prop_assert_eq!(hoisted.c0(), plain.c0());
        prop_assert_eq!(hoisted.c1(), plain.c1());
        prop_assert_eq!(h.uses(), 1);
    }
}
