//! Property-based tests for the CKKS scheme: homomorphic semantics over
//! random slot vectors.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

const SLOTS: usize = 4;

/// Shared context/keys (keygen is the expensive part; the properties vary
/// the messages, not the keys).
fn setup() -> &'static (CkksContext, KeySet, Evaluator) {
    static CELL: OnceLock<(CkksContext, KeySet, Evaluator)> = OnceLock::new();
    CELL.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACADE);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_key(1, &mut rng);
        keys.add_conjugation_key(&mut rng);
        let eval = Evaluator::new(&ctx);
        (ctx, keys, eval)
    })
}

fn encrypt(vals: &[f64]) -> Ciphertext {
    let (ctx, keys, _) = setup();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, &mut rng)
}

fn decrypt(ct: &Ciphertext) -> Vec<f64> {
    let (ctx, keys, _) = setup();
    let pt = keys.secret().decrypt(ct);
    ctx.encoder()
        .decode_rns(pt.poly(), pt.scale(), SLOTS)
        .iter()
        .map(|c| c.re)
        .collect()
}

fn arb_vals() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-8.0f64..8.0, SLOTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn encryption_round_trips(vals in arb_vals()) {
        let got = decrypt(&encrypt(&vals));
        for (g, w) in got.iter().zip(&vals) {
            prop_assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn addition_is_slotwise(a in arb_vals(), b in arb_vals()) {
        let (_, _, eval) = setup();
        let got = decrypt(&eval.try_add(&encrypt(&a), &encrypt(&b)).unwrap());
        for i in 0..SLOTS {
            prop_assert!((got[i] - (a[i] + b[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn multiplication_is_slotwise(a in arb_vals(), b in arb_vals()) {
        let (_, keys, eval) = setup();
        let prod = eval.try_rescale(&eval.try_mul(&encrypt(&a), &encrypt(&b), keys).unwrap()).unwrap();
        let got = decrypt(&prod);
        for i in 0..SLOTS {
            prop_assert!((got[i] - a[i] * b[i]).abs() < 0.05, "{} vs {}", got[i], a[i] * b[i]);
        }
    }

    #[test]
    fn homomorphic_ops_commute_with_plaintext_ops(a in arb_vals(), b in arb_vals()) {
        // dec(enc(a) − enc(b)) + dec(enc(b)) ≈ a
        let (_, _, eval) = setup();
        let diff = decrypt(&eval.try_sub(&encrypt(&a), &encrypt(&b)).unwrap());
        for i in 0..SLOTS {
            prop_assert!((diff[i] + b[i] - a[i]).abs() < 2e-3);
        }
    }

    #[test]
    fn rotation_permutes_slots(a in arb_vals()) {
        let (ctx, keys, eval) = setup();
        // Fill all slots by replication (SLOTS divides N/2), then rotating
        // by 1 shifts the replicated pattern by 1.
        let rot = eval.try_rotate(&encrypt(&a), 1, keys).unwrap();
        let got = decrypt(&rot);
        let _ = ctx;
        for i in 0..SLOTS {
            let want = a[(i + 1) % SLOTS];
            prop_assert!((got[i] - want).abs() < 1e-2, "slot {i}");
        }
    }

    #[test]
    fn conjugation_is_involutive(a in arb_vals()) {
        let (_, keys, eval) = setup();
        let ct = encrypt(&a);
        let twice = eval.try_conjugate(&eval.try_conjugate(&ct, keys).unwrap(), keys).unwrap();
        let got = decrypt(&twice);
        for i in 0..SLOTS {
            prop_assert!((got[i] - a[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn scalar_multiplication_matches(a in arb_vals(), c in -4.0f64..4.0) {
        let (_, _, eval) = setup();
        let prod = eval.try_rescale(&eval.mul_const(&encrypt(&a), c)).unwrap();
        let got = decrypt(&prod);
        for i in 0..SLOTS {
            prop_assert!((got[i] - c * a[i]).abs() < 0.02);
        }
    }

    #[test]
    fn rescale_preserves_semantics_at_any_level(a in arb_vals(), b in arb_vals()) {
        let (_, keys, eval) = setup();
        // Two chained multiplications with rescales at different levels.
        let p1 = eval.try_rescale(&eval.try_mul(&encrypt(&a), &encrypt(&b), keys).unwrap()).unwrap();
        let p2 = eval.try_rescale(&eval.try_mul(&p1, &eval.try_adjust(&encrypt(&a), p1.level(), p1.scale()).unwrap(), keys).unwrap()).unwrap();
        let got = decrypt(&p2);
        for i in 0..SLOTS {
            let want = a[i] * b[i] * a[i];
            prop_assert!((got[i] - want).abs() < 0.3 + want.abs() * 0.01, "{} vs {want}", got[i]);
        }
    }
}
