//! End-to-end validation of the Poseidon functional machine: real CKKS
//! operations executed through the five pooled cores must decrypt to the
//! same results as the reference evaluator.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use poseidon_core::{Operator, PoseidonMachine};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    (ctx.clone(), keys, Evaluator::new(&ctx), rng)
}

fn encrypt(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    vals: &[f64],
) -> Ciphertext {
    let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext, n: usize) -> Vec<f64> {
    let pt = keys.secret().decrypt(ct);
    ctx.encoder()
        .decode_rns(pt.poly(), pt.scale(), n)
        .iter()
        .map(|c| c.re)
        .collect()
}

#[test]
fn machine_hadd_decrypts_correctly() {
    let (ctx, keys, _, mut rng) = setup();
    let mut m = PoseidonMachine::new(&ctx, 256, 3);
    let a = encrypt(&ctx, &keys, &mut rng, &[1.0, -2.5]);
    let b = encrypt(&ctx, &keys, &mut rng, &[0.5, 4.0]);
    let sum = m.try_hadd(&a, &b).unwrap();
    let got = decrypt(&ctx, &keys, &sum, 2);
    assert!((got[0] - 1.5).abs() < 1e-3 && (got[1] - 1.5).abs() < 1e-3);
    // HAdd is MA-only on the machine (Table I / Fig. 7).
    let u = m.usage();
    assert!(u.ma > 0);
    assert_eq!(u.mm, 0);
    assert_eq!(u.ntt, 0);
    assert_eq!(u.auto, 0);
}

#[test]
fn machine_pmult_matches_evaluator() {
    let (ctx, keys, eval, mut rng) = setup();
    let mut m = PoseidonMachine::new(&ctx, 256, 3);
    let a = encrypt(&ctx, &keys, &mut rng, &[2.0, -1.0]);
    let pt = eval.encode_at_level(
        &[Complex::new(1.5, 0.0), Complex::new(0.5, 0.0)],
        ctx.default_scale(),
        a.level(),
    );
    let machine_out = m.try_pmult(&a, &pt).unwrap();
    let eval_out = eval.try_mul_plain(&a, &pt).unwrap();
    // Identical ciphertexts (both paths do exact arithmetic).
    assert_eq!(machine_out, eval_out);
    let got = decrypt(&ctx, &keys, &m.try_rescale(&machine_out).unwrap(), 2);
    assert!((got[0] - 3.0).abs() < 1e-2 && (got[1] + 0.5).abs() < 1e-2);
}

#[test]
fn machine_cmult_decrypts_to_product() {
    let (ctx, keys, _, mut rng) = setup();
    let mut m = PoseidonMachine::new(&ctx, 256, 3);
    let a = encrypt(&ctx, &keys, &mut rng, &[1.5, -2.0]);
    let b = encrypt(&ctx, &keys, &mut rng, &[2.0, 0.5]);
    let raw = m.try_cmult(&a, &b, &keys).unwrap();
    let prod = m.try_rescale(&raw).unwrap();
    let got = decrypt(&ctx, &keys, &prod, 2);
    assert!((got[0] - 3.0).abs() < 0.02, "{}", got[0]);
    assert!((got[1] + 1.0).abs() < 0.02, "{}", got[1]);
    // CMult exercises MA, MM, NTT, SBT but not Automorphism.
    let u = m.usage();
    for op in [Operator::Ma, Operator::Mm, Operator::Ntt, Operator::Sbt] {
        assert!(u.get(op) > 0, "{op}");
    }
    assert_eq!(u.auto, 0);
}

#[test]
fn machine_rotation_matches_evaluator_semantics() {
    let (ctx, keys, eval, mut rng) = setup();
    let mut m = PoseidonMachine::new(&ctx, 256, 3);
    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) / 2.0 - 1.0).collect();
    let ct = encrypt(&ctx, &keys, &mut rng, &vals);
    let machine_rot = m.try_rotate(&ct, 1, &keys).unwrap();
    let eval_rot = eval.try_rotate(&ct, 1, &keys).unwrap();
    // Both decrypt to the same rotated vector. The ciphertext bits differ:
    // the machine lifts the automorphed c1 (representative q_j − v at
    // wrapped positions), while the hoisted evaluator automorphs the
    // lifted digits (representative −v) — CRT-consistent encodings of the
    // same residue, so the decryptions agree to working precision.
    let got = decrypt(&ctx, &keys, &machine_rot, slots);
    let got_eval = decrypt(&ctx, &keys, &eval_rot, slots);
    for i in 0..6 {
        assert!((got[i] - vals[(i + 1) % slots]).abs() < 1e-2, "slot {i}");
        assert!(
            (got[i] - got_eval[i]).abs() < 1e-3,
            "slot {i} backend drift"
        );
    }
    // Rotation uses all five operators (Table I).
    let u = m.usage();
    for op in Operator::ALL {
        assert!(u.get(op) > 0, "{op}");
    }
}

#[test]
fn machine_usage_scales_with_level() {
    let (ctx, keys, _, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, &[1.0]);
    let b = encrypt(&ctx, &keys, &mut rng, &[1.0]);
    let mut m_full = PoseidonMachine::new(&ctx, 256, 3);
    let _ = m_full.try_cmult(&a, &b, &keys).unwrap();
    let full = m_full.usage();

    let eval = Evaluator::new(&ctx);
    let a_low = eval.try_drop_to_level(&a, 1).unwrap();
    let b_low = eval.try_drop_to_level(&b, 1).unwrap();
    let mut m_low = PoseidonMachine::new(&ctx, 256, 3);
    let _ = m_low.try_cmult(&a_low, &b_low, &keys).unwrap();
    let low = m_low.usage();
    assert!(full.ntt > low.ntt, "NTT work must grow with level");
    assert!(full.mm > low.mm);
}
