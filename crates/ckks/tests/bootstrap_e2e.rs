//! End-to-end packed bootstrapping: exhaust a ciphertext to level 0, run
//! the full ModRaise → SubSum → CoeffToSlot → EvalMod → SlotToCoeff
//! pipeline, and verify the refreshed ciphertext still decrypts to the
//! original message (to the expected approximation precision).

use he_ckks::bootstrap::{encode_for_bootstrap, exhaust_to_level0, Bootstrapper};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use rand::SeedableRng;

fn run_bootstrap(slots: usize, doublings: u32, message: &[f64]) -> (Vec<f64>, Vec<Complex>, usize) {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    // Sparse secret keeps the ModRaise overflow |I| small enough for the
    // Taylor-grade sine approximation.
    let mut keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let bs = Bootstrapper::new(&ctx, slots, doublings);
    for step in bs.required_rotations() {
        keys.add_rotation_key(step, &mut rng);
    }
    keys.add_conjugation_key(&mut rng);

    let z: Vec<Complex> = message.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = encode_for_bootstrap(&ctx, &z);
    let ct = keys.public().encrypt(&pt, &mut rng);
    let exhausted = exhaust_to_level0(&eval, &ct).unwrap();
    assert_eq!(exhausted.level(), 0);

    let refreshed = bs.try_bootstrap(&eval, &keys, &exhausted).unwrap();
    let dec = keys.secret().decrypt(&refreshed);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), slots);
    (message.to_vec(), got, refreshed.level())
}

#[test]
fn bootstrap_refreshes_an_exhausted_ciphertext() {
    let message = [0.25, -0.5, 0.125, 0.4375];
    let (want, got, level) = run_bootstrap(4, 6, &message);
    // The whole point: the refreshed ciphertext has levels to spend again.
    assert!(
        level >= 2,
        "refreshed ciphertext must regain levels, got {level}"
    );
    for (j, (w, g)) in want.iter().zip(&got).enumerate() {
        assert!(
            (w - g.re).abs() < 0.05,
            "slot {j}: wanted {w}, got {} (im {})",
            g.re,
            g.im
        );
        assert!(g.im.abs() < 0.05, "slot {j}: imaginary leakage {}", g.im);
    }
}

#[test]
fn bootstrap_preserves_zero() {
    let message = [0.0, 0.0, 0.0, 0.0];
    let (_, got, _) = run_bootstrap(4, 6, &message);
    for (j, g) in got.iter().enumerate() {
        assert!(g.abs() < 0.05, "slot {j}: {} should be ≈ 0", g.re);
    }
}
