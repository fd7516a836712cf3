//! Packed bootstrapping demo: exhaust a ciphertext to its last prime, then
//! refresh it through ModRaise → SubSum → CoeffToSlot → EvalMod →
//! SlotToCoeff and keep computing on the refreshed ciphertext.
//!
//! Run with: `cargo run --release --example bootstrapping`
//! (takes ~30 s: the pipeline performs dozens of keyswitched rotations.)

use poseidon::ckks::bootstrap::{encode_for_bootstrap, exhaust_to_level0, Bootstrapper};
use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    // Sparse secret: bounds the ModRaise overflow so the sine approximation
    // of `x mod q0` stays in its accurate range.
    let mut keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let bs = Bootstrapper::new(&ctx, 4, 6);
    for step in bs.required_rotations() {
        keys.add_rotation_key(step, &mut rng);
    }
    keys.add_conjugation_key(&mut rng);

    let message = [0.25f64, -0.5, 0.125, 0.4375];
    println!("message          : {message:?}");
    let z: Vec<Complex> = message.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let ct = keys
        .public()
        .encrypt(&encode_for_bootstrap(&ctx, &z), &mut rng);
    println!("fresh level      : {}", ct.level());

    let exhausted = exhaust_to_level0(&eval, &ct)?;
    println!(
        "exhausted level  : {} (no multiplications left)",
        exhausted.level()
    );

    let refreshed = bs.try_bootstrap(&eval, &keys, &exhausted)?;
    println!(
        "refreshed level  : {} (multiplications available again)",
        refreshed.level()
    );

    // Prove it: square the refreshed ciphertext.
    let squared = eval.try_rescale(&eval.try_square(&refreshed, &keys)?)?;
    let dec = keys.secret().decrypt(&squared);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 4);
    println!("squared slots    :");
    for (i, v) in got.iter().enumerate() {
        let want = message[i] * message[i];
        println!("  slot {i}: {:+.4} (expected {:+.4})", v.re, want);
        assert!((v.re - want).abs() < 0.08, "slot {i} drifted");
    }
    println!("ok: bootstrapping refreshed an exhausted ciphertext");
    Ok(())
}
