//! Quickstart: encrypt two vectors, compute `a·b + a` homomorphically,
//! rotate the result, and decrypt.
//!
//! Run with: `cargo run --release --example quickstart`

use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small parameters: N = 2^11, 8-prime chain (≈ 7 multiplicative levels).
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::thread_rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);

    let a_vals = [1.5, 2.0, -3.0, 0.25];
    let b_vals = [4.0, -1.0, 2.0, 8.0];
    println!("a = {a_vals:?}");
    println!("b = {b_vals:?}");

    let encode = |vals: &[f64]| {
        let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
        Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        )
    };
    let ct_a = keys.public().encrypt(&encode(&a_vals), &mut rng);
    let ct_b = keys.public().encrypt(&encode(&b_vals), &mut rng);

    // a·b (ciphertext × ciphertext with relinearisation), rescaled.
    let prod = eval.try_rescale(&eval.try_mul(&ct_a, &ct_b, &keys)?)?;
    // a·b + a — levels/scales aligned automatically by the evaluator.
    let sum = eval.try_add(&prod, &eval.try_adjust(&ct_a, prod.level(), prod.scale())?)?;
    // Rotate left by one slot.
    let rotated = eval.try_rotate(&sum, 1, &keys)?;

    let dec = keys.secret().decrypt(&rotated);
    let out = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 4);

    println!("rot(a*b + a, 1) =");
    for (i, v) in out.iter().enumerate() {
        let j = (i + 1) % 4;
        let want = a_vals[j] * b_vals[j] + a_vals[j];
        println!("  slot {i}: {:+.4} (expected {:+.4})", v.re, want);
        assert!((v.re - want).abs() < 1e-2, "slot {i} drifted");
    }
    println!("ok: homomorphic pipeline matches plaintext semantics");
    Ok(())
}
