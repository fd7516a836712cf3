//! Ciphertext serialization: encrypt, ship as a checksummed wire frame
//! (e.g. client → cloud, the Fig. 1 deployment scenario), compute on the
//! decoded ciphertext server-side, ship the result back, decrypt.
//!
//! Run with: `cargo run --release --example serialization`

use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;
use poseidon::wire::{decode_ciphertext, encode_ciphertext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::thread_rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);

    // Client side: encrypt and serialise.
    let z = vec![Complex::new(3.0, 0.0), Complex::new(-1.5, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);
    let wire = encode_ciphertext(&ctx, &ct);
    println!("ciphertext on the wire: {} bytes", wire.len());

    // Server side: decode (no secret key!), compute x² + x.
    let received = decode_ciphertext(&ctx, &wire).expect("decode");
    let sq = eval.try_rescale(&eval.try_square(&received, &keys)?)?;
    let result = eval.try_add(&sq, &eval.try_adjust(&received, sq.level(), sq.scale())?)?;
    let reply = encode_ciphertext(&ctx, &result);
    println!("result on the wire    : {} bytes", reply.len());

    // Client side: decrypt.
    let back = decode_ciphertext(&ctx, &reply).expect("decode result");
    let dec = keys.secret().decrypt(&back);
    let out = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 2);
    for (i, (v, zi)) in out.iter().zip(&z).enumerate() {
        let want = zi.re * zi.re + zi.re;
        println!("slot {i}: {:+.4} (expected {:+.4})", v.re, want);
        assert!((v.re - want).abs() < 0.02);
    }
    println!("ok: computed on serialised ciphertexts without the secret key");
    Ok(())
}
