//! Encrypted logistic-regression inference — the workload class behind the
//! paper's HELR benchmark: a dot product folded with rotations plus a
//! polynomial sigmoid, computed entirely on ciphertexts.
//!
//! Run with: `cargo run --release --example encrypted_logistic`

use poseidon::ckks::apps::LogisticModel;
use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::thread_rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);

    // 8 features, packed into slots; rotation keys 1, 2, 4 for the fold.
    let features = [0.8, -1.2, 0.5, 0.0, 2.0, -0.3, 1.1, -0.7];
    let weights = [0.25, -0.5, 1.0, 0.75, -0.125, 0.5, -0.25, 0.3];
    keys.add_rotation_keys([1, 2, 4], &mut rng);
    let model = LogisticModel::new(&weights, 0.0);

    let z: Vec<Complex> = features.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt_x = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct_x = keys.public().encrypt(&pt_x, &mut rng);

    // ⟨w, x⟩ by a plaintext multiply and a log-fold of rotations, then the
    // HELR sigmoid polynomial, all on the ciphertext.
    let prob_ct = model.score(&eval, &keys, &ct_x)?;
    let dec = keys.secret().decrypt(&prob_ct);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 8)[0].re;

    let logit: f64 = features.iter().zip(&weights).map(|(x, w)| x * w).sum();
    let want = model.score_plain(&features);
    let exact = 1.0 / (1.0 + (-logit).exp());
    println!("logit          = {logit:+.4}");
    println!("homomorphic σ̂  = {got:+.4}");
    println!("plaintext poly = {want:+.4}");
    println!("exact sigmoid  = {exact:+.4}");
    assert!((got - want).abs() < 1e-2, "homomorphic result drifted");
    println!("ok: encrypted inference matches the plaintext polynomial");
    Ok(())
}
