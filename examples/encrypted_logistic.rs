//! Encrypted logistic-regression inference — the workload class behind the
//! paper's HELR benchmark: a dot product folded with rotations plus a
//! polynomial sigmoid, computed entirely on ciphertexts.
//!
//! Run with: `cargo run --release --example encrypted_logistic`

use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;

/// Degree-3 least-squares sigmoid approximation on [-4, 4]:
/// σ(x) ≈ 0.5 + 0.197·x − 0.004·x³ (the classic HELR polynomial).
const SIG: [f64; 4] = [0.5, 0.197, 0.0, -0.004];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::thread_rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);

    // 8 features, packed into slots; rotation keys for the fold.
    let features = [0.8, -1.2, 0.5, 0.0, 2.0, -0.3, 1.1, -0.7];
    let weights = [0.25, -0.5, 1.0, 0.75, -0.125, 0.5, -0.25, 0.3];
    let mut step = 1usize;
    while step < features.len() {
        keys.add_rotation_key(step as i64, &mut rng);
        step *= 2;
    }

    let z: Vec<Complex> = features.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt_x = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct_x = keys.public().encrypt(&pt_x, &mut rng);

    // w ⊙ x (plaintext multiply), then log-fold rotations to sum 8 slots.
    let w: Vec<Complex> = weights.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt_w = eval.encode_at_level(&w, ctx.default_scale(), ct_x.level());
    let mut acc = eval.try_rescale(&eval.try_mul_plain(&ct_x, &pt_w)?)?;
    let mut width = features.len() / 2;
    while width >= 1 {
        let rot = eval.try_rotate(&acc, width as i64, &keys)?;
        acc = eval.try_add(&acc, &rot)?;
        width /= 2;
    }
    // Slot 0 now holds ⟨w, x⟩ (every slot holds the full sum actually,
    // because the fold is cyclic over the replicated vector).
    let logit: f64 = features.iter().zip(&weights).map(|(x, w)| x * w).sum();

    // Sigmoid polynomial on the ciphertext.
    let prob_ct = poseidon::ckks::polyeval::try_evaluate_monomial(&eval, &keys, &acc, &SIG)?;
    let dec = keys.secret().decrypt(&prob_ct);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 8)[0].re;

    let want = SIG[0] + SIG[1] * logit + SIG[3] * logit.powi(3);
    let exact = 1.0 / (1.0 + (-logit).exp());
    println!("logit          = {logit:+.4}");
    println!("homomorphic σ̂  = {got:+.4}");
    println!("plaintext poly = {want:+.4}");
    println!("exact sigmoid  = {exact:+.4}");
    assert!((got - want).abs() < 1e-2, "homomorphic result drifted");
    println!("ok: encrypted inference matches the plaintext polynomial");
    Ok(())
}
