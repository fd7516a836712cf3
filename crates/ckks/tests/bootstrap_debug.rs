//! Stage-by-stage diagnostic of the bootstrapping pipeline (run with
//! `--nocapture` to inspect; assertions are deliberately loose).

use he_ckks::bootstrap::{encode_for_bootstrap, exhaust_to_level0, Bootstrapper};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use rand::SeedableRng;

#[test]
#[ignore = "diagnostic: run manually with --nocapture"]
fn stage_by_stage() {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let mut keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let slots = 4usize;
    let bs = Bootstrapper::new(&ctx, slots, 6);
    for step in bs.required_rotations() {
        keys.add_rotation_key(step, &mut rng);
    }
    keys.add_conjugation_key(&mut rng);

    let message = [0.25f64, -0.5, 0.125, 0.4375];
    let z: Vec<Complex> = message.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = encode_for_bootstrap(&ctx, &z);
    let ct = keys.public().encrypt(&pt, &mut rng);
    let exhausted = exhaust_to_level0(&eval, &ct).unwrap();

    let stride = ctx.n() / (2 * slots);
    let q0 = ctx.chain_basis().primes()[0];
    let d_factor = (ctx.n() / (2 * slots)) as f64;

    // Expected sparse coefficients of the (replicated) message poly.
    let msg_coeffs = {
        let full: Vec<Complex> = (0..ctx.n() / 2).map(|j| z[j % slots]).collect();
        ctx.encoder().encode_to_coeffs(&full, ctx.default_scale())
    };
    println!("message poly coeffs at strides:");
    for k in 0..2 * slots {
        println!("  m[{}] = {}", k * stride, msg_coeffs[k * stride]);
    }
    println!(
        "(nonzero off-stride coeffs: {})",
        msg_coeffs
            .iter()
            .enumerate()
            .filter(|(i, &v)| v != 0 && i % stride != 0)
            .count()
    );

    // Stage 1: ModRaise.
    let raised = bs.try_mod_raise(&exhausted).unwrap();
    let dec = keys.secret().decrypt(&raised);
    let raw = dec.poly().to_centered_coeffs();
    println!("\nafter ModRaise (level {}):", raised.level());
    for k in 0..4 {
        println!(
            "  coeff[{}] = {} ; mod q0 centered = {}",
            k * stride,
            raw[k * stride],
            {
                let r = raw[k * stride].rem_euclid(q0 as i64);
                if r > q0 as i64 / 2 {
                    r - q0 as i64
                } else {
                    r
                }
            }
        );
    }

    // Stage 2: SubSum.
    let traced = bs.try_subsum(&eval, &keys, &raised).unwrap();
    let dec = keys.secret().decrypt(&traced);
    let raw = dec.poly().to_centered_f64();
    println!(
        "\nafter SubSum (level {}), D = {}:",
        traced.level(),
        d_factor
    );
    let mut off_stride_max = 0f64;
    for (i, &v) in raw.iter().enumerate() {
        if i % stride != 0 {
            off_stride_max = off_stride_max.max(v.abs());
        }
    }
    println!("  max |off-stride coeff| = {off_stride_max} (should be 0)");
    for k in 0..4 {
        let v = raw[k * stride];
        println!(
            "  coeff[{}] = {v:.1} ; /D = {:.2} ; expected D·m = {}",
            k * stride,
            v / d_factor,
            d_factor as i64 * msg_coeffs[k * stride],
        );
    }

    // Stage 3: CoeffToSlot.
    let (low, high) = bs.try_coeff_to_slot(&eval, &keys, &traced).unwrap();
    let dl = keys.secret().decrypt(&low);
    let gl = ctx.encoder().decode_rns(dl.poly(), dl.scale(), slots);
    let dh = keys.secret().decrypt(&high);
    let gh = ctx.encoder().decode_rns(dh.poly(), dh.scale(), slots);
    println!(
        "\nafter CoeffToSlot (levels {} / {}):",
        low.level(),
        high.level()
    );
    let dec_traced = keys.secret().decrypt(&traced).poly().to_centered_f64();
    for k in 0..slots {
        println!(
            "  low[{k}] = {:.6}{:+.6}i   want {:.6}  err {:.2e} im {:.2e}",
            gl[k].re,
            gl[k].im,
            dec_traced[k * stride] / d_factor / 2f64.powi(45),
            (gl[k].re - dec_traced[k * stride] / d_factor / 2f64.powi(45)).abs(),
            gl[k].im.abs()
        );
    }
    for k in 0..slots {
        println!(
            "  high[{k}] = {:.6}{:+.6}i  want {:.6}",
            gh[k].re,
            gh[k].im,
            dec_traced[(slots + k) * stride] / d_factor / 2f64.powi(45)
        );
    }

    // Stage 4: EvalMod on the low half.
    let low_mod = bs.try_eval_mod(&eval, &keys, &low).unwrap();
    let dm = keys.secret().decrypt(&low_mod);
    let gm = ctx.encoder().decode_rns(dm.poly(), dm.scale(), slots);
    println!("\nafter EvalMod(low) (level {}):", low_mod.level());
    for k in 0..slots {
        let want = {
            let r = (dec_traced[k * stride] / d_factor).rem_euclid(q0 as f64);
            if r > q0 as f64 / 2.0 {
                r - q0 as f64
            } else {
                r
            }
        };
        println!(
            "  lowmod[{k}] = {:.6}{:+.6}i  want ≈ {:.6}",
            gm[k].re,
            gm[k].im,
            want / 2f64.powi(45)
        );
    }

    // Stage 5: SlotToCoeff.
    let high_mod = bs.try_eval_mod(&eval, &keys, &high).unwrap();
    let out = bs
        .try_slot_to_coeff(&eval, &keys, &low_mod, &high_mod)
        .unwrap();
    let d = keys.secret().decrypt(&out);
    let g = ctx.encoder().decode_rns(d.poly(), d.scale(), slots);
    println!("\nafter SlotToCoeff (level {}):", out.level());
    for k in 0..slots {
        println!(
            "  out[{k}] = {:.4}{:+.4}i  want {}",
            g[k].re, g[k].im, message[k]
        );
    }
}

/// Replicates eval_mod step by step with decryption probes.
#[test]
#[ignore = "diagnostic: run manually with --nocapture"]
fn evalmod_stages() {
    use he_ckks::polyeval::try_evaluate_monomial;
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let slots = 4usize;

    let probe = |label: &str,
                 ct: &he_ckks::cipher::Ciphertext,
                 truth: &dyn Fn(f64) -> f64,
                 inputs: &[f64]| {
        let d = keys.secret().decrypt(ct);
        let g = ctx.encoder().decode_rns(d.poly(), d.scale(), slots);
        for k in 0..slots {
            let want = truth(inputs[k]);
            println!(
                "  {label}[{k}] = {:.8}{:+.8}i  want {:.8}  (err {:.2e})",
                g[k].re,
                g[k].im,
                want,
                (g[k].re - want).abs().max(g[k].im.abs())
            );
        }
    };

    // Simulate the post-C2S state: encrypt the known slot values directly.
    let inputs = [0.078125f64, 8.118563, 0.077340, -16.204575];
    let z: Vec<Complex> = inputs.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = encode_for_bootstrap(&ctx, &z);
    let ct = keys.public().encrypt(&pt, &mut rng);

    let q0_eff = ctx.chain_basis().primes()[0] as f64 / ctx.default_scale();
    let doublings = 6u32;
    let r_pow = 2f64.powi(doublings as i32);
    let c = 2.0 * std::f64::consts::PI / (q0_eff * r_pow);
    let half = c.sqrt();

    let mut y = ct.clone();
    for _ in 0..2 {
        let p = eval.encode_at_level(&[Complex::new(half, 0.0)], ctx.default_scale(), y.level());
        y = eval
            .try_rescale(&eval.try_mul_plain(&y, &p).unwrap())
            .unwrap();
    }
    println!("after const muls (level {}):", y.level());
    probe("y", &y, &|x| c * x, &inputs);

    let sin_c = [
        0.0,
        1.0,
        0.0,
        -1.0 / 6.0,
        0.0,
        1.0 / 120.0,
        0.0,
        -1.0 / 5040.0,
    ];
    let cos_c = [1.0, 0.0, -0.5, 0.0, 1.0 / 24.0, 0.0, -1.0 / 720.0];
    let mut s = try_evaluate_monomial(&eval, &keys, &y, &sin_c).unwrap();
    let mut co = try_evaluate_monomial(&eval, &keys, &y, &cos_c).unwrap();
    println!("after Taylor (levels {} / {}):", s.level(), co.level());
    probe("sin", &s, &|x| (c * x).sin(), &inputs);
    probe("cos", &co, &|x| (c * x).cos(), &inputs);

    for it in 0..doublings {
        let level = s.level().min(co.level());
        let scale = s.scale();
        let s_al = eval.try_adjust(&s, level, scale).unwrap();
        let c_al = eval.try_adjust(&co, level, scale).unwrap();
        let sc = eval
            .try_rescale(&eval.try_mul(&s_al, &c_al, &keys).unwrap())
            .unwrap();
        let s2 = eval
            .try_rescale(&eval.try_square(&s_al, &keys).unwrap())
            .unwrap();
        let mut s_next = eval.try_add(&sc, &sc).unwrap();
        let s2d = eval.try_add(&s2, &s2).unwrap();
        let one = eval.encode_at_level(&[Complex::new(1.0, 0.0)], s2d.scale(), s2d.level());
        let mut c_next = eval.neg(&eval.try_sub_plain(&s2d, &one).unwrap());
        let level = s_next.level().min(c_next.level());
        s_next = eval.try_adjust(&s_next, level, s_next.scale()).unwrap();
        c_next = eval.try_adjust(&c_next, level, c_next.scale()).unwrap();
        s = s_next;
        co = c_next;
        let mult = 2f64.powi(it as i32 + 1);
        println!("after doubling {} (level {}):", it + 1, s.level());
        probe("sin", &s, &|x| (c * mult * x).sin(), &inputs);
    }
}
