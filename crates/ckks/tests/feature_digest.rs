//! Bit-exactness digests of seeded pipelines in the one build there is.
//!
//! Telemetry probes and disarmed fault hooks are compiled into every build
//! and must never perturb the arithmetic. Each test pins its digest as a
//! constant, so a probe or hook that moves a bit fails here, and so does a
//! digest that drifts from the parent commit.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use rand::SeedableRng;

/// FNV-1a over every residue word of both ciphertext components.
fn digest(ct: &Ciphertext) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for poly in [ct.c0(), ct.c1()] {
        for row in poly.all_residues() {
            for &v in row {
                eat(v);
            }
        }
    }
    h
}

fn run_pipeline() -> Ciphertext {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD16E57);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);
    let encrypt = |v: f64, rng: &mut rand::rngs::StdRng| {
        let z = vec![Complex::new(v, 0.0)];
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    };
    let a = encrypt(1.25, &mut rng);
    let b = encrypt(-0.5, &mut rng);
    // Keyswitch-bearing mul, rescale, then a keyswitch-bearing rotation.
    let prod = eval.try_mul(&a, &b, &keys).unwrap();
    let scaled = eval.try_rescale(&prod).unwrap();
    eval.try_rotate(&scaled, 1, &keys).unwrap()
}

#[test]
fn keyswitch_rotate_pipeline_digest_is_deterministic() {
    let d1 = digest(&run_pipeline());
    let d2 = digest(&run_pipeline());
    assert_eq!(d1, d2, "seeded pipeline must be deterministic in-process");
    const PINNED: u64 = 0x54c9_2edd_b1df_e83d;
    assert_eq!(
        d1, PINNED,
        "pipeline digest moved: got {d1:#018x}, pinned {PINNED:#018x}. A legitimate \
         change updates this constant and the same value in EXPERIMENTS.md."
    );
}

/// Same contract for the hoisted batch engine: its digest must be stable,
/// and — since `rotate` routes through the same hoisted code path — each
/// batched output must be bit-identical to the per-call rotation, so the
/// hoisted and unhoisted digests written by CI are the same file content.
#[test]
fn hoisted_rotation_digest_matches_unhoisted() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD16E57);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    for s in [1i64, 2, 3] {
        keys.add_rotation_key(s, &mut rng);
    }
    let eval = Evaluator::new(&ctx);
    let z = vec![Complex::new(0.75, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    let steps = [1i64, 2, 3];
    let batch = eval.try_rotate_many(&ct, &steps, &keys).unwrap();
    let mut hoisted = 0u64;
    let mut unhoisted = 0u64;
    for (&s, out) in steps.iter().zip(&batch) {
        hoisted ^= digest(out).rotate_left(s as u32);
        unhoisted ^= digest(&eval.try_rotate(&ct, s, &keys).unwrap()).rotate_left(s as u32);
    }
    assert_eq!(
        hoisted, unhoisted,
        "hoisted batch diverged from per-call rotations"
    );
    const PINNED: u64 = 0x97cd_2529_6377_2714;
    assert_eq!(
        hoisted, PINNED,
        "hoisted digest moved: got {hoisted:#018x}, pinned {PINNED:#018x}. A legitimate \
         change updates this constant and the same value in EXPERIMENTS.md."
    );
}
