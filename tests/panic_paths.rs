//! Regression tests for the panic-free evaluation surface: degenerate
//! inputs come back as typed [`EvalError`]s through the `try_*` API, the
//! only form the operations have.

use poseidon::ckks::bootstrap::Bootstrapper;
use poseidon::ckks::encoding::Complex;
use poseidon::ckks::linear::PlainMatrix;
use poseidon::ckks::prelude::*;
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x9A41C)
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng) -> Ciphertext {
    let z = [Complex::new(0.5, 0.0), Complex::new(-0.25, 0.125)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

/// A bootstrap invoked on a ciphertext that is not exhausted (ModRaise
/// expects level 0) is a typed `LevelMismatch`, not a process abort.
#[test]
fn try_bootstrap_rejects_non_exhausted_input_with_a_typed_error() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let bs = Bootstrapper::new(&ctx, 4, 2);

    let fresh = encrypt(&ctx, &keys, &mut rng);
    assert!(fresh.level() > 0, "fresh ciphertext must not be exhausted");
    match bs.try_bootstrap(&eval, &keys, &fresh) {
        Err(EvalError::LevelMismatch { .. }) => {}
        other => panic!("expected LevelMismatch, got {other:?}"),
    }
}

/// An all-zero linear-transform matrix has no live diagonal to
/// accumulate: `try_apply` reports `EmptyOperands`.
#[test]
fn zero_matrix_apply_is_empty_operands_not_a_panic() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    for s in 1..4 {
        keys.add_rotation_key(s, &mut rng);
    }
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let zero = PlainMatrix::new(vec![vec![Complex::new(0.0, 0.0); 4]; 4]);

    assert_eq!(
        zero.try_apply(&eval, &keys, &ct).unwrap_err(),
        EvalError::EmptyOperands
    );
}

/// A plaintext encoded below the ciphertext's level (plaintext frames
/// carry their own level, so a client can send one) is a typed
/// `LevelMismatch` from every fallible ct·pt / ct±pt entry point — the
/// evaluator, its `HomomorphicOps` face, and the checked evaluator the
/// service runs requests under — not a basis-prefix assertion.
#[test]
fn lower_level_plaintext_is_a_level_mismatch_not_a_panic() {
    use poseidon::ckks::integrity::CheckedEvaluator;
    use poseidon::core::HomomorphicOps;

    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let mut eval = Evaluator::new(&ctx);
    let checked = CheckedEvaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    assert!(ct.level() > 0);
    let low = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), 0);
    let want = EvalError::LevelMismatch {
        a: ct.level(),
        b: 0,
    };

    assert_eq!(eval.try_add_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(eval.try_sub_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(eval.try_mul_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(checked.add_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(checked.mul_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(
        HomomorphicOps::try_mul_plain(&mut eval, &ct, &low).unwrap_err(),
        want
    );

    // A plaintext at or above the ciphertext's level is still truncated
    // down to it.
    let dropped = eval.try_drop_to_level(&ct, 0).unwrap();
    let full = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), ct.level());
    assert_eq!(
        eval.try_mul_plain(&dropped, &full).unwrap(),
        eval.try_mul_plain(&dropped, &low).unwrap()
    );
}

/// The functional machine checks the same operand: its `try_add_plain` and
/// `try_mul_plain` return the evaluator's `LevelMismatch` where they used
/// to hit `truncate_basis`'s prefix assertion.
#[test]
fn machine_lower_level_plaintext_is_a_level_mismatch_not_a_panic() {
    use poseidon::core::{HomomorphicOps, PoseidonMachine};

    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);
    let mut machine = PoseidonMachine::new(&ctx, 8, 1);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let low = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), 0);
    let want = EvalError::LevelMismatch {
        a: ct.level(),
        b: 0,
    };

    assert_eq!(machine.try_add_plain(&ct, &low).unwrap_err(), want);
    assert_eq!(machine.try_mul_plain(&ct, &low).unwrap_err(), want);

    // A plaintext above the ciphertext's level is truncated down to it,
    // exactly as the evaluator does.
    let dropped = eval.try_drop_to_level(&ct, 0).unwrap();
    let full = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), ct.level());
    assert_eq!(
        machine.try_mul_plain(&dropped, &full).unwrap(),
        machine.try_mul_plain(&dropped, &low).unwrap()
    );
}

/// Wire + serve smoke from the facade crate: a ciphertext survives the
/// codec bit-for-bit and a served op matches the local evaluator, while
/// a truncated frame decodes to a typed `WireError`.
#[test]
fn facade_wire_and_serve_round_trip() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let ct = encrypt(&ctx, &keys, &mut rng);

    let frame = poseidon::wire::encode_ciphertext(&ctx, &ct);
    let back = poseidon::wire::decode_ciphertext(&ctx, &frame).expect("round trip");
    assert_eq!(back.c0(), ct.c0());
    assert_eq!(back.c1(), ct.c1());
    assert!(matches!(
        poseidon::wire::decode_ciphertext(&ctx, &frame[..frame.len() - 1]),
        Err(poseidon::wire::WireError::ChecksumMismatch { .. })
            | Err(poseidon::wire::WireError::Truncated { .. })
    ));

    let service = poseidon::serve::EvalService::start(poseidon::serve::ServiceConfig::default());
    service.register_tenant("acme", &keys);
    let served = service
        .call(
            "acme",
            poseidon::serve::Request::Add {
                a: ct.clone(),
                b: ct.clone(),
            },
        )
        .expect("served add");
    let local = Evaluator::new(&ctx).try_add(&ct, &ct).unwrap();
    assert_eq!(served.c0(), local.c0());
    assert_eq!(served.c1(), local.c1());
}
