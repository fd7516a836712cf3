//! Boundary pinning for the `noise` module: the evaluation planner uses
//! the ciphertext level and `try_measure` to decide rescale placement, so
//! their behaviour at level 0 and under an exhausted scale budget must be
//! exact, not approximately right.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::noise::try_measure;
use he_ckks::params::CkksParams;
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, Evaluator, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0D_EC_AF);
    let keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);
    (ctx, keys, eval, rng)
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng, v: f64) -> Ciphertext {
    let z = vec![Complex::new(v, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

/// The level must fall by one at every step of the descent to 0 — the
/// planner's budget accounting divides by it.
#[test]
fn level_tracks_every_step_down_to_zero() {
    let (ctx, keys, eval, mut rng) = setup();
    let mut ct = encrypt(&ctx, &keys, &mut rng, 0.5);
    assert_eq!(ct.level(), ctx.max_level());
    while ct.level() > 0 {
        let next = eval.try_drop_to_level(&ct, ct.level() - 1).unwrap();
        assert_eq!(next.level(), ct.level() - 1);
        ct = next;
    }
    assert_eq!(ct.level(), 0);
    // The floor is hard: rescaling past it is a typed error, not a wrap.
    assert_eq!(eval.try_rescale(&ct), Err(EvalError::RescaleAtLevelZero));
}

/// At level 0 the report stays exact: one live prime, budget =
/// first_prime_bits − scale_bits, still positive for a healthy
/// ciphertext.
#[test]
fn try_measure_is_exact_at_level_zero() {
    let (ctx, keys, eval, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, 0.5);
    let floor = eval.try_drop_to_level(&ct, 0).unwrap();
    let report = try_measure(&ctx, keys.secret(), &floor, &[Complex::new(0.5, 0.0)]).unwrap();
    assert_eq!(report.level, 0);
    let expected = f64::from(ctx.params().first_prime_bits) - ctx.default_scale().log2();
    assert!(
        (report.budget_bits - expected).abs() < 1.0,
        "budget {} differs from first−scale {}",
        report.budget_bits,
        expected
    );
    assert!(report.budget_bits > 0.0);
    assert!(report.precision_bits > 10.0, "level-0 value lost precision");
}

/// Exhausted scale: a plaintext multiply at level 0 doubles the scale
/// bits past the single live prime. The report must flag the negative
/// budget rather than clamp it — this is exactly the signal the planner's
/// pressure rule keys on.
#[test]
fn try_measure_reports_negative_budget_when_scale_exceeds_modulus() {
    let (ctx, keys, eval, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, 0.5);
    let floor = eval.try_drop_to_level(&ct, 0).unwrap();
    let z = vec![Complex::new(0.5, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(&ctx.level_basis(0), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    let squeezed = eval.try_mul_plain(&floor, &pt).unwrap();
    // toy(): first prime 50 bits, scale now ~80 bits → budget < 0.
    let report = try_measure(&ctx, keys.secret(), &squeezed, &[Complex::new(0.25, 0.0)]).unwrap();
    assert_eq!(report.level, 0);
    assert!(
        report.budget_bits < 0.0,
        "exhausted scale must report a negative budget, got {}",
        report.budget_bits
    );
}

/// Error surface pinning: empty references and oversized references are
/// typed errors at every level, including 0.
#[test]
fn try_measure_error_paths_hold_at_the_boundaries() {
    let (ctx, keys, eval, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, 1.0);
    let floor = eval.try_drop_to_level(&ct, 0).unwrap();
    for probe in [&ct, &floor] {
        assert_eq!(
            try_measure(&ctx, keys.secret(), probe, &[]),
            Err(EvalError::EmptyOperands)
        );
        let too_many = vec![Complex::new(0.0, 0.0); ctx.params().slots() + 1];
        assert!(matches!(
            try_measure(&ctx, keys.secret(), probe, &too_many),
            Err(EvalError::InvalidParams(_))
        ));
    }
}
