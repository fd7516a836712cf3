//! Telemetry agreement tests: the pool's metric items must be the *same numbers* as
//! `OperatorPool::usage()` and, where the machine's dataflow matches the
//! paper's decomposition model, the Table I element counts.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::decompose::{BasicOp, OpParams};
use poseidon_core::{HomomorphicOps, Operator, PoseidonMachine};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E1E);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    (ctx, keys, rng)
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

/// Per-operator snapshot items must equal `usage()` exactly — they are two
/// views over the same atomics, so any drift is a double-count bug.
#[test]
fn snapshot_items_equal_usage_exactly() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.5);
    let b = encrypt(&ctx, &keys, &mut rng, -2.0);
    let mut m = PoseidonMachine::new(&ctx, 8, 1);
    let s = m.try_add(&a, &b).unwrap();
    let p = m.try_mul(&s, &a, &keys).unwrap();
    let r = m.try_rescale(&p).unwrap();
    let _ = m.try_rotate(&r, 1, &keys).unwrap();

    let usage = m.usage();
    assert!(usage.total() > 0, "workload produced no operator traffic");
    let snap = m.pool_mut().snapshot();
    for (scope, expected) in [
        ("pool.ma", usage.ma),
        ("pool.mm", usage.mm),
        ("pool.ntt", usage.ntt),
        ("pool.auto", usage.auto),
        ("pool.sbt", usage.sbt),
    ] {
        let stats = snap.get(scope).expect("scope registered");
        assert_eq!(stats.items, expected, "{scope} diverged from usage()");
        assert!(stats.count > 0, "{scope} recorded items but no events");
    }
}

/// HAdd is the one operation whose machine dataflow is element-for-element
/// the Table I decomposition (2·L·N MA, nothing else) — assert the
/// telemetry counters reproduce the model count exactly.
#[test]
fn hadd_counters_match_table1_decomposition_exactly() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.25);
    let b = encrypt(&ctx, &keys, &mut rng, 0.75);
    let mut m = PoseidonMachine::new(&ctx, 8, 1);
    let _ = m.try_add(&a, &b).unwrap();

    let p = OpParams::new(ctx.n(), a.level() + 1, ctx.special_basis().len());
    let model = BasicOp::HAdd.operator_counts(&p);
    let usage = m.usage();
    assert_eq!(usage.ma, model.ma, "MA elements diverge from Table I");
    assert_eq!(usage.mm, 0);
    assert_eq!(usage.ntt, 0);
    assert_eq!(usage.auto, 0);
    assert_eq!(usage.sbt, 0);
}

/// Rotation exercises every operator in Table I's checkmark row; the
/// machine's measured nonzero pattern must reproduce it, and the
/// automorphism element count is exact (2·L·N).
#[test]
fn rotation_usage_pattern_matches_table1_row() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.0);
    let mut m = PoseidonMachine::new(&ctx, 8, 1);
    let _ = m.try_rotate(&a, 1, &keys).unwrap();

    let p = OpParams::new(ctx.n(), a.level() + 1, ctx.special_basis().len());
    let usage = m.usage();
    for (op, used) in BasicOp::Rotation.uses(&p) {
        assert_eq!(
            usage.get(op) > 0,
            used,
            "{op} usage contradicts the Table I Rotation row"
        );
    }
    let model = BasicOp::Rotation.operator_counts(&p);
    assert_eq!(usage.auto, model.auto, "Automorphism elements diverge");
}

/// The evaluator's per-instance metrics and the global scopes observe the
/// same keyswitch: `keyswitch.digit` is the inner-product stage, one span
/// per extended limb of `Q_l ∪ P`, each covering every digit of that limb
/// (items = digits × N).
#[test]
fn evaluator_scopes_observe_keyswitch_digits() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.0);
    let eval = Evaluator::new(&ctx);
    let before = poseidon_telemetry::Registry::global().snapshot();
    let _ = eval.try_rotate(&a, 1, &keys).unwrap();
    let after = poseidon_telemetry::Registry::global().snapshot();
    let delta = after.since(&before);
    let limbs = delta.get("keyswitch.digit").expect("scope registered");
    let digits = (a.level() + 1) as u64;
    let ext_limbs = digits + ctx.special_basis().len() as u64;
    assert_eq!(limbs.count, ext_limbs);
    assert_eq!(limbs.items, ext_limbs * digits * ctx.n() as u64);
    assert!(limbs.nanos > 0, "inner-product spans recorded no time");
    let rot = delta.get("eval.rotate").expect("scope registered");
    assert_eq!(rot.count, 1);
    assert!(rot.nanos > 0, "rotation span recorded no time");
}

/// `Operator::ALL`-driven reset: counters go back to zero and stay usable.
#[test]
fn reset_usage_clears_all_metrics() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.0);
    let mut m = PoseidonMachine::new(&ctx, 8, 1);
    let _ = m.try_rotate(&a, 1, &keys).unwrap();
    assert!(m.usage().total() > 0);
    m.reset_usage();
    assert_eq!(m.usage().total(), 0);
    let _ = m.try_add(&a, &a).unwrap();
    assert!(m.usage().uses(Operator::Ma));
}
