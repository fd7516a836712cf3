//! Plan equivalence: a planned replay must reproduce the unplanned
//! computation — digest-identically when every rewrite is bit-preserving
//! (hoisting, DVE, reordering), value-identically when rescale placement
//! moved scale management around or a summed fan became one key-switch pass.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::digest_ciphertext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{execute, plan, Plan, PlanOptions};
use poseidon_core::recorder::RecordingEvaluator;
use poseidon_core::PoseidonMachine;
use rand::SeedableRng;

const SLOTS: usize = 4;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9_1A_2B);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    (ctx, keys, rng)
}

fn encrypt(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    seed: f64,
) -> Ciphertext {
    let z: Vec<Complex> = (0..SLOTS)
        .map(|i| Complex::new(seed + 0.125 * i as f64, 0.0))
        .collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext) -> Vec<f64> {
    let pt = keys.secret().decrypt(ct);
    ctx.encoder()
        .decode_rns(pt.poly(), pt.scale(), SLOTS)
        .iter()
        .map(|z| z.re)
        .collect()
}

fn assert_values_close(a: &[f64], b: &[f64], tol: f64) {
    for (x, y) in a.iter().zip(b) {
        let denom = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() / denom < tol,
            "values diverge: {x} vs {y} (tol {tol})"
        );
    }
}

/// Records an 8-rotation same-source fan (the acceptance-criteria graph)
/// and returns (graph, input ciphertext): with the rotations `summed` into
/// the one output, or each an output of its own.
fn record_rotation_fan(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    summed: bool,
) -> (poseidon_core::EvalGraph, Ciphertext) {
    let rec = RecordingEvaluator::new(Evaluator::new(ctx), 1);
    let a = encrypt(ctx, keys, rng, 0.5);
    let rots: Vec<Ciphertext> = (1..=8)
        .map(|s| rec.try_rotate(&a, s, keys).unwrap())
        .collect();
    if summed {
        let mut acc = rots[0].clone();
        for r in &rots[1..] {
            acc = rec.try_add(&acc, r).unwrap();
        }
        rec.mark_output(&acc);
    } else {
        for r in &rots {
            rec.mark_output(r);
        }
    }
    (rec.eval_graph(), a)
}

/// Hoisting alone is bit-preserving: a fan whose rotations are used apart
/// replays digest-identically. A fan that is only summed becomes one
/// key-switch pass — one Moddown rounding for the sum, not one per rotation —
/// and replays value-identically.
#[test]
fn planned_rotation_fan_is_digest_identical_to_unplanned() {
    let (ctx, keys, mut rng) = setup();
    let mut eval = Evaluator::new(&ctx);

    let (graph, a) = record_rotation_fan(&ctx, &keys, &mut rng, false);
    let unplanned = Plan::passthrough(graph.clone());
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    assert!(planned.value_preserving);
    assert_eq!(planned.stats.hoist_batches, vec![8]);
    assert!(planned.stats.rotation_sums.is_empty());
    let base = execute(&unplanned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let opt = execute(&planned, &mut eval, &[a], &keys).unwrap();
    assert_eq!(base.outputs.len(), 8);
    assert_eq!(base.outputs.len(), opt.outputs.len());
    for (u, p) in base.outputs.iter().zip(&opt.outputs) {
        assert_eq!(
            digest_ciphertext(u),
            digest_ciphertext(p),
            "value-preserving plan changed ciphertext bits"
        );
    }
    assert!(opt.max_live <= base.max_live);

    let (graph, a) = record_rotation_fan(&ctx, &keys, &mut rng, true);
    let unplanned = Plan::passthrough(graph.clone());
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    assert!(!planned.value_preserving);
    assert_eq!(planned.stats.hoist_batches, vec![8]);
    assert_eq!(planned.stats.rotation_sums, vec![8]);
    assert_eq!(planned.stats.nodes_after, 2, "the input and the sum");
    let base = execute(&unplanned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let opt = execute(&planned, &mut eval, &[a], &keys).unwrap();
    assert_eq!(base.outputs[0].level(), opt.outputs[0].level());
    assert_eq!(base.outputs[0].scale(), opt.outputs[0].scale());
    assert_values_close(
        &decrypt(&ctx, &keys, &base.outputs[0]),
        &decrypt(&ctx, &keys, &opt.outputs[0]),
        1e-5,
    );
    assert!(opt.max_live <= base.max_live);
}

#[test]
fn replay_reproduces_the_recorded_run_itself() {
    let (ctx, keys, mut rng) = setup();
    let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
    let a = encrypt(&ctx, &keys, &mut rng, 0.5);
    let b = encrypt(&ctx, &keys, &mut rng, -0.25);
    let s = rec.try_add(&a, &b).unwrap();
    let p = rec.try_mul(&s, &a, &keys).unwrap();
    let r = rec.try_rescale(&p).unwrap();
    let rot = rec.try_rotate(&r, 2, &keys).unwrap();
    rec.mark_output(&rot);
    let (_, graph) = rec.into_recordings();

    // Replaying the captured graph (no passes) must reproduce the exact
    // ciphertext the original run produced.
    let unplanned = Plan::passthrough(graph);
    let mut eval = Evaluator::new(&ctx);
    let out = execute(&unplanned, &mut eval, &[a, b], &keys).unwrap();
    assert_eq!(out.outputs.len(), 1);
    assert_eq!(digest_ciphertext(&out.outputs[0]), digest_ciphertext(&rot));
}

#[test]
fn rescale_placement_preserves_decrypted_values() {
    let (ctx, keys, mut rng) = setup();
    let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
    let a = encrypt(&ctx, &keys, &mut rng, 0.5);
    // square → 4 rotations each followed by a caller-placed rescale → sum:
    // the sink pass shares one rescale, the hoist pass batches the
    // rotations.
    let x = rec.try_square(&a, &keys).unwrap();
    let mut acc: Option<Ciphertext> = None;
    for s in 1..=4 {
        let r = rec.try_rotate(&x, s, &keys).unwrap();
        let rr = rec.try_rescale(&r).unwrap();
        acc = Some(match acc {
            None => rr,
            Some(prev) => rec.try_add(&prev, &rr).unwrap(),
        });
    }
    let out_ct = acc.unwrap();
    rec.mark_output(&out_ct);
    let (_, graph) = rec.into_recordings();

    let unplanned = Plan::passthrough(graph.clone());
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    assert!(!planned.value_preserving);
    assert_eq!(planned.stats.rescales_sunk, 4);
    assert_eq!(planned.stats.rescales_after, 1);
    assert_eq!(planned.stats.hoist_batches, vec![4]);

    let mut eval = Evaluator::new(&ctx);
    let base = execute(&unplanned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let opt = execute(&planned, &mut eval, &[a], &keys).unwrap();
    // Same final level and scale (same primes dropped), same values.
    assert_eq!(base.outputs[0].level(), opt.outputs[0].level());
    assert!((base.outputs[0].scale() - opt.outputs[0].scale()).abs() < 1e-3);
    assert_values_close(
        &decrypt(&ctx, &keys, &base.outputs[0]),
        &decrypt(&ctx, &keys, &opt.outputs[0]),
        1e-4,
    );
}

#[test]
fn dead_values_are_not_executed() {
    let (ctx, keys, mut rng) = setup();
    let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
    let a = encrypt(&ctx, &keys, &mut rng, 1.0);
    let used = rec.try_square(&a, &keys).unwrap();
    let dead = rec.try_rotate(&a, 1, &keys).unwrap();
    let _dead2 = rec.try_add(&dead, &dead).unwrap();
    assert!(rec.mark_output(&used));
    let (_, graph) = rec.into_recordings();

    let unplanned = Plan::passthrough(graph.clone());
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    assert_eq!(planned.stats.dead_removed, 2);
    assert!(planned.schedule.len() < unplanned.schedule.len());

    let mut eval = Evaluator::new(&ctx);
    let base = execute(&unplanned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let opt = execute(&planned, &mut eval, &[a], &keys).unwrap();
    assert_eq!(
        digest_ciphertext(&base.outputs[0]),
        digest_ciphertext(&opt.outputs[0])
    );
}

#[test]
fn planned_execution_agrees_across_all_backends() {
    let (ctx, keys, mut rng) = setup();
    for summed in [false, true] {
        let (graph, a) = record_rotation_fan(&ctx, &keys, &mut rng, summed);
        let planned = plan(graph, &PlanOptions::default()).unwrap();

        let mut eval = Evaluator::new(&ctx);
        let mut rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);

        let e = execute(&planned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
        let r = execute(&planned, &mut rec, std::slice::from_ref(&a), &keys).unwrap();
        let m = execute(&planned, &mut machine, &[a], &keys).unwrap();

        let ve = decrypt(&ctx, &keys, &e.outputs[0]);
        let vr = decrypt(&ctx, &keys, &r.outputs[0]);
        let vm = decrypt(&ctx, &keys, &m.outputs[0]);
        if summed {
            // The evaluator runs the sum as one pass; the recorder and the
            // machine as the rotations and additions they count, one
            // rounding per rotation: 8 Rotations and 7 HAdds on the trace.
            assert_eq!(rec.trace().entries().len(), 15);
            assert_values_close(&ve, &vr, 1e-5);
        } else {
            // Evaluator and recorder share the hoisting engine →
            // bit-identical.
            assert_eq!(
                digest_ciphertext(&e.outputs[0]),
                digest_ciphertext(&r.outputs[0])
            );
            assert_values_close(&ve, &vr, 1e-9);
        }
        // The machine's rotate_many uses a different digit representative,
        // so agreement is at the decrypted-value level.
        assert_values_close(&ve, &vm, 1e-4);
    }
}

#[test]
fn executor_rejects_wrong_input_count() {
    let (ctx, keys, mut rng) = setup();
    let (graph, a) = record_rotation_fan(&ctx, &keys, &mut rng, true);
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    let mut eval = Evaluator::new(&ctx);
    match execute(&planned, &mut eval, &[a.clone(), a], &keys) {
        Err(EvalError::InvalidParams(msg)) => assert!(msg.contains("input ciphertexts")),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

#[test]
fn executor_surfaces_missing_rotation_keys() {
    let (ctx, full_keys, mut rng) = setup();
    let (graph, a) = record_rotation_fan(&ctx, &full_keys, &mut rng, true);
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    // Fresh keyset without rotation keys: the hoisted batch must fail
    // with the missing key, not panic.
    let keyless = KeySet::generate(&ctx, &mut rng);
    let mut eval = Evaluator::new(&ctx);
    match execute(&planned, &mut eval, &[a], &keyless) {
        Err(EvalError::MissingRotationKey { .. }) => {}
        other => panic!("expected MissingRotationKey, got {other:?}"),
    }
}

/// The planned rotation fan's digest — the summed fan, one `RotateSum` node
/// — pinned, so a planner change that moves its bits has to say so.
#[test]
fn value_preserving_digests_are_deterministic() {
    let (ctx, keys, mut rng) = setup();
    let (graph, a) = record_rotation_fan(&ctx, &keys, &mut rng, true);
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    let mut eval = Evaluator::new(&ctx);
    let once = execute(&planned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let twice = execute(&planned, &mut eval, &[a], &keys).unwrap();
    let d1 = digest_ciphertext(&once.outputs[0]);
    assert_eq!(d1, digest_ciphertext(&twice.outputs[0]));

    const PINNED: u64 = 0xdb98_3aab_65c5_c268;
    assert_eq!(
        d1, PINNED,
        "rotation_fan_planned digest moved: got {d1:#018x}, pinned {PINNED:#018x}. A \
         legitimate change updates this constant and the same value in EXPERIMENTS.md."
    );
}
