//! The planner's forward-NTT saving on a rotation fan, counted in the
//! process-wide telemetry registry.
//!
//! A binary of its own, with this one test, on purpose: the assertion diffs
//! the global `ntt.forward` counter around two executions, so any sibling
//! test transforming polynomials in the same process lands in one of the
//! two windows (as a case of `plan_equivalence` it failed about half the
//! time). Do not add tests here.
#![cfg(feature = "telemetry")]

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{execute, plan, Plan, PlanOptions};
use poseidon_core::recorder::RecordingEvaluator;
use poseidon_telemetry::{Registry, Snapshot};
use rand::SeedableRng;

#[test]
fn planner_halves_forward_ntt_on_rotation_fan() {
    let fwd = |d: &Snapshot| d.get("ntt.forward").map_or(0, |s| s.count);

    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9_1A_2B);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    let z: Vec<Complex> = (0..4)
        .map(|i| Complex::new(0.5 + 0.125 * i as f64, 0.0))
        .collect();
    let scale = ctx.default_scale();
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(ctx.chain_basis(), &z, scale),
        scale,
    );
    let a = keys.public().encrypt(&pt, &mut rng);

    // An 8-rotation same-source fan, summed.
    let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);
    let rots: Vec<Ciphertext> = (1..=8)
        .map(|s| rec.try_rotate(&a, s, &keys).unwrap())
        .collect();
    let mut acc = rots[0].clone();
    for r in &rots[1..] {
        acc = rec.try_add(&acc, r).unwrap();
    }
    rec.mark_output(&acc);
    let graph = rec.eval_graph();

    let unplanned = Plan::passthrough(graph.clone());
    let planned = plan(graph, &PlanOptions::default()).unwrap();
    let mut eval = Evaluator::new(&ctx);
    let reg = Registry::global();

    let before = reg.snapshot();
    let _ = execute(&unplanned, &mut eval, std::slice::from_ref(&a), &keys).unwrap();
    let mid = reg.snapshot();
    let _ = execute(&planned, &mut eval, &[a], &keys).unwrap();
    let after = reg.snapshot();

    let base = fwd(&mid.since(&before));
    let opt = fwd(&after.since(&mid));
    assert!(
        opt * 2 <= base,
        "planned ntt.forward {opt} not ≥2× below unplanned {base}"
    );
}
