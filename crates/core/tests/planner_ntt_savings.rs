//! The planner's forward-NTT saving on a rotation fan, and the transform
//! and dispatch counts of one planned `bsgs_matvec` execution, counted in
//! the process-wide telemetry registry.
//!
//! A binary of its own, with this one test, on purpose: the assertions diff
//! global counters around executions, so any sibling test transforming
//! polynomials in the same process lands in one of the windows (as a case
//! of `plan_equivalence` it failed about half the time). Do not add tests
//! here; a further count goes into the one below, after the others.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::decompose::{BasicOp, OpParams, OpTrace};
use poseidon_core::plan::{compile_trace, execute, plan, plan_trace, CompileOptions};
use poseidon_core::plan::{Plan, PlanOptions};
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

    bsgs_matvec_counts();
}

/// One planned execution of `programs/bsgs_matvec.pos` at `small()` — a
/// `serve_program` request's evaluation — as counts, so that the next NTT
/// step starts from a counted baseline. Both fans are rotation sums: 158
/// forward transforms (80 + 63 to hoist them, 8 + 7 for `c_0`) and 38
/// inverse (two sum rows on 10 and on 9 extended limbs), where the unfused
/// layers ran 335 and 324. The plan's first execution — all a served request
/// ever runs, planned per request — also prepares the eight plaintexts,
/// 8·10 forward transforms more, and keeps them: 238. A sum is two dispatches
/// whatever its size (46 dispatches an execution before the fusion, on the
/// two-thread team pinned here).
fn bsgs_matvec_counts() {
    let ctx = CkksContext::new(CkksParams::small());
    let mut trace = OpTrace::new();
    for (op, components, count) in [
        (BasicOp::Rotation, 20, 8),
        (BasicOp::PMult, 20, 8),
        (BasicOp::Rescale, 20, 8),
        (BasicOp::HAdd, 20, 8),
        (BasicOp::Rotation, 19, 2),
        (BasicOp::HAdd, 19, 2),
    ] {
        trace.push(op, OpParams::with_dnum(1 << 16, components, 2, 1), count);
    }
    let opts = PlanOptions::default();
    let planned = plan_trace(&trace, &ctx, &opts).unwrap();
    let copts = CompileOptions {
        count_cap: opts.count_cap,
        ..CompileOptions::default()
    };
    let steps = compile_trace(&trace, &ctx, &copts).unwrap().rotation_steps;

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB5_65);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(steps, &mut rng);
    let scale = ctx.default_scale();
    let inputs: Vec<Ciphertext> = (0..planned.graph.inputs().len())
        .map(|i| {
            let z = vec![Complex::new(0.25 + 0.125 * i as f64, 0.0); 8];
            let pt = Plaintext::new(
                ctx.encoder().encode_rns(ctx.chain_basis(), &z, scale),
                scale,
            );
            keys.public().encrypt(&pt, &mut rng)
        })
        .collect();
    let mut eval = Evaluator::new(&ctx);
    let reg = Registry::global();
    poseidon_par::with_threads(2, || {
        // Caches that outlive a plan (the evaluation-form keys, the scratch
        // pool) are filled by a plan of their own.
        let warm = plan_trace(&trace, &ctx, &opts).unwrap();
        let _ = execute(&warm, &mut eval, &inputs, &keys).unwrap();
        let mut counted = || {
            let before = reg.snapshot();
            let _ = execute(&planned, &mut eval, &inputs, &keys).unwrap();
            let delta = reg.snapshot().since(&before);
            let count = |scope: &str| delta.get(scope).map_or(0, |s| s.count);
            let transforms = (count("ntt.forward"), count("ntt.inverse"));
            (transforms, count("par.dispatch"))
        };
        let (first, _) = counted();
        let (second, dispatches) = counted();
        assert_eq!(first, (238, 38), "transforms of a plan's first execution");
        assert_eq!(second, (158, 38), "transforms per execution after it");
        assert!(dispatches <= 16, "{dispatches} dispatches per execution");
    });
}
