//! The planner's forward-NTT saving on a rotation fan, the transform and
//! dispatch counts of one planned `bsgs_matvec` execution, and those of one
//! call of each unplanned key switch, counted in the process-wide telemetry
//! registry.
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
use poseidon_core::recorder::Recorder;
use poseidon_core::HomomorphicOps;
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
    let mut rec = Recorder::new(&ctx, Evaluator::new(&ctx));
    let rots: Vec<Ciphertext> = (1..=8)
        .map(|s| rec.try_rotate(&a, s, &keys).unwrap())
        .collect();
    let mut acc = rots[0].clone();
    for r in &rots[1..] {
        acc = rec.try_add(&acc, r).unwrap();
    }
    rec.mark_output(&acc);
    let (_, graph) = rec.into_recordings();

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
    key_switch_counts();
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

/// One unplanned call of each key switch at `small()` (`q = 8` chain limbs
/// at the top level, `k = 2` special ones), at the top level and one below,
/// on the two-thread team pinned here, once its keys sit in the
/// evaluation-form cache. A relinearisation lifts `q(q+k)` digit rows and
/// inverse-transforms two rows per extended limb, in the engine's two
/// dispatches; a rotation or a conjugation hoists the same `q(q+k)` rows in
/// one dispatch more; a fan of 8 hoists once and inverse-transforms
/// `16(q+k)`, in as many dispatches as one rotation. Two 8-term weighted sums
/// over one hoist (`try_rotate_sums`, its weights prepared beforehand) add one
/// forward transform of `c_0` per chain limb to the hoist and
/// inverse-transform `2(q+k)` per sum, in the same three dispatches.
fn key_switch_counts() {
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6E_61);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    keys.add_conjugation_key(&mut rng);
    let scale = ctx.default_scale();
    let z = [Complex::new(0.5, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(ctx.chain_basis(), &z, scale),
        scale,
    );
    let top = keys.public().encrypt(&pt, &mut rng);
    let eval = Evaluator::new(&ctx);
    let lower = eval.try_drop_to_level(&top, top.level() - 1).unwrap();
    let steps: Vec<i64> = (1..=8).collect();
    let weights: Vec<_> = (0..16)
        .map(|r| {
            let z = [Complex::new(0.25 + 0.03125 * r as f64, 0.0)];
            let pt = eval.encode_at_level(&z, scale, top.level());
            eval.prepare_plain(&pt, top.level()).unwrap()
        })
        .collect();
    let [first_sum, second_sum] = [&weights[..8], &weights[8..]].map(|w| {
        steps
            .iter()
            .copied()
            .zip(w.iter().map(Some))
            .collect::<Vec<_>>()
    });
    let reg = Registry::global();
    poseidon_par::with_threads(2, || {
        // (call, forward, inverse, dispatches) at each level.
        let pinned = [
            [
                ("keyswitch", 80, 20, 2),
                ("try_rotate", 80, 20, 3),
                ("try_conjugate", 80, 20, 3),
                ("try_rotate_many", 80, 160, 3),
                ("try_rotate_sums", 88, 40, 3),
            ],
            [
                ("keyswitch", 63, 18, 2),
                ("try_rotate", 63, 18, 3),
                ("try_conjugate", 63, 18, 3),
                ("try_rotate_many", 63, 144, 3),
                ("try_rotate_sums", 70, 36, 3),
            ],
        ];
        for (ct, pinned) in [&top, &lower].into_iter().zip(pinned) {
            let run = |name: &str| match name {
                "keyswitch" => drop(eval.keyswitch(ct.c1(), keys.relin())),
                "try_rotate" => drop(eval.try_rotate(ct, 1, &keys).unwrap()),
                "try_conjugate" => drop(eval.try_conjugate(ct, &keys).unwrap()),
                "try_rotate_many" => drop(eval.try_rotate_many(ct, &steps, &keys).unwrap()),
                _ => {
                    let sums = [&first_sum[..], &second_sum[..]];
                    drop(eval.try_rotate_sums(ct, &sums, &keys).unwrap())
                }
            };
            for (name, forward, inverse, dispatches) in pinned {
                run(name);
                let before = reg.snapshot();
                run(name);
                let delta = reg.snapshot().since(&before);
                let count = |scope: &str| delta.get(scope).map_or(0, |s| s.count);
                assert_eq!(
                    (
                        count("ntt.forward"),
                        count("ntt.inverse"),
                        count("par.dispatch")
                    ),
                    (forward, inverse, dispatches),
                    "{name} at level {}: transforms and dispatches",
                    ct.level()
                );
            }
        }
    });
}
