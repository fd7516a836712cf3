//! Planner phase 2 end-to-end: a `.pos`-shaped program that exhausts
//! the modulus chain, planned with bootstrap keys, gets a `Bootstrap`
//! node auto-inserted by the planning pipeline, and runs to a correct
//! decryption on both the functional evaluator and the cycle-modelled
//! machine — plus the typed rejection paths and the balanced-reduction
//! digest pin.

use he_ckks::bootstrap::{encode_for_bootstrap, Bootstrapper};
use he_ckks::cipher::Ciphertext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::digest_ciphertext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::decompose::{BasicOp, OpParams, OpTrace};
use poseidon_core::plan::{
    execute, execute_with, plan_trace, BootstrapOptions, EvalGraph, GraphOp, Plan, PlanError,
    PlanOptions,
};
use poseidon_core::PoseidonMachine;
use rand::SeedableRng;

const SLOTS: usize = 4;
const MESSAGE: [f64; SLOTS] = [0.25, -0.5, 0.125, 0.4375];

/// A program that deliberately walks the chain to level 0 (the
/// exhaust-before-refresh idiom) and then asks for a squaring the dead
/// chain cannot fund, with a rescale/add tail.
fn exhausting_trace() -> OpTrace {
    let p = |components: usize| OpParams::new(1 << 16, components, 2);
    let mut t = OpTrace::new();
    t.push(BasicOp::Moddown, p(24), 8);
    t.push(BasicOp::Moddown, p(16), 8);
    t.push(BasicOp::Moddown, p(8), 8);
    t.push(BasicOp::CMult, p(1), 1);
    t.push(BasicOp::Rescale, p(1), 1);
    t.push(BasicOp::HAdd, p(1), 1);
    t
}

/// Bootstrap-capable tenant state: sparse secret, the bootstrapper's
/// rotation set, and the conjugation key.
fn bootstrap_setup() -> (CkksContext, KeySet, Bootstrapper, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let mut keys = KeySet::generate_sparse(&ctx, 8, &mut rng);
    let bs = Bootstrapper::new(&ctx, SLOTS, 6);
    for step in bs.required_rotations() {
        keys.add_rotation_key(step, &mut rng);
    }
    keys.add_conjugation_key(&mut rng);
    (ctx, keys, bs, rng)
}

fn encrypt_message(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng) -> Ciphertext {
    let z: Vec<Complex> = MESSAGE.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = encode_for_bootstrap(ctx, &z);
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

/// The acceptance-criteria path: the exhausted program plans with one
/// auto-inserted `Bootstrap`, executes on both backends, and decrypts to
/// `2·v²` within bootstrap precision — with the two backends agreeing.
#[test]
fn exhausted_program_runs_end_to_end_with_auto_inserted_bootstrap() {
    let (ctx, keys, bs, mut rng) = bootstrap_setup();
    let opts = PlanOptions {
        bootstrap: Some(BootstrapOptions::for_params(
            &CkksParams::bootstrap_demo(),
            2,
        )),
        ..PlanOptions::default()
    };
    let plan = plan_trace(&exhausting_trace(), &ctx, &opts).expect("plans with refresh");
    let bootstraps = plan
        .schedule
        .iter()
        .filter(|&&nid| matches!(plan.graph.node(nid).op, GraphOp::Bootstrap { .. }))
        .count();
    assert_eq!(bootstraps, 1, "exactly one refresh must be spliced in");
    assert_eq!(plan.stats.bootstraps_inserted, 1);
    assert!(
        !plan.value_preserving,
        "a refreshed schedule is not bit-preserving"
    );

    let ct = encrypt_message(&ctx, &keys, &mut rng);
    let mut eval = Evaluator::new(&ctx);
    let e = execute_with(
        &plan,
        &mut eval,
        std::slice::from_ref(&ct),
        &keys,
        Some(&bs),
    )
    .expect("evaluator execution");
    let mut machine = PoseidonMachine::new(&ctx, 8, 1);
    let m = execute_with(&plan, &mut machine, &[ct], &keys, Some(&bs)).expect("machine execution");

    let got_e = decrypt(&ctx, &keys, &e.outputs[0]);
    let got_m = decrypt(&ctx, &keys, &m.outputs[0]);
    for (j, &v) in MESSAGE.iter().enumerate() {
        let want = 2.0 * v * v;
        assert!(
            (got_e[j] - want).abs() < 0.15,
            "slot {j}: wanted {want}, evaluator got {}",
            got_e[j]
        );
        assert!(
            (got_e[j] - got_m[j]).abs() < 0.05,
            "slot {j}: backends disagree: {} vs {}",
            got_e[j],
            got_m[j]
        );
    }
}

/// Without registered bootstrap key material the same program is a
/// typed plan-time rejection — not runtime garbage, not a silent reset.
#[test]
fn exhausted_program_without_bootstrap_key_is_rejected_at_plan_time() {
    let ctx = CkksContext::new(CkksParams::bootstrap_demo());
    let opts = PlanOptions {
        bootstrap: Some(BootstrapOptions::without_key(
            &CkksParams::bootstrap_demo(),
            2,
        )),
        ..PlanOptions::default()
    };
    let err = plan_trace(&exhausting_trace(), &ctx, &opts).expect_err("must be rejected");
    match err {
        PlanError::BudgetExhausted { reason, level, .. } => {
            assert!(reason.contains("no bootstrap key"), "{reason}");
            assert_eq!(level, 0, "violation sits at the chain floor");
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// A plan holding a `Bootstrap` node refuses to run without a
/// bootstrapper — typed, before any partial execution.
#[test]
fn bootstrap_plan_without_bootstrapper_is_a_typed_runtime_error() {
    let (ctx, keys, _bs, mut rng) = bootstrap_setup();
    let opts = PlanOptions {
        bootstrap: Some(BootstrapOptions::for_params(
            &CkksParams::bootstrap_demo(),
            2,
        )),
        ..PlanOptions::default()
    };
    let plan = plan_trace(&exhausting_trace(), &ctx, &opts).expect("plans");
    let ct = encrypt_message(&ctx, &keys, &mut rng);
    let mut eval = Evaluator::new(&ctx);
    let err = execute(&plan, &mut eval, &[ct], &keys).expect_err("must refuse");
    assert!(matches!(
        err,
        he_ckks::error::EvalError::BootstrapUnavailable
    ));
}

/// The balanced-tree fan reduction is bit-identical to the linear chain
/// it replaced: modular addition is exactly associative in u64 residue
/// arithmetic, pinned here at the ciphertext-digest level.
#[test]
fn balanced_fan_reduction_is_digest_identical_to_a_linear_chain() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7EED);
    let keys = KeySet::generate(&ctx, &mut rng);
    let sb = f64::from(ctx.params().scale_prime_bits);
    let lvl = ctx.max_level();

    let linear = {
        let mut g = EvalGraph::new(sb);
        let terms: Vec<_> = (0..8).map(|_| g.input(lvl, sb)).collect();
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = g.add(acc, t);
        }
        g.mark_output(acc);
        g
    };
    let balanced = {
        let mut g = EvalGraph::new(sb);
        let mut layer: Vec<_> = (0..8).map(|_| g.input(lvl, sb)).collect();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|c| g.add(c[0], c[1])).collect();
        }
        g.mark_output(layer[0]);
        g
    };

    let inputs: Vec<Ciphertext> = (0..8)
        .map(|i| {
            let z = [Complex::new(0.05 + 0.01 * i as f64, 0.0)];
            let pt = he_ckks::cipher::Plaintext::new(
                ctx.encoder()
                    .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
                ctx.default_scale(),
            );
            keys.public().encrypt(&pt, &mut rng)
        })
        .collect();

    let mut eval = Evaluator::new(&ctx);
    let a = execute(&Plan::passthrough(linear), &mut eval, &inputs, &keys).expect("linear chain");
    let b =
        execute(&Plan::passthrough(balanced), &mut eval, &inputs, &keys).expect("balanced tree");
    assert_eq!(
        digest_ciphertext(&a.outputs[0]),
        digest_ciphertext(&b.outputs[0]),
        "tree reduction changed bits"
    );
}
