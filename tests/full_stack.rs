//! Cross-crate integration tests: the functional CKKS library, the operator
//! layer, and the accelerator model working together.

use poseidon::ckks::encoding::Complex;
use poseidon::ckks::prelude::*;
use poseidon::core::{BasicOp, HfAuto, OpParams, OperatorPool};
use poseidon::sim::workloads::Benchmark;
use poseidon::sim::{AcceleratorConfig, Simulator};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x5EED)
}

fn encrypt(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    vals: &[f64],
) -> Ciphertext {
    let z: Vec<Complex> = vals.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

fn decrypt(ctx: &CkksContext, keys: &KeySet, ct: &Ciphertext, n: usize) -> Vec<f64> {
    let pt = keys.secret().decrypt(ct);
    ctx.encoder()
        .decode_rns(pt.poly(), pt.scale(), n)
        .iter()
        .map(|c| c.re)
        .collect()
}

#[test]
fn polynomial_pipeline_matches_plaintext_math() {
    // Evaluate f(x, y) = (x·y − x)·y + 2 across four slots.
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);
    let xs = [1.0, -0.5, 2.0, 0.75];
    let ys = [0.5, 3.0, -1.0, 1.25];
    let ct_x = encrypt(&ctx, &keys, &mut rng, &xs);
    let ct_y = encrypt(&ctx, &keys, &mut rng, &ys);

    let xy = eval
        .try_rescale(&eval.try_mul(&ct_x, &ct_y, &keys).unwrap())
        .unwrap();
    let xy_minus_x = eval
        .try_sub(
            &xy,
            &eval.try_adjust(&ct_x, xy.level(), xy.scale()).unwrap(),
        )
        .unwrap();
    let t = eval
        .try_rescale(
            &eval
                .try_mul(
                    &xy_minus_x,
                    &eval
                        .try_adjust(&ct_y, xy_minus_x.level(), xy_minus_x.scale())
                        .unwrap(),
                    &keys,
                )
                .unwrap(),
        )
        .unwrap();
    let two = eval.encode_at_level(&[Complex::new(2.0, 0.0)], t.scale(), t.level());
    let out = eval.try_add_plain(&t, &two).unwrap();

    let got = decrypt(&ctx, &keys, &out, 4);
    for i in 0..4 {
        let want = (xs[i] * ys[i] - xs[i]) * ys[i] + 2.0;
        assert!(
            (got[i] - want).abs() < 0.02,
            "slot {i}: {} vs {want}",
            got[i]
        );
    }
}

#[test]
fn hfauto_agrees_with_ciphertext_rotation_semantics() {
    // The HFAuto core applied to a ciphertext's components produces the
    // same polynomial as the evaluator's automorphism step.
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let keys = KeySet::generate(&ctx, &mut rng);
    let ct = encrypt(&ctx, &keys, &mut rng, &[1.0, 2.0, 3.0, 4.0]);
    let g = keys.galois_element(1);

    let reference = ct.c0().automorphism(g);
    let hf = HfAuto::new(ctx.n(), 128);
    for (j, &q) in ct.c0().basis().primes().iter().enumerate() {
        let got = hf.apply(ct.c0().residues(j), g, q);
        assert_eq!(got.as_slice(), reference.residues(j), "prime {j}");
    }
}

#[test]
fn operator_pool_usage_matches_analytical_decomposition_shape() {
    // Running the PMult datapath through the pool must exercise exactly
    // the operators the analytical Table-I row predicts (plus the NTT
    // domain crossings the hardware keeps resident).
    let n = 1 << 10;
    let q = poseidon::math::prime::ntt_prime(28, 2 * n as u64).unwrap();
    let mut pool = OperatorPool::new(n, 64, 3);
    let a = vec![3u64; n];
    let b = vec![5u64; n];
    let _ = pool.poly_mul(&a, &b, q);
    let u = pool.usage();
    let row = BasicOp::PMult.operator_counts(&OpParams::new(n, 1, 1));
    assert!(u.mm > 0 && row.mm > 0);
    assert!(u.ma == 0 && row.ma == 0);
    assert!(u.auto == 0 && row.auto == 0);
}

#[test]
fn simulator_speedup_shape_matches_paper_ordering() {
    // Per-op model times must order the way Table IV's complexity does:
    // HAdd fastest, then Rescale/PMult, with CMult/Rotation the slowest.
    let sim = Simulator::new(AcceleratorConfig::poseidon_u280());
    let p = OpParams::new(1 << 13, 6, 1);
    let t = |op: BasicOp| sim.time_single(op, &p).seconds;
    // Streaming ops (HAdd/PMult) are far cheaper than keyswitch-bearing
    // ops; the keyswitch itself lower-bounds Rotation.
    assert!(t(BasicOp::HAdd) * 2.0 < t(BasicOp::CMult));
    assert!(t(BasicOp::PMult) * 2.0 < t(BasicOp::CMult));
    assert!(t(BasicOp::Keyswitch) <= t(BasicOp::Rotation));
    assert!(t(BasicOp::Rescale) < t(BasicOp::CMult));
}

#[test]
fn benchmarks_rank_like_the_paper() {
    // Table VI ordering: LR < PackedBoot < LSTM ~ ResNet (the two big
    // inference workloads are within 2x of each other).
    let sim = Simulator::new(AcceleratorConfig::poseidon_u280());
    let times: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|b| sim.run(&b.trace()).seconds)
        .collect();
    let (lr, lstm, resnet, boot) = (times[0], times[1], times[2], times[3]);
    assert!(lr < boot && boot < lstm && boot < resnet);
    assert!(lstm / resnet < 2.5 && resnet / lstm < 2.5);
}

#[test]
fn rotation_composes_with_cmult_across_levels() {
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(2, &mut rng);
    let eval = Evaluator::new(&ctx);
    let slots = ctx.params().slots();
    let vals: Vec<f64> = (0..slots).map(|i| ((i % 5) as f64) - 2.0).collect();
    let ct = encrypt(&ctx, &keys, &mut rng, &vals);

    // rot(ct, 2) ⊙ ct then check slot semantics.
    let rot = eval.try_rotate(&ct, 2, &keys).unwrap();
    let prod = eval
        .try_rescale(&eval.try_mul(&rot, &ct, &keys).unwrap())
        .unwrap();
    let got = decrypt(&ctx, &keys, &prod, slots);
    for i in 0..8 {
        let want = vals[(i + 2) % slots] * vals[i];
        assert!((got[i] - want).abs() < 0.02, "slot {i}");
    }
}

#[test]
fn recorded_session_simulates_on_the_accelerator_model() {
    // Record a real computation, then predict its accelerator time.
    use poseidon::core::recorder::RecordingEvaluator;
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let rec = RecordingEvaluator::new(Evaluator::new(&ctx), 1);

    let a = encrypt(&ctx, &keys, &mut rng, &[1.0, 2.0, 3.0, 4.0]);
    let b = encrypt(&ctx, &keys, &mut rng, &[0.5, 0.5, 0.5, 0.5]);
    let s = rec.try_add(&a, &b).unwrap();
    let p = rec
        .try_rescale(&rec.try_mul(&s, &b, &keys).unwrap())
        .unwrap();
    let out = rec.try_rotate(&p, 1, &keys).unwrap();

    // Functional result is correct...
    let got = decrypt(&ctx, &keys, &out, 4);
    for i in 0..4 {
        let want = ([1.5f64, 2.5, 3.5, 4.5][(i + 1) % 4]) * 0.5;
        assert!((got[i] - want).abs() < 0.02, "slot {i}");
    }
    // ...and the recorded trace runs on the model.
    let trace = rec.into_trace();
    assert_eq!(trace.entries().len(), 4);
    let report = Simulator::new(AcceleratorConfig::poseidon_u280()).run(&trace);
    assert!(report.seconds > 0.0);
    assert!(report.time_share_percent(BasicOp::Rotation) > 10.0);
}

#[test]
fn the_default_build_counts_into_the_registry_with_the_injector_disarmed() {
    // No feature and no flag: the registry records and the injector is
    // linked in, disarmed. Counters only grow, so the bounds below hold
    // whatever the sibling tests run at the same time.
    use poseidon::telemetry::Registry;
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rng();
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng, &[1.0, 2.0, 3.0, 4.0]);

    let count =
        |snap: &poseidon::telemetry::Snapshot, scope: &str| snap.get(scope).map_or(0, |s| s.count);
    let before = Registry::global().snapshot();
    eval.try_rotate(&ct, 1, &keys).unwrap();
    let after = Registry::global().snapshot();

    // The hoist lifts every digit onto every extended limb and transforms it.
    let q_len = (ct.level() + 1) as u64;
    let ext_len = q_len + ctx.special_basis().len() as u64;
    let forward = count(&after, "ntt.forward") - count(&before, "ntt.forward");
    assert!(forward >= q_len * ext_len, "ntt.forward moved by {forward}");
    let switched = count(&after, "eval.keyswitch") - count(&before, "eval.keyswitch");
    assert!(switched >= 1, "eval.keyswitch moved by {switched}");
    assert!(!poseidon::faults::armed());
}
