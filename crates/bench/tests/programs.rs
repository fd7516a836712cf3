//! Every program file shipped in `programs/` must parse and simulate —
//! and compile through the graph-level evaluation planner, executing
//! planned and unplanned with agreeing outputs on every backend.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::digest_ciphertext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{compile_trace, execute, CompileOptions, Plan, PlanOptions};
use poseidon_core::PoseidonMachine;
use rand::SeedableRng;
use std::path::PathBuf;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

#[test]
fn all_shipped_programs_parse_and_simulate() {
    let dir = programs_dir();
    let mut found = 0;
    for entry in std::fs::read_dir(&dir).expect("programs dir exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("pos") {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = poseidon_sim::program::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!trace.entries().is_empty(), "{}", path.display());
        let sim = poseidon_sim::Simulator::new(poseidon_sim::AcceleratorConfig::poseidon_u280());
        let r = sim.run(&trace);
        assert!(r.seconds > 0.0, "{}", path.display());
    }
    assert!(found >= 6, "expected shipped programs, found {found}");
}

fn pos_files() -> Vec<PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(programs_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pos"))
        .collect();
    v.sort();
    v
}

const SLOTS: usize = 8;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x70_05);
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
        .map(|i| Complex::new(seed + 0.06 * i as f64, 0.0))
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

fn assert_close(name: &str, a: &[f64], b: &[f64], tol: f64) {
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < tol * x.abs().max(1.0), "{name}: {x} vs {y}");
    }
}

/// Every shipped program compiles through the planner and the planned
/// schedule reproduces the unplanned one on the functional Evaluator —
/// digest-identically when every rewrite was bit-preserving, at the
/// decrypted-value level when rescale placement moved.
#[test]
fn all_shipped_programs_compile_plan_and_execute() {
    let (ctx, keys, mut rng) = setup();
    for path in pos_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = poseidon_sim::program::parse(&text).unwrap();
        let compiled = compile_trace(&trace, &ctx, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let graph = compiled.graph;
        assert!(graph.live_node_count() > 0, "{name}: empty graph");
        assert!(!graph.outputs().is_empty(), "{name}: no outputs");

        let inputs: Vec<Ciphertext> = (0..graph.inputs().len())
            .map(|i| encrypt(&ctx, &keys, &mut rng, 0.4 + 0.05 * i as f64))
            .collect();
        let unplanned = Plan::passthrough(graph.clone());
        let planned = poseidon_core::plan::plan(graph, &PlanOptions::default()).unwrap();

        let mut eval = Evaluator::new(&ctx);
        let base = execute(&unplanned, &mut eval, &inputs, &keys)
            .unwrap_or_else(|e| panic!("{name} unplanned: {e}"));
        let opt = execute(&planned, &mut eval, &inputs, &keys)
            .unwrap_or_else(|e| panic!("{name} planned: {e}"));
        assert_eq!(base.outputs.len(), opt.outputs.len(), "{name}");
        for (a, b) in base.outputs.iter().zip(&opt.outputs) {
            if planned.value_preserving {
                assert_eq!(
                    digest_ciphertext(a),
                    digest_ciphertext(b),
                    "{name}: value-preserving plan changed bits"
                );
            } else {
                assert_close(
                    &name,
                    &decrypt(&ctx, &keys, a),
                    &decrypt(&ctx, &keys, b),
                    1e-3,
                );
            }
        }
    }
}

/// The planned schedule executes on the cycle-modelled PoseidonMachine
/// backend too, and its decrypted outputs agree with the Evaluator's.
#[test]
fn planned_programs_agree_between_evaluator_and_machine() {
    let (ctx, keys, mut rng) = setup();
    for path in pos_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = poseidon_sim::program::parse(&text).unwrap();
        let compiled = compile_trace(&trace, &ctx, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let planned = poseidon_core::plan::plan(compiled.graph, &PlanOptions::default()).unwrap();

        let inputs: Vec<Ciphertext> = (0..planned.graph.inputs().len())
            .map(|i| encrypt(&ctx, &keys, &mut rng, 0.4 + 0.05 * i as f64))
            .collect();
        let mut eval = Evaluator::new(&ctx);
        let mut machine = PoseidonMachine::new(&ctx, 8, 1);
        let e = execute(&planned, &mut eval, &inputs, &keys)
            .unwrap_or_else(|err| panic!("{name} eval: {err}"));
        let m = execute(&planned, &mut machine, &inputs, &keys)
            .unwrap_or_else(|err| panic!("{name} machine: {err}"));
        assert_eq!(e.outputs.len(), m.outputs.len(), "{name}");
        for (a, b) in e.outputs.iter().zip(&m.outputs) {
            assert_close(
                &name,
                &decrypt(&ctx, &keys, a),
                &decrypt(&ctx, &keys, b),
                1e-2,
            );
        }
    }
}

#[test]
fn shipped_programs_round_trip_through_format() {
    for entry in std::fs::read_dir(programs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("pos") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let t1 = poseidon_sim::program::parse(&text).unwrap();
        let t2 = poseidon_sim::program::parse(&poseidon_sim::program::format(&t1)).unwrap();
        assert_eq!(t1, t2, "{}", path.display());
    }
}

#[test]
fn streaming_program_is_bandwidth_bound() {
    let text = std::fs::read_to_string(programs_dir().join("hadd_stream.pos")).unwrap();
    let trace = poseidon_sim::program::parse(&text).unwrap();
    let sim = poseidon_sim::Simulator::new(poseidon_sim::AcceleratorConfig::poseidon_u280());
    let r = sim.run(&trace);
    assert!(
        r.bandwidth_utilisation > 0.95,
        "{}",
        r.bandwidth_utilisation
    );
}
