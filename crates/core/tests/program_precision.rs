//! Every shipped program's precision in bits, against the slot-semantics
//! oracle (`support/slots.rs`), which shares no arithmetic with the stack.
//!
//! Each `programs/*.pos` is planned for `toy()` (the planner's own passes,
//! rescale placement and rotation fusion included), executed on encrypted
//! inputs of distinct slot values and decrypted; the interpreter runs the
//! same planned graph on the same slot values in `f64`. A program's
//! precision is `−log2` of its largest slot error over every output, and
//! the test fails below the bits first measured, less one. It cannot see an
//! error below the noise (a wrong rounding in rescale, say): that needs a
//! bit-level reference.
//!
//! `cargo test -q -p poseidon-core --test program_precision -- --nocapture`
//! prints the table.

#[path = "support/slots.rs"]
mod slots;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{execute, plan_trace, PlanOptions};
use rand::SeedableRng;
use slots::C;

/// The bits first measured per program (26.53, 26.77, 26.85, 25.47,
/// 24.33, 16.78, 26.61), less one.
const FLOORS: [(&str, f64); 7] = [
    ("bootstrap_sketch.pos", 25.5),
    ("bsgs_matvec.pos", 25.7),
    ("deep_mul_chain.pos", 25.8),
    ("deep_refresh.pos", 24.4),
    ("hadd_stream.pos", 23.3),
    ("keyswitch_micro.pos", 15.7),
    ("lstm_cell.pos", 25.6),
];

/// Deterministic slot values of magnitude below 0.5, distinct per input.
fn input_slots(slots: usize, input: usize) -> Vec<C> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ (input as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.7
    };
    (0..slots).map(|_| C::new(next(), next())).collect()
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng, z: &[C]) -> Ciphertext {
    let z: Vec<Complex> = z.iter().map(|c| Complex::new(c.re, c.im)).collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

#[test]
fn every_planned_program_is_as_precise_as_first_measured() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51_075);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    let slots = ctx.n() / 2;
    let mut eval = Evaluator::new(&ctx);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut shipped: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pos"))
        .collect();
    shipped.sort();
    let names: Vec<String> = shipped
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        FLOORS.map(|(name, _)| name.to_string()),
        "every shipped program has a floor"
    );

    println!("program                   outputs  bits  floor");
    let mut short = Vec::new();
    for ((path, name), (_, floor)) in shipped.iter().zip(&names).zip(FLOORS) {
        let text = std::fs::read_to_string(path).expect("readable program");
        let trace = poseidon_sim::program::parse(&text).expect("parse");
        let plan = plan_trace(&trace, &ctx, &PlanOptions::default()).expect("plan");
        let values: Vec<Vec<C>> = (0..plan.graph.inputs().len())
            .map(|i| input_slots(slots, i))
            .collect();
        let inputs: Vec<Ciphertext> = values
            .iter()
            .map(|z| encrypt(&ctx, &keys, &mut rng, z))
            .collect();
        let got = execute(&plan, &mut eval, &inputs, &keys)
            .unwrap_or_else(|e| panic!("{name}: execution: {e}"))
            .outputs;
        let want = slots::run(&plan.graph, &values, slots);
        assert_eq!(got.len(), want.len(), "{name}: output count");
        let mut worst = 0f64;
        for (ct, want) in got.iter().zip(&want) {
            let pt = keys.secret().decrypt(ct);
            let dec = ctx.encoder().decode_rns(pt.poly(), pt.scale(), slots);
            for (g, w) in dec.iter().zip(want) {
                worst = worst.max(C::new(g.re, g.im).dist(*w));
            }
        }
        let bits = -worst.log2();
        println!("{name:<25} {:>7} {bits:>5.2} {floor:>6.1}", got.len());
        if bits.is_nan() || bits < floor {
            short.push(format!("{name}: {bits:.2} bits, floor {floor}"));
        }
    }
    assert!(short.is_empty(), "below the precision floor: {short:?}");
}
