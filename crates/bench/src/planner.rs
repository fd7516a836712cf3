//! `tables plan`: compiles every shipped `.pos` program through the
//! graph-level evaluation planner and measures what planning buys.
//!
//! For each program the trace is parsed, lowered to a dataflow graph
//! (`plan::compile_trace`), then executed twice on the functional
//! `Evaluator` under `CkksParams::small()`: once in recorded creation
//! order (`Plan::passthrough`) and once through the full pass pipeline
//! (rotation hoisting, rescale placement, dead-value elimination,
//! affinity scheduling). The report prints forward-NTT counts, hoist
//! batch sizes, rescale counts, peak live ciphertexts and wall time for
//! both schedules, asserts that the outputs agree (digest-identical when
//! the schedule is value-preserving, decrypted-value agreement
//! otherwise), and exports `BENCH_planner.json`.
//!
//! A hand-built 8-rotation fan ("rotate8") pins the headline claim —
//! planning must at least halve `ntt.forward` on a shared-source
//! rotation fan — as does `bsgs_matvec.pos` end to end.

#[cfg(not(feature = "telemetry"))]
pub fn plan() {
    println!("telemetry is compiled out of this build (all probes are no-ops).");
    println!("rebuild with:");
    println!("  cargo run -p poseidon-bench --features telemetry --bin tables -- plan");
}

#[cfg(feature = "telemetry")]
pub fn plan() {
    use he_ckks::cipher::{Ciphertext, Plaintext};
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::eval::Evaluator;
    use he_ckks::integrity::digest_ciphertext;
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use poseidon_core::plan::{
        compile_trace, execute, plan as plan_graph, CompileOptions, EvalGraph, Plan, PlanOptions,
    };
    use poseidon_telemetry::{Registry, Snapshot};
    use rand::SeedableRng;
    use std::time::Instant;

    const SLOTS: usize = 8;

    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9_1A_2B);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    let reg = Registry::global();
    let fwd = |d: &Snapshot| d.get("ntt.forward").map_or(0, |s| s.count);

    let encrypt = |rng: &mut rand::rngs::StdRng, seed: f64| -> Ciphertext {
        let z: Vec<Complex> = (0..SLOTS)
            .map(|i| Complex::new(seed + 0.06 * i as f64, 0.0))
            .collect();
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        keys.public().encrypt(&pt, rng)
    };
    let decrypt = |ct: &Ciphertext| -> Vec<f64> {
        let pt = keys.secret().decrypt(ct);
        ctx.encoder()
            .decode_rns(pt.poly(), pt.scale(), SLOTS)
            .iter()
            .map(|z| z.re)
            .collect()
    };

    struct Row {
        name: String,
        nodes_before: usize,
        nodes_after: usize,
        rescales_before: usize,
        rescales_after: usize,
        hoist_batches: Vec<usize>,
        max_live_before: usize,
        max_live_after: usize,
        value_preserving: bool,
        outputs_agree: bool,
        ntt_unplanned: u64,
        ntt_planned: u64,
        wall_ms_unplanned: f64,
        wall_ms_planned: f64,
    }
    impl Row {
        fn reduction(&self) -> f64 {
            if self.ntt_unplanned == 0 {
                1.0
            } else {
                self.ntt_unplanned as f64 / self.ntt_planned.max(1) as f64
            }
        }
    }

    // Measures one graph: warmup (populates lazy key caches), then the
    // unplanned passthrough schedule, then the planned schedule.
    let run_graph = |name: &str, graph: EvalGraph| -> Row {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE_EF ^ name.len() as u64);
        let inputs: Vec<Ciphertext> = (0..graph.inputs().len())
            .map(|i| encrypt(&mut rng, 0.4 + 0.05 * i as f64))
            .collect();
        let unplanned = Plan::passthrough(graph.clone());
        let planned = plan_graph(graph, &PlanOptions::default()).expect("no bootstrap options set");
        let mut eval = Evaluator::new(&ctx);
        // Warm the rotation-key eval caches so neither timed run pays
        // one-time key transforms.
        let _ = execute(&unplanned, &mut eval, &inputs, &keys).expect("warmup");

        let before = reg.snapshot();
        let t0 = Instant::now();
        let base = execute(&unplanned, &mut eval, &inputs, &keys).expect("unplanned");
        let wall_u = t0.elapsed().as_secs_f64() * 1e3;
        let d_unplanned = reg.snapshot().since(&before);

        let before = reg.snapshot();
        let t0 = Instant::now();
        let opt = execute(&planned, &mut eval, &inputs, &keys).expect("planned");
        let wall_p = t0.elapsed().as_secs_f64() * 1e3;
        let d_planned = reg.snapshot().since(&before);

        assert_eq!(
            base.outputs.len(),
            opt.outputs.len(),
            "{name}: output arity"
        );
        let outputs_agree = if planned.value_preserving {
            base.outputs
                .iter()
                .zip(&opt.outputs)
                .all(|(a, b)| digest_ciphertext(a) == digest_ciphertext(b))
        } else {
            base.outputs.iter().zip(&opt.outputs).all(|(a, b)| {
                decrypt(a)
                    .iter()
                    .zip(decrypt(b))
                    .all(|(x, y)| (x - y).abs() < 1e-3 * x.abs().max(1.0))
            })
        };
        assert!(outputs_agree, "{name}: planned outputs diverged");

        Row {
            name: name.to_string(),
            nodes_before: planned.stats.nodes_before,
            nodes_after: planned.stats.nodes_after,
            rescales_before: planned.stats.rescales_before,
            rescales_after: planned.stats.rescales_after,
            hoist_batches: planned.stats.hoist_batches.clone(),
            max_live_before: planned.stats.max_live_before,
            max_live_after: opt.max_live,
            value_preserving: planned.value_preserving,
            outputs_agree,
            ntt_unplanned: fwd(&d_unplanned),
            ntt_planned: fwd(&d_planned),
            wall_ms_unplanned: wall_u,
            wall_ms_planned: wall_p,
        }
    };

    // -- rotate8 micro: 8 rotations of one source, summed --------------
    let rotate8 = {
        let mut g = EvalGraph::new(f64::from(ctx.params().scale_prime_bits));
        let x = g.input(ctx.max_level(), ctx.default_scale().log2());
        let rots: Vec<_> = (1..=8).map(|s| g.rotate(x, s)).collect();
        let mut acc = rots[0];
        for &r in &rots[1..] {
            acc = g.add(acc, r);
        }
        g.mark_output(acc);
        run_graph("rotate8", g)
    };
    assert!(
        rotate8.value_preserving,
        "hoisting and reordering must be bit-preserving"
    );
    assert!(
        rotate8.ntt_planned * 2 <= rotate8.ntt_unplanned,
        "rotate8: expected >=2x ntt.forward reduction, got {} -> {}",
        rotate8.ntt_unplanned,
        rotate8.ntt_planned
    );

    // -- every shipped .pos program ------------------------------------
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pos"))
        .collect();
    names.sort();
    let mut rows: Vec<Row> = Vec::new();
    for path in &names {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(path).unwrap();
        let trace = poseidon_sim::program::parse(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let compiled = compile_trace(&trace, &ctx, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        rows.push(run_graph(&name, compiled.graph));
    }

    let bsgs = rows
        .iter()
        .find(|r| r.name == "bsgs_matvec")
        .expect("bsgs_matvec.pos is shipped");
    assert!(
        bsgs.ntt_planned * 2 <= bsgs.ntt_unplanned,
        "bsgs_matvec: expected >=2x ntt.forward reduction, got {} -> {}",
        bsgs.ntt_unplanned,
        bsgs.ntt_planned
    );

    // -- report ---------------------------------------------------------
    println!(
        "N=2^11, L={} (8 chain primes + 2 special); counts are ntt.forward invocations",
        ctx.max_level()
    );
    println!(
        "\n{:<18} {:>11} {:>11} {:>6} {:>9} {:>9} {:>9} {:>9} {:>5} {:<8}",
        "program",
        "ntt base",
        "ntt plan",
        "gain",
        "resc b/a",
        "live b/a",
        "ms base",
        "ms plan",
        "biteq",
        "hoists"
    );
    for r in std::iter::once(&rotate8).chain(rows.iter()) {
        println!(
            "{:<18} {:>11} {:>11} {:>5.2}x {:>4}/{:<4} {:>4}/{:<4} {:>9.2} {:>9.2} {:>5} {:?}",
            r.name,
            r.ntt_unplanned,
            r.ntt_planned,
            r.reduction(),
            r.rescales_before,
            r.rescales_after,
            r.max_live_before,
            r.max_live_after,
            r.wall_ms_unplanned,
            r.wall_ms_planned,
            if r.value_preserving { "yes" } else { "no" },
            r.hoist_batches,
        );
    }
    println!(
        "\nevery program's planned outputs agree with the unplanned run \
         (digest-identical when value-preserving, decrypted values otherwise)"
    );

    // -- export ----------------------------------------------------------
    let json_row = |r: &Row| -> String {
        format!(
            "{{\"name\":\"{}\",\"nodes_before\":{},\"nodes_after\":{},\
             \"rescales_before\":{},\"rescales_after\":{},\"hoist_batches\":[{}],\
             \"max_live_before\":{},\"max_live_after\":{},\"value_preserving\":{},\
             \"outputs_agree\":{},\"ntt_forward_unplanned\":{},\"ntt_forward_planned\":{},\
             \"ntt_reduction\":{:.3},\"wall_ms_unplanned\":{:.3},\"wall_ms_planned\":{:.3}}}",
            r.name,
            r.nodes_before,
            r.nodes_after,
            r.rescales_before,
            r.rescales_after,
            r.hoist_batches
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(","),
            r.max_live_before,
            r.max_live_after,
            r.value_preserving,
            r.outputs_agree,
            r.ntt_unplanned,
            r.ntt_planned,
            r.reduction(),
            r.wall_ms_unplanned,
            r.wall_ms_planned,
        )
    };
    let json = format!(
        "{{\n  \"schema\": \"poseidon.bench.planner.v1\",\n  \"params\": {{\"n\": {}, \"max_level\": {}}},\n  \"rotate8\": {},\n  \"programs\": [\n    {}\n  ]\n}}\n",
        ctx.params().n,
        ctx.max_level(),
        json_row(&rotate8),
        rows.iter().map(json_row).collect::<Vec<_>>().join(",\n    "),
    );
    let path = crate::export_path("BENCH_planner.json");
    std::fs::write(&path, &json).expect("write BENCH_planner.json");
    println!("wrote {}", path.display());
}
