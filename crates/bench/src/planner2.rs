//! `tables plan2`: planned-program serving vs op-by-op dispatch.
//!
//! PR 9's serving stack executes one wire op per request; planner
//! phase 2 adds `SubmitProgram`, which ships a whole `.pos` program and
//! lets the server compile it through the evaluation planner and run it
//! as one admission-controlled unit. This regenerator measures what that
//! buys: for every shipped program, the op-by-op baseline walks the
//! compiled graph client-side and issues each node as an individual
//! blocking request (no batching window ever forms, so no rotation ever
//! hoists — the honest naive-client shape), while the program path
//! submits the same text once. Forward-NTT counts and wall time are
//! compared, outputs are checked for agreement, and the table is
//! exported as `BENCH_planner2.json`.
//!
//! `bsgs_matvec.pos` pins the headline claim: the planned program must
//! at least halve `ntt.forward` against op-by-op dispatch, because its
//! rotation fan hoists server-side only when the server can see the
//! whole dataflow.

#[cfg(not(feature = "telemetry"))]
pub fn plan2() {
    println!("telemetry is compiled out of this build (all probes are no-ops).");
    println!("rebuild with:");
    println!("  cargo run -p poseidon-bench --features telemetry --bin tables -- plan2");
}

#[cfg(feature = "telemetry")]
pub fn plan2() {
    use he_ckks::cipher::{Ciphertext, Plaintext};
    use he_ckks::context::CkksContext;
    use he_ckks::encoding::Complex;
    use he_ckks::eval::Evaluator;
    use he_ckks::keys::KeySet;
    use he_ckks::params::CkksParams;
    use poseidon_core::plan::{compile_trace, CompileOptions, GraphOp, Plan};
    use poseidon_serve::{EvalService, Request, ServiceConfig};
    use poseidon_telemetry::{Registry, Snapshot};
    use rand::SeedableRng;
    use std::time::Instant;

    const SLOTS: usize = 8;

    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9_2B_3C);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    let reg = Registry::global();
    let fwd = |d: &Snapshot| d.get("ntt.forward").map_or(0, |s| s.count);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("bench", ctx.clone(), keys.clone());

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
        requests_op_by_op: usize,
        ntt_op_by_op: u64,
        ntt_program: u64,
        wall_ms_op_by_op: f64,
        wall_ms_program: f64,
        outputs_agree: bool,
    }
    impl Row {
        fn reduction(&self) -> f64 {
            if self.ntt_op_by_op == 0 {
                1.0
            } else {
                self.ntt_op_by_op as f64 / self.ntt_program.max(1) as f64
            }
        }
    }

    // Op-by-op baseline: walk the compiled graph in creation order and
    // dispatch every node as its own blocking request. `Input` binds the
    // seed ciphertext and `DropToLevel` is client-side modulus
    // truncation (no arithmetic, not a serving op) — everything else
    // round-trips through the service.
    let op_by_op = |graph: &poseidon_core::plan::EvalGraph,
                    seed: &Ciphertext|
     -> (Ciphertext, usize) {
        let local = Evaluator::new(&ctx);
        let unplanned = Plan::passthrough(graph.clone());
        let mut slots: Vec<Option<Ciphertext>> = vec![None; graph.values().len()];
        let mut dispatched = 0usize;
        let arg = |slots: &[Option<Ciphertext>], v: poseidon_core::plan::ValueId| -> Ciphertext {
            slots[v.index()].clone().expect("value produced in order")
        };
        for &nid in &unplanned.schedule {
            let node = graph.node(nid);
            let mut served = |req: Request| {
                dispatched += 1;
                service.call("bench", req).expect("served op")
            };
            let out = match &node.op {
                GraphOp::Input { slot: _ } => seed.clone(),
                GraphOp::DropToLevel { level } => local
                    .try_drop_to_level(&arg(&slots, node.inputs[0]), *level)
                    .unwrap(),
                GraphOp::Add => served(Request::Add {
                    a: arg(&slots, node.inputs[0]),
                    b: arg(&slots, node.inputs[1]),
                }),
                GraphOp::Sub => served(Request::Sub {
                    a: arg(&slots, node.inputs[0]),
                    b: arg(&slots, node.inputs[1]),
                }),
                GraphOp::Mul => served(Request::Mul {
                    a: arg(&slots, node.inputs[0]),
                    b: arg(&slots, node.inputs[1]),
                }),
                GraphOp::Square => served(Request::Square {
                    a: arg(&slots, node.inputs[0]),
                }),
                GraphOp::Rescale => served(Request::Rescale {
                    a: arg(&slots, node.inputs[0]),
                }),
                GraphOp::Rotate { steps } => served(Request::Rotate {
                    a: arg(&slots, node.inputs[0]),
                    steps: *steps,
                }),
                GraphOp::Conjugate => served(Request::Conjugate {
                    a: arg(&slots, node.inputs[0]),
                }),
                GraphOp::AddPlain { pt } => served(Request::AddPlain {
                    a: arg(&slots, node.inputs[0]),
                    pt: graph.plaintexts()[*pt].clone(),
                }),
                GraphOp::MulPlain { pt } => served(Request::MulPlain {
                    a: arg(&slots, node.inputs[0]),
                    pt: graph.plaintexts()[*pt].clone(),
                }),
                GraphOp::RotateMany { .. } | GraphOp::Bootstrap { .. } => {
                    unreachable!("passthrough schedules contain no pass-inserted ops")
                }
            };
            slots[node.outputs[0].index()] = Some(out);
        }
        let last = *graph.outputs().last().expect("program output");
        (arg(&slots, last), dispatched)
    };

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
        let seed = encrypt(&mut rng, 0.4);

        // Warmup run populates lazy rotation-key caches on the server.
        let _ = service
            .call(
                "bench",
                Request::Program {
                    text: text.clone(),
                    a: seed.clone(),
                },
            )
            .unwrap_or_else(|e| panic!("{name}: warmup program: {e}"));

        let before = reg.snapshot();
        let t0 = Instant::now();
        let (base_out, dispatched) = op_by_op(&compiled.graph, &seed);
        let wall_o = t0.elapsed().as_secs_f64() * 1e3;
        let d_op = reg.snapshot().since(&before);

        let before = reg.snapshot();
        let t0 = Instant::now();
        let prog_out = service
            .call(
                "bench",
                Request::Program {
                    text: text.clone(),
                    a: seed.clone(),
                },
            )
            .unwrap_or_else(|e| panic!("{name}: program submission: {e}"));
        let wall_p = t0.elapsed().as_secs_f64() * 1e3;
        let d_prog = reg.snapshot().since(&before);

        // The program path re-plans (rescale placement may move), so
        // agreement is at the decrypted-value level.
        let outputs_agree = decrypt(&base_out)
            .iter()
            .zip(decrypt(&prog_out))
            .all(|(x, y)| (x - y).abs() < 1e-3 * x.abs().max(1.0));
        assert!(outputs_agree, "{name}: program path diverged from op-by-op");

        rows.push(Row {
            name,
            requests_op_by_op: dispatched,
            ntt_op_by_op: fwd(&d_op),
            ntt_program: fwd(&d_prog),
            wall_ms_op_by_op: wall_o,
            wall_ms_program: wall_p,
            outputs_agree,
        });
    }
    service.shutdown();

    let bsgs = rows
        .iter()
        .find(|r| r.name == "bsgs_matvec")
        .expect("bsgs_matvec.pos is shipped");
    assert!(
        bsgs.ntt_program * 2 <= bsgs.ntt_op_by_op,
        "bsgs_matvec: expected >=2x ntt.forward reduction from program submission, got {} -> {}",
        bsgs.ntt_op_by_op,
        bsgs.ntt_program
    );

    // -- report ---------------------------------------------------------
    println!(
        "N=2^11, L={}; one tenant, in-process service; counts are ntt.forward invocations",
        ctx.max_level()
    );
    println!(
        "\n{:<18} {:>8} {:>11} {:>11} {:>6} {:>9} {:>9} {:>6}",
        "program", "reqs", "ntt op/op", "ntt prog", "gain", "ms op/op", "ms prog", "agree"
    );
    for r in &rows {
        println!(
            "{:<18} {:>8} {:>11} {:>11} {:>5.2}x {:>9.2} {:>9.2} {:>6}",
            r.name,
            r.requests_op_by_op,
            r.ntt_op_by_op,
            r.ntt_program,
            r.reduction(),
            r.wall_ms_op_by_op,
            r.wall_ms_program,
            if r.outputs_agree { "yes" } else { "no" },
        );
    }
    println!(
        "\nevery program's planned-submission output agrees with the op-by-op \
         dispatch at the decrypted-value level"
    );

    // -- export ----------------------------------------------------------
    let json_row = |r: &Row| -> String {
        format!(
            "{{\"name\":\"{}\",\"requests_op_by_op\":{},\"ntt_forward_op_by_op\":{},\
             \"ntt_forward_program\":{},\"ntt_reduction\":{:.3},\
             \"wall_ms_op_by_op\":{:.3},\"wall_ms_program\":{:.3},\"outputs_agree\":{}}}",
            r.name,
            r.requests_op_by_op,
            r.ntt_op_by_op,
            r.ntt_program,
            r.reduction(),
            r.wall_ms_op_by_op,
            r.wall_ms_program,
            r.outputs_agree,
        )
    };
    let json = format!(
        "{{\n  \"schema\": \"poseidon.bench.planner2.v1\",\n  \"params\": {{\"n\": {}, \"max_level\": {}}},\n  \"programs\": [\n    {}\n  ]\n}}\n",
        ctx.params().n,
        ctx.max_level(),
        rows.iter().map(json_row).collect::<Vec<_>>().join(",\n    "),
    );
    let path = crate::export_path("BENCH_planner2.json");
    std::fs::write(&path, &json).expect("write BENCH_planner2.json");
    println!("wrote {}", path.display());
}
