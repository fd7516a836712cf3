//! Serve-side program planning: a whole `.pos` program submitted as one
//! admission-controlled unit — planned and executed server-side, with
//! the deadline and typed-error machinery covering the entire program.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::integrity::digest_ciphertext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_core::plan::{execute, plan_trace, PlanOptions};
use poseidon_serve::tcp::{self, Op};
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

/// A small BSGS-flavoured program: a hoistable rotation fan, masks, a
/// reduction, and one depth-consuming squaring chain tail.
const PROGRAM: &str = "\
# serve-side planning test program
n=65536 special=2 dnum=1
rotation L=8 x4
pmult    L=8 x4
hadd     L=8 x4
rescale  L=8 x1
cmult    L=7 x1
rescale  L=6 x1
";

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9706);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    (ctx, keys, rng)
}

fn encrypt(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    values: &[Complex],
) -> Ciphertext {
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), values, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

/// A served program reply is bit-identical to planning and executing
/// the same text locally with the same options — the server adds
/// scheduling, not noise. Holds for the inline program and for every
/// `.pos` file shipped in `programs/`.
#[test]
fn served_program_matches_local_planned_execution() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(0.5, 0.0), Complex::new(-0.25, 0.125)],
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut shipped: Vec<_> = std::fs::read_dir(&dir)
        .expect("programs dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pos"))
        .collect();
    shipped.sort();
    assert!(
        shipped.len() >= 7,
        "expected the seven shipped programs, found {}",
        shipped.len()
    );
    let mut programs = vec![("inline".to_string(), PROGRAM.to_string())];
    for path in shipped {
        let text = std::fs::read_to_string(&path).expect("readable program");
        programs.push((path.display().to_string(), text));
    }

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);
    let mut eval = he_ckks::eval::Evaluator::new(&ctx);
    for (name, text) in programs {
        let trace = poseidon_sim::program::parse(&text).expect("parse");
        let plan = plan_trace(&trace, &ctx, &PlanOptions::default()).expect("plan");
        let inputs = vec![a.clone(); plan.graph.inputs().len()];
        let local = execute(&plan, &mut eval, &inputs, &keys)
            .unwrap_or_else(|e| panic!("{name}: local execution: {e}"))
            .outputs
            .pop()
            .expect("program output");
        let served = service
            .call("acme", Request::Program { text, a: a.clone() })
            .unwrap_or_else(|e| panic!("{name}: served program: {e}"));
        assert_eq!(
            digest_ciphertext(&served),
            digest_ciphertext(&local),
            "{name}: served reply diverged from local planned execution"
        );
    }
    service.shutdown();
}

/// An already-expired program deadline is rejected at admission: no op
/// of the program executes and nothing is queued.
#[test]
fn expired_program_deadline_rejected_before_any_op_runs() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let past = Instant::now() - Duration::from_millis(5);
    let (tx, rx) = mpsc::channel();
    let err = service
        .submit_tagged_opts(
            "acme",
            Request::Program {
                text: PROGRAM.into(),
                a,
            },
            1,
            Some(past),
            false,
            move |_, result| {
                let _ = tx.send(result);
            },
        )
        .expect_err("expired program must be rejected");
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert_eq!(service.queue_depth(), 0, "nothing may have been queued");
    assert_eq!(
        rx.try_recv(),
        Err(mpsc::TryRecvError::Disconnected),
        "a rejected program's sink is dropped unused"
    );
    service.shutdown();
}

/// The digest of [`PROGRAM`] planned and executed in process: what every
/// served reply must equal bit for bit.
fn local_reply(ctx: &CkksContext, keys: &KeySet, a: &Ciphertext) -> u64 {
    let trace = poseidon_sim::program::parse(PROGRAM).expect("parse");
    let plan = plan_trace(&trace, ctx, &PlanOptions::default()).expect("plan");
    let inputs = vec![a.clone(); plan.graph.inputs().len()];
    let mut eval = he_ckks::eval::Evaluator::new(ctx);
    let local = execute(&plan, &mut eval, &inputs, keys)
        .expect("local execution")
        .outputs
        .pop()
        .expect("program output");
    digest_ciphertext(&local)
}

/// The digest of the tenant's reply to [`PROGRAM`].
fn served_reply(service: &EvalService, tenant: &str, a: &Ciphertext) -> u64 {
    let reply = service
        .call(
            tenant,
            Request::Program {
                text: PROGRAM.into(),
                a: a.clone(),
            },
        )
        .unwrap_or_else(|e| panic!("{tenant}: served program: {e}"));
    digest_ciphertext(&reply)
}

/// A tenant's first request plans the program and later ones reuse the
/// kept plan and its prepared operands: every reply is the same bits as
/// planning and executing the text locally.
#[test]
fn repeated_program_requests_reply_identically() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.25)]);
    let want = local_reply(&ctx, &keys, &a);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);
    for request in 0..3 {
        assert_eq!(
            served_reply(&service, "acme", &a),
            want,
            "request {request}"
        );
    }
    service.shutdown();
}

/// Re-registering a tenant and evicting it from the key cache both drop
/// its kept plans with it; the tenant that replaces it plans the program
/// again and replies with the same bits.
#[test]
fn re_registered_and_evicted_tenants_replan_identically() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, &[Complex::new(-0.5, 0.25)]);
    let want = local_reply(&ctx, &keys, &a);
    let frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    let service = EvalService::start(ServiceConfig {
        key_cache_capacity: 1,
        ..ServiceConfig::default()
    });
    for tenant in ["t0", "t1"] {
        service
            .register_tenant_frame(tenant, &frame)
            .expect("register frame");
    }
    // t1 evicted t0 at registration: t0's first request reloads it.
    assert_eq!(served_reply(&service, "t0", &a), want, "reloaded");
    assert_eq!(served_reply(&service, "t0", &a), want, "kept plan");
    service
        .register_tenant_frame("t0", &frame)
        .expect("re-register frame");
    assert_eq!(served_reply(&service, "t0", &a), want, "re-registered");
    assert_eq!(served_reply(&service, "t1", &a), want, "t1 evicts t0");
    assert_eq!(
        served_reply(&service, "t0", &a),
        want,
        "evicted and reloaded"
    );
    service.shutdown();
}

/// A malformed program is a typed per-request eval failure, not a
/// panic and not a silent empty reply — and, never being kept, the same
/// failure every time it is submitted.
#[test]
fn malformed_program_is_a_typed_error() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let submit = || {
        service
            .call(
                "acme",
                Request::Program {
                    text: "this is not a trace".into(),
                    a: a.clone(),
                },
            )
            .expect_err("malformed program must fail")
    };
    let err = submit();
    match &err {
        ServeError::Eval(EvalError::InvalidParams(msg)) => {
            assert!(msg.contains("program parse"), "{msg}");
        }
        other => panic!("unexpected error: {other:?}"),
    }
    assert_eq!(submit(), err, "a second submission fails the same way");
    service.shutdown();
}

/// Opcode 12 round-trips over loopback TCP: program text + seed
/// ciphertext up, the planned program's final output back.
#[test]
fn program_submission_round_trips_over_tcp() {
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(0.5, 0.0), Complex::new(-0.25, 0.125)],
    );

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    let keyset_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    client
        .register_tenant_chunked("acme", &keyset_frame)
        .expect("register");

    let a_frame = poseidon_wire::encode_ciphertext(&ctx, &a);
    let reply_frame = client
        .request(
            "acme",
            Op::Program {
                program: PROGRAM.as_bytes(),
                a: &a_frame,
            },
        )
        .expect("program over tcp")
        .expect("ciphertext reply");
    let served = poseidon_wire::decode_ciphertext(&ctx, &reply_frame).expect("decode reply");
    assert_eq!(digest_ciphertext(&served), local_reply(&ctx, &keys, &a));
}
