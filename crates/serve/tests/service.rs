//! In-process service behaviour: correctness against a local evaluator,
//! admission control, typed per-request failures, and shutdown draining.

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E4E);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2, 3], &mut rng);
    (ctx, keys, rng)
}

fn encrypt(
    ctx: &CkksContext,
    keys: &KeySet,
    rng: &mut rand::rngs::StdRng,
    values: &[Complex],
) -> he_ckks::cipher::Ciphertext {
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), values, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

#[test]
fn served_ops_match_the_local_evaluator_bit_for_bit() {
    let (ctx, keys, mut rng) = setup();
    let eval = Evaluator::new(&ctx);
    let a = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(0.5, 0.0), Complex::new(-0.25, 0.125)],
    );
    let b = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(0.125, -0.5), Complex::new(1.0, 0.0)],
    );

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let cases: Vec<(Request, he_ckks::cipher::Ciphertext)> = vec![
        (
            Request::Add {
                a: a.clone(),
                b: b.clone(),
            },
            eval.try_add(&a, &b).unwrap(),
        ),
        (
            Request::Sub {
                a: a.clone(),
                b: b.clone(),
            },
            eval.try_sub(&a, &b).unwrap(),
        ),
        (
            Request::Mul {
                a: a.clone(),
                b: b.clone(),
            },
            eval.try_mul(&a, &b, &keys).unwrap(),
        ),
        (
            Request::Square { a: a.clone() },
            eval.try_square(&a, &keys).unwrap(),
        ),
        (
            Request::Rotate {
                a: a.clone(),
                steps: 2,
            },
            eval.try_rotate(&a, 2, &keys).unwrap(),
        ),
    ];
    for (request, expected) in cases {
        let got = service.call("acme", request).expect("served op failed");
        assert_eq!(got.c0(), expected.c0());
        assert_eq!(got.c1(), expected.c1());
        assert_eq!(got.scale().to_bits(), expected.scale().to_bits());
    }
}

#[test]
fn coalesced_rotation_batch_matches_per_call_results() {
    let (ctx, keys, mut rng) = setup();
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)],
    );
    let expected = eval
        .try_rotate_many(&ct, &[1, 2, 3], &keys)
        .expect("local rotations");

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    // Freeze the dispatcher so all three requests land in one batch —
    // the coalescing path, not three singleton groups.
    service.suspend();
    let tickets: Vec<_> = [1i64, 2, 3]
        .into_iter()
        .map(|steps| {
            service
                .submit(
                    "acme",
                    Request::Rotate {
                        a: ct.clone(),
                        steps,
                    },
                )
                .expect("submit")
        })
        .collect();
    assert_eq!(service.queue_depth(), 3);
    service.resume();

    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let got = ticket.wait().expect("rotation failed");
        assert_eq!(got.c0(), want.c0());
        assert_eq!(got.c1(), want.c1());
    }
}

/// A rotation group whose members are not all keyed fails only the member
/// without a key: the others still share one hoist, and each keyed reply is
/// bit-identical to a local `try_rotate`.
#[test]
fn a_rotation_group_fails_only_its_unkeyed_member() {
    let (ctx, keys, mut rng) = setup();
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.75, -0.25)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    // One batch, one ciphertext: steps 1 and 3 are keyed, step 7 is not,
    // and it sits between them.
    service.suspend();
    let tickets: Vec<_> = [1i64, 7, 3]
        .into_iter()
        .map(|steps| {
            let request = Request::Rotate {
                a: ct.clone(),
                steps,
            };
            service.submit("acme", request).expect("submit")
        })
        .collect();
    assert_eq!(service.queue_depth(), 3);
    service.resume();

    let got: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert_eq!(
        got[1],
        Err(ServeError::Eval(EvalError::MissingRotationKey { steps: 7 }))
    );
    for (i, steps) in [(0, 1), (2, 3)] {
        let want = eval.try_rotate(&ct, steps, &keys).expect("local rotation");
        let err = got[i].as_ref().err();
        assert!(got[i] == Ok(want), "step {steps}: {err:?}");
    }
}

#[test]
fn queue_full_rejects_with_capacity() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        queue_capacity: 2,
        max_batch: 16,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    service.suspend();
    let t1 = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("first");
    let t2 = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("second");
    let err = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect_err("third should be rejected");
    assert_eq!(
        err,
        ServeError::QueueFull {
            depth: 2,
            capacity: 2
        }
    );
    service.resume();
    t1.wait().expect("first survives the rejection");
    t2.wait().expect("second survives the rejection");
}

#[test]
fn unknown_tenant_and_missing_key_are_typed_errors() {
    let (ctx, _, mut rng) = setup();
    // A tenant registered with *no* rotation keys.
    let bare_keys = KeySet::generate(&ctx, &mut rng);
    let ct = encrypt(&ctx, &bare_keys, &mut rng, &[Complex::new(0.5, 0.0)]);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &bare_keys);

    let err = service
        .submit("nobody", Request::Rescale { a: ct.clone() })
        .expect_err("unknown tenant");
    assert_eq!(err, ServeError::UnknownTenant("nobody".into()));

    let err = service
        .call(
            "acme",
            Request::Rotate {
                a: ct.clone(),
                steps: 7,
            },
        )
        .expect_err("missing rotation key");
    assert_eq!(
        err,
        ServeError::Eval(EvalError::MissingRotationKey { steps: 7 })
    );

    let err = service
        .call("acme", Request::Conjugate { a: ct })
        .expect_err("missing conjugation key");
    assert_eq!(err, ServeError::Eval(EvalError::MissingConjugationKey));
}

#[test]
fn level_exhaustion_is_a_per_request_error_not_a_crash() {
    let (ctx, keys, mut rng) = setup();
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let exhausted = eval.try_drop_to_level(&ct, 0).unwrap();

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);
    let err = service
        .call(
            "acme",
            Request::Rescale {
                a: exhausted.clone(),
            },
        )
        .expect_err("rescale at level 0");
    assert_eq!(err, ServeError::Eval(EvalError::RescaleAtLevelZero));

    // The dispatcher survived; the service still answers.
    service
        .call(
            "acme",
            Request::Add {
                a: exhausted.clone(),
                b: exhausted,
            },
        )
        .expect("still serving");
}

#[test]
fn shutdown_drains_pending_jobs_with_a_typed_error() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    service.suspend();
    let ticket = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("submit");
    service.shutdown();
    assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
    assert_eq!(
        service.submit("acme", Request::Rescale { a: ct }).err(),
        Some(ServeError::ShuttingDown)
    );
}
