//! Sharded dispatch correctness: bit-identity against the
//! single-dispatcher baseline across a shard × client-thread matrix,
//! strict global admission control under concurrent submission, and
//! work stealing that never corrupts or misroutes results.

use std::sync::Arc;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

fn setup(seed: u64) -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2], &mut rng);
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

fn assert_same(got: &Ciphertext, want: &Ciphertext) {
    assert_eq!(got.c0(), want.c0());
    assert_eq!(got.c1(), want.c1());
    assert_eq!(got.scale().to_bits(), want.scale().to_bits());
}

/// Every (shards, client threads) cell must produce the same bits as a
/// local evaluator — shard affinity and stealing are scheduling-only.
#[test]
fn sharded_matches_single_dispatcher_across_the_matrix() {
    let (ctx, keys, mut rng) = setup(0x5A4D);
    let eval = Evaluator::new(&ctx);
    let tenants = ["acme", "globex", "initech"];

    // Per tenant: two operands and the locally evaluated references.
    let mut work: Vec<(&str, Vec<(Request, Ciphertext)>)> = Vec::new();
    for tenant in tenants {
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
        let cases = vec![
            (
                Request::Add {
                    a: a.clone(),
                    b: b.clone(),
                },
                eval.try_add(&a, &b).unwrap(),
            ),
            (
                Request::Mul {
                    a: a.clone(),
                    b: b.clone(),
                },
                eval.try_mul(&a, &b, &keys).unwrap(),
            ),
            (
                Request::Rotate {
                    a: a.clone(),
                    steps: 1,
                },
                eval.try_rotate(&a, 1, &keys).unwrap(),
            ),
            (
                Request::Rotate {
                    a: a.clone(),
                    steps: 2,
                },
                eval.try_rotate(&a, 2, &keys).unwrap(),
            ),
        ];
        work.push((tenant, cases));
    }
    let work = Arc::new(work);

    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let service = EvalService::start(ServiceConfig {
                shards,
                ..ServiceConfig::default()
            });
            assert_eq!(service.shards(), shards);
            for tenant in tenants {
                service.register_tenant(tenant, &keys);
            }
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let service = Arc::clone(&service);
                    let work = Arc::clone(&work);
                    std::thread::spawn(move || {
                        for (i, (tenant, cases)) in work.iter().enumerate() {
                            if i % threads != t {
                                continue;
                            }
                            for (request, want) in cases {
                                let got = service
                                    .call(tenant, request.clone())
                                    .expect("served op failed");
                                assert_same(&got, want);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        }
    }
}

/// Admission control is one global bound across shards, and it holds
/// under concurrent submission: exactly `capacity` submissions win.
#[test]
fn concurrent_submission_respects_the_global_bound() {
    let (ctx, keys, mut rng) = setup(0xCAFE);
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        queue_capacity: 4,
        shards: 2,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    service.suspend();
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let service = Arc::clone(&service);
            let ct = ct.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let outcome = service.submit("acme", Request::Square { a: ct });
                tx.send(outcome).expect("result channel");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter panicked");
    }
    drop(tx);

    let mut tickets = Vec::new();
    let mut rejected = 0;
    for outcome in rx {
        match outcome {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                assert_eq!(
                    e,
                    ServeError::QueueFull {
                        depth: 4,
                        capacity: 4
                    }
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(tickets.len(), 4, "exactly capacity submissions admitted");
    assert_eq!(rejected, 4);

    service.resume();
    for ticket in tickets {
        ticket.wait().expect("admitted job served");
    }
}

/// A hot shard (one tenant, tiny batches) gets drained by the sibling
/// worker via back-stealing — and every result is still bit-identical.
#[test]
fn work_stealing_drains_a_hot_shard_without_corrupting_results() {
    let (ctx, keys, mut rng) = setup(0xBEEF);
    let eval = Evaluator::new(&ctx);
    // max_batch 1 ⇒ any backlog > 1 is steal-eligible, so the second
    // worker must participate; correctness must not depend on which
    // worker ran which job.
    let service = EvalService::start(ServiceConfig {
        shards: 2,
        max_batch: 1,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    let cases: Vec<(Ciphertext, Ciphertext)> = (0..8)
        .map(|i| {
            let ct = encrypt(
                &ctx,
                &keys,
                &mut rng,
                &[Complex::new(0.1 * f64::from(i), -0.05)],
            );
            let want = eval.try_square(&ct, &keys).unwrap();
            (ct, want)
        })
        .collect();

    service.suspend();
    let tickets: Vec<_> = cases
        .iter()
        .map(|(ct, _)| {
            service
                .submit("acme", Request::Square { a: ct.clone() })
                .expect("submit")
        })
        .collect();
    assert_eq!(service.queue_depth(), 8);
    service.resume();

    for (ticket, (_, want)) in tickets.into_iter().zip(&cases) {
        let got = ticket.wait().expect("stolen or owned job served");
        assert_same(&got, want);
    }
}
