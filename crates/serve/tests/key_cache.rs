//! Bounded key cache: resident decoded keysets stay under the
//! configured cap and evicted tenants reload bit-identically from their
//! retained frames — in-process registrations included, which hold a
//! frame like any other.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::eval::Evaluator;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::{EvalService, Request, ServiceConfig};
use rand::SeedableRng;

fn setup(seed: u64) -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
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

#[test]
fn eviction_bounds_residents_and_reload_is_bit_identical() {
    let (ctx, keys, mut rng) = setup(0x10CA);
    let eval = Evaluator::new(&ctx);
    let frame = poseidon_wire::encode_keyset_public(&ctx, &keys);

    let service = EvalService::start(ServiceConfig {
        key_cache_capacity: 2,
        ..ServiceConfig::default()
    });
    for i in 0..4 {
        service
            .register_tenant_frame(format!("t{i}"), &frame)
            .expect("register frame");
    }
    // Four registered, but only the cap's worth of decoded keysets live.
    assert_eq!(service.resident_tenants(), 2, "LRU cap not enforced");

    // "t0" and "t1" were evicted; serving them re-decodes their frames
    // and the rebuilt evaluation state answers bit-identically.
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.25)]);
    let want_sq = eval.try_square(&ct, &keys).unwrap();
    let want_rot = eval.try_rotate(&ct, 1, &keys).unwrap();
    for tenant in ["t0", "t1", "t2", "t3"] {
        let got = service
            .call(tenant, Request::Square { a: ct.clone() })
            .expect("square after reload");
        assert_eq!(got.c0(), want_sq.c0());
        assert_eq!(got.c1(), want_sq.c1());
        let got = service
            .call(
                tenant,
                Request::Rotate {
                    a: ct.clone(),
                    steps: 1,
                },
            )
            .expect("rotate after reload");
        assert_eq!(got.c0(), want_rot.c0());
        assert_eq!(got.c1(), want_rot.c1());
        // Touching every tenant churns the cache but never exceeds it.
        assert!(
            service.resident_tenants() <= 2,
            "cache grew past capacity while serving {tenant}"
        );
    }
}

#[test]
fn an_in_process_tenant_counts_toward_the_cap_and_reloads_bit_identically() {
    let (ctx, keys, mut rng) = setup(0x91AE);
    let frame = poseidon_wire::encode_keyset_public(&ctx, &keys);

    let service = EvalService::start(ServiceConfig {
        key_cache_capacity: 1,
        ..ServiceConfig::default()
    });
    service.register_tenant("local", &keys);
    assert_eq!(service.resident_tenants(), 1);
    for i in 0..3 {
        service
            .register_tenant_frame(format!("f{i}"), &frame)
            .expect("register frame");
        // The in-process tenant takes the one place like any other.
        assert_eq!(service.resident_tenants(), 1, "after f{i}");
    }

    // "local" was evicted; serving it reloads its frame bit-identically.
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.25, 0.0)]);
    let want = Evaluator::new(&ctx).try_square(&ct, &keys).unwrap();
    let got = service
        .call("local", Request::Square { a: ct })
        .expect("the in-process tenant serves after its reload");
    assert_eq!(got.c0(), want.c0());
    assert_eq!(got.c1(), want.c1());
    assert_eq!(service.resident_tenants(), 1);
}
