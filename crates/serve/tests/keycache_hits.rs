//! A request takes the key cache once, in process and over TCP: the TCP
//! front-end looks the tenant up to decode the request's operands and
//! hands that tenant to admission, which does not look it up again.
//!
//! Kept to a single test function: the telemetry registry is
//! process-global, and this binary must not race itself on the counters.

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::tcp::{self, Op};
use poseidon_serve::{EvalService, Request, ServiceConfig};
use poseidon_telemetry::{Registry, Snapshot};
use rand::SeedableRng;

fn count(snap: &Snapshot, scope: &str) -> u64 {
    snap.get(scope).map(|s| s.count).unwrap_or(0)
}

#[test]
fn one_request_is_one_key_cache_hit() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x417);
    let keys = KeySet::generate(&ctx, &mut rng);
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(
            ctx.chain_basis(),
            &[Complex::new(0.5, 0.25)],
            ctx.default_scale(),
        ),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) =
        tcp::listen(std::sync::Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");

    let before = Registry::global().snapshot();
    service
        .call("acme", Request::Rescale { a: ct.clone() })
        .expect("in-process rescale");
    let in_process = Registry::global().snapshot().since(&before);
    assert_eq!(count(&in_process, "serve.keycache.hit"), 1, "in process");

    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let before = Registry::global().snapshot();
    client
        .request("acme", Op::Rescale { a: &frame })
        .expect("rescale over tcp")
        .expect("ciphertext reply");
    let over_tcp = Registry::global().snapshot().since(&before);
    assert_eq!(count(&over_tcp, "serve.keycache.hit"), 1, "over tcp");
    assert_eq!(count(&over_tcp, "serve.keycache.miss"), 0, "over tcp");
}
