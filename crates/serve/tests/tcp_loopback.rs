//! Loopback TCP smoke: encode → serve → decode → decrypt matches the
//! plaintext reference, and malformed traffic gets typed error frames
//! instead of killing the server.

use std::io::Write;

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::tcp::{self, Op};
use poseidon_serve::{EvalService, ServeError, ServiceConfig};
use rand::SeedableRng;

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
fn loopback_round_trip_decrypts_to_the_reference() {
    // Client-side key material; the server only ever sees the public set.
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7C9);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    // Provision the tenant over the wire — eval keys only, no secret.
    let keyset_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    client
        .register_tenant("acme", &keyset_frame)
        .expect("register");

    let va = [Complex::new(0.5, 0.0), Complex::new(-0.25, 0.5)];
    let vb = [Complex::new(0.125, -0.125), Complex::new(0.75, 0.0)];
    let a = encrypt(&ctx, &keys, &mut rng, &va);
    let b = encrypt(&ctx, &keys, &mut rng, &vb);
    let a_frame = poseidon_wire::encode_ciphertext(&ctx, &a);
    let b_frame = poseidon_wire::encode_ciphertext(&ctx, &b);

    // add: slot-wise sum.
    let sum_frame = client.add("acme", &a_frame, &b_frame).expect("add");
    let sum = poseidon_wire::decode_ciphertext(&ctx, &sum_frame).expect("decode sum");
    let dec = keys.secret().decrypt(&sum);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 2);
    for (g, (x, y)) in got.iter().zip(va.iter().zip(&vb)) {
        assert!((g.re - (x.re + y.re)).abs() < 1e-3, "sum drifted: {g:?}");
        assert!((g.im - (x.im + y.im)).abs() < 1e-3, "sum drifted: {g:?}");
    }

    // rotate(1): bit-identical to the local hoisted rotation.
    let rot_frame = client.rotate("acme", &a_frame, 1).expect("rotate");
    let rot = poseidon_wire::decode_ciphertext(&ctx, &rot_frame).expect("decode rot");
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rotate(&a, 1, &keys)
        .unwrap();
    assert_eq!(rot.c0(), expected.c0());
    assert_eq!(rot.c1(), expected.c1());

    // mul: slot-wise product (then still decryptable at the wire scale).
    let prod_frame = client.mul("acme", &a_frame, &b_frame).expect("mul");
    let prod = poseidon_wire::decode_ciphertext(&ctx, &prod_frame).expect("decode prod");
    let dec = keys.secret().decrypt(&prod);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 2);
    for (g, (x, y)) in got.iter().zip(va.iter().zip(&vb)) {
        let want = *x * *y;
        assert!(
            (g.re - want.re).abs() < 1e-2,
            "product drifted: {g:?} vs {want:?}"
        );
        assert!(
            (g.im - want.im).abs() < 1e-2,
            "product drifted: {g:?} vs {want:?}"
        );
    }
}

/// The serve digest every perf PR quotes: an FNV-1a fold, XORed across
/// the five replies, of a fixed-seed rotate / add / mul / rescale / square
/// workload over loopback TCP, with every telemetry probe and disarmed
/// fault hook compiled in: a moved byte fails the pin.
#[test]
fn five_op_workload_serve_digest_is_pinned() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC405);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let z: Vec<Complex> = (0..4).map(|i| Complex::new(0.25 * i as f64, 0.1)).collect();
    let a = poseidon_wire::encode_ciphertext(&ctx, &encrypt(&ctx, &keys, &mut rng, &z));
    let b = poseidon_wire::encode_ciphertext(&ctx, &encrypt(&ctx, &keys, &mut rng, &z));

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");

    let ops = [
        Op::Rotate { a: &a, steps: 1 },
        Op::Add { a: &a, b: &b },
        Op::Mul { a: &a, b: &b },
        Op::Rescale { a: &a },
        Op::Square { a: &a },
    ];
    let mut digest = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let reply = client
            .request("acme", *op)
            .expect("unfaulted request")
            .expect("ciphertext reply");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in (i as u64).to_le_bytes().iter().chain(&reply) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest ^= h;
    }
    const PINNED: u64 = 0x8311_1ece_317d_f71e;
    assert_eq!(
        digest, PINNED,
        "serve digest moved: got {digest:#018x}, pinned {PINNED:#018x}. A legitimate \
         change updates this constant and the same value in EXPERIMENTS.md."
    );
}

#[test]
fn server_reports_typed_errors_over_the_wire() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE44);
    let keys = KeySet::generate(&ctx, &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);

    // Unknown tenant (code 1).
    match client.square("ghost", &frame) {
        Err(ServeError::Remote { code: 1, .. }) => {}
        other => panic!("expected unknown-tenant error, got {other:?}"),
    }

    // Registered tenant, corrupt ciphertext frame → wire error (code 4).
    let keyset_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    client
        .register_tenant("acme", &keyset_frame)
        .expect("register");
    let mut corrupt = frame.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    match client.square("acme", &corrupt) {
        Err(ServeError::Remote { code: 4, message }) => {
            assert!(
                message.contains("checksum"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected wire error, got {other:?}"),
    }

    // Missing rotation key → eval error (code 3), connection still fine.
    match client.rotate("acme", &frame, 5) {
        Err(ServeError::Remote { code: 3, message }) => {
            assert!(
                message.contains("rotation key"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected eval error, got {other:?}"),
    }

    // A plaintext below the ciphertext's level (plaintext frames carry
    // their own level) → eval error (code 3), not the contained panic of
    // a basis-prefix assertion (code 6).
    let low = he_ckks::eval::Evaluator::new(&ctx).encode_at_level(
        &[Complex::new(0.25, 0.0)],
        ctx.default_scale(),
        0,
    );
    let low_frame = poseidon_wire::encode_plaintext(&ctx, &low);
    for (op, result) in [
        ("add_plain", client.add_plain("acme", &frame, &low_frame)),
        ("mul_plain", client.mul_plain("acme", &frame, &low_frame)),
    ] {
        match result {
            Err(ServeError::Remote { code: 3, message }) => {
                assert!(
                    message.contains("level mismatch"),
                    "{op}: unexpected message: {message}"
                );
            }
            other => panic!("{op}: expected eval error, got {other:?}"),
        }
    }

    // And the connection still works for a valid request afterwards.
    client.square("acme", &frame).expect("square after errors");
}

#[test]
fn protocol_garbage_gets_an_error_frame_not_a_dead_server() {
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");

    // Raw garbage on one connection: a framed body whose first 8 bytes
    // parse as a request id but whose remainder is not a valid request.
    // The server must answer with an error frame (echoed id, status 1,
    // code 7) rather than dropping silently or crashing.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let junk = b"\xEEgarbage";
    raw.write_all(&(junk.len() as u32).to_le_bytes())
        .expect("len");
    raw.write_all(junk).expect("body");
    let mut response = Vec::new();
    use std::io::Read;
    let mut prefix = [0u8; 4];
    raw.read_exact(&mut prefix).expect("response prefix");
    response.resize(u32::from_le_bytes(prefix) as usize, 0);
    raw.read_exact(&mut response).expect("response body");
    assert_eq!(&response[..8], junk, "expected the request id echoed");
    assert_eq!(response[8], 1, "expected an error status");
    assert_eq!(response[9], 7, "expected a protocol error code");

    // The listener survived: a fresh, well-behaved connection works.
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let keys = KeySet::generate(&ctx, &mut rng);
    let client = tcp::Client::connect(addr).expect("reconnect");
    client
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register after garbage");
}
