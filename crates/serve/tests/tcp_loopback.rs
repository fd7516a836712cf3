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
        .register_tenant_chunked("acme", &keyset_frame)
        .expect("register");

    let va = [Complex::new(0.5, 0.0), Complex::new(-0.25, 0.5)];
    let vb = [Complex::new(0.125, -0.125), Complex::new(0.75, 0.0)];
    let a = encrypt(&ctx, &keys, &mut rng, &va);
    let b = encrypt(&ctx, &keys, &mut rng, &vb);
    let a_frame = poseidon_wire::encode_ciphertext(&ctx, &a);
    let b_frame = poseidon_wire::encode_ciphertext(&ctx, &b);

    // add: slot-wise sum.
    let sum_frame = client
        .request(
            "acme",
            Op::Add {
                a: &a_frame,
                b: &b_frame,
            },
        )
        .expect("add")
        .expect("ciphertext reply");
    let sum = poseidon_wire::decode_ciphertext(&ctx, &sum_frame).expect("decode sum");
    let dec = keys.secret().decrypt(&sum);
    let got = ctx.encoder().decode_rns(dec.poly(), dec.scale(), 2);
    for (g, (x, y)) in got.iter().zip(va.iter().zip(&vb)) {
        assert!((g.re - (x.re + y.re)).abs() < 1e-3, "sum drifted: {g:?}");
        assert!((g.im - (x.im + y.im)).abs() < 1e-3, "sum drifted: {g:?}");
    }

    // rotate(1): bit-identical to the local hoisted rotation.
    let rot_frame = client
        .request(
            "acme",
            Op::Rotate {
                a: &a_frame,
                steps: 1,
            },
        )
        .expect("rotate")
        .expect("ciphertext reply");
    let rot = poseidon_wire::decode_ciphertext(&ctx, &rot_frame).expect("decode rot");
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rotate(&a, 1, &keys)
        .unwrap();
    assert_eq!(rot.c0(), expected.c0());
    assert_eq!(rot.c1(), expected.c1());

    // mul: slot-wise product (then still decryptable at the wire scale).
    let prod_frame = client
        .request(
            "acme",
            Op::Mul {
                a: &a_frame,
                b: &b_frame,
            },
        )
        .expect("mul")
        .expect("ciphertext reply");
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
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
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
         change updates this constant and the same value in DESIGN.md §2."
    );
}

/// A 92-byte key-set frame: a parameter block declaring ring degree `n`,
/// 60-bit primes and a chain of 8, and no keys (the forgery
/// `poseidon-wire`'s corruption corpus refuses).
fn forged_keyset(n: usize) -> Vec<u8> {
    let params = CkksParams {
        n,
        first_prime_bits: 60,
        scale_prime_bits: 60,
        chain_len: 8,
        special_len: 1,
        special_prime_bits: 60,
        scale: 2f64.powi(40),
        error_std: 3.2,
    };
    let mut frame = poseidon_wire::encode_params(&params);
    frame[10] = 5; // the kind byte: a key set
    let end = frame.len() - poseidon_wire::TRAILER_LEN;
    let sum = poseidon_wire::checksum(&frame[poseidon_wire::MAGIC.len()..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
    frame
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
    match client.request("ghost", Op::Square { a: &frame }) {
        Err(ServeError::Remote { code: 1, .. }) => {}
        other => panic!("expected unknown-tenant error, got {other:?}"),
    }

    // A forged key-set frame — a parameter block declaring N = 2^22 and
    // no keys, streamed as one chunk — is refused as a wire error (code 4)
    // before a context is derived from it; the connection keeps serving
    // (checked below).
    let forged = forged_keyset(1 << 22);
    match client.register_tenant_chunked("forged", &forged) {
        Err(ServeError::Remote { code: 4, message }) => {
            assert!(
                message.contains("truncated"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected a wire error for the forged key set, got {other:?}"),
    }

    // Registered tenant, corrupt ciphertext frame → wire error (code 4).
    let keyset_frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
    client
        .register_tenant_chunked("acme", &keyset_frame)
        .expect("register");
    let mut corrupt = frame.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    match client.request("acme", Op::Square { a: &corrupt }) {
        Err(ServeError::Remote { code: 4, message }) => {
            assert!(
                message.contains("checksum"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected wire error, got {other:?}"),
    }

    // Missing rotation key → eval error (code 3), connection still fine.
    match client.request(
        "acme",
        Op::Rotate {
            a: &frame,
            steps: 5,
        },
    ) {
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
        (
            "add_plain",
            client.request(
                "acme",
                Op::AddPlain {
                    a: &frame,
                    pt: &low_frame,
                },
            ),
        ),
        (
            "mul_plain",
            client.request(
                "acme",
                Op::MulPlain {
                    a: &frame,
                    pt: &low_frame,
                },
            ),
        ),
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
    client
        .request("acme", Op::Square { a: &frame })
        .expect("square after errors")
        .expect("ciphertext reply");
}

#[test]
fn protocol_garbage_gets_an_error_frame_not_a_dead_server() {
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");

    // Raw garbage on one connection: a framed body whose first 8 bytes
    // parse as a request id but whose remainder is not a valid request.
    // The server must answer with an error frame (echoed id, status 1,
    // code 7) rather than dropping silently or crashing. The frame is
    // v5's `id | status | code | msg_len: u16 LE | msg`, nothing more.
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
    let msg_len = u16::from_le_bytes([response[10], response[11]]) as usize;
    assert!(msg_len > 0, "expected a rendered error message");
    assert_eq!(
        response.len(),
        12 + msg_len,
        "an error frame is id, status, code, msg_len and msg"
    );
    assert!(
        std::str::from_utf8(&response[12..]).is_ok_and(|m| m.starts_with("protocol error")),
        "the message follows msg_len directly"
    );

    // The listener survived: a fresh, well-behaved connection works.
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let keys = KeySet::generate(&ctx, &mut rng);
    let client = tcp::Client::connect(addr).expect("reconnect");
    client
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register after garbage");
}

/// A small BSGS-flavoured `.pos` program (rotations 1..=4, masks, a
/// reduction and a squaring tail) for the `Program` opcode.
const PROGRAM: &str = "\
n=65536 special=2 dnum=1
rotation L=8 x4
pmult    L=8 x4
hadd     L=8 x4
rescale  L=8 x1
cmult    L=7 x1
rescale  L=6 x1
";

/// Every `Op` over TCP, against a tenant registered in the client's 1 MiB
/// chunks and one registered in 64 KiB chunks, answers bit-identically to `EvalService::call`
/// on the matching in-process `Request`: the opcode table, the request
/// parser and the pooled decoders add transport, not arithmetic.
#[test]
fn every_op_over_tcp_matches_the_in_process_call() {
    use he_ckks::integrity::digest_ciphertext;
    use poseidon_serve::Request;

    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0B5);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..=8i64, &mut rng);
    keys.add_conjugation_key(&mut rng);
    let z = [Complex::new(0.25, -0.5), Complex::new(0.5, 0.125)];
    let a = encrypt(&ctx, &keys, &mut rng, &z);
    let b = encrypt(&ctx, &keys, &mut rng, &z);
    let pt =
        he_ckks::eval::Evaluator::new(&ctx).encode_at_level(&z, ctx.default_scale(), a.level());
    let (a_frame, b_frame) = (
        poseidon_wire::encode_ciphertext(&ctx, &a),
        poseidon_wire::encode_ciphertext(&ctx, &b),
    );
    let pt_frame = poseidon_wire::encode_plaintext(&ctx, &pt);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("local", &keys);
    let (addr, _accept) =
        tcp::listen(std::sync::Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    let keyset = poseidon_wire::encode_keyset_public(&ctx, &keys);
    client
        .register_tenant_chunked("client", &keyset)
        .expect("register in the client's 1 MiB chunks");
    let chunks = poseidon_wire::chunk_keyset(&keyset, 64 << 10);
    assert!(chunks.len() > 1, "the key set must span several chunks");
    let acks: Vec<_> = chunks
        .iter()
        .map(|chunk| {
            client
                .submit("chunked", Op::RegisterTenantChunk { chunk })
                .expect("submit chunk")
        })
        .collect();
    for ack in acks {
        assert_eq!(
            ack.wait().expect("chunk ack"),
            None,
            "registration acks carry no ciphertext"
        );
    }

    let cases = [
        (
            "Add",
            Op::Add {
                a: &a_frame,
                b: &b_frame,
            },
            Request::Add {
                a: a.clone(),
                b: b.clone(),
            },
        ),
        (
            "Sub",
            Op::Sub {
                a: &a_frame,
                b: &b_frame,
            },
            Request::Sub {
                a: a.clone(),
                b: b.clone(),
            },
        ),
        (
            "Mul",
            Op::Mul {
                a: &a_frame,
                b: &b_frame,
            },
            Request::Mul {
                a: a.clone(),
                b: b.clone(),
            },
        ),
        (
            "Square",
            Op::Square { a: &a_frame },
            Request::Square { a: a.clone() },
        ),
        (
            "Rescale",
            Op::Rescale { a: &a_frame },
            Request::Rescale { a: a.clone() },
        ),
        (
            "Rotate",
            Op::Rotate {
                a: &a_frame,
                steps: 3,
            },
            Request::Rotate {
                a: a.clone(),
                steps: 3,
            },
        ),
        (
            "Conjugate",
            Op::Conjugate { a: &a_frame },
            Request::Conjugate { a: a.clone() },
        ),
        (
            "AddPlain",
            Op::AddPlain {
                a: &a_frame,
                pt: &pt_frame,
            },
            Request::AddPlain {
                a: a.clone(),
                pt: pt.clone(),
            },
        ),
        (
            "MulPlain",
            Op::MulPlain {
                a: &a_frame,
                pt: &pt_frame,
            },
            Request::MulPlain {
                a: a.clone(),
                pt: pt.clone(),
            },
        ),
        (
            "Program",
            Op::Program {
                program: PROGRAM.as_bytes(),
                a: &a_frame,
            },
            Request::Program {
                text: PROGRAM.into(),
                a: a.clone(),
            },
        ),
    ];
    for (name, op, request) in cases {
        let want = digest_ciphertext(&service.call("local", request).expect("in-process call"));
        for tenant in ["client", "chunked"] {
            let reply = client
                .request(tenant, op)
                .unwrap_or_else(|e| panic!("{name} for {tenant}: {e}"))
                .unwrap_or_else(|| panic!("{name} for {tenant}: no ciphertext"));
            let got = poseidon_wire::decode_ciphertext(&ctx, &reply).expect("decode reply");
            assert_eq!(digest_ciphertext(&got), want, "{name} for {tenant}");
        }
    }
}

/// Sends one raw request frame and reads the reply body (`None` once the
/// server has closed the connection).
fn raw_request(stream: &mut std::net::TcpStream, body: &[u8]) -> Option<Vec<u8>> {
    use std::io::Read;
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .and_then(|()| stream.write_all(body))
        .ok()?;
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).ok()?;
    let mut reply = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut reply).ok()?;
    Some(reply)
}

/// An opcode outside the table is refused as a protocol error (code 7)
/// before the tenant is looked up or a blob decoded, and the connection
/// is then closed — for an unknown tenant and a registered one alike.
#[test]
fn unknown_opcode_is_a_protocol_error_that_closes_the_connection() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0C0DE);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");

    for tenant in ["ghost", "acme"] {
        // 10, the retired whole-frame registration, is refused like the
        // numbers that were never assigned.
        for opcode in [0u8, 10, 13, 200] {
            let mut raw = std::net::TcpStream::connect(addr).expect("connect");
            let id = 0x5157_u64 + u64::from(opcode);
            let mut body = id.to_le_bytes().to_vec();
            body.extend_from_slice(&[opcode, 0, 0, 0, 0, 0]);
            body.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
            body.extend_from_slice(tenant.as_bytes());
            // One junk blob, where a ciphertext frame would go.
            body.extend_from_slice(&4u32.to_le_bytes());
            body.extend_from_slice(b"junk");

            let reply = raw_request(&mut raw, &body).expect("an error frame");
            assert_eq!(reply[..8], id.to_le_bytes(), "{tenant}/{opcode}: id echoed");
            assert_eq!(reply[8], 1, "{tenant}/{opcode}: error status");
            assert_eq!(reply[9], 7, "{tenant}/{opcode}: protocol error code");
            assert_eq!(
                raw_request(&mut raw, &body),
                None,
                "{tenant}/{opcode}: the connection must be closed"
            );
        }
    }
}
