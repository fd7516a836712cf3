//! Multiplexed-protocol edges: out-of-order reply reassembly, pipelined
//! submission against a real service, chunked key-set streaming, and
//! dead-connection failure propagation.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

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

fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("frame prefix");
    let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream.read_exact(&mut body).expect("frame body");
    body
}

fn write_raw_frame(stream: &mut TcpStream, body: &[u8]) {
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(body).expect("body");
}

/// A scripted server that answers three requests in *reverse* arrival
/// order; the client must still hand each reply to the right waiter.
#[test]
fn out_of_order_replies_are_matched_by_request_id() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let frames: Vec<Vec<u8>> = (0..3).map(|_| read_raw_frame(&mut conn)).collect();
        for frame in frames.iter().rev() {
            let id = &frame[..8];
            // ok response whose blob is the echoed id — lets the client
            // side verify which request this reply claimed to answer.
            let mut body = Vec::new();
            body.extend_from_slice(id);
            body.push(0);
            body.extend_from_slice(&8u32.to_le_bytes());
            body.extend_from_slice(id);
            write_raw_frame(&mut conn, &body);
        }
        // Hold the socket until the client has drained the replies.
        let _ = conn.read(&mut [0u8; 1]);
    });

    let client = tcp::Client::connect(addr).expect("connect");
    let pending: Vec<_> = (0..3)
        .map(|_| {
            client
                .submit("acme", Op::Square { a: b"opaque" })
                .expect("submit")
        })
        .collect();
    for reply in pending {
        let id = reply.id();
        let blob = reply.wait().expect("reply").expect("blob");
        assert_eq!(
            blob,
            id.to_le_bytes().to_vec(),
            "reply delivered to the wrong waiter"
        );
    }
    drop(client);
    server.join().expect("server thread");
}

/// Pipelined rotations through a real loopback server: all submitted
/// before any reply is read, coalesced into one batch by the suspended
/// dispatcher, and bit-identical to the local hoisted path.
#[test]
fn pipelined_rotations_coalesce_and_match_local_eval() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x417);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2, 3], &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let handle = Arc::clone(&service);
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");

    let ct = encrypt(
        &ctx,
        &keys,
        &mut rng,
        &[Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)],
    );
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rotate_many(&ct, &[1, 2, 3], &keys)
        .expect("local rotations");

    // Freeze the dispatcher so the three pipelined requests form one
    // batch — the coalescing path exercised through the full TCP stack.
    handle.suspend();
    let pending: Vec<_> = [1i64, 2, 3]
        .into_iter()
        .map(|steps| {
            client
                .submit("acme", Op::Rotate { a: &frame, steps })
                .expect("submit")
        })
        .collect();
    // All three must be queued before any reply exists.
    while handle.queue_depth() < 3 {
        std::thread::yield_now();
    }
    handle.resume();

    for (reply, want) in pending.into_iter().zip(&expected) {
        let blob = reply.wait().expect("rotation reply").expect("ciphertext");
        let got = poseidon_wire::decode_ciphertext(&ctx, &blob).expect("decode");
        assert_eq!(got.c0(), want.c0());
        assert_eq!(got.c1(), want.c1());
    }
}

/// A key set streamed in chunks provisions a tenant that serves
/// byte-identically to one registered from the whole frame — including
/// with adversarially tiny chunk sizes driven through the raw Op.
#[test]
fn chunked_registration_serves_identically_to_whole_frame() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let keyset = poseidon_wire::encode_keyset_public(&ctx, &keys);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    client.register_tenant("whole", &keyset).expect("whole");
    client
        .register_tenant_chunked("chunked", &keyset)
        .expect("chunked");
    // Tiny chunks (many frames) via the raw op, pipelined then awaited.
    let chunks = poseidon_wire::chunk_keyset(&keyset, 257);
    assert!(
        chunks.len() > 2,
        "chunk size too large to exercise streaming"
    );
    let acks: Vec<_> = chunks
        .iter()
        .map(|chunk| {
            client
                .submit("streamed", Op::RegisterTenantChunk { chunk })
                .expect("submit chunk")
        })
        .collect();
    for ack in acks {
        ack.wait().expect("chunk ack");
    }

    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.5)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let rotate = |tenant: &str| {
        client
            .request(
                tenant,
                Op::Rotate {
                    a: &frame,
                    steps: 1,
                },
            )
            .expect("rotate")
            .expect("ciphertext reply")
    };
    let whole = rotate("whole");
    let chunked = rotate("chunked");
    let streamed = rotate("streamed");
    assert_eq!(whole, chunked, "chunked registration diverged");
    assert_eq!(whole, streamed, "streamed registration diverged");
}

/// A slowloris connection — a valid length prefix, a sliver of payload,
/// then silence — trips the server's mid-frame read timeout and is
/// closed, while a well-behaved client on another socket keeps being
/// served the whole time.
#[test]
fn slowloris_connection_is_reaped_without_blocking_others() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x510);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen_with(
        service,
        "127.0.0.1:0",
        tcp::SocketConfig {
            read_timeout_ms: 100,
            write_timeout_ms: 1_000,
        },
    )
    .expect("bind loopback");

    // The attacker: claims a 4096-byte frame, delivers 10 bytes, stalls.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.write_all(&4096u32.to_le_bytes()).expect("prefix");
    slow.write_all(&[0u8; 10]).expect("partial body");
    slow.flush().expect("flush");

    // Meanwhile a real client provisions and serves without delay.
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register while the slow socket stalls");
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    client
        .request("acme", Op::Rescale { a: &frame })
        .expect("healthy traffic unaffected")
        .expect("ciphertext reply");

    // The server must hang up on the stalled connection once the
    // mid-frame timeout trips — observed as EOF on our end.
    slow.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    let mut scratch = [0u8; 16];
    match slow.read(&mut scratch) {
        Ok(0) => {}  // clean close
        Err(_) => {} // reset — also a close
        Ok(n) => panic!("server answered a half-frame with {n} bytes"),
    }
}

/// Dropping the client fails every outstanding waiter with a typed
/// error and joins the demux reader — no detached thread, no waiter
/// hung on a half-closed socket.
#[test]
fn dropping_the_client_fails_outstanding_waiters() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Swallow one request, answer nothing, hold the socket open
        // until the client side hangs up.
        let _ = read_raw_frame(&mut conn);
        let _ = conn.read(&mut [0u8; 1]);
    });

    let client = tcp::Client::connect(addr).expect("connect");
    let orphan = client
        .submit("acme", Op::Square { a: b"opaque" })
        .expect("submit");
    drop(client); // must not hang: reader joined, waiters failed
    match orphan.wait() {
        Err(ServeError::Io(msg)) => {
            assert!(msg.contains("dropped"), "unexpected reason: {msg}")
        }
        other => panic!("expected a typed drop failure, got {other:?}"),
    }
    server.join().expect("server thread");
}

/// When the server vanishes, every in-flight request fails with a typed
/// I/O error and later submissions fail fast instead of hanging.
#[test]
fn dead_connection_fails_pending_and_future_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Read one request, then hang up without answering.
        let _ = read_raw_frame(&mut conn);
    });

    let client = tcp::Client::connect(addr).expect("connect");
    let reply = client
        .submit("acme", Op::Square { a: b"opaque" })
        .expect("submit");
    match reply.wait() {
        Err(ServeError::Io(_)) => {}
        other => panic!("expected an I/O failure, got {other:?}"),
    }
    server.join().expect("server thread");

    // The client knows the connection is dead; no new request hangs.
    match client.submit("acme", Op::Square { a: b"opaque" }) {
        Err(ServeError::Io(_)) => {}
        other => panic!("expected fail-fast on a dead connection, got {other:?}"),
    }
}

/// A tenant id longer than the protocol's `u16` length field is refused
/// before anything is sent. Truncated, it would name another tenant: here
/// the registered 65 535-byte id that is its prefix.
#[test]
fn an_overlong_tenant_id_is_refused_not_truncated() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    let longest = "t".repeat(usize::from(u16::MAX));
    client
        .register_tenant(&longest, &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("the longest id the protocol carries registers");
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let overlong = format!("{longest}u");
    match client
        .request(&overlong, Op::Square { a: &frame })
        .map(|_| ())
    {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("tenant id"), "{msg}"),
        other => panic!("expected a local protocol refusal, got {other:?}"),
    }
    // Nothing was sent: the connection still serves the longest id.
    client
        .request(&longest, Op::Square { a: &frame })
        .expect("the connection is intact");
}

/// A request body past `MAX_FRAME` is refused before it is sent and fails
/// alone. Sent, the server would drop the connection, failing every
/// request pipelined behind it.
#[test]
fn an_oversize_request_fails_alone_in_a_pipeline() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let oversize = vec![0u8; tcp::MAX_FRAME];

    let before = client
        .submit("acme", Op::Square { a: &frame })
        .expect("ordinary request");
    match client
        .submit("acme", Op::Square { a: &oversize })
        .map(|reply| reply.id())
    {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("MAX_FRAME"), "{msg}"),
        other => panic!("expected a local protocol refusal, got {other:?}"),
    }
    let after = client
        .submit("acme", Op::Square { a: &frame })
        .expect("ordinary request");
    let first = before.wait().expect("the request before").expect("reply");
    let second = after.wait().expect("the request after").expect("reply");
    assert_eq!(first, second, "the same square, twice");
}

/// Two independently connected resilient clients sharing one tenant and
/// the *default* retry policy must not collide in the replay-id space.
/// Ids mix per-instance entropy into the seed, so each client's first
/// replay-flagged request draws a distinct id; were the streams
/// deterministic in the seed alone, the second client's rotation
/// would replay the first client's cached ciphertext instead of its
/// own.
#[test]
fn independent_resilient_clients_draw_disjoint_replay_ids() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2], &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let handle = Arc::clone(&service);
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");

    // Provision via a plain client (its submissions are not
    // replay-flagged, so the cache stays empty until the rotations).
    let admin = tcp::Client::connect(addr).expect("connect");
    admin
        .register_tenant("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");

    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(1.5, -0.5)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rotate_many(&ct, &[1, 2], &keys)
        .expect("local rotations");

    // Same address, same tenant, byte-identical default policy — the
    // adversarial alignment for id collision.
    let policy = tcp::RetryPolicy::default();
    let c1 = tcp::ResilientClient::connect(addr, tcp::SocketConfig::default(), policy)
        .expect("client 1");
    let c2 = tcp::ResilientClient::connect(addr, tcp::SocketConfig::default(), policy)
        .expect("client 2");

    let r1 = c1
        .call(
            "acme",
            Op::Rotate {
                a: &frame,
                steps: 1,
            },
        )
        .expect("rotate by 1");
    let r2 = c2
        .call(
            "acme",
            Op::Rotate {
                a: &frame,
                steps: 2,
            },
        )
        .expect("rotate by 2");

    for (blob, want) in [(&r1, &expected[0]), (&r2, &expected[1])] {
        let got = poseidon_wire::decode_ciphertext(&ctx, blob).expect("decode");
        assert_eq!(got.c0(), want.c0(), "client got another client's reply");
        assert_eq!(got.c1(), want.c1(), "client got another client's reply");
    }
    // Both rotations executed and cached separately: the ids were
    // distinct, no cross-client replay aliasing.
    assert_eq!(handle.replay_entries(), 2, "replay ids collided");
}
