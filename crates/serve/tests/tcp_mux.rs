//! Multiplexed-protocol edges: out-of-order reply reassembly, pipelined
//! submission against a real service, chunked key-set streaming,
//! dead-connection failure propagation, and a failed key reload.
//!
//! One test arms the fault injector on wire decode, so every test that
//! runs a real service (and decodes frames) holds
//! `poseidon_faults::test_lock()`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
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
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x417);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2, 3], &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    let handle = Arc::clone(&service);
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
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

/// A key set provisions a tenant that serves byte-identically whatever
/// its chunking: the client's 1 MiB chunks and adversarially tiny chunks
/// driven through the raw op.
#[test]
fn chunked_registration_serves_identically_at_any_chunk_size() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let keyset = poseidon_wire::encode_keyset_public(&ctx, &keys);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

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
    assert_eq!(
        rotate("chunked"),
        rotate("streamed"),
        "streamed registration diverged"
    );
}

/// A chunk stream belongs to the tenant its chunk 0 named. Chunks for `a`
/// followed by a final chunk sent as `b` register neither tenant: the
/// stray chunk drops the stream with a wire error (code 4), and the
/// connection goes on to take a fresh stream.
#[test]
fn a_chunk_stream_is_bound_to_the_tenant_of_its_first_chunk() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB1D);
    let keys = KeySet::generate(&ctx, &mut rng);
    let keyset = poseidon_wire::encode_keyset_public(&ctx, &keys);

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    let chunks = poseidon_wire::chunk_keyset(&keyset, 64 << 10);
    let (last, head) = chunks.split_last().expect("chunks");
    assert!(!head.is_empty(), "the key set must span several chunks");
    for chunk in head {
        let ack = client
            .request("a", Op::RegisterTenantChunk { chunk })
            .expect("a's chunks are accepted");
        assert_eq!(ack, None);
    }
    match client.request("b", Op::RegisterTenantChunk { chunk: last }) {
        Err(ServeError::Remote { code: 4, message }) => {
            assert!(message.contains("stream"), "{message}");
        }
        other => panic!("expected a wire error for b's chunk in a's stream, got {other:?}"),
    }

    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    for tenant in ["a", "b"] {
        match client.request(tenant, Op::Square { a: &frame }) {
            Err(ServeError::Remote { code: 1, .. }) => {}
            other => panic!("{tenant} must not be registered, got {other:?}"),
        }
    }
    // The stream was dropped, not the connection: a fresh one registers.
    client
        .register_tenant_chunked("b", &keyset)
        .expect("a fresh stream registers");
    client
        .request("b", Op::Square { a: &frame })
        .expect("b serves")
        .expect("ciphertext reply");
}

/// Two threads register multi-chunk key sets on one shared client at
/// once. Each registration writes its chunks as one stream, so neither
/// interleaves with the other and both tenants serve afterwards.
#[test]
fn concurrent_registrations_on_one_client_both_land() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2C1);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    // With two chain primes per digit the relinearisation key alone fits
    // two chunks; one rotation key makes the set span three.
    keys.add_rotation_key(1, &mut rng);
    let keyset = poseidon_wire::encode_keyset_public(&ctx, &keys);
    assert!(
        keyset.len() > 2 * poseidon_wire::KEYSET_CHUNK_BYTES,
        "each registration must stream at least three chunks"
    );

    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for tenant in ["left", "right"] {
            let (client, keyset, start) = (&client, &keyset, &start);
            scope.spawn(move || {
                start.wait();
                client
                    .register_tenant_chunked(tenant, keyset)
                    .unwrap_or_else(|e| panic!("{tenant}: {e}"));
            });
        }
    });

    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.25, 0.5)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let want = he_ckks::eval::Evaluator::new(&ctx)
        .try_square(&ct, &keys)
        .expect("local square");
    for tenant in ["left", "right"] {
        let reply = client
            .request(tenant, Op::Square { a: &frame })
            .unwrap_or_else(|e| panic!("{tenant}: {e}"))
            .expect("ciphertext reply");
        let got = poseidon_wire::decode_ciphertext(&ctx, &reply).expect("decode reply");
        assert_eq!(got.c0(), want.c0(), "{tenant}");
        assert_eq!(got.c1(), want.c1(), "{tenant}");
    }
}

/// A slowloris connection — a valid length prefix, a sliver of payload,
/// then silence — trips the server's mid-frame read timeout and is
/// closed, while a well-behaved client on another socket keeps being
/// served the whole time.
#[test]
fn slowloris_connection_is_reaped_without_blocking_others() {
    let _guard = poseidon_faults::test_lock();
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
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
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
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    let longest = "t".repeat(usize::from(u16::MAX));
    client
        .register_tenant_chunked(&longest, &poseidon_wire::encode_keyset_public(&ctx, &keys))
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
/// request pipelined behind it. A key set outside the chunk stream's
/// bounds is refused before any chunk is sent, too.
#[test]
fn an_oversize_request_fails_alone_in_a_pipeline() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F);
    let keys = KeySet::generate(&ctx, &mut rng);
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");
    client
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
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
    // A key set the chunk stream cannot carry is refused the same way.
    for keyset in [Vec::new(), vec![0u8; poseidon_wire::MAX_KEYSET_BYTES + 1]] {
        match client.register_tenant_chunked("acme", &keyset) {
            Err(ServeError::Protocol(msg)) => assert!(msg.contains("key-set frame"), "{msg}"),
            other => panic!("expected a local protocol refusal, got {other:?}"),
        }
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
    let _guard = poseidon_faults::test_lock();
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
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
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

/// Overload has one answer, queue full, and a TCP client meets it as
/// `Remote { code: 2 }`. A plain client sees the rejection; a resilient
/// client retries it and succeeds once the service drains. The service
/// resumes only after the resilient client's first rejection is
/// observed, so the retry is certain, not timed.
#[test]
fn a_full_queue_is_remote_code_2_and_the_resilient_client_retries_it() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF11);
    let keys = KeySet::generate(&ctx, &mut rng);
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.25)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rescale(&ct)
        .expect("local rescale");

    let capacity = 2;
    let service = EvalService::start(ServiceConfig {
        queue_capacity: capacity,
        ..ServiceConfig::default()
    });
    let handle = Arc::clone(&service);
    handle.register_tenant("acme", &keys);
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");

    handle.suspend();
    let tickets: Vec<_> = (0..capacity)
        .map(|_| {
            handle
                .submit("acme", poseidon_serve::Request::Rescale { a: ct.clone() })
                .expect("fill the queue")
        })
        .collect();
    assert_eq!(handle.queue_depth(), capacity);

    let client = tcp::Client::connect(addr).expect("connect");
    match client.request("acme", Op::Rescale { a: &frame }) {
        Err(ServeError::Remote { code: 2, .. }) => {}
        other => panic!("expected Remote {{ code: 2 }}, got {other:?}"),
    }

    let resilient = tcp::ResilientClient::connect(
        addr,
        tcp::SocketConfig::default(),
        tcp::RetryPolicy {
            max_attempts: 64,
            base_backoff_ms: 1,
            max_backoff_ms: 20,
            ..tcp::RetryPolicy::default()
        },
    )
    .expect("resilient client");
    let reply = std::thread::scope(|s| {
        let call = s.spawn(|| resilient.call("acme", Op::Rescale { a: &frame }));
        while resilient.retries() == 0 {
            assert!(!call.is_finished(), "the full queue must reject first");
            std::thread::yield_now();
        }
        handle.resume();
        call.join().expect("resilient call thread")
    })
    .expect("retried until admitted");
    assert!(resilient.retries() >= 1);
    let got = poseidon_wire::decode_ciphertext(&ctx, &reply).expect("decode");
    assert_eq!(got.c0(), expected.c0());
    assert_eq!(got.c1(), expected.c1());
    for t in tickets {
        t.wait().expect("queued job served after resume");
    }
}

/// A key reload that fails to decode answers code 4 (wire error), as the
/// in-process path answers `ServeError::Wire`, not code 1 (unknown
/// tenant); the tenant's next request reloads its keys and is served.
#[test]
fn a_failed_key_reload_is_remote_code_4_and_the_next_request_is_served() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4E1);
    let keys = KeySet::generate(&ctx, &mut rng);
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.25)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = he_ckks::eval::Evaluator::new(&ctx)
        .try_rescale(&ct)
        .expect("local rescale");

    let service = EvalService::start(ServiceConfig {
        key_cache_capacity: 1,
        ..ServiceConfig::default()
    });
    service.register_tenant("first", &keys);
    service.register_tenant("second", &keys);
    assert_eq!(
        service.resident_tenants(),
        1,
        "the second evicted the first"
    );
    let (addr, _accept) = tcp::listen(service, "127.0.0.1:0").expect("bind loopback");
    let client = tcp::Client::connect(addr).expect("connect");

    // The first wire decode after arming is the evicted tenant's reload.
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::WireFrame,
        FaultKind::BitFlip,
        0x4E1,
    ));
    let failed = client.request("first", Op::Rescale { a: &frame });
    let fired = poseidon_faults::fired();
    poseidon_faults::disarm();
    assert_eq!(fired, 1, "the reload decode was hit");
    match failed {
        Err(ServeError::Remote { code: 4, .. }) => {}
        other => panic!("expected Remote {{ code: 4 }}, got {other:?}"),
    }

    let reply = client
        .request("first", Op::Rescale { a: &frame })
        .expect("the next request reloads and is served")
        .expect("ciphertext");
    let got = poseidon_wire::decode_ciphertext(&ctx, &reply).expect("decode");
    assert_eq!(got.c0(), expected.c0());
    assert_eq!(got.c1(), expected.c1());
}
