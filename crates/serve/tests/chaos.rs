//! Chaos scenarios under the fault injector: every injected failure — worker
//! panics and stalls, socket disconnects, corruption, and mid-frame
//! stalls — must resolve as a bit-identical success (after retry or
//! failover) or a typed [`ServeError`]. No hangs, no lost replies, no
//! escaped panics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
use poseidon_serve::tcp::{self, Op, ResilientClient, RetryPolicy, SocketConfig};
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCA05);
    let keys = KeySet::generate(&ctx, &mut rng);
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

/// Drives manual watchdog scans until the victim shard's worker is
/// replaced; panics if detection never happens (a hang would otherwise
/// be silent).
fn scan_until_restarted(service: &EvalService, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.worker_epoch(shard) == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never detected the dead/stalled worker"
        );
        service.watchdog_scan();
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An injected worker panic is contained: the held job resolves with a
/// typed `Internal` error (the reply drop guard), queued jobs survive
/// the failover, and the respawned worker serves them bit-identically.
#[test]
fn worker_panic_is_contained_and_watchdog_restarts_the_shard() {
    let _guard = poseidon_faults::test_lock();
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        shards: 1,
        max_batch: 1,
        watchdog_interval_ms: 0, // manual scans: deterministic detection
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);
    let expected = service
        .call("acme", Request::Rescale { a: ct.clone() })
        .expect("unfaulted baseline");

    service.suspend();
    let victim_job = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("first");
    let survivors: Vec<_> = (0..2)
        .map(|_| {
            service
                .submit("acme", Request::Rescale { a: ct.clone() })
                .expect("queued behind the victim")
        })
        .collect();
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::ShardWorker,
        FaultKind::Panic,
        0x9A1C,
    ));
    service.resume();

    // The held job dies with the worker — typed, not lost.
    match victim_job.wait() {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("worker died"), "unexpected message: {msg}")
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(poseidon_faults::fired(), 1, "the panic fault fired once");
    scan_until_restarted(&service, 0);
    poseidon_faults::disarm();

    for t in survivors {
        let got = t.wait().expect("survivor served by the respawned worker");
        assert_eq!(got.c0(), expected.c0(), "failover changed the bytes");
        assert_eq!(got.c1(), expected.c1(), "failover changed the bytes");
    }
    // The replacement keeps serving fresh traffic.
    let after = service
        .call("acme", Request::Rescale { a: ct })
        .expect("post-restart request");
    assert_eq!(after.c0(), expected.c0());
    service.shutdown();
}

/// A stalled worker trips the busy-since watchdog: its shard is retired
/// and queued work completes on the replacement long before the zombie
/// wakes. The job the zombie holds is failed *by the watchdog* with a
/// typed `Internal` at replacement — its waiter does not sleep out the
/// stall (which in a real wedge could be forever), and the zombie's
/// late answer is dropped, never double-delivered.
#[test]
fn stalled_worker_fails_over_before_the_stall_ends() {
    let _guard = poseidon_faults::test_lock();
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.25, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        shards: 1,
        max_batch: 1,
        watchdog_interval_ms: 0,
        stall_timeout_ms: 50,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    service.suspend();
    let stalled_job = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("first");
    let queued_job = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("second");
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::ShardWorker,
        FaultKind::Stall(1_500),
        0x57A1,
    ));
    service.resume();

    // Wait for the worker to grab the first job and enter the stall.
    let grab_deadline = Instant::now() + Duration::from_secs(5);
    while service.queue_depth() > 1 {
        assert!(Instant::now() < grab_deadline, "worker never took the job");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        service.worker_in_flight(0),
        1,
        "the grabbed job must be parked in the in-flight table"
    );
    std::thread::sleep(Duration::from_millis(100)); // past stall_timeout_ms
    let t0 = Instant::now();
    scan_until_restarted(&service, 0);

    // The held job is answered by the watchdog, typed and promptly —
    // not by the zombie 1.5 s from now.
    match stalled_job
        .wait_timeout(Duration::from_millis(1_000))
        .expect("watchdog must fail the wedged worker's held job")
    {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("stalled"), "unexpected message: {msg}")
        }
        other => panic!("expected the watchdog's typed Internal, got {other:?}"),
    }
    queued_job
        .wait_timeout(Duration::from_millis(1_000))
        .expect("queued job must complete on the replacement, not wait out the stall")
        .expect("rescale succeeds");
    assert!(
        t0.elapsed() < Duration::from_millis(1_200),
        "failover did not beat the stall"
    );
    // Read once the queued job is answered: until then the replacement
    // parks it in the table while it runs, and a reply leaves the table
    // before its waiter wakes.
    assert_eq!(service.worker_in_flight(0), 0, "no reply left parked");
    // Let the zombie wake mid-shutdown-free window: its late send must
    // find an empty slot and be dropped, not panic or double-answer.
    std::thread::sleep(Duration::from_millis(1_600));
    poseidon_faults::disarm();
    service.shutdown();
}

/// With multiple shards, a dead shard's backlog drains through the
/// surviving worker (it steals from a shard whose worker died mid-batch,
/// before any watchdog scan) — nothing is lost and the bytes match the
/// unfaulted run.
#[test]
fn dead_shard_backlog_drains_through_the_survivor() {
    let _guard = poseidon_faults::test_lock();
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.75, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        shards: 2,
        max_batch: 1,
        watchdog_interval_ms: 0,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);
    let home = service.shard_of("acme");
    let expected = service
        .call("acme", Request::Rescale { a: ct.clone() })
        .expect("unfaulted baseline");

    service.suspend();
    let victim_job = service
        .submit("acme", Request::Rescale { a: ct.clone() })
        .expect("held by the doomed worker");
    let backlog: Vec<_> = (0..3)
        .map(|_| {
            service
                .submit("acme", Request::Rescale { a: ct.clone() })
                .expect("backlog")
        })
        .collect();
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::ShardWorker,
        FaultKind::Panic,
        0xDEAD,
    ));
    service.resume();

    // Exactly one worker dies holding exactly one job (max_batch is 1,
    // and a steal moves one job) — which job that is depends on whether
    // the home worker or a stealing sibling drew the fault first. The
    // invariant: one typed `Internal`, every other job served
    // bit-identically, nothing hangs.
    let mut contained = 0;
    for t in std::iter::once(victim_job).chain(backlog) {
        match t
            .wait_timeout(Duration::from_secs(30))
            .expect("no job may hang on a dead shard")
        {
            Ok(got) => {
                assert_eq!(got.c0(), expected.c0(), "survivor changed the bytes");
                assert_eq!(got.c1(), expected.c1(), "survivor changed the bytes");
            }
            Err(ServeError::Internal(msg)) => {
                assert!(msg.contains("worker died"), "unexpected message: {msg}");
                contained += 1;
            }
            Err(other) => panic!("unexpected error shape: {other:?}"),
        }
    }
    assert_eq!(
        contained, 1,
        "exactly the job held by the dying worker is typed Internal"
    );
    // The scan notices whichever worker died and replaces it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.worker_epoch(0) == 0 && service.worker_epoch(home.min(1)) == 0 {
        assert!(Instant::now() < deadline, "watchdog never saw the death");
        service.watchdog_scan();
        std::thread::sleep(Duration::from_millis(10));
    }
    poseidon_faults::disarm();
    service.shutdown();
}

fn loopback_fixture() -> (
    Arc<EvalService>,
    std::net::SocketAddr,
    CkksContext,
    Vec<u8>,
    Vec<u8>,
) {
    let (ctx, keys, mut rng) = setup();
    let service = EvalService::start(ServiceConfig::default());
    let handle = Arc::clone(&service);
    let (addr, _accept) = tcp::listen(handle, "127.0.0.1:0").expect("bind loopback");
    let bootstrap = tcp::Client::connect(addr).expect("bootstrap connect");
    bootstrap
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, -0.5)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = bootstrap
        .request("acme", Op::Rescale { a: &frame })
        .expect("unfaulted baseline")
        .expect("ciphertext reply");
    drop(bootstrap);
    (service, addr, ctx, frame, expected)
}

fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
        request_timeout_ms: 2_000,
        ttl_ms: 0,
        jitter_seed: seed,
    }
}

/// The seeded campaign: every (site, kind) scenario, four seeded transient
/// plans each, one request through the resilient client against a fresh
/// loopback service. Every run must fire its plan, finish inside the retry
/// budget, and land in the bucket recorded for its scenario — the
/// unfaulted bytes (after retry, replay or failover) or a typed
/// [`ServeError`]. Wrong bytes, a plan that never fires, a scenario that
/// changes bucket and a run that outlasts the budget all fail.
#[test]
fn seeded_campaign_resolves_every_scenario_in_its_recorded_bucket() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Bucket {
        BitIdentical,
        TypedError,
    }
    use Bucket::{BitIdentical, TypedError};
    let scenarios = [
        (FaultSite::ShardWorker, FaultKind::Panic, BitIdentical),
        (FaultSite::ShardWorker, FaultKind::Stall(400), BitIdentical),
        (FaultSite::SocketRead, FaultKind::BitFlip, TypedError),
        (FaultSite::SocketRead, FaultKind::Truncate, TypedError),
        (FaultSite::SocketRead, FaultKind::Disconnect, BitIdentical),
        (FaultSite::SocketRead, FaultKind::Stall(50), BitIdentical),
        (FaultSite::SocketWrite, FaultKind::BitFlip, TypedError),
        (FaultSite::SocketWrite, FaultKind::Truncate, BitIdentical),
        (FaultSite::SocketWrite, FaultKind::Disconnect, BitIdentical),
        (FaultSite::SocketWrite, FaultKind::Stall(50), BitIdentical),
        (FaultSite::SocketStall, FaultKind::Stall(300), BitIdentical),
    ];
    let _guard = poseidon_faults::test_lock();
    for (site, kind, bucket) in scenarios {
        for seed in 0..4 {
            let run = format!("{site:?}/{kind:?} seed {seed}");
            let (service, addr, _ctx, frame, expected) = loopback_fixture();
            let policy = RetryPolicy {
                max_attempts: 5,
                request_timeout_ms: 1_500,
                ..chaos_policy(0xC0FFEE ^ seed)
            };
            let budget =
                Duration::from_millis(u64::from(policy.max_attempts) * policy.request_timeout_ms);
            let client =
                ResilientClient::connect(addr, SocketConfig::default(), policy).expect("connect");

            poseidon_faults::arm(FaultPlan::transient(site, kind, seed));
            let t0 = Instant::now();
            let outcome = client.request("acme", Op::Rescale { a: &frame });
            let elapsed = t0.elapsed();
            let fired = poseidon_faults::fired();
            poseidon_faults::disarm();
            service.shutdown();

            assert_eq!(fired, 1, "{run}: the armed plan must fire exactly once");
            assert!(
                elapsed < budget,
                "{run}: took {elapsed:?}, budget {budget:?}"
            );
            let landed = match &outcome {
                Ok(reply) => {
                    assert!(reply.as_ref() == Some(&expected), "{run}: wrong bytes");
                    BitIdentical
                }
                Err(_) => TypedError,
            };
            assert_eq!(
                landed,
                bucket,
                "{run}: changed bucket ({:?})",
                outcome.err()
            );
        }
    }
}

/// A connection severed while the request is being written: the client
/// sees a typed I/O failure, reconnects, resubmits, and the reply is
/// bit-identical to the unfaulted run.
#[test]
fn request_path_disconnect_is_retried_to_the_same_bytes() {
    let _guard = poseidon_faults::test_lock();
    let (_service, addr, _ctx, frame, expected) = loopback_fixture();
    let client = ResilientClient::connect(addr, SocketConfig::default(), chaos_policy(0xAB1))
        .expect("connect");

    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::SocketWrite,
        FaultKind::Disconnect,
        0x0D15,
    ));
    let got = client
        .call("acme", Op::Rescale { a: &frame })
        .expect("retry must recover the request");
    assert_eq!(poseidon_faults::fired(), 1, "the disconnect fired");
    poseidon_faults::disarm();

    assert_eq!(got, expected, "retried request diverged");
    assert_eq!(client.connects(), 2, "exactly one reconnect");
    assert_eq!(client.retries(), 1, "exactly one resubmission");
}

/// The exactly-once guarantee: the *response* is lost after the server
/// executed the request. The replay-flagged resubmission returns the
/// cached outcome — the same bytes, with no second execution.
#[test]
fn lost_response_is_replayed_from_the_idempotency_cache() {
    let _guard = poseidon_faults::test_lock();
    let (service, addr, _ctx, frame, expected) = loopback_fixture();
    let client = ResilientClient::connect(addr, SocketConfig::default(), chaos_policy(0xAB2))
        .expect("connect");
    let entries_before = service.replay_entries();

    // Skip the client's request write; fire on the server's response
    // write — the request executes, its reply dies on the wire.
    poseidon_faults::arm(
        FaultPlan::transient(FaultSite::SocketWrite, FaultKind::Disconnect, 0x0D16).after(1),
    );
    let got = client
        .call("acme", Op::Rescale { a: &frame })
        .expect("replayed retry must recover the reply");
    assert_eq!(poseidon_faults::fired(), 1, "the response-path fault fired");
    poseidon_faults::disarm();

    assert_eq!(got, expected, "replayed reply diverged from the execution");
    assert_eq!(client.connects(), 2, "the dead connection was replaced");
    assert!(
        service.replay_entries() > entries_before,
        "the executed outcome must have been cached for replay"
    );
}

/// A corrupted inbound frame resolves — as the bit-identical reply
/// after retry, or as a typed error — within the retry budget. Never a
/// hang, even when the flipped bit lands in the request id.
#[test]
fn corrupted_socket_read_resolves_without_hanging() {
    let _guard = poseidon_faults::test_lock();
    let (_service, addr, _ctx, frame, expected) = loopback_fixture();
    let client = ResilientClient::connect(addr, SocketConfig::default(), chaos_policy(0xAB3))
        .expect("connect");

    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::SocketRead,
        FaultKind::BitFlip,
        0xF11D,
    ));
    let t0 = Instant::now();
    let outcome = client.request("acme", Op::Rescale { a: &frame });
    assert!(poseidon_faults::fired() >= 1, "the corruption fired");
    poseidon_faults::disarm();

    assert!(
        t0.elapsed() < Duration::from_secs(12),
        "resolution must fit the bounded retry budget"
    );
    match outcome {
        Ok(Some(blob)) => assert_eq!(blob, expected, "recovered reply diverged"),
        Ok(None) => panic!("rescale cannot produce an empty reply"),
        // Corruption that lands in the payload surfaces as a typed
        // wire/protocol/remote error — resolved, just not retryable.
        Err(
            ServeError::Remote { .. }
            | ServeError::Wire(_)
            | ServeError::Protocol(_)
            | ServeError::Io(_),
        ) => {}
        Err(other) => panic!("unexpected error shape: {other:?}"),
    }
}

/// A mid-frame stall on the write path (the slowloris shape): the
/// server's read timeout frees the wedged connection and the client
/// recovers on a fresh one.
#[test]
fn mid_frame_stall_trips_the_server_timeout_and_client_recovers() {
    let _guard = poseidon_faults::test_lock();
    let (ctx, keys, mut rng) = setup();
    let service = EvalService::start(ServiceConfig::default());
    let (addr, _accept) = tcp::listen_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        SocketConfig {
            read_timeout_ms: 100,
            write_timeout_ms: 1_000,
        },
    )
    .expect("bind loopback");
    let bootstrap = tcp::Client::connect(addr).expect("bootstrap");
    bootstrap
        .register_tenant_chunked("acme", &poseidon_wire::encode_keyset_public(&ctx, &keys))
        .expect("register");
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.125, 0.0)]);
    let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let expected = bootstrap
        .request("acme", Op::Rescale { a: &frame })
        .expect("baseline")
        .expect("ciphertext reply");
    drop(bootstrap);

    let client = ResilientClient::connect(addr, SocketConfig::default(), chaos_policy(0xAB4))
        .expect("connect");
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::SocketStall,
        FaultKind::Stall(800),
        0x510,
    ));
    let got = client
        .call("acme", Op::Rescale { a: &frame })
        .expect("client must recover from its own stalled write");
    assert_eq!(poseidon_faults::fired(), 1, "the stall fired");
    poseidon_faults::disarm();

    assert_eq!(got, expected, "post-stall retry diverged");
    assert!(
        client.connects() >= 2,
        "the stalled connection was replaced"
    );
    service.shutdown();
}
