//! Resilience semantics that need no fault injection: deadline
//! enforcement at admission and dequeue, the idempotent replay cache,
//! bounded ticket waits, and the pinned rendering of the enriched error
//! variants.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E51);
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

/// The enriched error variants render exactly these strings — clients
/// and log scrapers key on them.
#[test]
fn error_display_is_pinned() {
    assert_eq!(
        ServeError::QueueFull {
            depth: 7,
            capacity: 8
        }
        .to_string(),
        "queue full: admission control rejected (depth 7 of capacity 8)"
    );
    assert_eq!(
        ServeError::DeadlineExceeded.to_string(),
        "deadline exceeded before execution"
    );
}

/// A deadline already in the past is rejected at admission — nothing is
/// queued, nothing runs.
#[test]
fn expired_deadline_rejected_at_admission() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let past = Instant::now() - Duration::from_millis(5);
    let (tx, rx) = mpsc::channel();
    let err = service
        .submit_tagged_opts(
            "acme",
            Request::Rescale { a: ct },
            1,
            Some(past),
            false,
            move |_, result| {
                let _ = tx.send(result);
            },
        )
        .expect_err("expired deadline must be rejected");
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert_eq!(service.queue_depth(), 0, "nothing may have been queued");
    assert_eq!(
        rx.try_recv(),
        Err(mpsc::TryRecvError::Disconnected),
        "a rejected request's sink is dropped unused"
    );
    service.shutdown();
}

/// A deadline that elapses while the job sits in the queue is answered
/// with `DeadlineExceeded` at dequeue; a sibling without a deadline
/// still executes.
#[test]
fn deadline_elapsing_in_queue_is_typed_not_executed() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    service.suspend();
    let (tx, doomed) = mpsc::channel();
    service
        .submit_tagged_opts(
            "acme",
            Request::Rescale { a: ct.clone() },
            1,
            Some(Instant::now() + Duration::from_millis(10)),
            false,
            move |_, result| {
                let _ = tx.send(result);
            },
        )
        .expect("admitted while fresh");
    let unbounded = service
        .submit("acme", Request::Rescale { a: ct })
        .expect("no deadline");
    std::thread::sleep(Duration::from_millis(30));
    service.resume();

    assert_eq!(
        doomed.recv().expect("sink fired"),
        Err(ServeError::DeadlineExceeded)
    );
    unbounded.wait().expect("undeadlined sibling still served");
    service.shutdown();
}

/// `Ticket::wait_timeout` returns `None` while the reply is pending and
/// the eventual result after — a bounded wait that never hangs.
#[test]
fn ticket_wait_timeout_bounds_the_wait() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    service.suspend();
    let ticket = service
        .submit("acme", Request::Rescale { a: ct })
        .expect("submit");
    assert!(
        ticket.wait_timeout(Duration::from_millis(50)).is_none(),
        "suspended service must not answer"
    );
    service.resume();
    ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("resumed service answers")
        .expect("rescale succeeds");
    service.shutdown();
}

/// The replay cache makes resubmission idempotent: the second
/// submission of an executed id returns the cached ciphertext without
/// re-running, bit-identically.
#[test]
fn replayed_resubmission_is_idempotent_and_bit_identical() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.25)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let run = |id: u64| {
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged_opts(
                "acme",
                Request::Rescale { a: ct.clone() },
                id,
                None,
                true,
                move |_, result| {
                    tx.send(result).expect("sink channel");
                },
            )
            .expect("submit");
        rx.recv().expect("sink fired").expect("rescale succeeds")
    };

    let first = run(77);
    assert_eq!(service.replay_entries(), 1, "executed outcome cached");
    let beats_before: u64 = (0..service.shards()).map(|s| service.worker_beats(s)).sum();
    let replayed = run(77);
    assert_eq!(first.c0(), replayed.c0(), "replay must be bit-identical");
    assert_eq!(first.c1(), replayed.c1(), "replay must be bit-identical");
    assert_eq!(service.replay_entries(), 1, "no duplicate entry");
    let beats_after: u64 = (0..service.shards()).map(|s| service.worker_beats(s)).sum();
    assert_eq!(
        beats_before, beats_after,
        "a replay hit must not wake a dispatcher"
    );

    // A different id executes fresh and is cached separately.
    let other = run(78);
    assert_eq!(service.replay_entries(), 2);
    assert_eq!(other.c0(), first.c0(), "same op, same bytes");
    service.shutdown();
}

/// Admission-type failures are never cached: a request that expired
/// before running may be resubmitted under the same id and actually
/// execute.
#[test]
fn unexecuted_outcomes_are_not_cached_for_replay() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    let past = Instant::now() - Duration::from_millis(5);
    let err = service
        .submit_tagged_opts(
            "acme",
            Request::Rescale { a: ct.clone() },
            91,
            Some(past),
            true,
            |_, _| panic!("sink must not fire for an admission rejection"),
        )
        .expect_err("expired at admission");
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert_eq!(service.replay_entries(), 0, "rejection must not be cached");

    // The same id, now within deadline, runs for real.
    let (tx, rx) = mpsc::channel();
    service
        .submit_tagged_opts(
            "acme",
            Request::Rescale { a: ct },
            91,
            None,
            true,
            move |_, result| {
                tx.send(result).expect("sink channel");
            },
        )
        .expect("resubmit");
    rx.recv().expect("sink fired").expect("executed this time");
    assert_eq!(service.replay_entries(), 1);
    service.shutdown();
}

/// The replay cache is bounded FIFO: old entries evict, the service does
/// not grow without bound under replay-flagged traffic.
#[test]
fn replay_cache_is_bounded() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        replay_capacity: 4,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    for id in 0..10u64 {
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged_opts(
                "acme",
                Request::Rescale { a: ct.clone() },
                id,
                None,
                true,
                move |_, result| {
                    tx.send(result).expect("sink channel");
                },
            )
            .expect("submit");
        rx.recv().expect("sink fired").expect("rescale succeeds");
    }
    assert_eq!(service.replay_entries(), 4, "FIFO bound holds");
    service.shutdown();
}

/// Eviction is tenant-fair: a chatty tenant's flood shrinks its own
/// window first and never evicts a quieter tenant's cached entry.
#[test]
fn replay_eviction_is_tenant_fair() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        replay_capacity: 4,
        ..ServiceConfig::default()
    });
    service.register_tenant("quiet", &keys);
    service.register_tenant("chatty", &keys);

    let run = |tenant: &'static str, id: u64| {
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged_opts(
                tenant,
                Request::Rescale { a: ct.clone() },
                id,
                None,
                true,
                move |_, result| {
                    tx.send(result).expect("sink channel");
                },
            )
            .expect("submit");
        rx.recv().expect("sink fired").expect("rescale succeeds")
    };

    let quiet_first = run("quiet", 1);
    for id in 0..10 {
        run("chatty", id);
    }
    assert_eq!(service.replay_entries(), 4, "global bound holds");

    // The quiet tenant's entry survived the flood: replaying id 1 is a
    // cache hit (no dispatcher wake) with identical bytes.
    let beats_before: u64 = (0..service.shards()).map(|s| service.worker_beats(s)).sum();
    let replayed = run("quiet", 1);
    let beats_after: u64 = (0..service.shards()).map(|s| service.worker_beats(s)).sum();
    assert_eq!(
        beats_before, beats_after,
        "the quiet tenant's entry was evicted by the chatty flood"
    );
    assert_eq!(quiet_first.c0(), replayed.c0());
    assert_eq!(quiet_first.c1(), replayed.c1());
    service.shutdown();
}

/// The byte budget bounds the cache even when the entry count does not:
/// oversized results evict older entries, but the newest always
/// survives so the retry it protects can still replay.
#[test]
fn replay_cache_byte_budget_evicts_but_keeps_newest() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        replay_capacity: 1024,
        // Every cached ciphertext alone overflows this, so each insert
        // evicts everything older than itself.
        replay_capacity_bytes: 1,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    for id in 0..5u64 {
        let (tx, rx) = mpsc::channel();
        service
            .submit_tagged_opts(
                "acme",
                Request::Rescale { a: ct.clone() },
                id,
                None,
                true,
                move |_, result| {
                    tx.send(result).expect("sink channel");
                },
            )
            .expect("submit");
        rx.recv().expect("sink fired").expect("rescale succeeds");
    }
    assert_eq!(
        service.replay_entries(),
        1,
        "byte budget must evict down to the newest entry"
    );
    assert!(
        service.replay_bytes() > 1,
        "the newest oversized entry is retained, not dropped"
    );
    service.shutdown();
}

/// A duplicate replay submission racing the original — retried while
/// the first is still queued — attaches to the in-flight execution
/// instead of enqueueing a second run: one execution, two sinks, both
/// bit-identical, one cache entry.
#[test]
fn racing_duplicate_replay_attaches_to_in_flight_execution() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.25, -0.75)]);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    // Freeze the dispatcher so the original is still queued when the
    // duplicate arrives.
    service.suspend();
    let submit = |tx: mpsc::Sender<Result<_, ServeError>>| {
        service
            .submit_tagged_opts(
                "acme",
                Request::Rescale { a: ct.clone() },
                7,
                None,
                true,
                move |_, result| {
                    tx.send(result).expect("sink channel");
                },
            )
            .expect("submit");
    };
    let (tx1, rx1) = mpsc::channel();
    submit(tx1);
    assert_eq!(service.queue_depth(), 1);
    assert_eq!(service.replay_in_flight(), 1, "marker registered");

    let (tx2, rx2) = mpsc::channel();
    submit(tx2);
    assert_eq!(
        service.queue_depth(),
        1,
        "the duplicate must attach, not enqueue a second execution"
    );
    assert_eq!(service.replay_in_flight(), 1);

    service.resume();
    let first = rx1.recv().expect("primary sink").expect("rescale succeeds");
    let dup = rx2.recv().expect("waiter sink").expect("rescale succeeds");
    assert_eq!(first.c0(), dup.c0(), "fan-out must be bit-identical");
    assert_eq!(first.c1(), dup.c1(), "fan-out must be bit-identical");
    assert_eq!(service.replay_entries(), 1, "one execution, one entry");
    assert_eq!(service.replay_in_flight(), 0, "marker cleared");
    service.shutdown();
}

/// On a healthy service the watchdog is a no-op: scans never bump an
/// epoch, and worker pulses keep advancing.
#[test]
fn watchdog_is_quiescent_on_a_healthy_service() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        shards: 2,
        // Manual scans only: determinism for the assertions below.
        watchdog_interval_ms: 0,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);

    for _ in 0..3 {
        service
            .call("acme", Request::Rescale { a: ct.clone() })
            .expect("rescale");
        service.watchdog_scan();
    }
    for shard in 0..service.shards() {
        assert_eq!(
            service.worker_epoch(shard),
            0,
            "healthy workers must never be replaced"
        );
    }
    let total_beats: u64 = (0..service.shards()).map(|s| service.worker_beats(s)).sum();
    assert!(total_beats > 0, "pulses must advance under traffic");
    service.shutdown();
}

/// The stall bound times one job, not a batch: a batch of many healthy
/// jobs, each far under the bound but together far over it, runs to the
/// end without a watchdog failover.
#[test]
fn a_long_batch_of_short_jobs_is_not_a_stall() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let mul = || Request::Mul {
        a: ct.clone(),
        b: ct.clone(),
    };
    // Calibrate one job on this host, round trip included.
    let probe = EvalService::start(ServiceConfig::default());
    probe.register_tenant("acme", &keys);
    let mut job_ms = 1;
    for _ in 0..3 {
        let started = Instant::now();
        probe.call("acme", mul()).expect("calibration mul");
        job_ms = job_ms.max(started.elapsed().as_millis() as u64);
    }
    probe.shutdown();

    // One job is a tenth of the bound; the batch is four bounds long.
    let stall_timeout_ms = (10 * job_ms).max(30);
    let jobs = (4 * stall_timeout_ms / job_ms) as usize;
    let service = EvalService::start(ServiceConfig {
        shards: 1,
        max_batch: jobs,
        queue_capacity: jobs,
        watchdog_interval_ms: 2,
        stall_timeout_ms,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);
    // Queue every job before the worker may take any: one batch.
    service.suspend();
    let tickets: Vec<_> = (0..jobs)
        .map(|_| service.submit("acme", mul()).expect("admitted"))
        .collect();
    service.resume();
    let failed = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(Result::is_err)
        .count();
    assert_eq!(
        (failed, service.worker_epoch(0)),
        (0, 0),
        "{jobs} jobs of at most {job_ms} ms against a {stall_timeout_ms} ms bound"
    );
    service.shutdown();
}

/// Shutdown with a live watchdog thread terminates cleanly — the
/// watchdog must not scan (and "restart") workers that are exiting.
#[test]
fn shutdown_races_cleanly_with_the_watchdog() {
    let (ctx, keys, mut rng) = setup();
    let ct = encrypt(&ctx, &keys, &mut rng, &[Complex::new(0.5, 0.0)]);
    let service = EvalService::start(ServiceConfig {
        shards: 2,
        watchdog_interval_ms: 1,
        ..ServiceConfig::default()
    });
    service.register_tenant("acme", &keys);
    let svc = Arc::clone(&service);
    let pounder = std::thread::spawn(move || {
        for _ in 0..5 {
            let _ = svc.call("acme", Request::Rescale { a: ct.clone() });
        }
    });
    pounder.join().expect("traffic thread");
    service.shutdown();
    for shard in 0..service.shards() {
        assert_eq!(service.worker_epoch(shard), 0, "no spurious restarts");
    }
}
