//! Proof from the telemetry registry that the batching scheduler actually
//! coalesces: k same-ciphertext rotations served in one batch cost one
//! `keyswitch.hoist` lift, versus k lifts when served one at a time.
//!
//! Kept to a single test function: the telemetry registry is
//! process-global, and this binary must not race itself on the counters.

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_serve::{EvalService, Request, ServiceConfig};
use poseidon_telemetry::{Registry, Snapshot};
use rand::SeedableRng;

fn count(snap: &Snapshot, scope: &str) -> u64 {
    snap.get(scope).map(|s| s.count).unwrap_or(0)
}

fn items(snap: &Snapshot, scope: &str) -> u64 {
    snap.get(scope).map(|s| s.items).unwrap_or(0)
}

#[test]
fn batched_rotations_hoist_once() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0157);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, 2, 3, 4], &mut rng);
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(
            ctx.chain_basis(),
            &[Complex::new(0.5, 0.0), Complex::new(0.25, 0.0)],
            ctx.default_scale(),
        ),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);
    let steps = [1i64, 2, 3, 4];

    // Per-call baseline: wait for each rotation before submitting the
    // next, so every request forms its own singleton batch (one hoist
    // each).
    let before = Registry::global().snapshot();
    for s in steps {
        service
            .call(
                "acme",
                Request::Rotate {
                    a: ct.clone(),
                    steps: s,
                },
            )
            .expect("rotation");
    }
    let per_call = Registry::global().snapshot().since(&before);
    let per_call_hoists = count(&per_call, "keyswitch.hoist");
    assert_eq!(
        per_call_hoists,
        steps.len() as u64,
        "one hoist per singleton batch"
    );
    assert_eq!(count(&per_call, "serve.enqueue"), steps.len() as u64);

    // Batched: freeze the dispatcher, enqueue all four, release — one
    // coalesced group, one hoist.
    let before = Registry::global().snapshot();
    service.suspend();
    let tickets: Vec<_> = steps
        .iter()
        .map(|&s| {
            service
                .submit(
                    "acme",
                    Request::Rotate {
                        a: ct.clone(),
                        steps: s,
                    },
                )
                .expect("submit")
        })
        .collect();
    service.resume();
    for t in tickets {
        t.wait().expect("rotation");
    }
    let batched = Registry::global().snapshot().since(&before);
    let batched_hoists = count(&batched, "keyswitch.hoist");
    assert_eq!(batched_hoists, 1, "coalesced batch must hoist exactly once");
    assert!(
        batched_hoists < per_call_hoists,
        "batched ({batched_hoists}) must beat per-call ({per_call_hoists})"
    );
    // The batch scope saw one batch of four jobs.
    assert_eq!(count(&batched, "serve.batch.size"), 1);
    assert_eq!(items(&batched, "serve.batch.size"), steps.len() as u64);
    assert_eq!(items(&batched, "serve.dequeue"), steps.len() as u64);
    service.shutdown();

    // Sharded affinity: with four dispatcher shards, one tenant's
    // rotations still land on a single shard and still coalesce into one
    // hoist — sharding must not break the coalescing window.
    let sharded = EvalService::start(ServiceConfig {
        shards: 4,
        ..ServiceConfig::default()
    });
    sharded.register_tenant("acme", &keys);
    let home = sharded.shard_of("acme");
    let before = Registry::global().snapshot();
    sharded.suspend();
    let tickets: Vec<_> = steps
        .iter()
        .map(|&s| {
            sharded
                .submit(
                    "acme",
                    Request::Rotate {
                        a: ct.clone(),
                        steps: s,
                    },
                )
                .expect("submit")
        })
        .collect();
    sharded.resume();
    for t in tickets {
        t.wait().expect("rotation");
    }
    let diff = Registry::global().snapshot().since(&before);
    assert_eq!(
        count(&diff, "keyswitch.hoist"),
        1,
        "affinity must keep the coalesced batch on one shard"
    );
    assert_eq!(
        items(&diff, &format!("serve.shard.{home}")),
        steps.len() as u64,
        "all jobs must land on the tenant's affine shard"
    );
    let all_shard_items: u64 = diff
        .scopes
        .iter()
        .filter(|s| s.name.starts_with("serve.shard."))
        .map(|s| s.items)
        .sum();
    assert_eq!(
        all_shard_items,
        steps.len() as u64,
        "no other shard may have run this tenant's jobs"
    );
    assert_eq!(items(&diff, "serve.steal"), 0, "nothing to steal here");
    // The per-shard depth gauge sampled the suspended build-up (depths
    // 1,2,3,4 after each enqueue) and the single coalesced drain (depth
    // 0 after the batch was taken): five samples, ten queued-job
    // observations — the signal the overload ladder keys on.
    let depth_scope = format!("serve.queue.depth.{home}");
    assert_eq!(
        count(&diff, &depth_scope),
        steps.len() as u64 + 1,
        "one sample per enqueue plus one per dequeue"
    );
    assert_eq!(
        items(&diff, &depth_scope),
        (1..=steps.len() as u64).sum::<u64>(),
        "suspended enqueues must observe depths 1..=4"
    );
    sharded.shutdown();

    // Work stealing: a deep backlog on one shard with singleton batches
    // makes the idle sibling steal-eligible (len > max_batch). A couple
    // of rounds absorb scheduler luck on small hosts.
    let mut stole = 0;
    for round in 0..3 {
        let stealing = EvalService::start(ServiceConfig {
            shards: 2,
            max_batch: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        stealing.register_tenant("acme", &keys);
        let before = Registry::global().snapshot();
        stealing.suspend();
        let tickets: Vec<_> = (0..32)
            .map(|_| {
                stealing
                    .submit("acme", Request::Square { a: ct.clone() })
                    .expect("submit")
            })
            .collect();
        stealing.resume();
        for t in tickets {
            t.wait().expect("square");
        }
        let diff = Registry::global().snapshot().since(&before);
        stole = items(&diff, "serve.steal");
        stealing.shutdown();
        if stole > 0 {
            break;
        }
        eprintln!("round {round}: no steal observed, retrying");
    }
    assert!(stole > 0, "sibling worker never stole from the hot shard");
}
