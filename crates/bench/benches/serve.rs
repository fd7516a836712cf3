//! Serving-layer benches: the wire codec round trip, in-process served
//! operations against the bare evaluator (the dispatch + checked-
//! execution overhead), and an 8-rotation burst served per-call versus
//! coalesced into one batch (one hoisted digit lift for the whole
//! group — the scheduler's reason to exist).

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use poseidon_bench::cpu_baseline::CpuHarness;
use poseidon_serve::{EvalService, Request, ServiceConfig};

const STEPS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

fn harness() -> CpuHarness {
    let mut h = CpuHarness::new(1 << 12, 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x5E4E);
    for s in STEPS.iter().skip(1) {
        h.keys.add_rotation_key(*s, &mut rng);
    }
    h
}

fn bench_serve(c: &mut Criterion) {
    let h = harness();
    let frame = poseidon_wire::encode_ciphertext(&h.ctx, &h.ct_a);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("bench", h.ctx.clone(), h.keys.clone());

    let mut group = c.benchmark_group("serve_n4096_l4");
    group.bench_function("wire_encode_ct", |b| {
        b.iter(|| poseidon_wire::encode_ciphertext(&h.ctx, &h.ct_a))
    });
    group.bench_function("wire_decode_ct", |b| {
        b.iter(|| poseidon_wire::decode_ciphertext(&h.ctx, &frame).expect("decode"))
    });
    group.bench_function("mul_direct", |b| {
        b.iter(|| h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap())
    });
    group.bench_function("mul_served", |b| {
        b.iter(|| {
            service
                .call(
                    "bench",
                    Request::Mul {
                        a: h.ct_a.clone(),
                        b: h.ct_b.clone(),
                    },
                )
                .expect("served mul")
        })
    });
    group.bench_function("rotate_x8_served_per_call", |b| {
        b.iter(|| {
            STEPS
                .iter()
                .map(|&s| {
                    service
                        .call(
                            "bench",
                            Request::Rotate {
                                a: h.ct_a.clone(),
                                steps: s,
                            },
                        )
                        .expect("served rotate")
                })
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("rotate_x8_served_batched", |b| {
        b.iter(|| {
            service.suspend();
            let tickets: Vec<_> = STEPS
                .iter()
                .map(|&s| {
                    service
                        .submit(
                            "bench",
                            Request::Rotate {
                                a: h.ct_a.clone(),
                                steps: s,
                            },
                        )
                        .expect("submit")
                })
                .collect();
            service.resume();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("batched rotate"))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
    service.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}

// Manual main instead of `criterion_main!`: after the timed runs, one
// measured per-call/batched rotation burst and the wire frame sizes are
// exported to `BENCH_serve.json` (plus, with `--features telemetry`,
// the scope snapshot with the serve.* and keyswitch.hoist counters).
fn main() {
    benches();

    let h = harness();
    let frame = poseidon_wire::encode_ciphertext(&h.ctx, &h.ct_a);
    let keyset_frame = poseidon_wire::encode_keyset_public(&h.ctx, &h.keys);
    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("bench", h.ctx.clone(), h.keys.clone());

    let t0 = Instant::now();
    for &s in &STEPS {
        service
            .call(
                "bench",
                Request::Rotate {
                    a: h.ct_a.clone(),
                    steps: s,
                },
            )
            .expect("per-call rotate");
    }
    let per_call_ns = t0.elapsed().as_nanos();

    let t0 = Instant::now();
    service.suspend();
    let tickets: Vec<_> = STEPS
        .iter()
        .map(|&s| {
            service
                .submit(
                    "bench",
                    Request::Rotate {
                        a: h.ct_a.clone(),
                        steps: s,
                    },
                )
                .expect("submit")
        })
        .collect();
    service.resume();
    for t in tickets {
        t.wait().expect("batched rotate");
    }
    let batched_ns = t0.elapsed().as_nanos();
    service.shutdown();

    let mut json = format!(
        "{{\n  \"serve\": {{ \"ciphertext_frame_bytes\": {}, \"public_keyset_frame_bytes\": {}, \
         \"rotate_burst\": {}, \"per_call_ns\": {}, \"batched_ns\": {} }}",
        frame.len(),
        keyset_frame.len(),
        STEPS.len(),
        per_call_ns,
        batched_ns
    );
    #[cfg(feature = "telemetry")]
    {
        json.push_str(",\n  \"telemetry\": ");
        json.push_str(&poseidon_telemetry::Registry::global().snapshot().to_json());
    }
    json.push_str("\n}\n");
    let path = poseidon_bench::export_path("BENCH_serve.json");
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("serving snapshot written to {}", path.display());
}
