//! Criterion benches for the CKKS basic operations (the Table IV CPU
//! baseline, measured on our own software library at paper-matched 32-bit
//! datapath parameters).

use criterion::{criterion_group, Criterion};
use poseidon_bench::cpu_baseline::CpuHarness;

fn bench_basic_ops(c: &mut Criterion) {
    let h = CpuHarness::new(1 << 12, 4);
    let mut group = c.benchmark_group("basic_ops_n4096_l4");
    group.bench_function("hadd", |b| {
        b.iter(|| h.eval.try_add(&h.ct_a, &h.ct_b).unwrap())
    });
    group.bench_function("pmult", |b| {
        b.iter(|| h.eval.try_mul_plain(&h.ct_a, &h.pt).unwrap())
    });
    group.bench_function("cmult_relin", |b| {
        b.iter(|| h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap())
    });
    group.bench_function("rescale", |b| {
        b.iter(|| h.eval.try_rescale(&h.ct_a).unwrap())
    });
    group.bench_function("keyswitch", |b| {
        b.iter(|| h.eval.keyswitch(h.ct_a.c1(), h.keys.relin()))
    });
    group.bench_function("rotation", |b| {
        b.iter(|| h.eval.try_rotate(&h.ct_a, 1, &h.keys).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_basic_ops
}

// Manual main instead of `criterion_main!`: with `--features telemetry`
// the bench run ends by exporting the accumulated scope snapshot as JSON,
// so per-operation wall times land next to the library's internal spans.
fn main() {
    benches();
    #[cfg(feature = "telemetry")]
    println!(
        "{}",
        poseidon_telemetry::Registry::global().snapshot().to_json()
    );
}
