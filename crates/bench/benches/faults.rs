//! Integrity-layer overhead benches: the duplicated checked execution of
//! `CheckedEvaluator` (DMR + digest compare) against the plain evaluator
//! on the keyswitch-bearing operations, plus the pure digest cost — the
//! price of the retire-boundary checks the paper's FPGA would pay in
//! dedicated checker logic.

use criterion::{criterion_group, Criterion};
use he_ckks::integrity::{digest_ciphertext, CheckedEvaluator};
use poseidon_bench::cpu_baseline::CpuHarness;

fn bench_faults(c: &mut Criterion) {
    let mut h = CpuHarness::new(1 << 12, 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xFA17);
    h.keys.add_rotation_key(1, &mut rng);
    let checked = CheckedEvaluator::from_evaluator(h.eval.clone());

    let mut group = c.benchmark_group("integrity_n4096_l4");
    group.bench_function("cmult_plain", |b| {
        b.iter(|| h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap())
    });
    group.bench_function("cmult_checked_dmr", |b| {
        b.iter(|| checked.mul(&h.ct_a, &h.ct_b, &h.keys).expect("clean"))
    });
    group.bench_function("rotate_plain", |b| {
        b.iter(|| h.eval.try_rotate(&h.ct_a, 1, &h.keys).unwrap())
    });
    group.bench_function("rotate_checked_dmr", |b| {
        b.iter(|| checked.rotate(&h.ct_a, 1, &h.keys).expect("clean"))
    });
    group.bench_function("rescale_checked_dmr", |b| {
        let prod = h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap();
        b.iter(|| checked.rescale(&prod).expect("clean"))
    });
    group.bench_function("digest_ciphertext", |b| {
        b.iter(|| digest_ciphertext(&h.ct_a))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_faults
}

// Manual main instead of `criterion_main!`: the cumulative integrity
// counters accumulated by the checked benches (and, with `--features
// telemetry`, the scope snapshot) are exported to `BENCH_faults.json` so
// the check accounting lands next to the wall times.
fn main() {
    benches();
    let s = he_ckks::integrity::integrity_stats();
    let mut json = format!(
        "{{\n  \"integrity\": {{ \"checked\": {}, \"detected\": {}, \"retried\": {}, \"escalated\": {} }}",
        s.checked, s.detected, s.retried, s.escalated
    );
    #[cfg(feature = "telemetry")]
    {
        json.push_str(",\n  \"telemetry\": ");
        json.push_str(&poseidon_telemetry::Registry::global().snapshot().to_json());
    }
    json.push_str("\n}\n");
    let path = poseidon_bench::export_path("BENCH_faults.json");
    std::fs::write(&path, &json).expect("write BENCH_faults.json");
    println!("integrity snapshot written to {}", path.display());
}
