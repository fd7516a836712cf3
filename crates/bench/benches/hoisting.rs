//! Hoisted-vs-naive rotation criterion benches: an 8-rotation batch of
//! one ciphertext as a per-call loop (each rotation pays its own digit
//! lift + forward NTTs) against one `rotate_many` (the lift is hoisted
//! and paid once), plus the BSGS matvec consumer.

use criterion::{criterion_group, Criterion};
use he_ckks::encoding::Complex;
use he_ckks::linear::PlainMatrix;
use poseidon_bench::cpu_baseline::CpuHarness;

const STEPS: [i64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const DIM: usize = 32;

fn bench_hoisting(c: &mut Criterion) {
    let mut h = CpuHarness::new(1 << 12, 4);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x4015);
    for s in STEPS.iter().skip(1).chain(&[12, 18]) {
        h.keys.add_rotation_key(*s, &mut rng);
    }
    // Same 24-wide band as `tables hoisting`: exactly 8 rotations
    // (baby 1..5, giant 6/12/18).
    let m = PlainMatrix::new(
        (0..DIM)
            .map(|i| {
                (0..DIM)
                    .map(|j| {
                        if (j + DIM - i) % DIM < 24 {
                            Complex::new(((i * 7 + j * 3) % 7) as f64 * 0.05 - 0.15, 0.0)
                        } else {
                            Complex::new(0.0, 0.0)
                        }
                    })
                    .collect()
            })
            .collect(),
    );

    let mut group = c.benchmark_group("hoisting_n4096_l4");
    group.bench_function("rotate_x8_per_call", |b| {
        b.iter(|| {
            STEPS
                .iter()
                .map(|&s| h.eval.try_rotate(&h.ct_a, s, &h.keys).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("rotate_x8_hoisted", |b| {
        b.iter(|| h.eval.try_rotate_many(&h.ct_a, &STEPS, &h.keys).unwrap())
    });
    group.bench_function("hoist_only", |b| b.iter(|| h.eval.hoist(&h.ct_a)));
    group.bench_function("bsgs_matvec_dim32", |b| {
        b.iter(|| m.try_apply_bsgs(&h.eval, &h.keys, &h.ct_a).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hoisting
}

// Manual main instead of `criterion_main!`: with `--features telemetry`
// the accumulated scope snapshot (ntt.forward, keyswitch.hoist/reuse/
// saved_ntt, ...) is exported to `BENCH_hoisting.json` so the saved-NTT
// accounting lands next to the wall times.
fn main() {
    benches();
    #[cfg(feature = "telemetry")]
    {
        let json = poseidon_telemetry::Registry::global().snapshot().to_json();
        let path = poseidon_bench::export_path("BENCH_hoisting.json");
        std::fs::write(&path, &json).expect("write BENCH_hoisting.json");
        println!("telemetry snapshot written to {}", path.display());
    }
}
