//! Serial-vs-parallel criterion benches for the limb-parallel engine:
//! NTT forward/inverse, CMult (incl. relinearization), and keyswitch at
//! 1/2/4/8 threads. The thread count is pinned per benchmark through
//! `poseidon_par::with_threads`, so one run produces the whole sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poseidon_bench::cpu_baseline::CpuHarness;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_sweep(c: &mut Criterion) {
    let h = CpuHarness::new(1 << 13, 6);
    let coeff = h.ct_a.c0().clone();
    let eval_form = coeff.clone().into_eval();

    let mut group = c.benchmark_group("parallel_n8192_l6");
    for &t in &THREAD_COUNTS {
        group.bench_with_input(BenchmarkId::new("ntt_fwd", t), &t, |b, &t| {
            b.iter(|| poseidon_par::with_threads(t, || coeff.clone().into_eval()))
        });
        group.bench_with_input(BenchmarkId::new("ntt_inv", t), &t, |b, &t| {
            b.iter(|| poseidon_par::with_threads(t, || eval_form.clone().into_coeff()))
        });
        group.bench_with_input(BenchmarkId::new("cmult_relin", t), &t, |b, &t| {
            b.iter(|| {
                poseidon_par::with_threads(t, || h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("keyswitch", t), &t, |b, &t| {
            b.iter(|| {
                poseidon_par::with_threads(t, || h.eval.keyswitch(h.ct_a.c1(), h.keys.relin()))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_sweep
}
criterion_main!(benches);
