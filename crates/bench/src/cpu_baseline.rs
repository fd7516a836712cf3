//! Measured CPU throughput of the basic operations using our own software
//! CKKS library — the reproduction's stand-in for the paper's
//! single-threaded Xeon 6234 baseline (Table IV's CPU column).

use std::time::Instant;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::encoding::Complex;
use he_ckks::prelude::*;
use rand::SeedableRng;

/// A ready-to-measure CKKS working set.
struct CpuHarness {
    /// Keys incl. one rotation key.
    keys: KeySet,
    /// The evaluator.
    eval: Evaluator,
    /// Two fresh ciphertexts.
    ct_a: Ciphertext,
    /// Second operand.
    ct_b: Ciphertext,
    /// An encoded plaintext operand.
    pt: Plaintext,
}

impl CpuHarness {
    /// Builds the harness at ring degree `n` with `chain_len` primes
    /// (32-bit datapath parameters, matching the paper's word width).
    fn new(n: usize, chain_len: usize) -> Self {
        let ctx = CkksContext::new(CkksParams::paper_32bit(n, chain_len));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_key(1, &mut rng);
        let eval = Evaluator::new(&ctx);
        let z: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64 * 0.1, 0.0)).collect();
        let pt = Plaintext::new(
            ctx.encoder()
                .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
            ctx.default_scale(),
        );
        let ct_a = keys.public().encrypt(&pt, &mut rng);
        let ct_b = keys.public().encrypt(&pt, &mut rng);
        Self {
            keys,
            eval,
            ct_a,
            ct_b,
            pt,
        }
    }

    /// Times `f` over `iters` runs, returning operations per second.
    fn ops_per_second<F: FnMut()>(&self, iters: u32, mut f: F) -> f64 {
        // One warm-up.
        f();
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        iters as f64 / start.elapsed().as_secs_f64()
    }
}

/// Measured ops/s for the six Table IV operations.
pub fn measure_basic_ops(n: usize, chain_len: usize, iters: u32) -> Vec<(&'static str, f64)> {
    let h = CpuHarness::new(n, chain_len);
    let mut out = Vec::new();

    out.push((
        "HAdd",
        h.ops_per_second(iters * 4, || {
            let _ = h.eval.try_add(&h.ct_a, &h.ct_b).unwrap();
        }),
    ));
    out.push((
        "PMult",
        h.ops_per_second(iters, || {
            let _ = h.eval.try_mul_plain(&h.ct_a, &h.pt).unwrap();
        }),
    ));
    out.push((
        "CMult",
        h.ops_per_second(iters, || {
            let _ = h.eval.try_mul(&h.ct_a, &h.ct_b, &h.keys).unwrap();
        }),
    ));
    // NTT: one forward transform per chain prime on a ring element.
    let poly = h.ct_a.c0().clone();
    out.push((
        "NTT",
        h.ops_per_second(iters, || {
            let _ = poly.clone().into_eval();
        }),
    ));
    out.push((
        "Keyswitch",
        h.ops_per_second(iters, || {
            let _ = h.eval.keyswitch(h.ct_a.c1(), h.keys.relin());
        }),
    ));
    out.push((
        "Rotation",
        h.ops_per_second(iters, || {
            let _ = h.eval.try_rotate(&h.ct_a, 1, &h.keys).unwrap();
        }),
    ));
    out.push((
        "Rescale",
        h.ops_per_second(iters, || {
            let _ = h.eval.try_rescale(&h.ct_a).unwrap();
        }),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_operations_run() {
        let h = CpuHarness::new(1 << 10, 3);
        let sum = h.eval.try_add(&h.ct_a, &h.ct_b).unwrap();
        assert_eq!(sum.level(), h.ct_a.level());
        let rate = h.ops_per_second(2, || {
            let _ = h.eval.try_add(&h.ct_a, &h.ct_b).unwrap();
        });
        assert!(rate > 0.0);
    }

    #[test]
    fn measure_returns_all_operations() {
        let rows = measure_basic_ops(1 << 10, 3, 1);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|(_, v)| *v > 0.0));
        // Cheap ops must be faster than CMult.
        let hadd = rows.iter().find(|(n, _)| *n == "HAdd").unwrap().1;
        let cmult = rows.iter().find(|(n, _)| *n == "CMult").unwrap().1;
        assert!(hadd > cmult);
    }
}
