//! `boot_inproc`: packed bootstrapping in process, closed loop, one driver.
//!
//! `CkksParams::bootstrap_demo()` (N = 2^11, 24 chain + 2 special primes),
//! sparse secret of weight 8, 4 slots, 6 double-angle iterations: the
//! heaviest thing the library does, and one that touches neither the wire
//! format, the service nor the planner.

use std::time::Instant;

use crate::adapter::{self, Bootstrapper, Ciphertext, CkksContext, Evaluator, KeySet, Res};
use crate::harness::{self, Options, Outcome};
use crate::probes;
use crate::trace;

const SLOTS: usize = 4;
const DOUBLINGS: u32 = 6;
const SECRET_WEIGHT: usize = 8;
/// Refreshed slots must decrypt this close to the message. The pipeline's
/// own error (degree-7 Taylor sine, six doublings) is a few 1e-3.
const TOLERANCE: f64 = 0.05;

struct Fixture {
    ctx: CkksContext,
    keys: KeySet,
    eval: Evaluator,
    bs: Bootstrapper,
    message: Vec<f64>,
    fresh: Ciphertext,
    exhausted: Ciphertext,
    /// Digest of the warm-up's output: every later output must match it.
    digest: u64,
    keygen_ms: f64,
    rotation_keygen_ms_per_key: f64,
}

fn setup(seed: u64) -> Res<Fixture> {
    let mut rng = adapter::rng(seed);
    let ctx = adapter::context(adapter::params_bootstrap())?;
    let t0 = Instant::now();
    let mut keys = adapter::keygen_sparse(&ctx, SECRET_WEIGHT, &mut rng);
    let keygen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let eval = adapter::evaluator(&ctx);
    let bs = adapter::bootstrapper(&ctx, SLOTS, DOUBLINGS);
    let steps = adapter::bootstrap_rotations(&bs);
    let t0 = Instant::now();
    for &step in &steps {
        adapter::add_rotation_key(&mut keys, step, &mut rng);
    }
    let rotation_keygen_ms_per_key = t0.elapsed().as_secs_f64() * 1e3 / steps.len() as f64;
    adapter::add_conjugation_key(&mut keys, &mut rng);

    let message: Vec<f64> = (0..SLOTS)
        .map(|_| adapter::uniform(&mut rng) - 0.5)
        .collect();
    let fresh = adapter::encrypt(&keys, &adapter::encode(&ctx, &message), &mut rng);
    let exhausted = adapter::exhaust(&eval, &fresh)?;
    // The warm-up fills the keys' lazily built evaluation-form caches.
    let digest = adapter::digest(&adapter::bootstrap(&bs, &eval, &keys, &exhausted)?);
    Ok(Fixture {
        ctx,
        keys,
        eval,
        bs,
        message,
        fresh,
        exhausted,
        digest,
        keygen_ms,
        rotation_keygen_ms_per_key,
    })
}

/// The refreshed ciphertext must decrypt to the message it was made from.
fn check(f: &Fixture, refreshed: Option<&Ciphertext>, failures: &mut Vec<String>) {
    let Some(refreshed) = refreshed else {
        failures.push("no bootstrap completed".into());
        return;
    };
    if adapter::level(refreshed) == 0 {
        failures.push("refreshed ciphertext is still at level 0".into());
    }
    let got = adapter::decrypt_values(&f.ctx, &f.keys, refreshed, SLOTS);
    for (i, (g, want)) in got.iter().zip(&f.message).enumerate() {
        if (g - want).abs() > TOLERANCE {
            failures.push(format!(
                "slot {i}: refreshed to {g:.5}, message was {want:.5} (tolerance {TOLERANCE})"
            ));
        }
    }
}

pub fn run(opts: &Options) -> Res<Outcome> {
    let mut out = Outcome {
        client_threads: 1,
        ..Outcome::default()
    };
    // One set-up is 3 to 4 s of key generation, and steady: it runs once.
    let t0 = Instant::now();
    let f = setup(opts.seed)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());

    // Every output must carry the warm-up's digest.
    let same = |refreshed: &Ciphertext| adapter::digest(refreshed) == f.digest;
    let whole = || adapter::bootstrap(&f.bs, &f.eval, &f.keys, &f.exhausted);
    if !opts.traced {
        let mut last = None;
        out.timed = harness::timed_phase(|| {
            let (timed, refreshed) = harness::closed_loop(opts.run_length(), 0, whole, same);
            last = refreshed;
            Ok(timed)
        })?;
        check(&f, last.as_ref(), &mut out.check_failures);
        return Ok(out);
    }

    // Traced: the same loop untraced for a third of the time, then stage
    // by stage under spans, then the probes.
    let third = opts.run_length() / 3;
    out.timed = harness::timed_phase(|| Ok(harness::closed_loop(third, 0, whole, same).0))?;
    let before = adapter::registry_snapshot();
    trace::set_enabled(true);
    let staged = || adapter::bootstrap_staged(&f.bs, &f.eval, &f.keys, &f.exhausted);
    let (traced, last) = harness::closed_loop(third, out.timed.attempted, staged, same);
    trace::set_enabled(false);
    let delta = harness::registry_since(&before, &adapter::registry_snapshot());
    // The loop compared every staged output with `try_bootstrap`'s digest
    // already; a mismatch is in `traced.failed`.
    check(&f, last.as_ref(), &mut out.check_failures);
    if traced.failed > 0 {
        out.check_failures
            .push("staged bootstrap's digest differs from try_bootstrap's".into());
    }

    let spans = trace::take();
    let totals = trace::totals(&spans);
    let ops = traced.completed().max(1);
    for (metric, span) in [
        ("ckks.boot.mod_raise.busy_ns", "ckks.boot.mod_raise"),
        ("ckks.boot.subsum.busy_ns", "ckks.boot.subsum"),
        ("ckks.boot.coeff_to_slot.busy_ns", "ckks.boot.coeff_to_slot"),
        ("ckks.boot.eval_mod.busy_ns", "ckks.boot.eval_mod"),
        ("ckks.boot.slot_to_coeff.busy_ns", "ckks.boot.slot_to_coeff"),
    ] {
        let busy = totals.get(span).map_or(0, |t| t.busy_ns);
        out.layer(metric, busy as f64 / ops as f64);
    }
    harness::registry_layers(&mut out, &delta, ops);
    out.layer("wire.bytes_per_op", 0.0);
    harness::traced_phase_layers(&mut out, &traced);
    out.layer("ckks.keygen.ms", f.keygen_ms);
    out.layer(
        "ckks.rotation_keygen.ms_per_key",
        f.rotation_keygen_ms_per_key,
    );

    let t0 = Instant::now();
    let simulated = adapter::simulate_bootstrap_us();
    out.layer("sim.host_us_per_run", t0.elapsed().as_secs_f64() * 1e6);
    out.layer("sim.simulated_us", simulated);

    probes::run(
        &mut out,
        &f.ctx,
        &f.keys,
        &f.fresh,
        1,
        third / probes::COUNT,
    )?;
    harness::write_trace(opts, &spans)?;
    Ok(out)
}
