//! `prog_rot` and `prog_mul`: one shipped `.pos` program, planned once and
//! executed in process in a closed loop, at `small()` widened to N = 2^13
//! (about 1.3 MB per ciphertext: the working set no longer fits L2).
//!
//! `keyswitch_micro.pos` is key-switch as hoisted rotation fans;
//! `deep_mul_chain.pos` is relinearisation and rescale after every tensor
//! product. Each bypasses what the other exercises.

use std::time::Instant;

use crate::adapter::{self, Ciphertext, CkksContext, KeySet, Plan, Res};
use crate::harness::{self, Options, Outcome};
use crate::probes;
use crate::trace;

const SLOTS: usize = 8;
/// Planned and unplanned runs of a program whose plan moved a rescale
/// agree in decrypted value, to this share of the value.
const TOLERANCE: f64 = 1e-3;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Fixture {
    ctx: CkksContext,
    keys: KeySet,
    plan: Plan,
    reference: Plan,
    inputs: Vec<Ciphertext>,
    /// Digests of the warm-up's outputs: every later run must match them.
    digests: Vec<u64>,
    first_step: i64,
    keygen_ms: f64,
    rotation_keygen_ms_per_key: f64,
}

fn digests(outputs: &[Ciphertext]) -> Vec<u64> {
    outputs.iter().map(adapter::digest).collect()
}

fn setup(program: &str, seed: u64) -> Res<Fixture> {
    let mut rng = adapter::rng(seed);
    let ctx = adapter::context(adapter::params_program_n13())?;
    let t0 = Instant::now();
    let mut keys = adapter::keygen(&ctx, &mut rng);
    let keygen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (reference, steps) = adapter::reference_plan(program, &ctx)?;
    let t0 = Instant::now();
    for &step in &steps {
        adapter::add_rotation_key(&mut keys, step, &mut rng);
    }
    let rotation_keygen_ms_per_key = t0.elapsed().as_secs_f64() * 1e3 / steps.len().max(1) as f64;
    let plan = adapter::parse_and_plan(program, &ctx)?;
    let inputs: Vec<Ciphertext> = (0..adapter::plan_input_count(&plan))
        .map(|_| {
            let message: Vec<f64> = (0..SLOTS)
                .map(|_| 0.25 + 0.5 * adapter::uniform(&mut rng))
                .collect();
            adapter::encrypt(&keys, &adapter::encode(&ctx, &message), &mut rng)
        })
        .collect();
    // The warm-up fills the keys' lazily built evaluation-form caches.
    let mut eval = adapter::evaluator(&ctx);
    let warm = adapter::plan_execute(&plan, &mut eval, &inputs, &keys)?;
    Ok(Fixture {
        digests: digests(&warm.outputs),
        first_step: steps.first().copied().unwrap_or(1),
        ctx,
        keys,
        plan,
        reference,
        inputs,
        keygen_ms,
        rotation_keygen_ms_per_key,
    })
}

/// The planned outputs against `Plan::passthrough` of the same graph:
/// digest for digest when the plan only hoisted and reordered, in
/// decrypted value when it also moved rescales.
fn check(f: &Fixture, planned: Option<&adapter::Executed>, failures: &mut Vec<String>) -> Res<()> {
    let Some(planned) = planned else {
        failures.push("no execution completed".into());
        return Ok(());
    };
    let mut eval = adapter::evaluator(&f.ctx);
    let unplanned = adapter::plan_execute(&f.reference, &mut eval, &f.inputs, &f.keys)?;
    if unplanned.outputs.len() != planned.outputs.len() {
        failures.push(format!(
            "planned run has {} outputs, unplanned {}",
            planned.outputs.len(),
            unplanned.outputs.len()
        ));
        return Ok(());
    }
    for (i, (p, u)) in planned.outputs.iter().zip(&unplanned.outputs).enumerate() {
        if adapter::plan_is_bit_preserving(&f.plan) {
            if adapter::digest(p) != adapter::digest(u) {
                failures.push(format!("output {i}: planned digest differs from unplanned"));
            }
            continue;
        }
        let got = adapter::decrypt_values(&f.ctx, &f.keys, p, SLOTS);
        let want = adapter::decrypt_values(&f.ctx, &f.keys, u, SLOTS);
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            if (g - w).abs() > TOLERANCE * w.abs().max(1.0) {
                failures.push(format!(
                    "output {i} slot {slot}: planned {g:.6}, unplanned {w:.6}"
                ));
            }
        }
    }
    Ok(())
}

pub fn run(opts: &Options, program: &str) -> Res<Outcome> {
    let mut out = Outcome {
        client_threads: 1,
        ..Outcome::default()
    };
    let t0 = Instant::now();
    let f = setup(program, opts.seed)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());

    // Every run's outputs must carry the warm-up's digests.
    let same = |done: &adapter::Executed| digests(&done.outputs) == f.digests;
    let mut eval = adapter::evaluator(&f.ctx);
    let mut plain = || adapter::plan_execute(&f.plan, &mut eval, &f.inputs, &f.keys);
    if !opts.traced {
        let mut last = None;
        out.timed = harness::timed_phase(|| {
            let (timed, done) = harness::closed_loop(opts.run_length(), 0, &mut plain, same);
            last = done;
            Ok(timed)
        })?;
        check(&f, last.as_ref(), &mut out.check_failures)?;
        out.mark_peak_rss()?;
        // The set-ups that steady `setup_s` come last, each after the one
        // before it is dropped.
        drop(f);
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            let again = setup(program, opts.seed)?;
            out.setup_s.push(t0.elapsed().as_secs_f64());
            drop(again);
        }
        return Ok(out);
    }

    let third = opts.run_length() / 3;
    out.timed = harness::timed_phase(|| Ok(harness::closed_loop(third, 0, &mut plain, same).0))?;
    let mut ops = adapter::spanning_ops(&f.ctx);
    let before = adapter::registry_snapshot();
    trace::set_enabled(true);
    let spanned = || adapter::plan_execute_spanned(&f.plan, &mut ops, &f.inputs, &f.keys);
    let (traced, last) = harness::closed_loop(third, out.timed.attempted, spanned, same);
    trace::set_enabled(false);
    let delta = harness::registry_since(&before, &adapter::registry_snapshot());
    check(&f, last.as_ref(), &mut out.check_failures)?;

    let spans = trace::take();
    let totals = trace::totals(&spans);
    let executions = traced.completed().max(1);
    let per_op = |x: u64| x as f64 / executions as f64;
    let mut evaluator_ns = 0;
    for (count, busy, span) in [
        ("ckks.add.count", "ckks.add.busy_ns", "ckks.add"),
        (
            "ckks.mul_plain.count",
            "ckks.mul_plain.busy_ns",
            "ckks.mul_plain",
        ),
        ("ckks.mul.count", "ckks.mul.busy_ns", "ckks.mul"),
        ("ckks.rescale.count", "ckks.rescale.busy_ns", "ckks.rescale"),
        ("ckks.rotate.count", "ckks.rotate.busy_ns", "ckks.rotate"),
        (
            "ckks.rotate_many.count",
            "ckks.rotate_many.busy_ns",
            "ckks.rotate_many",
        ),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        evaluator_ns += t.busy_ns;
        out.layer(count, per_op(t.count));
        out.layer(busy, per_op(t.busy_ns));
    }
    let execute = totals.get("core.plan.execute").copied().unwrap_or_default();
    out.layer("core.plan.exec.self_ns", per_op(execute.self_ns));
    if execute.self_ns + evaluator_ns != execute.busy_ns {
        out.check_failures.push(format!(
            "spans do not sum: execute {} ns, self {} ns + evaluator {} ns",
            execute.busy_ns, execute.self_ns, evaluator_ns
        ));
    }
    out.layer(
        "core.plan.nodes_after",
        adapter::plan_nodes_after(&f.plan) as f64,
    );
    out.layer(
        "core.plan.hoist_batches",
        adapter::plan_hoist_batches(&f.plan) as f64,
    );
    if let Some(done) = &last {
        out.layer("core.plan.max_live", done.max_live as f64);
    }
    harness::registry_layers(&mut out, &delta, executions);
    out.layer("wire.bytes_per_op", 0.0);
    harness::traced_phase_layers(&mut out, &traced);
    out.layer("ckks.keygen.ms", f.keygen_ms);
    out.layer(
        "ckks.rotation_keygen.ms_per_key",
        f.rotation_keygen_ms_per_key,
    );

    let slice = third / (probes::COUNT + probes::PROGRAM_COUNT);
    probes::program(&mut out, program, &f.ctx, slice)?;
    probes::run(&mut out, &f.ctx, &f.keys, &f.inputs[0], f.first_step, slice)?;
    harness::write_trace(opts, &spans)?;
    Ok(out)
}
