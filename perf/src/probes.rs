//! Direct probes: one public function of one layer, called in a loop at
//! the running workload's shape (ring degree, limbs) with tracing off.
//! Each reports the median nanoseconds of a call.

use std::hint::black_box;
use std::time::Duration;

use crate::adapter::{self, Ciphertext, CkksContext, KeySet, Res};
use crate::harness::{probe_ns, try_probe_ns, Outcome};

/// How many probes [`run`] makes; the caller splits its time between them.
pub const COUNT: u32 = 27;

/// How many probes [`program`] makes.
pub const PROGRAM_COUNT: u32 = 2;

/// The probes of a workload that runs a `.pos` program: parsing and
/// planning it as the service does, and the accelerator model's answer for
/// the same trace beside the host time the model itself takes.
pub fn program(out: &mut Outcome, program: &str, ctx: &CkksContext, slice: Duration) -> Res<()> {
    let ns = try_probe_ns("core.plan.parse_compile", slice, || {
        adapter::parse_and_plan(program, ctx).map(drop)
    })?;
    out.layer("core.plan.parse_compile.ns_per_call", ns);
    out.layer("sim.simulated_us", adapter::simulate_program_us(program)?);
    let ns = try_probe_ns("sim.host_us_per_run", slice, || {
        adapter::simulate_program_us(black_box(program)).map(drop)
    })?;
    out.layer("sim.host_us_per_run", ns / 1e3);
    Ok(())
}

/// Runs every shape-dependent probe. `ct` is a fresh top-level ciphertext;
/// `keys` holds a relinearisation key and a rotation key for `step`.
pub fn run(
    out: &mut Outcome,
    ctx: &CkksContext,
    keys: &KeySet,
    ct: &Ciphertext,
    step: i64,
    slice: Duration,
) -> Res<()> {
    let n = adapter::ring_degree(ctx);
    let q = adapter::first_prime(ctx);
    let limbs = adapter::chain_limbs(ctx);

    // math: 1000 dependent multiplications per call.
    let reducer = adapter::barrett(q);
    let ns = probe_ns(slice, || {
        black_box(adapter::barrett_mul_chain(
            &reducer,
            black_box(q - 3),
            q - 5,
            1000,
        ));
    });
    out.layer("math.barrett_mul.ns_per_1k", ns);
    let operand = adapter::shoup(q - 5, q);
    let ns = probe_ns(slice, || {
        black_box(adapter::shoup_mul_chain(&operand, black_box(q - 3), 1000));
    });
    out.layer("math.shoup_mul.ns_per_1k", ns);

    // ntt: one limb, default kernel dispatch.
    let table = adapter::ntt_table(ctx);
    let mut limb: Vec<u64> = (0..n as u64).map(|i| (i * 0x9E37_79B9 + 7) % q).collect();
    let ns = probe_ns(slice, || adapter::ntt_forward(&table, black_box(&mut limb)));
    out.layer("ntt.forward.ns_per_call", ns);
    let ns = probe_ns(slice, || adapter::ntt_inverse(&table, black_box(&mut limb)));
    out.layer("ntt.inverse.ns_per_call", ns);

    // rns: whole-chain polynomials.
    let poly = adapter::chain_poly(ct);
    let ns = probe_ns(slice, || {
        black_box(adapter::rns_modup(black_box(&poly), ctx));
    });
    out.layer("rns.modup.ns_per_call", ns);
    let extended = adapter::rns_modup(&poly, ctx);
    let ns = probe_ns(slice, || {
        black_box(adapter::rns_moddown(black_box(&extended), limbs));
    });
    out.layer("rns.moddown.ns_per_call", ns);
    let ns = probe_ns(slice, || {
        black_box(adapter::rns_rescale(black_box(&poly)));
    });
    out.layer("rns.rescale.ns_per_call", ns);
    let eval_form = adapter::rns_into_eval(poly.clone());
    let mut acc = eval_form.clone();
    let ns = probe_ns(slice, || {
        adapter::rns_mul_assign(black_box(&mut acc), &eval_form)
    });
    out.layer("rns.mul_assign.ns_per_call", ns);
    let g = adapter::galois_element(keys, step);
    let ns = probe_ns(slice, || {
        black_box(adapter::rns_automorphism_eval(black_box(&eval_form), g));
    });
    out.layer("rns.automorphism_eval.ns_per_call", ns);

    // ckks: key-switch whole and in its two hoisted halves.
    let eval = adapter::evaluator(ctx);
    let rotation_key = adapter::rotation_key(keys, step)?;
    let ns = probe_ns(slice, || {
        black_box(adapter::eval_keyswitch(
            &eval,
            black_box(&poly),
            adapter::relin_key(keys),
        ));
    });
    out.layer("ckks.keyswitch.ns_per_call", ns);
    let ns = probe_ns(slice, || {
        black_box(adapter::eval_hoist(&eval, black_box(ct)));
    });
    out.layer("ckks.hoist.ns_per_call", ns);
    let hoisted = adapter::eval_hoist(&eval, ct);
    let ns = probe_ns(slice, || {
        black_box(adapter::eval_apply_galois_hoisted(
            &eval,
            black_box(ct),
            &hoisted,
            g,
            rotation_key,
        ));
    });
    out.layer("ckks.apply_galois_hoisted.ns_per_call", ns);
    let checked = adapter::checked_evaluator(ctx);
    let ns = try_probe_ns("ckks.checked_mul", slice, || {
        adapter::checked_mul(&checked, black_box(ct), ct, keys).map(drop)
    })?;
    out.layer("ckks.checked_mul.ns_per_call", ns);

    // ckks: the client's side of a request.
    let values: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.3).collect();
    let ns = probe_ns(slice, || {
        black_box(adapter::encode(ctx, black_box(&values)));
    });
    out.layer("ckks.encode.ns_per_call", ns);
    let pt = adapter::encode(ctx, &values);
    let mut rng = adapter::rng(n as u64);
    let ns = probe_ns(slice, || {
        black_box(adapter::encrypt(keys, black_box(&pt), &mut rng));
    });
    out.layer("ckks.encrypt.ns_per_call", ns);
    let ns = probe_ns(slice, || {
        black_box(adapter::decrypt(keys, black_box(ct)));
    });
    out.layer("ckks.decrypt.ns_per_call", ns);
    let decrypted = adapter::decrypt(keys, ct);
    let ns = probe_ns(slice, || {
        black_box(adapter::decode(ctx, black_box(&decrypted), values.len()));
    });
    out.layer("ckks.decode.ns_per_call", ns);

    // core: the accelerator's automorphism engine, one limb.
    let engine = adapter::hfauto(n);
    let ns = probe_ns(slice, || {
        black_box(adapter::hfauto_apply(&engine, black_box(&limb), g, q));
    });
    out.layer("core.auto.hfauto.ns_per_call", ns);

    // par: what a dispatch costs when the body is empty.
    let threads = adapter::par_threads();
    out.layer("par.threads", threads as f64);
    let parallel = probe_ns(slice, || {
        black_box(adapter::par_map_empty(threads.max(2)));
    });
    let serial = probe_ns(slice, || {
        black_box(adapter::par_map_empty_serial(threads.max(2)));
    });
    out.layer("par.par_map.overhead_ns", parallel - serial);

    // wire: the codec on one ciphertext.
    let frame = adapter::encode_ciphertext(ctx, ct);
    let ns = probe_ns(slice, || {
        black_box(adapter::encode_ciphertext(ctx, black_box(ct)));
    });
    out.layer("wire.encode_ct.ns_per_call", ns);
    let ns = try_probe_ns("wire.decode_ct", slice, || {
        adapter::decode_ciphertext(ctx, black_box(&frame)).map(drop)
    })?;
    out.layer("wire.decode_ct.ns_per_call", ns);
    let pool = adapter::buffer_pool(64);
    let ns = try_probe_ns("wire.decode_ct_pooled", slice, || {
        let decoded = adapter::decode_ciphertext_pooled(ctx, black_box(&frame), &pool)?;
        adapter::recycle_ciphertext(&pool, decoded);
        Ok(())
    })?;
    out.layer("wire.decode_ct_pooled.ns_per_call", ns);
    let ns = probe_ns(slice, || {
        black_box(adapter::wire_checksum(black_box(&frame)));
    });
    out.layer("wire.checksum.ns_per_mb", ns * 1e6 / frame.len() as f64);
    Ok(())
}
