//! The key-switch engine against digit-major references.
//!
//! Every key switch is one limb-major engine (both key products summed by
//! one blocked kernel, one reduction per coefficient, key rows read by
//! reference, the inverse NTT and Moddown finished inside the limb task),
//! whose outputs are sums of terms, over digits lifted by one function:
//! `Evaluator::keyswitch` is one output of one term, `apply_galois_hoisted`
//! and `try_rotate_many` are `R` outputs of one term each, and `moddown` is
//! the same two per-limb halves. The reference here is the loop they
//! replaced, written from public `he_math` and `RnsPoly` operations only —
//! per digit group of α = `special_len` chain primes a Garner lift of its
//! own (`u128` remainders and `inv_mod_prime`, not the engine's lifter),
//! then `mul`, an `add` fold, `into_coeff`, and Moddown as
//! split / `rns_convert` / `sub` / `mul_scalar_per_prime`. Modular
//! arithmetic is exact, so the two must agree bit for bit, at every level
//! (partial last groups included), every fan size and every thread count.
//! The digit groups' decrypted error is held to a bound derived from
//! `Q_g`, `P`, `N` and σ.
//!
//! `try_rotate_sum` is the same engine with one output of `R` terms,
//! weighted and summed before it leaves `Q ∪ P`. Its reference is its own
//! dataflow, digit-major:
//! `Σ_r w_r ⊙ (Σ_g σ_r(d_g) ⊙ key_{r,g} + P·σ_r(c_0))` over the extended
//! basis, then one Moddown — bit for bit again; against the composition it
//! replaces (`try_rotate_many` → `try_mul_plain` → `try_add`), which rounds
//! once per term, it is held to the decrypted values. `try_rotate_sums` is
//! the engine with one output per sum over one hoist; each output equals its
//! own `try_rotate_sum` call bit for bit.
//!
//! A product is the engine too: `try_mul` and `try_square` keep their
//! three products in evaluation form, join `d̂_0` and `d̂_1` before Moddown
//! and take limb `i`'s own digit on limb `i` from `d̂_2`; they equal the textbook
//! composition (`into_coeff`, `keyswitch`, `add`) bit for bit. A real
//! constant is a per-limb scalar and equals `try_mul_plain` by its
//! constant polynomial bit for bit, in `mul_const` and in `try_adjust`.
//!
//! The fault-order cases arm an upset on the lifted digits (hoisted or
//! not), on the rows the engine sends into its inverse NTTs and on a sum's
//! `c_0` limbs, and hold each to one output at every thread count.

use std::sync::Arc;

use he_ckks::cipher::Plaintext;
use he_ckks::encoding::Complex;
use he_ckks::eval::PlainOperand;
use he_ckks::keys::KeySwitchKey;
use he_ckks::prelude::*;
use he_math::modops::{add_mod, inv_mod_prime, mul_mod, sub_mod};
use he_math::BarrettReducer;
use he_rns::conv::{moddown, modup, rns_convert, ModdownSplit};
use he_rns::{Form, LazyDot, RnsBasis, RnsPoly};
use poseidon_par::with_threads;
use poseidon_telemetry::Registry;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------
// The digit-major reference
// ---------------------------------------------------------------------------

/// The integer `x ∈ [0, Π q_k)` that `residues` stand for modulo `primes`:
/// Garner's recombination, `v_k = (r_k − x) · (Π_{m<k} q_m)⁻¹ mod q_k` and
/// `x += v_k · Π_{m<k} q_m`, in `u128` with plain remainders.
fn garner(residues: &[u64], primes: &[u64]) -> u128 {
    let (mut x, mut radix) = (0u128, 1u128);
    for (&r, &q) in residues.iter().zip(primes) {
        let wide = u128::from(q);
        let inv = inv_mod_prime((radix % wide) as u64, q).expect("coprime primes");
        let v = mul_mod(sub_mod(r, (x % wide) as u64, q), inv, q);
        x += u128::from(v) * radix;
        radix *= wide;
    }
    x
}

/// The digit groups of a level-`l` polynomial: α = `special_len`
/// consecutive chain limbs each, the last one cut at `l + 1`.
fn groups(ctx: &CkksContext, level: usize) -> Vec<std::ops::Range<usize>> {
    let alpha = ctx.params().special_len;
    (0..=level)
        .step_by(alpha)
        .map(|start| start..(start + alpha).min(level + 1))
        .collect()
}

/// Exact lift of digit group `limbs` of `d` to the extended basis, in
/// evaluation form.
fn lift(d: &RnsPoly, limbs: std::ops::Range<usize>, ext: &RnsBasis) -> RnsPoly {
    let primes = &d.basis().primes()[limbs.clone()];
    let x: Vec<u128> = (0..d.n())
        .map(|c| {
            let residues: Vec<u64> = limbs.clone().map(|j| d.residues(j)[c]).collect();
            garner(&residues, primes)
        })
        .collect();
    let residues = ext
        .primes()
        .iter()
        .map(|&p| x.iter().map(|&v| (v % u128::from(p)) as u64).collect())
        .collect();
    RnsPoly::from_residues(ext, residues, Form::Coeff).into_eval()
}

/// Every digit of `d`, lifted.
fn lift_all(ctx: &CkksContext, d: &RnsPoly, ext: &RnsBasis) -> Vec<RnsPoly> {
    let level = d.level_count() - 1;
    groups(ctx, level)
        .into_iter()
        .map(|limbs| lift(d, limbs, ext))
        .collect()
}

/// `Σ_g digit_g · (b_g, a_g)`: a reduction per product, an `add` per digit.
fn reference_inner_product(
    ctx: &CkksContext,
    level: usize,
    digits: &[RnsPoly],
    key: &KeySwitchKey,
) -> (RnsPoly, RnsPoly) {
    let mut acc: Option<(RnsPoly, RnsPoly)> = None;
    for (g, digit) in digits.iter().enumerate() {
        let (b, a) = key.eval_sliced(ctx, g, level);
        let p0 = b.mul(digit);
        let p1 = a.mul(digit);
        acc = Some(match acc {
            None => (p0, p1),
            Some((s0, s1)) => (s0.add(&p0), s1.add(&p1)),
        });
    }
    acc.expect("at least one digit")
}

/// Moddown as the composition it fuses.
fn reference_moddown(a: &RnsPoly, q_len: usize) -> RnsPoly {
    let q_basis = a.basis().prefix(q_len);
    let p_basis = a.basis().range(q_len..a.level_count());
    let a_q = RnsPoly::from_residues(&q_basis, a.all_residues()[..q_len].to_vec(), Form::Coeff);
    let a_p = RnsPoly::from_residues(&p_basis, a.all_residues()[q_len..].to_vec(), Form::Coeff);
    let conv = rns_convert(&a_p, &q_basis);
    let p_inv = p_basis.product_inv_mod_other(&q_basis);
    a_q.sub(&conv).mul_scalar_per_prime(&p_inv)
}

fn ext_basis(ctx: &CkksContext, level: usize) -> RnsBasis {
    ctx.level_basis(level).concat(ctx.special_basis())
}

fn reference_keyswitch(ctx: &CkksContext, d: &RnsPoly, key: &KeySwitchKey) -> (RnsPoly, RnsPoly) {
    let level = d.level_count() - 1;
    let ext = ext_basis(ctx, level);
    let digits = lift_all(ctx, d, &ext);
    let (acc0, acc1) = reference_inner_product(ctx, level, &digits, key);
    (
        reference_moddown(&acc0.into_coeff(), level + 1),
        reference_moddown(&acc1.into_coeff(), level + 1),
    )
}

fn reference_apply_galois(
    ctx: &CkksContext,
    ct: &Ciphertext,
    g: u64,
    key: &KeySwitchKey,
) -> Ciphertext {
    let level = ct.level();
    let ext = ext_basis(ctx, level);
    let digits: Vec<RnsPoly> = lift_all(ctx, ct.c1(), &ext)
        .into_iter()
        .map(|digit| digit.automorphism_eval(g))
        .collect();
    let (acc0, acc1) = reference_inner_product(ctx, level, &digits, key);
    let k0 = reference_moddown(&acc0.into_coeff(), level + 1);
    let k1 = reference_moddown(&acc1.into_coeff(), level + 1);
    Ciphertext::new(ct.c0().automorphism(g).add(&k0), k1, ct.scale())
}

/// A coefficient-form polynomial of `Q_l` over `Q_l ∪ P`, times `P`, in
/// evaluation form: what Moddown's division returns unchanged.
fn times_p(ctx: &CkksContext, c: &RnsPoly, ext: &RnsBasis) -> RnsPoly {
    let zero = vec![vec![0; c.n()]; ctx.special_basis().len()];
    let rows = c.all_residues().iter().cloned().chain(zero).collect();
    let p_mod = ctx.special_basis().product_mod_other(ext);
    RnsPoly::from_residues(ext, rows, Form::Coeff)
        .into_eval()
        .mul_scalar_per_prime(&p_mod)
}

/// `try_rotate_sum`'s dataflow from public polynomial operations, one term
/// and one digit at a time.
fn reference_rotate_sum(
    ctx: &CkksContext,
    ct: &Ciphertext,
    terms: &[(i64, Option<&Plaintext>)],
    keys: &KeySet,
) -> Ciphertext {
    let level = ct.level();
    let ext = ext_basis(ctx, level);
    let mut scale = ct.scale();
    let mut acc: Option<(RnsPoly, RnsPoly)> = None;
    for &(steps, weight) in terms {
        let g = keys.galois_element(steps);
        let (mut t0, mut t1) = if g == 1 {
            (times_p(ctx, ct.c0(), &ext), times_p(ctx, ct.c1(), &ext))
        } else {
            let digits: Vec<RnsPoly> = lift_all(ctx, ct.c1(), &ext)
                .into_iter()
                .map(|digit| digit.automorphism_eval(g))
                .collect();
            let key = keys.galois_key(g).expect("generated");
            let (s0, s1) = reference_inner_product(ctx, level, &digits, key);
            (
                s0.add(&times_p(ctx, ct.c0(), &ext).automorphism_eval(g)),
                s1,
            )
        };
        if let Some(pt) = weight {
            // The plaintext's integer coefficients, on every extended prime.
            let w = RnsPoly::from_i64_coeffs(&ext, &pt.poly().to_centered_coeffs()).into_eval();
            (t0, t1) = (t0.mul(&w), t1.mul(&w));
            scale = ct.scale() * pt.scale();
        }
        acc = Some(match acc {
            None => (t0, t1),
            Some((s0, s1)) => (s0.add(&t0), s1.add(&t1)),
        });
    }
    let (s0, s1) = acc.expect("at least one term");
    Ciphertext::new(
        reference_moddown(&s0.into_coeff(), level + 1),
        reference_moddown(&s1.into_coeff(), level + 1),
        scale,
    )
}

/// The composition a rotation sum replaces: one Moddown rounding per term.
fn unfused_rotate_sum(
    eval: &Evaluator,
    ct: &Ciphertext,
    terms: &[(i64, Option<&Plaintext>)],
    keys: &KeySet,
) -> Ciphertext {
    let steps: Vec<i64> = terms.iter().map(|&(s, _)| s).collect();
    let rotated = eval.try_rotate_many(ct, &steps, keys).unwrap();
    let weighted = rotated
        .into_iter()
        .zip(terms)
        .map(|(rot, &(_, w))| match w {
            Some(pt) => eval.try_mul_plain(&rot, pt).unwrap(),
            None => rot,
        });
    weighted
        .reduce(|sum, term| eval.try_add(&sum, &term).unwrap())
        .expect("at least one term")
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn parameter_sets() -> Vec<(&'static str, CkksParams)> {
    vec![
        ("toy", CkksParams::toy()),
        ("small", CkksParams::small()),
        ("paper_32bit", CkksParams::paper_32bit(1 << 12, 4)),
        (
            "bootstrap_demo/6",
            CkksParams {
                chain_len: 6,
                ..CkksParams::bootstrap_demo()
            },
        ),
    ]
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng) -> Ciphertext {
    let z: Vec<Complex> = (0..8)
        .map(|i| Complex::new(0.25 * i as f64 - 1.0, 0.0))
        .collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

fn assert_shares_tables(what: &str, got: &RnsBasis, want: &RnsBasis) {
    assert_eq!(got, want, "{what}: wrong basis");
    for (mine, theirs) in got.tables().iter().zip(want.tables()) {
        assert!(
            Arc::ptr_eq(mine, theirs),
            "{what}: a table was built after CkksContext::try_new"
        );
    }
}

// ---------------------------------------------------------------------------
// (a) bit-identity at every level, (c) no table is built on the way
// ---------------------------------------------------------------------------

#[test]
fn fused_datapath_matches_the_digit_major_reference_at_every_level() {
    // The injector is process-wide: hold its lock so a plan armed by the
    // faults cases below never reaches this test's evaluator calls.
    let _guard = poseidon_faults::test_lock();
    for (name, params) in parameter_sets() {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x13_F05E);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_key(3, &mut rng);
        let g = keys.galois_element(3);
        let rot_key = keys.galois_key(g).expect("generated above");
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);

        for level in 0..=ctx.max_level() {
            let ct = eval.try_drop_to_level(&top, level).unwrap();
            let want_ks = reference_keyswitch(&ctx, ct.c1(), keys.relin());
            let want_rot = reference_apply_galois(&ctx, &ct, g, rot_key);
            // Any element of the extended ring exercises Moddown.
            let extended = modup(ct.c0(), ctx.special_basis());
            let want_down = reference_moddown(&extended, level + 1);

            for threads in THREADS {
                let at = format!("{name}, level {level}, {threads} thread(s)");
                let (got_ks, got_rot, got_down) = with_threads(threads, || {
                    let h = eval.hoist(&ct);
                    (
                        eval.keyswitch(ct.c1(), keys.relin()),
                        eval.apply_galois_hoisted(&ct, &h, g, rot_key),
                        moddown(&extended, level + 1),
                    )
                });
                assert_eq!(got_ks, want_ks, "keyswitch diverged ({at})");
                assert_eq!(got_rot, want_rot, "hoisted rotation diverged ({at})");
                assert_eq!(got_down, want_down, "moddown diverged ({at})");

                let level_basis = ctx.level_basis(level);
                assert_shares_tables(&at, got_ks.0.basis(), &level_basis);
                assert_shares_tables(&at, got_ks.1.basis(), &level_basis);
                assert_shares_tables(&at, got_rot.c0().basis(), &level_basis);
                assert_shares_tables(&at, got_rot.c1().basis(), &level_basis);
                assert_shares_tables(&at, got_down.basis(), &level_basis);
            }
            // The `P` sub-basis Moddown works in is the context's own.
            let p_basis = extended.basis().range(level + 1..extended.level_count());
            assert_shares_tables(name, &p_basis, ctx.special_basis());
        }
    }
}

/// The decrypted error of a grouped key switch (α = 2) stays below a bound
/// derived from the parameters, at every level of `small()` and
/// `bootstrap_demo/6`. The inner product decrypts to `P·d·s' + E` with
/// `E = Σ_g x_g·e_g`, `0 ≤ x_g < Q_g` and `|e_g|_∞ ≤ ⌈6σ⌉` (the sampler's
/// clamp), so `|E|_∞ ≤ dnum·N·Q_g·⌈6σ⌉`; Moddown divides by `P`, and its
/// residues on `P` (each below `P`) and its approximate conversion (below
/// `k` multiples of `P`) add at most `k·(1 + ‖s‖₁)`. So
/// `|e_0 + e_1·s − d·s'|_∞ ≤ dnum·N·Q_g·⌈6σ⌉/P + k·(1 + ‖s‖₁)` for `Q_g`
/// the level's widest group and `k` special primes.
#[test]
fn a_grouped_key_switch_error_stays_below_its_derived_bound() {
    let _guard = poseidon_faults::test_lock();
    let sets = parameter_sets()
        .into_iter()
        .filter(|(_, p)| p.special_len == 2);
    for (name, params) in sets {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x47_A1FA);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        let p = ctx.params();
        let n = ctx.n() as f64;
        let s_coeffs = keys.secret().coeffs();
        let s_l1 = s_coeffs.iter().filter(|&&c| c != 0).count() as f64;
        let special = ctx.special_basis();
        let p_log2: f64 = special.primes().iter().map(|&q| (q as f64).log2()).sum();
        let e_max = (6.0 * p.error_std).ceil();
        for level in 0..=ctx.max_level() {
            let basis = ctx.level_basis(level);
            let rows = basis
                .primes()
                .iter()
                .map(|&q| (0..ctx.n()).map(|_| rng.gen_range(0..q)).collect())
                .collect();
            let d = RnsPoly::from_residues(&basis, rows, Form::Coeff);
            let (e0, e1) = eval.keyswitch(&d, keys.relin());
            let s = RnsPoly::from_i64_coeffs(&basis, s_coeffs).into_eval();
            let want = d.clone().into_eval().mul(&s).mul(&s);
            let err = e0
                .into_eval()
                .add(&e1.into_eval().mul(&s))
                .sub(&want)
                .into_coeff();
            let got = err
                .to_centered_f64()
                .iter()
                .fold(0.0f64, |m, &v| m.max(v.abs()));

            let widest = groups(&ctx, level)
                .into_iter()
                .map(|limbs| {
                    let primes = &basis.primes()[limbs];
                    primes.iter().map(|&q| (q as f64).log2()).sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            let dnum = groups(&ctx, level).len() as f64;
            let switch = dnum * n * e_max * (widest - p_log2).exp2();
            let rounding = special.len() as f64 * (1.0 + s_l1);
            let bound = switch + rounding;
            assert!(
                got <= bound,
                "{name}, level {level}: error {got} past the bound {bound} \
                 (Q_g = 2^{widest:.1}, P = 2^{p_log2:.1})"
            );
        }
    }
}

/// A fan of R through `try_rotate_many` equals R single `try_rotate`s equals
/// the reference, and a conjugation (a Galois element that is no rotation)
/// equals the reference too — at every level, R ∈ {1, 2, 8}, every thread
/// count.
#[test]
fn a_fan_equals_its_single_rotations_and_the_reference_at_every_level() {
    let _guard = poseidon_faults::test_lock();
    let steps: Vec<i64> = (1..=8).collect();
    for (name, params) in parameter_sets().into_iter().take(2) {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x16_FA17);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_keys(steps.iter().copied(), &mut rng);
        keys.add_conjugation_key(&mut rng);
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);

        for level in 0..=ctx.max_level() {
            let ct = eval.try_drop_to_level(&top, level).unwrap();
            let reference = |g: u64| {
                reference_apply_galois(&ctx, &ct, g, keys.galois_key(g).expect("generated"))
            };
            let want: Vec<Ciphertext> = steps
                .iter()
                .map(|&s| reference(keys.galois_element(s)))
                .collect();
            let want_conj = reference(keys.conjugation_element());
            for threads in THREADS {
                let at = format!("{name}, level {level}, {threads} thread(s)");
                with_threads(threads, || {
                    for fan in [1, 2, 8] {
                        let got = eval.try_rotate_many(&ct, &steps[..fan], &keys).unwrap();
                        assert_eq!(got, want[..fan], "fan of {fan} diverged ({at})");
                    }
                    for (&s, want) in steps.iter().zip(&want) {
                        let got = eval.try_rotate(&ct, s, &keys).unwrap();
                        assert_eq!(&got, want, "rotation by {s} diverged ({at})");
                    }
                    let got = eval.try_conjugate(&ct, &keys).unwrap();
                    assert_eq!(got, want_conj, "conjugation diverged ({at})");
                });
            }
        }
    }
}

/// A rotation sum equals the digit-major reference of its own dataflow bit
/// for bit — at every level of `toy()`, `small()` and `bootstrap_demo/6`,
/// fans of 1, 2 and 8, weighted and bare, with and without an identity
/// term, every thread count — and decrypts to what the composition it
/// replaces decrypts to.
#[test]
fn a_rotation_sum_equals_its_reference_and_decrypts_like_the_composition() {
    let _guard = poseidon_faults::test_lock();
    let sets = parameter_sets()
        .into_iter()
        .filter(|(name, _)| *name != "paper_32bit");
    for (name, params) in sets {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x20_5A11);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_keys(1..=8, &mut rng);
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);
        let slots = ctx.params().slots() as i64;

        for level in 0..=ctx.max_level() {
            let ct = eval.try_drop_to_level(&top, level).unwrap();
            let plains: Vec<Plaintext> = (0..9)
                .map(|r| {
                    let z: Vec<Complex> = (0..8)
                        .map(|i| Complex::new(0.4 - 0.07 * ((r + i) % 9) as f64, 0.0))
                        .collect();
                    eval.encode_at_level(&z, ctx.default_scale(), level)
                })
                .collect();
            let operands: Vec<PlainOperand> = plains
                .iter()
                .map(|pt| eval.prepare_plain(pt, level).unwrap())
                .collect();
            // Steps 1..=fan, and in the identity cases a multiple of the
            // slot count in the middle of the fan.
            for (fan, weighted, identity) in [
                (1, true, false),
                (2, false, true),
                (8, true, true),
                (8, false, false),
            ] {
                let mut steps: Vec<i64> = (1..=fan).collect();
                if identity {
                    steps.insert(fan as usize / 2, -slots);
                }
                let plain_terms: Vec<(i64, Option<&Plaintext>)> = steps
                    .iter()
                    .zip(&plains)
                    .map(|(&s, pt)| (s, weighted.then_some(pt)))
                    .collect();
                let terms: Vec<(i64, Option<&PlainOperand>)> = steps
                    .iter()
                    .zip(&operands)
                    .map(|(&s, w)| (s, weighted.then_some(w)))
                    .collect();
                let want = reference_rotate_sum(&ctx, &ct, &plain_terms, &keys);
                let at = format!(
                    "{name}, level {level}, fan {fan}, weighted {weighted}, identity {identity}"
                );
                for threads in THREADS {
                    let got =
                        with_threads(threads, || eval.try_rotate_sum(&ct, &terms, &keys).unwrap());
                    assert_eq!(
                        got, want,
                        "rotation sum diverged ({at}, {threads} thread(s))"
                    );
                    assert_shares_tables(&at, got.c0().basis(), &ctx.level_basis(level));
                }

                // Decrypted values, wherever the product's scale still fits
                // under the level's modulus.
                let p = ctx.params();
                let modulus_bits = p.first_prime_bits + level as u32 * p.scale_prime_bits;
                if want.scale().log2() + 8.0 > f64::from(modulus_bits) {
                    continue;
                }
                let composed = unfused_rotate_sum(&eval, &ct, &plain_terms, &keys);
                assert_eq!(composed.scale(), want.scale(), "{at}");
                let decode = |ct: &Ciphertext| {
                    let pt = keys.secret().decrypt(ct);
                    ctx.encoder().decode_rns(pt.poly(), pt.scale(), 8)
                };
                for (got, want) in decode(&want).iter().zip(decode(&composed)) {
                    let err = (got.re - want.re).abs() / want.re.abs().max(1.0);
                    assert!(err < 1e-5, "{at}: {} vs {}", got.re, want.re);
                }
            }
        }
    }
}

/// What a rotation sum refuses, before any work: no terms, a weight prepared
/// below the ciphertext, weights of two scales (or a bare term beside a
/// weighted one), a step without a key.
#[test]
fn a_rotation_sum_rejects_bad_terms_with_typed_errors() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x20_E220);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let level = ct.level();
    let scale = ctx.default_scale();
    let z = [Complex::new(0.5, 0.0)];
    let w = eval
        .prepare_plain(&eval.encode_at_level(&z, scale, level), level)
        .unwrap();
    let doubled = eval
        .prepare_plain(&eval.encode_at_level(&z, 2.0 * scale, level), level)
        .unwrap();
    let low_plain = eval.encode_at_level(&z, scale, level - 1);
    let low = eval.prepare_plain(&low_plain, level - 1).unwrap();

    let sum = |terms: &[(i64, Option<&PlainOperand>)]| eval.try_rotate_sum(&ct, terms, &keys);
    assert_eq!(sum(&[]), Err(EvalError::EmptyOperands));
    assert_eq!(
        sum(&[(1, Some(&w)), (0, Some(&low))]),
        Err(EvalError::LevelMismatch {
            a: level,
            b: level - 1
        })
    );
    assert_eq!(
        eval.prepare_plain(&low_plain, level).map(|_| ()),
        Err(EvalError::LevelMismatch {
            a: level,
            b: level - 1
        })
    );
    let product = ct.scale() * scale;
    assert_eq!(
        sum(&[(1, Some(&w)), (0, Some(&doubled))]),
        Err(EvalError::ScaleMismatch {
            a: product,
            b: 2.0 * product
        })
    );
    assert_eq!(
        sum(&[(1, Some(&w)), (0, None)]),
        Err(EvalError::ScaleMismatch {
            a: product,
            b: ct.scale()
        })
    );
    assert_eq!(
        sum(&[(1, Some(&w)), (3, Some(&w))]),
        Err(EvalError::MissingRotationKey { steps: 3 })
    );
    // A weight prepared above the ciphertext's level serves it.
    let dropped = eval.try_drop_to_level(&ct, level - 1).unwrap();
    let high = eval.try_rotate_sum(&dropped, &[(1, Some(&w))], &keys);
    let exact = eval.try_rotate_sum(&dropped, &[(1, Some(&low))], &keys);
    assert_eq!(high, exact);
}

/// Several sums over one hoist: each output of `try_rotate_sums` equals its
/// own `try_rotate_sum` call bit for bit — calls of two and of three sums,
/// weighted, bare and with an identity term, each sum over its own steps —
/// at the top level and one below, every thread count.
#[test]
fn several_sums_over_one_hoist_each_equal_their_own_sum() {
    let _guard = poseidon_faults::test_lock();
    for (name, params) in parameter_sets().into_iter().take(2) {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x35_5E75);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_keys(1..=8, &mut rng);
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);
        let slots = ctx.params().slots() as i64;

        for level in [ctx.max_level(), ctx.max_level() - 1] {
            let ct = eval.try_drop_to_level(&top, level).unwrap();
            let operands: Vec<PlainOperand> = (0..7)
                .map(|r| {
                    let z: Vec<Complex> = (0..8)
                        .map(|i| Complex::new(0.3 - 0.05 * ((3 * r + i) % 7) as f64, 0.0))
                        .collect();
                    let pt = eval.encode_at_level(&z, ctx.default_scale(), level);
                    eval.prepare_plain(&pt, level).unwrap()
                })
                .collect();
            let weighted: Vec<_> = [1, 2, 3, 4]
                .into_iter()
                .zip(&operands)
                .map(|(s, w)| (s, Some(w)))
                .collect();
            let bare: Vec<_> = [2, 5, 7].into_iter().map(|s| (s, None)).collect();
            let with_identity: Vec<_> = [3, -slots, 8]
                .into_iter()
                .zip(&operands[4..])
                .map(|(s, w)| (s, Some(w)))
                .collect();
            for sums in [
                vec![&weighted[..], &bare[..]],
                vec![&bare[..], &with_identity[..], &weighted[..]],
            ] {
                let want: Vec<Ciphertext> = sums
                    .iter()
                    .map(|terms| eval.try_rotate_sum(&ct, terms, &keys).unwrap())
                    .collect();
                for threads in THREADS {
                    let got =
                        with_threads(threads, || eval.try_rotate_sums(&ct, &sums, &keys).unwrap());
                    let at = format!("{name}, level {level}, {threads} thread(s)");
                    assert_eq!(got, want, "{} sums diverged ({at})", sums.len());
                }
            }
        }
    }
}

/// What several sums refuse: no sums, an empty sum anywhere, a step without
/// a key in the second sum — all before any work, so nothing is hoisted.
#[test]
fn several_sums_refuse_an_empty_sum_and_a_missing_key_before_any_work() {
    // Every case here that hoists holds the lock, so the count is this test's.
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x35_E220);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let good: &[(i64, Option<&PlainOperand>)] = &[(1, None), (0, None)];
    let missing: &[(i64, Option<&PlainOperand>)] = &[(1, None), (3, None)];
    let hoists = || {
        let snapshot = Registry::global().snapshot();
        snapshot.get("keyswitch.hoist").map_or(0, |s| s.count)
    };

    let before = hoists();
    let sums = |sums: &[&[(i64, Option<&PlainOperand>)]]| eval.try_rotate_sums(&ct, sums, &keys);
    assert_eq!(sums(&[]), Err(EvalError::EmptyOperands));
    assert_eq!(sums(&[good, &[]]), Err(EvalError::EmptyOperands));
    assert_eq!(sums(&[&[], good]), Err(EvalError::EmptyOperands));
    assert_eq!(
        sums(&[good, missing]),
        Err(EvalError::MissingRotationKey { steps: 3 })
    );
    assert_eq!(hoists(), before, "an error was reported after the hoist");
    assert_eq!(sums(&[good, good]).map(|out| out.len()), Ok(2));
    assert_eq!(hoists(), before + 1, "one hoist serves every sum");
}

/// `moddown`, and its two halves called the way the engine calls them (on
/// loose rows, one limb at a time), equal `rns_convert` + `sub` +
/// `mul_scalar_per_prime` for one, two and three special primes.
#[test]
fn moddown_through_its_two_halves_equals_the_composition() {
    let _guard = poseidon_faults::test_lock();
    let n = 32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0D0);
    let q = RnsBasis::generate(n, 28, 3);
    for p_len in 1..=3 {
        let p = RnsBasis::new(n, he_math::prime::ntt_prime_chain(30, 2 * n as u64, p_len));
        let full = q.concat(&p);
        let rows: Vec<Vec<u64>> = full
            .primes()
            .iter()
            .map(|&m| (0..n).map(|_| rng.gen_range(0..m)).collect())
            .collect();
        let a = RnsPoly::from_residues(&full, rows.clone(), Form::Coeff);
        let want = reference_moddown(&a, q.len());
        assert_eq!(moddown(&a, q.len()), want, "|P| = {p_len}");

        let split = ModdownSplit::new(&full, q.len());
        let (mut q_rows, mut t) = (rows, Vec::new());
        t.extend(q_rows.drain(q.len()..));
        for (j, row) in t.iter_mut().enumerate() {
            split.scale_p_limb(j, row);
        }
        for (i, row) in q_rows.iter_mut().enumerate() {
            split.finish_q_limb(i, &t, row);
        }
        let got = RnsPoly::from_residues(&q, q_rows, Form::Coeff);
        assert_eq!(got, want, "halves, |P| = {p_len}");
    }
}

// ---------------------------------------------------------------------------
// Products and constants: the transforms they skip change no bit
// ---------------------------------------------------------------------------

/// CMult + relinearisation as the composition the engine's product path
/// replaces: `d_0`, `d_1` and `d_2` each inverse-transformed, `d_2` key
/// switched on its own, and the two sums added in coefficient form.
fn textbook_mul(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext, keys: &KeySet) -> Ciphertext {
    let level = a.level().min(b.level());
    let a = eval.try_drop_to_level(a, level).unwrap();
    let b = eval.try_drop_to_level(b, level).unwrap();
    let a0 = a.c0().clone().into_eval();
    let a1 = a.c1().clone().into_eval();
    let b0 = b.c0().clone().into_eval();
    let b1 = b.c1().clone().into_eval();
    let d0 = a0.mul(&b0).into_coeff();
    let d1 = a0.mul(&b1).add(&a1.mul(&b0)).into_coeff();
    let d2 = a1.mul(&b1).into_coeff();
    let (k0, k1) = eval.keyswitch(&d2, keys.relin());
    Ciphertext::new(d0.add(&k0), d1.add(&k1), a.scale() * b.scale())
}

/// The plaintext a real constant `k` already rounded stands for: the
/// constant polynomial `[k, 0, …, 0]` at `level`.
fn constant_plain(ctx: &CkksContext, k: f64, scale: f64, level: usize) -> Plaintext {
    let mut coeffs = vec![0; ctx.n()];
    coeffs[0] = k as i64;
    Plaintext::new(
        RnsPoly::from_i64_coeffs(&ctx.level_basis(level), &coeffs),
        scale,
    )
}

/// `try_mul` (operands at different levels) and `try_square` equal the
/// textbook composition, and `try_square(a)` equals `try_mul(a, a)`, bit
/// for bit at every level of `small()` and `bootstrap_demo()`, on one
/// thread and on four.
#[test]
fn products_equal_the_textbook_composition_at_every_level() {
    let _guard = poseidon_faults::test_lock();
    for (name, params) in [
        ("small", CkksParams::small()),
        ("bootstrap_demo", CkksParams::bootstrap_demo()),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC_3017);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);
        let other = encrypt(&ctx, &keys, &mut rng);
        for level in 0..=ctx.max_level() {
            let a = eval.try_drop_to_level(&top, level).unwrap();
            let want_mul = textbook_mul(&eval, &a, &other, &keys);
            let want_square = textbook_mul(&eval, &a, &a, &keys);
            let self_mul = eval.try_mul(&a, &a, &keys).unwrap();
            assert_eq!(
                self_mul, want_square,
                "try_mul(a, a) diverged ({name}, level {level})"
            );
            for threads in [1, 4] {
                let at = format!("{name}, level {level}, {threads} thread(s)");
                let (mul, square) = with_threads(threads, || {
                    (
                        eval.try_mul(&a, &other, &keys).unwrap(),
                        eval.try_square(&a, &keys).unwrap(),
                    )
                });
                assert_eq!(mul, want_mul, "try_mul diverged ({at})");
                assert_eq!(square, self_mul, "try_square ≠ try_mul(a, a) ({at})");
                assert_shares_tables(&at, mul.c0().basis(), &ctx.level_basis(level));
            }
        }
    }
}

/// `mul_const(c)` equals `try_mul_plain` by `[round(c·Δ), 0, …]`, and
/// `try_adjust` equals `try_mul_plain` by `[round(correction), 0, …]`
/// followed by the rescale, bit for bit over negative, tiny and large `c`,
/// at every level of `small()` and `bootstrap_demo()`, on one thread and on
/// four.
#[test]
fn constants_equal_a_product_by_their_constant_polynomial() {
    let _guard = poseidon_faults::test_lock();
    // Tiny ones round to ±1 and 0 at Δ = 2^40 and 2^45; the large ones keep
    // c·Δ within an i64.
    let constants = [
        0.5,
        -0.6180339887,
        2.0e-12,
        -3.1e-14,
        1.0e-16,
        12345.678,
        -98765.4321,
    ];
    for (name, params) in [
        ("small", CkksParams::small()),
        ("bootstrap_demo", CkksParams::bootstrap_demo()),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0_4575);
        let keys = KeySet::generate(&ctx, &mut rng);
        let eval = Evaluator::new(&ctx);
        let top = encrypt(&ctx, &keys, &mut rng);
        let delta = ctx.default_scale();
        for level in 0..=ctx.max_level() {
            let ct = eval.try_drop_to_level(&top, level).unwrap();
            for threads in [1, 4] {
                let at = format!("{name}, level {level}, {threads} thread(s)");
                for c in constants {
                    let k = (c * delta).round();
                    let want = eval
                        .try_mul_plain(&ct, &constant_plain(&ctx, k, delta, level))
                        .unwrap();
                    let got = with_threads(threads, || eval.mul_const(&ct, c));
                    assert_eq!(got, want, "mul_const({c}) diverged ({at})");
                }
                let Some(target) = level.checked_sub(1) else {
                    continue;
                };
                // A scale off by a few percent, corrected on the spare level.
                for drift in [0.97, 1.0625] {
                    let target_scale = ct.scale() * drift;
                    let staged = eval.try_drop_to_level(&ct, target + 1).unwrap();
                    let dropped = *staged.c0().basis().primes().last().unwrap() as f64;
                    let correction = target_scale * dropped / staged.scale();
                    let one = constant_plain(&ctx, correction.round(), correction, target + 1);
                    let mut want = eval
                        .try_rescale(&eval.try_mul_plain(&staged, &one).unwrap())
                        .unwrap();
                    want.set_scale(target_scale);
                    let got = with_threads(threads, || {
                        eval.try_adjust(&ct, target, target_scale).unwrap()
                    });
                    assert_eq!(got, want, "try_adjust by {drift} diverged ({at})");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (b) the overflow edge
// ---------------------------------------------------------------------------

/// Every digit and key residue at `q − 1` under a 60-bit prime: 64 products
/// fill a block, so 200 terms cross three folds.
#[test]
fn lazy_accumulation_survives_the_largest_residues_past_one_block() {
    let q = he_math::prime::ntt_prime_chain(60, 32, 1)[0];
    assert_eq!(64 - q.leading_zeros(), 60);
    let red = BarrettReducer::new(q);
    let n = 16;
    let row = vec![q - 1; n];
    let dot = LazyDot::new(red);
    let terms = 200;
    assert!(terms > 3 * dot.block_len(), "must cross several blocks");
    let want = (0..terms).fold(0, |sum, _| add_mod(sum, red.mul(q - 1, q - 1), q));
    let (mut got_b, mut got_a) = (vec![0; n], vec![0; n]);
    dot.dot_pair(
        &vec![&row[..]; terms],
        None,
        &vec![(&row[..], &row[..]); terms],
        &mut got_b,
        &mut got_a,
    );
    assert_eq!(got_b, vec![want; n]);
    assert_eq!(got_a, vec![want; n]);
}

/// The same edge through the evaluator: a 70-prime chain of 60-bit primes
/// gives 70 digits — more than one block — with key rows that are `q − 1`
/// everywhere in evaluation form and digit residues at `q_j − 1`.
#[test]
fn keyswitch_over_a_chain_longer_than_one_block_matches_per_product_barrett() {
    // The injector is process-wide: hold its lock so a plan armed by the
    // faults cases below never reaches this test's evaluator calls.
    let _guard = poseidon_faults::test_lock();
    let params = CkksParams {
        n: 16,
        first_prime_bits: 60,
        scale_prime_bits: 60,
        chain_len: 70,
        special_len: 1,
        special_prime_bits: 60,
        scale: (1u64 << 40) as f64,
        error_std: 3.2,
    };
    let ctx = CkksContext::new(params);
    let full = ctx.full_basis();
    let n = ctx.n();
    let block = LazyDot::new(full.reducers()[0]).block_len();
    assert!(ctx.chain_basis().len() > block, "need more than one block");

    // The constant polynomial −1 is `q − 1` at every evaluation point.
    let minus_one = {
        let mut c = vec![0i64; n];
        c[0] = -1;
        RnsPoly::from_i64_coeffs(full, &c).into_eval()
    };
    let worst_key = KeySwitchKey::from_pairs(
        (0..ctx.chain_basis().len())
            .map(|_| (minus_one.clone(), minus_one.clone()))
            .collect(),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F10);
    let random_key = KeySwitchKey::from_pairs(
        (0..ctx.chain_basis().len())
            .map(|_| {
                let mut poly = || {
                    let rows = full
                        .primes()
                        .iter()
                        .map(|&p| (0..n).map(|_| rng.gen_range(0..p)).collect())
                        .collect();
                    RnsPoly::from_residues(full, rows, Form::Eval)
                };
                (poly(), poly())
            })
            .collect(),
    );

    let chain = ctx.chain_basis();
    let worst_d = RnsPoly::from_residues(
        chain,
        chain.primes().iter().map(|&q| vec![q - 1; n]).collect(),
        Form::Coeff,
    );
    let random_d = RnsPoly::from_residues(
        chain,
        chain
            .primes()
            .iter()
            .map(|&q| (0..n).map(|_| rng.gen_range(0..q)).collect())
            .collect(),
        Form::Coeff,
    );

    let eval = Evaluator::new(&ctx);
    for (d, key) in [
        (&worst_d, &worst_key),
        (&worst_d, &random_key),
        (&random_d, &worst_key),
        (&random_d, &random_key),
    ] {
        let want = reference_keyswitch(&ctx, d, key);
        // The same digits hoisted: the kernel reads them through a slot
        // permutation — a rotation and the conjugation element — and the
        // ring (N = 16) is shorter than one coefficient block.
        let ct = Ciphertext::new(random_d.clone(), d.clone(), 1.0);
        let elements = [5, 2 * n as u64 - 1];
        let want_galois = elements.map(|g| reference_apply_galois(&ctx, &ct, g, key));
        for threads in THREADS {
            let (got, got_galois) = with_threads(threads, || {
                let h = eval.hoist(&ct);
                let galois = elements.map(|g| eval.apply_galois_hoisted(&ct, &h, g, key));
                (eval.keyswitch(d, key), galois)
            });
            assert_eq!(got, want, "{threads} thread(s)");
            assert_eq!(got_galois, want_galois, "hoisted, {threads} thread(s)");
        }
    }
}

/// The sum's own fold: 70 terms under 60-bit primes, where a row holds 32
/// before it is reduced in place — random weights, and the constant −1,
/// which is `q − 1` at every evaluation point of every limb.
#[test]
fn a_rotation_sum_longer_than_one_block_folds_its_accumulator() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams {
        n: 16,
        first_prime_bits: 60,
        scale_prime_bits: 60,
        chain_len: 3,
        special_len: 1,
        special_prime_bits: 60,
        scale: (1u64 << 40) as f64,
        error_std: 3.2,
    });
    let terms = 70;
    let q = ctx.full_basis().primes()[0];
    let rule = LazyDot::with_term_bound(BarrettReducer::new(q), 2 * u128::from(q) * u128::from(q));
    assert!(terms > 2 * rule.block_len(), "must fold more than once");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x20_F01D);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys(1..8, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let level = ct.level();
    let minus_one = {
        let mut c = vec![0i64; ctx.n()];
        c[0] = -1;
        Plaintext::new(
            RnsPoly::from_i64_coeffs(ctx.chain_basis(), &c),
            ctx.default_scale(),
        )
    };
    let plains: Vec<Plaintext> = (0..terms)
        .map(|r| {
            if r % 3 == 0 {
                return minus_one.clone();
            }
            let z: Vec<Complex> = (0..8)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
                .collect();
            eval.encode_at_level(&z, ctx.default_scale(), level)
        })
        .collect();
    let operands: Vec<PlainOperand> = plains
        .iter()
        .map(|pt| eval.prepare_plain(pt, level).unwrap())
        .collect();
    // Steps cycle through the eight slots: every eighth term is the identity.
    let step = |r: usize| (r % 8) as i64;
    let plain_terms: Vec<_> = (0..terms).map(|r| (step(r), Some(&plains[r]))).collect();
    let fused_terms: Vec<_> = (0..terms).map(|r| (step(r), Some(&operands[r]))).collect();
    let want = reference_rotate_sum(&ctx, &ct, &plain_terms, &keys);
    for threads in THREADS {
        let got = with_threads(threads, || {
            eval.try_rotate_sum(&ct, &fused_terms, &keys).unwrap()
        });
        assert_eq!(got, want, "{threads} thread(s)");
    }
}

/// A hoisted decomposition serves the ciphertext it was lifted from and no
/// other: rotating B with A's digits is refused, not computed.
#[test]
#[should_panic(expected = "lifted from another ciphertext")]
fn a_hoisted_decomposition_refuses_another_ciphertext() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0B);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let g = keys.galois_element(1);
    let eval = Evaluator::new(&ctx);
    let (a, b) = (
        encrypt(&ctx, &keys, &mut rng),
        encrypt(&ctx, &keys, &mut rng),
    );
    let h = eval.hoist(&a);
    assert_eq!(h.level(), b.level(), "the level check alone would pass");
    let _ = eval.apply_galois_hoisted(&b, &h, g, keys.galois_key(g).expect("generated"));
}

// ---------------------------------------------------------------------------
// Fault hooks on the by-reference key read
// ---------------------------------------------------------------------------

/// A `KeyCache` upset lands on a private copy of the rows the kernel is
/// about to read: it changes the output, identically at every thread count
/// (the copy is tampered serially, in digit order, before the fan-out), and
/// the cache itself stays clean for the retry.
#[test]
fn key_cache_upsets_are_thread_count_independent_and_spare_the_cache() {
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let clean = eval.try_rotate(&ct, 1, &keys).unwrap();

    let upset = |threads: usize| {
        poseidon_faults::arm(
            FaultPlan::transient(FaultSite::KeyCache, FaultKind::BitFlip, 0xC0FFEE).after(5),
        );
        let out = with_threads(threads, || eval.try_rotate(&ct, 1, &keys).unwrap());
        let fired = poseidon_faults::fired();
        poseidon_faults::disarm();
        assert_eq!(fired, 1, "the upset never fired");
        out
    };
    let serial = upset(1);
    let parallel = upset(4);
    assert_ne!(serial, clean, "a flipped key bit must reach the output");
    assert_eq!(serial, parallel, "firing order depends on the thread count");
    assert_eq!(
        eval.try_rotate(&ct, 1, &keys).unwrap(),
        clean,
        "the cache was tampered"
    );
}

/// The `RnsResidue` site covers the lifted digits of an unhoisted keyswitch
/// and both sums of every extended limb on their way into the inverse NTT
/// (the engine fires the site itself, since it does not call
/// `into_coeff`). Under an armed plan the engine
/// runs its limb tasks on the calling thread, in item order (stage A's
/// special limbs, then the chain limbs; within a limb its lifts, then its
/// sums), so an upset on either kind of row reaches the output identically
/// at every thread count. Hits: one per lifted row, plus the two sums.
#[test]
fn residue_upsets_on_lifted_digits_and_sums_are_thread_count_independent() {
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA18);
    let keys = KeySet::generate(&ctx, &mut rng);
    let eval = Evaluator::new(&ctx);
    let d = encrypt(&ctx, &keys, &mut rng).c1().clone().into_coeff();
    let clean = eval.keyswitch(&d, keys.relin());

    let digit_count = ctx.params().dnum(d.level_count());
    let ext_len = d.level_count() + ctx.special_basis().len();
    let upset = |threads: usize, skip: usize| {
        poseidon_faults::arm(
            FaultPlan::transient(FaultSite::RnsResidue, FaultKind::BitFlip, 0xBEEF)
                .after(skip as u64),
        );
        let out = with_threads(threads, || eval.keyswitch(&d, keys.relin()));
        let fired = poseidon_faults::fired();
        let hits = poseidon_faults::site_hits(FaultSite::RnsResidue);
        poseidon_faults::disarm();
        assert_eq!(fired, 1, "the upset never fired");
        assert_eq!(hits as usize, (digit_count + 2) * ext_len);
        out
    };
    // Past the first limb's lifts and sums and one more row: a lifted digit
    // of the second limb. Past the first limb's lifts only: its first sum.
    for (what, skip) in [("lifted digit", digit_count + 3), ("sum", digit_count)] {
        let serial = upset(1, skip);
        assert_ne!(serial, clean, "a flipped {what} bit must reach the output");
        for threads in [2, 4] {
            let parallel = upset(threads, skip);
            assert_eq!(
                serial, parallel,
                "{what}: firing order depends on the thread count"
            );
        }
    }
    assert_eq!(eval.keyswitch(&d, keys.relin()), clean);
}

/// The same for a hoisted fan: past the hoist's own hits (its lifted rows)
/// the site fires on the engine's sums only, two per extended limb and
/// output, in item order whatever the team.
#[test]
fn residue_upsets_on_a_fans_sums_are_thread_count_independent() {
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA19);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let steps = [1i64, 2, 3];
    keys.add_rotation_keys(steps, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let clean = eval.try_rotate_many(&ct, &steps, &keys).unwrap();

    let ext_len = ct.level() + 1 + ctx.special_basis().len();
    let hoist_hits = ctx.params().dnum(ct.level() + 1) * ext_len;
    let upset = |threads: usize| {
        // The upset lands on the sixth sum of stage A.
        poseidon_faults::arm(
            FaultPlan::transient(FaultSite::RnsResidue, FaultKind::BitFlip, 0xFEED)
                .after(hoist_hits as u64 + 5),
        );
        let out = with_threads(threads, || {
            eval.try_rotate_many(&ct, &steps, &keys).unwrap()
        });
        let fired = poseidon_faults::fired();
        let hits = poseidon_faults::site_hits(FaultSite::RnsResidue);
        poseidon_faults::disarm();
        assert_eq!(fired, 1, "the upset never fired");
        assert_eq!(hits as usize, hoist_hits + steps.len() * 2 * ext_len);
        out
    };
    let serial = upset(1);
    assert_ne!(serial, clean, "a flipped sum bit must reach the output");
    for threads in [2, 4] {
        assert_eq!(
            serial,
            upset(threads),
            "firing order depends on the thread count"
        );
    }
    assert_eq!(eval.try_rotate_many(&ct, &steps, &keys).unwrap(), clean);
}

/// The same inside the hoist: its digits are lifted by the engine's one
/// lifter, limb by limb (a limb's rows in digit order), and under an armed
/// plan its limb tasks run on the calling thread, in order, so an upset on
/// any hoisted row reaches every rotation identically at every thread count.
#[test]
fn residue_upsets_inside_the_hoist_are_thread_count_independent() {
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA1A);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let steps = [1i64, 2, 3];
    keys.add_rotation_keys(steps, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let clean = eval.try_rotate_many(&ct, &steps, &keys).unwrap();

    let ext_len = ct.level() + 1 + ctx.special_basis().len();
    let hoist_hits = ctx.params().dnum(ct.level() + 1) * ext_len;
    let upset = |threads: usize, skip: usize| {
        poseidon_faults::arm(
            FaultPlan::transient(FaultSite::RnsResidue, FaultKind::BitFlip, 0xD161)
                .after(skip as u64),
        );
        let out = with_threads(threads, || {
            eval.try_rotate_many(&ct, &steps, &keys).unwrap()
        });
        let fired = poseidon_faults::fired();
        let hits = poseidon_faults::site_hits(FaultSite::RnsResidue);
        poseidon_faults::disarm();
        assert_eq!(fired, 1, "the upset never fired");
        assert_eq!(hits as usize, hoist_hits + steps.len() * 2 * ext_len);
        out
    };
    for skip in [1, ext_len + 1, hoist_hits / 2, hoist_hits - 3] {
        let serial = upset(1, skip);
        assert_ne!(
            serial, clean,
            "skip {skip}: a flipped digit bit must reach the output"
        );
        for _ in 0..5 {
            assert_eq!(
                serial,
                upset(2, skip),
                "skip {skip}: firing order depends on the thread count"
            );
        }
    }
    assert_eq!(eval.try_rotate_many(&ct, &steps, &keys).unwrap(), clean);
}

/// The same for a rotation sum: past the hoist the site fires on the forward
/// transform of each chain limb of `c_0` and on the two sum rows of every
/// extended limb — not per rotation — in item order whatever the team; and
/// never while a weight is prepared, which is kept and must stay clean.
#[test]
fn residue_upsets_on_a_rotation_sums_rows_are_thread_count_independent() {
    use poseidon_faults::{FaultKind, FaultPlan, FaultSite};

    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let ctx = CkksContext::new(CkksParams::small());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA20);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    let steps = [1i64, 2, 3];
    keys.add_rotation_keys(steps, &mut rng);
    let eval = Evaluator::new(&ctx);
    let ct = encrypt(&ctx, &keys, &mut rng);
    let level = ct.level();
    let mask = eval.encode_at_level(&[Complex::new(0.5, 0.0)], ctx.default_scale(), level);
    let sum = |w: &PlainOperand| {
        let terms = steps.map(|s| (s, Some(w)));
        eval.try_rotate_sum(&ct, &terms, &keys).unwrap()
    };
    let clean = sum(&eval.prepare_plain(&mask, level).unwrap());

    let q_len = level + 1;
    let ext_len = q_len + ctx.special_basis().len();
    let hoist_hits = ctx.params().dnum(q_len) * ext_len;
    let upset = |threads: usize, skip: usize| {
        poseidon_faults::arm(
            FaultPlan::transient(FaultSite::RnsResidue, FaultKind::BitFlip, 0x5EED)
                .after((hoist_hits + skip) as u64),
        );
        let out = with_threads(threads, || sum(&eval.prepare_plain(&mask, level).unwrap()));
        let fired = poseidon_faults::fired();
        let hits = poseidon_faults::site_hits(FaultSite::RnsResidue);
        poseidon_faults::disarm();
        assert_eq!(fired, 1, "the upset never fired");
        assert_eq!(hits as usize, hoist_hits + 2 * ext_len + q_len);
        out
    };
    // Stage A's second sum row; then, past stage A, the first chain limb's
    // `c_0` on its way into the forward transform.
    let special_rows = 2 * ctx.special_basis().len();
    for (what, skip) in [("sum", 1), ("c_0 limb", special_rows)] {
        let serial = upset(1, skip);
        assert_ne!(serial, clean, "a flipped {what} bit must reach the output");
        for threads in [2, 4] {
            assert_eq!(
                serial,
                upset(threads, skip),
                "{what}: firing order depends on the thread count"
            );
        }
    }
    assert_eq!(sum(&eval.prepare_plain(&mask, level).unwrap()), clean);
}
