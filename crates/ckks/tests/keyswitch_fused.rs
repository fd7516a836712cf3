//! The fused key-switch datapath against a digit-major reference.
//!
//! `Evaluator::keyswitch`, `apply_galois_hoisted` and `try_rotate_many` are
//! one limb-major engine (both key products summed by one blocked kernel,
//! one reduction per coefficient, key rows read by reference, the inverse
//! NTT and Moddown finished inside the limb task) and `moddown` is the same
//! two per-limb halves. The reference here is the loop they replaced,
//! written from public `RnsPoly` operations only — per digit
//! `lift → mul`, an `add` fold, `into_coeff`, then Moddown as
//! split / `rns_convert` / `sub` / `mul_scalar_per_prime`. Modular
//! arithmetic is exact, so the two must agree bit for bit, at every level,
//! every fan size and every thread count.

use std::sync::Arc;

use he_ckks::cipher::Plaintext;
use he_ckks::encoding::Complex;
use he_ckks::keys::KeySwitchKey;
use he_ckks::prelude::*;
use he_math::modops::add_mod;
use he_math::BarrettReducer;
use he_rns::conv::{moddown, modup, rns_convert, ModdownSplit};
use he_rns::{Form, LazyDot, RnsBasis, RnsPoly};
use poseidon_par::with_threads;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------
// The digit-major reference
// ---------------------------------------------------------------------------

/// Exact lift of one digit to the extended basis, in evaluation form.
fn lift(t: &[u64], ext: &RnsBasis) -> RnsPoly {
    let residues = ext
        .primes()
        .iter()
        .map(|&p| t.iter().map(|&v| v % p).collect())
        .collect();
    RnsPoly::from_residues(ext, residues, Form::Coeff).into_eval()
}

/// `Σ_j digit_j · (b_j, a_j)`: a reduction per product, an `add` per digit.
fn reference_inner_product(
    ctx: &CkksContext,
    level: usize,
    digits: &[RnsPoly],
    key: &KeySwitchKey,
) -> (RnsPoly, RnsPoly) {
    let mut acc: Option<(RnsPoly, RnsPoly)> = None;
    for (j, digit) in digits.iter().enumerate() {
        let (b, a) = key.sliced(ctx, j, level);
        let p0 = b.into_eval().mul(digit);
        let p1 = a.into_eval().mul(digit);
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
    let digits: Vec<RnsPoly> = (0..=level).map(|j| lift(d.residues(j), &ext)).collect();
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
    let digits: Vec<RnsPoly> = (0..=level)
        .map(|j| lift(ct.c1().residues(j), &ext).automorphism_eval(g))
        .collect();
    let (acc0, acc1) = reference_inner_product(ctx, level, &digits, key);
    let k0 = reference_moddown(&acc0.into_coeff(), level + 1);
    let k1 = reference_moddown(&acc1.into_coeff(), level + 1);
    Ciphertext::new(ct.c0().automorphism(g).add(&k0), k1, ct.scale())
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
    #[cfg(feature = "faults")]
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

/// A fan of R through `try_rotate_many` equals R single `try_rotate`s equals
/// the reference, and a conjugation (a Galois element that is no rotation)
/// equals the reference too — at every level, R ∈ {1, 2, 8}, every thread
/// count.
#[test]
fn a_fan_equals_its_single_rotations_and_the_reference_at_every_level() {
    #[cfg(feature = "faults")]
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

/// `moddown`, and its two halves called the way the engine calls them (on
/// loose rows, one limb at a time), equal `rns_convert` + `sub` +
/// `mul_scalar_per_prime` for one, two and three special primes.
#[test]
fn moddown_through_its_two_halves_equals_the_composition() {
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
    #[cfg(feature = "faults")]
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
        RnsPoly::from_i64_coeffs(full, &c)
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
                    RnsPoly::from_residues(full, rows, Form::Coeff)
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

/// A hoisted decomposition serves the ciphertext it was lifted from and no
/// other: rotating B with A's digits is refused, not computed.
#[test]
#[should_panic(expected = "lifted from another ciphertext")]
fn a_hoisted_decomposition_refuses_another_ciphertext() {
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
#[cfg(feature = "faults")]
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
/// and — where `into_coeff` used to fire it — both sums of every extended
/// limb on their way into the inverse NTT. Under an armed plan the engine
/// runs its limb tasks on the calling thread, in item order (stage A's
/// special limbs, then the chain limbs; within a limb its lifts, then its
/// sums), so an upset on either kind of row reaches the output identically
/// at every thread count. Hits: one per lifted row, plus the two sums.
#[cfg(feature = "faults")]
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

    let digit_count = d.level_count();
    let ext_len = digit_count + ctx.special_basis().len();
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
    for (what, skip) in [("lifted digit", ext_len + 1), ("sum", digit_count)] {
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

/// The same for a hoisted fan: past the hoist's own hits (its `into_eval`s)
/// the site fires on the engine's sums only, two per extended limb and
/// output, in item order whatever the team.
#[cfg(feature = "faults")]
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
    let hoist_hits = (ct.level() + 1) * ext_len;
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
