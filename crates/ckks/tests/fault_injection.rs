//! End-to-end fault-injection campaigns against the checked evaluator:
//! transient upsets must be absorbed by the detect-and-retry path and
//! persistent datapath faults must escalate to a typed error — never a
//! panic, never a silently wrong ciphertext.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::{integrity_stats, CheckedEvaluator, IntegrityStats};
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    (ctx, keys, rng)
}

fn encrypt(ctx: &CkksContext, keys: &KeySet, rng: &mut rand::rngs::StdRng, v: f64) -> Ciphertext {
    let z = vec![Complex::new(v, 0.0)];
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
        ctx.default_scale(),
    );
    keys.public().encrypt(&pt, rng)
}

#[test]
fn transient_residue_fault_is_retried_and_recovers() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.25);
    let b = encrypt(&ctx, &keys, &mut rng, -0.5);
    let checked = CheckedEvaluator::new(&ctx);
    let clean = checked.inner().try_mul(&a, &b, &keys).unwrap();

    let before = integrity_stats();
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::RnsResidue,
        FaultKind::BitFlip,
        0x5EED,
    ));
    let got = checked.mul(&a, &b, &keys).expect("transient must recover");
    poseidon_faults::disarm();
    let after = integrity_stats();

    assert!(poseidon_faults::fired() > 0, "the fault never fired");
    assert_eq!(got, clean, "recovered result must match the clean run");
    assert!(after.detected > before.detected, "upset went undetected");
    assert!(after.retried > before.retried, "recovery not counted");
    assert_eq!(after.escalated, before.escalated, "transient escalated");
}

#[test]
fn persistent_residue_fault_escalates_to_typed_error() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 2.0);
    let b = encrypt(&ctx, &keys, &mut rng, 3.0);
    let checked = CheckedEvaluator::new(&ctx);

    let before = integrity_stats();
    poseidon_faults::arm(FaultPlan::persistent(
        FaultSite::RnsResidue,
        FaultKind::StuckAt(0),
        0xBAD,
    ));
    let got = checked.mul(&a, &b, &keys);
    poseidon_faults::disarm();
    let after = integrity_stats();

    match got {
        Err(EvalError::IntegrityFault { .. }) => {}
        other => panic!("expected IntegrityFault, got {other:?}"),
    }
    assert!(after.escalated > before.escalated, "escalation not counted");
}

#[test]
fn transient_key_cache_fault_on_rotation_recovers() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.75);
    let checked = CheckedEvaluator::new(&ctx);
    // A clean pass for comparison; the armed plan then targets the stored
    // key rows the duplicated runs read.
    let clean = checked.inner().try_rotate(&a, 1, &keys).unwrap();

    let before = integrity_stats();
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::KeyCache,
        FaultKind::DoubleBitFlip,
        0x1234,
    ));
    let got = checked
        .rotate(&a, 1, &keys)
        .expect("transient must recover");
    poseidon_faults::disarm();
    let after = integrity_stats();

    if poseidon_faults::fired() > 0 {
        assert!(after.detected > before.detected, "upset went undetected");
    }
    assert_eq!(got, clean, "recovered rotation must match the clean run");
    assert_eq!(after.escalated, before.escalated, "transient escalated");
}

#[test]
fn persistent_faults_never_panic_across_sites_and_ops() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.0);
    let b = encrypt(&ctx, &keys, &mut rng, -1.0);
    let checked = CheckedEvaluator::new(&ctx);

    for site in [
        FaultSite::RnsResidue,
        FaultSite::NttTwiddle,
        FaultSite::KeyCache,
    ] {
        for seed in [1u64, 2, 3] {
            poseidon_faults::arm(FaultPlan::persistent(site, FaultKind::BitFlip, seed));
            // Any outcome is acceptable except a panic or a wrong answer:
            // either every duplicated run was corrupted identically-never
            // (escalation), or the site was not exercised by this op and
            // the clean result came back.
            let mul = checked.mul(&a, &b, &keys);
            let rot = checked.rotate(&a, 1, &keys);
            poseidon_faults::disarm();
            for res in [mul, rot] {
                match res {
                    Ok(ct) => {
                        assert!(ct.scale() > 0.0, "nonsense ciphertext returned")
                    }
                    Err(EvalError::IntegrityFault { .. }) => {}
                    Err(other) => panic!("unexpected error class: {other}"),
                }
            }
        }
    }
}

#[test]
fn checked_ops_are_clean_passthrough_when_disarmed() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.5);
    let b = encrypt(&ctx, &keys, &mut rng, 0.25);
    let checked = CheckedEvaluator::new(&ctx);
    let eval = Evaluator::new(&ctx);

    let before = integrity_stats();
    assert_eq!(checked.add(&a, &b).unwrap(), eval.try_add(&a, &b).unwrap());
    let prod = checked.mul(&a, &b, &keys).unwrap();
    assert_eq!(prod, eval.try_mul(&a, &b, &keys).unwrap());
    assert_eq!(
        checked.rescale(&prod).unwrap(),
        eval.try_rescale(&prod).unwrap()
    );
    let after = integrity_stats();
    assert!(after.checked >= before.checked + 3, "checks not counted");
    assert_eq!(after.detected, before.detected, "false positive detection");
}

/// A product relinearises inside the key-switch engine: `d̂_0` and `d̂_1`
/// join the chain-limb rows there, and digit `i` on limb `i` is `d̂_2`'s own
/// residue. An upset on the product's first transform or on its last (a
/// joined row on its way into the engine's last inverse NTT) is retried and
/// recovers to the clean result, through a checked `mul` and a checked
/// `square`, at the `RnsResidue` and the `NttTwiddle` site; a persistent
/// fault at either site escalates to `IntegrityFault`.
#[test]
fn product_faults_on_the_engine_path_land_in_their_buckets() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.5);
    let b = encrypt(&ctx, &keys, &mut rng, -0.75);
    let checked = CheckedEvaluator::new(&ctx);
    type CheckedOp<'a> = &'a dyn Fn() -> Result<Ciphertext, EvalError>;
    let ops: [(&str, CheckedOp); 2] = [
        ("mul", &|| checked.mul(&a, &b, &keys)),
        ("square", &|| checked.square(&a, &keys)),
    ];
    let deltas = |before: IntegrityStats| {
        let after = integrity_stats();
        [
            after.detected - before.detected,
            after.retried - before.retried,
            after.escalated - before.escalated,
        ]
    };

    for (op, run) in ops {
        let clean = run().expect("no fault armed");
        for site in [FaultSite::RnsResidue, FaultSite::NttTwiddle] {
            // The hits of one of the two duplicated runs, counted under a
            // plan that never fires.
            poseidon_faults::arm(FaultPlan::transient(site, FaultKind::BitFlip, 1).after(u64::MAX));
            run().expect("the plan never fires");
            let hits = poseidon_faults::site_hits(site) / 2;
            poseidon_faults::disarm();

            for skip in [0, hits - 1] {
                let at = format!("{op}, {site:?}, transient after {skip} of {hits} hits");
                let before = integrity_stats();
                poseidon_faults::arm(
                    FaultPlan::transient(site, FaultKind::BitFlip, 0x5EED).after(skip),
                );
                let got = run();
                let fired = poseidon_faults::fired();
                poseidon_faults::disarm();
                assert_eq!(fired, 1, "{at}: the upset never fired");
                assert_eq!(
                    got.as_ref(),
                    Ok(&clean),
                    "{at}: no recovery to the clean run"
                );
                assert_eq!(
                    deltas(before),
                    [1, 1, 0],
                    "{at}: detected/retried/escalated"
                );
            }

            let at = format!("{op}, {site:?}, persistent");
            let before = integrity_stats();
            poseidon_faults::arm(FaultPlan::persistent(site, FaultKind::BitFlip, 0xBAD));
            let got = run();
            poseidon_faults::disarm();
            assert!(
                matches!(got, Err(EvalError::IntegrityFault { .. })),
                "{at}: expected IntegrityFault, got {got:?}"
            );
            assert_eq!(
                deltas(before),
                [1, 0, 1],
                "{at}: detected/retried/escalated"
            );
        }
    }
}

/// A key-row upset at or above bit 52, on a 40-bit limb of a checked
/// rotation. The AVX-512 IFMA inner product multiplies the low 52 bits of
/// each residue, which such a flip leaves as they were: summed there, the
/// upset would pass unseen. The kernel's operand guard sends the call to the
/// scalar kernel instead, whose sum the flip does move, so a transient upset
/// is detected and retried (1/1/0) and a persistent one escalates (1/0/1),
/// on a CPU with IFMA or without.
#[test]
fn key_row_upsets_past_52_bits_are_detected() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.75);
    let checked = CheckedEvaluator::new(&ctx);
    let clean = checked.inner().try_rotate(&a, 1, &keys).unwrap();
    // The key rows are read digit by digit, `b` then `a`, each limb by limb:
    // the second row read is `b_0` on limb 1, a 40-bit prime.
    let skip = 1;
    assert_eq!(64 - ctx.chain_basis().primes()[1].leading_zeros(), 40);
    let plan = |make: fn(FaultSite, FaultKind, u64) -> FaultPlan, seed| {
        make(FaultSite::KeyCache, FaultKind::BitFlip, seed)
            .width(63)
            .after(skip)
    };
    // The first seed whose flip on that row lands at bit 52 or above, read
    // from the injector itself on a blank row.
    let flipped_bit = |seed| {
        poseidon_faults::arm(plan(FaultPlan::transient, seed));
        let mut row = vec![0u64; ctx.n()];
        for _ in 0..=skip {
            poseidon_faults::tamper(FaultSite::KeyCache, &mut row);
        }
        poseidon_faults::disarm();
        row.iter().fold(0, |bits, w| bits | w).trailing_zeros()
    };
    let seed = (0..64)
        .find(|&seed| flipped_bit(seed) >= 52)
        .expect("a seed that flips bit 52 or above");
    let deltas = |before: IntegrityStats| {
        let after = integrity_stats();
        [
            after.detected - before.detected,
            after.retried - before.retried,
            after.escalated - before.escalated,
        ]
    };

    let before = integrity_stats();
    poseidon_faults::arm(plan(FaultPlan::transient, seed));
    let got = checked.rotate(&a, 1, &keys);
    let fired = poseidon_faults::fired();
    poseidon_faults::disarm();
    assert_eq!(fired, 1, "the upset never fired");
    assert_eq!(got, Ok(clean), "no recovery to the clean run");
    assert_eq!(
        deltas(before),
        [1, 1, 0],
        "transient: detected/retried/escalated"
    );

    let before = integrity_stats();
    poseidon_faults::arm(plan(FaultPlan::persistent, seed));
    let got = checked.rotate(&a, 1, &keys);
    poseidon_faults::disarm();
    assert!(
        matches!(got, Err(EvalError::IntegrityFault { .. })),
        "persistent: expected IntegrityFault, got {got:?}"
    );
    assert_eq!(
        deltas(before),
        [1, 0, 1],
        "persistent: detected/retried/escalated"
    );
}

/// A transform-input upset at or above bit 52, on a limb that takes the
/// AVX-512 IFMA transform: a product's first transform, which takes an
/// operand's chain limb into evaluation form, and every chain prime is
/// below 2^50. `vpmadd52` multiplies the low 52 bits of each word, which such a
/// flip leaves as they were; the vector transform's input guard sends the
/// call to the scalar kernel instead, whose output the flip does move, so a
/// transient upset is detected and retried (1/1/0) and a persistent one
/// escalates (1/0/1), on a CPU with IFMA or without.
#[test]
fn transform_upsets_past_52_bits_are_detected() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.75);
    let b = encrypt(&ctx, &keys, &mut rng, -0.5);
    let checked = CheckedEvaluator::new(&ctx);
    let clean = checked.inner().try_mul(&a, &b, &keys).unwrap();
    assert!(
        ctx.chain_basis().primes().iter().all(|&q| q < 1 << 50),
        "every chain limb takes the vector transform"
    );
    let plan = |make: fn(FaultSite, FaultKind, u64) -> FaultPlan, seed| {
        make(FaultSite::NttTwiddle, FaultKind::BitFlip, seed).width(63)
    };
    // The first seed whose first flip lands at bit 52 or above, read from
    // the injector itself on a blank row.
    let flipped_bit = |seed| {
        poseidon_faults::arm(plan(FaultPlan::transient, seed));
        let mut row = vec![0u64; ctx.n()];
        poseidon_faults::tamper(FaultSite::NttTwiddle, &mut row);
        poseidon_faults::disarm();
        row.iter().fold(0, |bits, w| bits | w).trailing_zeros()
    };
    let seed = (0..64)
        .find(|&seed| flipped_bit(seed) >= 52)
        .expect("a seed that flips bit 52 or above");
    let deltas = |before: IntegrityStats| {
        let after = integrity_stats();
        [
            after.detected - before.detected,
            after.retried - before.retried,
            after.escalated - before.escalated,
        ]
    };

    let before = integrity_stats();
    poseidon_faults::arm(plan(FaultPlan::transient, seed));
    let got = checked.mul(&a, &b, &keys);
    let fired = poseidon_faults::fired();
    poseidon_faults::disarm();
    assert_eq!(fired, 1, "the upset never fired");
    assert_eq!(got, Ok(clean), "no recovery to the clean run");
    assert_eq!(
        deltas(before),
        [1, 1, 0],
        "transient: detected/retried/escalated"
    );

    let before = integrity_stats();
    poseidon_faults::arm(plan(FaultPlan::persistent, seed));
    let got = checked.mul(&a, &b, &keys);
    poseidon_faults::disarm();
    assert!(
        matches!(got, Err(EvalError::IntegrityFault { .. })),
        "persistent: expected IntegrityFault, got {got:?}"
    );
    assert_eq!(
        deltas(before),
        [1, 0, 1],
        "persistent: detected/retried/escalated"
    );
}
