//! Fault-injection campaigns against the machine's MA-core retire check:
//! the ABFT sum invariant must catch residue corruption at the operator
//! retire boundary, recompute once, and escalate persistent faults as a
//! typed error instead of panicking.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::integrity::integrity_stats;
use he_ckks::prelude::*;
use poseidon_core::{HomomorphicOps, PoseidonMachine};
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
use rand::SeedableRng;

fn setup() -> (CkksContext, KeySet, rand::rngs::StdRng) {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17);
    let keys = KeySet::generate(&ctx, &mut rng);
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
fn retire_check_recovers_from_transient_residue_fault() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 1.5);
    let b = encrypt(&ctx, &keys, &mut rng, -0.25);
    let mut m = PoseidonMachine::new(&ctx, 256, 3);
    let clean = m.try_add(&a, &b).unwrap();

    let before = integrity_stats();
    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::RnsResidue,
        FaultKind::BitFlip,
        0xA11CE,
    ));
    let got = m.try_add(&a, &b).expect("transient must recover");
    poseidon_faults::disarm();
    let after = integrity_stats();

    assert!(poseidon_faults::fired() > 0, "the fault never fired");
    assert_eq!(got, clean, "recomputed sum must match the clean run");
    assert!(after.detected > before.detected, "retire check missed it");
    assert!(after.retried > before.retried, "recompute not counted");
    assert_eq!(after.escalated, before.escalated, "transient escalated");
}

#[test]
fn retire_check_escalates_persistent_fault_without_panicking() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 2.0);
    let b = encrypt(&ctx, &keys, &mut rng, 0.5);
    let mut m = PoseidonMachine::new(&ctx, 256, 3);

    let before = integrity_stats();
    poseidon_faults::arm(FaultPlan::persistent(
        FaultSite::RnsResidue,
        FaultKind::BitFlip,
        0xDEAD,
    ));
    let hadd = m.try_add(&a, &b);
    let hsub = m.try_sub(&a, &b);
    poseidon_faults::disarm();
    let after = integrity_stats();

    for res in [hadd, hsub] {
        match res {
            Err(EvalError::IntegrityFault { site }) => {
                assert_eq!(site, "pool.retire");
            }
            other => panic!("expected IntegrityFault, got {other:?}"),
        }
    }
    assert!(after.escalated >= before.escalated + 2, "not escalated");
}

#[test]
fn every_sum_check_passes_on_a_clean_machine() {
    let _guard = poseidon_faults::test_lock();
    poseidon_faults::disarm();
    let (ctx, keys, mut rng) = setup();
    let a = encrypt(&ctx, &keys, &mut rng, 0.5);
    let b = encrypt(&ctx, &keys, &mut rng, 0.125);
    let mut m = PoseidonMachine::new(&ctx, 256, 3);

    let before = integrity_stats();
    let sum = m.try_add(&a, &b).expect("clean");
    let diff = m.try_sub(&a, &b).expect("clean");
    let after = integrity_stats();

    assert!(after.checked >= before.checked + 2, "checks not counted");
    assert_eq!(after.detected, before.detected, "false positive");
    let pt = keys.secret().decrypt(&m.try_add(&sum, &diff).unwrap());
    let got = ctx.encoder().decode_rns(pt.poly(), pt.scale(), 1)[0].re;
    // (a + b) + (a - b) = 2a
    assert!((got - 1.0).abs() < 1e-3, "clean arithmetic drifted: {got}");
}
