//! A persistent datapath fault during a checked op comes
//! back as a per-request `IntegrityFault` response — the dispatcher and
//! the other tenants keep running.

use he_ckks::cipher::Plaintext;
use he_ckks::context::CkksContext;
use he_ckks::encoding::Complex;
use he_ckks::error::EvalError;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
use poseidon_serve::{EvalService, Request, ServeError, ServiceConfig};
use rand::SeedableRng;

#[test]
fn persistent_fault_escalates_per_request_and_service_survives() {
    let _guard = poseidon_faults::test_lock();
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA17);
    let keys = KeySet::generate(&ctx, &mut rng);
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(
            ctx.chain_basis(),
            &[Complex::new(0.5, 0.0)],
            ctx.default_scale(),
        ),
        ctx.default_scale(),
    );
    let a = keys.public().encrypt(&pt, &mut rng);
    let b = keys.public().encrypt(&pt, &mut rng);

    let service = EvalService::start(ServiceConfig::default());
    service.register_tenant("acme", &keys);

    // A persistent stuck-at corruption on RNS residues: duplicate
    // executions are corrupted differently, so the checked evaluator
    // detects, retries, detects again, and escalates.
    poseidon_faults::arm(FaultPlan::persistent(
        FaultSite::RnsResidue,
        FaultKind::StuckAt(0),
        0xDEAD,
    ));
    let result = service.call(
        "acme",
        Request::Mul {
            a: a.clone(),
            b: b.clone(),
        },
    );
    poseidon_faults::disarm();

    match result {
        Err(ServeError::Eval(EvalError::IntegrityFault { .. })) => {}
        other => panic!("expected an integrity escalation, got {other:?}"),
    }

    // Faults disarmed: the same request now succeeds on the same,
    // still-running service.
    service
        .call("acme", Request::Mul { a, b })
        .expect("post-fault mul");
}
