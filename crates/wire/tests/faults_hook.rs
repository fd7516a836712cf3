//! Corrupt-on-decode fault hook: with a `WireFrame` plan armed, decode
//! entry points tamper a *copy* of the incoming bytes before parsing —
//! the checksum must turn the injected link corruption into a typed
//! error, and the caller's buffer must stay pristine.

use he_ckks::cipher::Ciphertext;
use he_ckks::context::CkksContext;
use he_ckks::params::CkksParams;
use he_rns::{Form, RnsPoly};
use poseidon_faults::{FaultKind, FaultPlan, FaultSite};
use poseidon_wire::WireError;
use rand::{Rng, SeedableRng};

fn frame_under_test() -> (CkksContext, Vec<u8>) {
    let params = CkksParams {
        n: 16,
        first_prime_bits: 30,
        scale_prime_bits: 25,
        chain_len: 3,
        special_len: 1,
        special_prime_bits: 31,
        scale: (1u64 << 25) as f64,
        error_std: 3.2,
    };
    let ctx = CkksContext::new(params);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let basis = ctx.level_basis(1);
    let rows = |rng: &mut rand::rngs::StdRng| {
        basis
            .primes()
            .iter()
            .map(|&q| (0..basis.n()).map(|_| rng.gen_range(0..q)).collect())
            .collect()
    };
    let c0 = RnsPoly::from_residues(&basis, rows(&mut rng), Form::Coeff);
    let c1 = RnsPoly::from_residues(&basis, rows(&mut rng), Form::Coeff);
    let ct = Ciphertext::new(c0, c1, ctx.default_scale());
    let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
    (ctx, bytes)
}

#[test]
fn armed_wire_fault_is_caught_as_a_typed_error_and_input_stays_clean() {
    let _guard = poseidon_faults::test_lock();
    let (ctx, bytes) = frame_under_test();
    let pristine = bytes.clone();

    poseidon_faults::arm(FaultPlan::transient(
        FaultSite::WireFrame,
        FaultKind::BitFlip,
        0xBAD_11AC,
    ));
    let result = poseidon_wire::decode_ciphertext(&ctx, &bytes);
    poseidon_faults::disarm();

    match result {
        // Depending on which byte the seeded plan hits, the flip surfaces
        // as a checksum/field error — never as a panic, never as success.
        Err(
            WireError::ChecksumMismatch { .. }
            | WireError::BadMagic
            | WireError::UnsupportedVersion { .. }
            | WireError::UnknownKind(_)
            | WireError::LengthMismatch { .. }
            | WireError::Truncated { .. }
            | WireError::Malformed(_),
        ) => {}
        other => panic!("expected a typed decode error, got {other:?}"),
    }
    assert_eq!(poseidon_faults::site_hits(FaultSite::WireFrame), 1);
    assert_eq!(bytes, pristine, "caller's buffer must not be mutated");

    // Transient plan: the next decode sees clean bytes and succeeds.
    let back = poseidon_wire::decode_ciphertext(&ctx, &bytes).expect("clean decode");
    assert_eq!(poseidon_wire::encode_ciphertext(&ctx, &back), bytes);
}
