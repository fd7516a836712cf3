//! Round-trip bit-exactness: every object kind, across parameter presets
//! and every level of the modulus chain, must survive encode → decode →
//! re-encode with identical bytes and identical residues.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use he_rns::{Form, RnsBasis, RnsPoly};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Sub-toy parameters so exhaustive sweeps stay fast.
fn tiny_params() -> CkksParams {
    CkksParams {
        n: 16,
        first_prime_bits: 30,
        scale_prime_bits: 25,
        chain_len: 3,
        special_len: 1,
        special_prime_bits: 31,
        scale: (1u64 << 25) as f64,
        error_std: 3.2,
    }
}

/// A syntactically valid poly with pseudorandom residues (`< q_j`) — the
/// wire layer marshals residue matrices and never interprets them, so
/// random data exercises it as well as real ciphertexts do.
fn random_poly(basis: &RnsBasis, rng: &mut rand::rngs::StdRng) -> RnsPoly {
    let rows = basis
        .primes()
        .iter()
        .map(|&q| (0..basis.n()).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    RnsPoly::from_residues(basis, rows, Form::Coeff)
}

#[test]
fn params_round_trip_all_presets() {
    for params in [
        tiny_params(),
        CkksParams::toy(),
        CkksParams::small(),
        CkksParams::paper_32bit(1 << 13, 6),
        CkksParams::bootstrap_demo(),
    ] {
        let bytes = poseidon_wire::encode_params(&params);
        let back = poseidon_wire::decode_params(&bytes).expect("valid frame");
        assert_eq!(back, params);
        assert_eq!(
            poseidon_wire::encode_params(&back),
            bytes,
            "re-encode drifted"
        );
    }
}

#[test]
fn ciphertext_round_trip_bit_exact_at_every_level() {
    for params in [tiny_params(), CkksParams::toy()] {
        let chain_len = params.chain_len;
        let ctx = CkksContext::new(params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x11CE);
        for level in 0..chain_len {
            let basis = ctx.level_basis(level);
            let ct = Ciphertext::new(
                random_poly(&basis, &mut rng),
                random_poly(&basis, &mut rng),
                ctx.default_scale() * 1.5,
            );
            let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
            let back = poseidon_wire::decode_ciphertext(&ctx, &bytes).expect("valid frame");
            assert_eq!(back.c0(), ct.c0(), "c0 drift at level {level}");
            assert_eq!(back.c1(), ct.c1(), "c1 drift at level {level}");
            assert_eq!(back.scale().to_bits(), ct.scale().to_bits());
            assert_eq!(back.level(), level);
            assert_eq!(poseidon_wire::encode_ciphertext(&ctx, &back), bytes);
        }
    }
}

#[test]
fn plaintext_round_trip_bit_exact_at_every_level() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9147);
    for level in 0..ctx.chain_basis().len() {
        let basis = ctx.level_basis(level);
        let pt = Plaintext::new(random_poly(&basis, &mut rng), ctx.default_scale());
        let bytes = poseidon_wire::encode_plaintext(&ctx, &pt);
        let back = poseidon_wire::decode_plaintext(&ctx, &bytes).expect("valid frame");
        assert_eq!(back.poly(), pt.poly(), "residue drift at level {level}");
        assert_eq!(back.scale().to_bits(), pt.scale().to_bits());
        assert_eq!(poseidon_wire::encode_plaintext(&ctx, &back), bytes);
    }
}

#[test]
fn encrypted_ciphertext_survives_the_wire_and_decrypts() {
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let keys = KeySet::generate(&ctx, &mut rng);
    let values: Vec<_> = (0..ctx.params().slots())
        .map(|i| he_ckks::encoding::Complex::new(i as f64 * 0.01, -(i as f64) * 0.02))
        .collect();
    let pt = Plaintext::new(
        ctx.encoder()
            .encode_rns(ctx.chain_basis(), &values, ctx.default_scale()),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);

    let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
    let back = poseidon_wire::decode_ciphertext(&ctx, &bytes).expect("valid frame");
    let dec = keys.secret().decrypt(&back);
    let decoded = ctx
        .encoder()
        .decode_rns(dec.poly(), dec.scale(), values.len());
    for (got, want) in decoded.iter().zip(&values) {
        assert!((got.re - want.re).abs() < 1e-3 && (got.im - want.im).abs() < 1e-3);
    }
}

#[test]
fn keyset_round_trip_with_secret_is_bit_exact_and_functional() {
    let params = CkksParams::toy();
    let ctx = CkksContext::new(params);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, -2, 5], &mut rng);
    keys.add_conjugation_key(&mut rng);

    let bytes = poseidon_wire::encode_keyset(&ctx, &keys);
    let (ctx2, keys2) = poseidon_wire::decode_keyset(&bytes).expect("valid frame");
    assert_eq!(ctx2.params(), ctx.params());
    assert_eq!(ctx2.chain_basis().primes(), ctx.chain_basis().primes());
    // One context, shared: the decoded key set holds the very context the
    // decoder returns, not a copy of it.
    assert!(std::ptr::eq(keys2.context().encoder(), ctx2.encoder()));
    assert!(std::ptr::eq(
        keys2.context().chain_basis(),
        ctx2.chain_basis()
    ));
    assert_eq!(keys2.secret().coeffs(), keys.secret().coeffs());
    assert_eq!(keys2.relin().pairs(), keys.relin().pairs());
    assert_eq!(keys2.galois_entries().len(), keys.galois_entries().len());
    for ((g1, k1), (g2, k2)) in keys
        .galois_entries()
        .iter()
        .zip(keys2.galois_entries().iter())
    {
        assert_eq!(g1, g2);
        assert_eq!(k1.pairs(), k2.pairs());
    }
    // Deterministic bytes: the Galois map is a HashMap, but the wire order
    // is sorted, so re-encoding the decoded set reproduces the frame.
    assert_eq!(poseidon_wire::encode_keyset(&ctx2, &keys2), bytes);

    // The reconstituted keys still decrypt what the originals encrypt.
    let pt = Plaintext::new(
        ctx.encoder().encode_rns(
            ctx.chain_basis(),
            &[he_ckks::encoding::Complex::new(0.5, 0.25)],
            ctx.default_scale(),
        ),
        ctx.default_scale(),
    );
    let ct = keys.public().encrypt(&pt, &mut rng);
    let dec = keys2.secret().decrypt(&ct);
    let decoded = ctx2.encoder().decode_rns(dec.poly(), dec.scale(), 1);
    assert!((decoded[0].re - 0.5).abs() < 1e-3);
}

/// Key frame bytes are pinned across commits, not just re-encoded within
/// one build: a change to how keys are generated, stored or encoded that
/// moves a single wire byte fails here.
#[test]
fn key_frame_bytes_are_pinned() {
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let ctx = CkksContext::new(CkksParams::toy());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4B45_5953);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_keys([1, -2, 5], &mut rng);
    keys.add_conjugation_key(&mut rng);
    let got = fnv(&poseidon_wire::encode_keyset(&ctx, &keys));
    let pinned = 0x1ed6_3a11_bae8_c161u64;
    assert_eq!(
        got, pinned,
        "keyset frame digest moved: got {got:#018x}, pinned {pinned:#018x}. A legitimate \
         change updates this constant."
    );
}

#[test]
fn public_keyset_omits_the_secret() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAFE);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);

    let public_bytes = poseidon_wire::encode_keyset_public(&ctx, &keys);
    let full_bytes = poseidon_wire::encode_keyset(&ctx, &keys);
    assert_eq!(
        full_bytes.len() - public_bytes.len(),
        ctx.n() * 8,
        "public frame should drop exactly the N secret coefficients"
    );
    let (_, pub_keys) = poseidon_wire::decode_keyset(&public_bytes).expect("valid frame");
    assert!(pub_keys.secret().coeffs().iter().all(|&c| c == 0));
    assert_eq!(pub_keys.relin().pairs(), keys.relin().pairs());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random residue matrices at random levels and scales round-trip
    /// word-for-word.
    #[test]
    fn prop_ciphertext_round_trip(seed in 0u64..1024, level in 0usize..3, scale_exp in 10u32..50) {
        let ctx = CkksContext::new(tiny_params());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let basis = ctx.level_basis(level);
        let ct = Ciphertext::new(
            random_poly(&basis, &mut rng),
            random_poly(&basis, &mut rng),
            (1u64 << scale_exp) as f64,
        );
        let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
        let back = poseidon_wire::decode_ciphertext(&ctx, &bytes).expect("valid frame");
        prop_assert_eq!(back.c0(), ct.c0());
        prop_assert_eq!(back.c1(), ct.c1());
        prop_assert_eq!(back.scale().to_bits(), ct.scale().to_bits());
        prop_assert_eq!(poseidon_wire::encode_ciphertext(&ctx, &back), bytes);
    }
}
