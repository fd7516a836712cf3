//! Adversarial decode corpus: truncation at every byte boundary, a bit
//! flip at every bit position, version skew, kind confusion, and
//! field-level garbage. Every case must come back as a typed
//! [`poseidon_wire::WireError`], from the copying and the pooled
//! decoders alike — a panic anywhere here is a bug.

use std::time::{Duration, Instant};

use he_ckks::cipher::Ciphertext;
use he_ckks::context::CkksContext;
use he_ckks::keys::KeySet;
use he_ckks::params::CkksParams;
use he_rns::{Form, RnsBasis, RnsPoly};
use poseidon_wire::{
    decode_ciphertext_pooled, decode_plaintext_pooled, BufferPool, KeysetAssembler, Kind,
    WireError, HEADER_LEN, MAGIC, VERSION,
};
use rand::{Rng, SeedableRng};

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

fn random_poly(basis: &RnsBasis, rng: &mut rand::rngs::StdRng) -> RnsPoly {
    let rows = basis
        .primes()
        .iter()
        .map(|&q| (0..basis.n()).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    RnsPoly::from_residues(basis, rows, Form::Coeff)
}

fn tiny_ciphertext_frame() -> (CkksContext, Vec<u8>) {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15EA5E);
    let basis = ctx.level_basis(2);
    let ct = Ciphertext::new(
        random_poly(&basis, &mut rng),
        random_poly(&basis, &mut rng),
        ctx.default_scale(),
    );
    let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
    (ctx, bytes)
}

/// Decoding dispatched on the frame's own kind — used to prove that *no*
/// decoder panics on a corrupt frame, whatever the bytes claim to be.
fn decode_any(ctx: &CkksContext, bytes: &[u8]) -> Result<(), WireError> {
    match poseidon_wire::peek_kind(bytes) {
        Ok(Kind::Params) => poseidon_wire::decode_params(bytes).map(|_| ()),
        Ok(Kind::Plaintext) => poseidon_wire::decode_plaintext(ctx, bytes).map(|_| ()),
        Ok(Kind::Ciphertext) => poseidon_wire::decode_ciphertext(ctx, bytes).map(|_| ()),
        Ok(Kind::KeySwitchKey) => poseidon_wire::decode_keyswitch_key(ctx, bytes).map(|_| ()),
        Ok(Kind::KeySet) => poseidon_wire::decode_keyset(bytes).map(|_| ()),
        Ok(Kind::KeySetChunk) => KeysetAssembler::new().accept(bytes).map(|_| ()),
        Err(e) => Err(e),
    }
}

/// The kind-dispatched decoders plus both pooled decoders, labelled: each
/// one must refuse a corrupt frame on its own.
fn decode_all(ctx: &CkksContext, bytes: &[u8]) -> [(&'static str, Result<(), WireError>); 3] {
    let pool = BufferPool::new(64);
    [
        ("by kind", decode_any(ctx, bytes)),
        (
            "pooled ciphertext",
            decode_ciphertext_pooled(ctx, bytes, &pool).map(|_| ()),
        ),
        (
            "pooled plaintext",
            decode_plaintext_pooled(ctx, bytes, &pool).map(|_| ()),
        ),
    ]
}

#[test]
fn truncation_at_every_byte_boundary_is_a_typed_error() {
    let (ctx, bytes) = tiny_ciphertext_frame();
    for len in 0..bytes.len() {
        for (decoder, result) in decode_all(&ctx, &bytes[..len]) {
            let err = result.expect_err(&format!("{decoder}: prefix of {len} bytes decoded"));
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "{decoder}: prefix of {len} bytes gave {err:?}, expected Truncated"
            );
        }
    }
}

#[test]
fn bit_flip_at_every_position_is_a_typed_error() {
    let (ctx, bytes) = tiny_ciphertext_frame();
    for byte_idx in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte_idx] ^= 1 << bit;
            for (decoder, result) in decode_all(&ctx, &corrupt) {
                let err = result.expect_err(&format!(
                    "{decoder}: flip of byte {byte_idx} bit {bit} decoded successfully"
                ));
                // The checksum spans everything after the magic, so a flip
                // is caught either by a field validation or by the checksum.
                match byte_idx {
                    0..=7 => assert_eq!(err, WireError::BadMagic, "{decoder}"),
                    8..=9 => assert!(
                        matches!(err, WireError::UnsupportedVersion { .. }),
                        "{decoder}: {err:?}"
                    ),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn trailing_garbage_is_a_length_mismatch() {
    let (ctx, mut bytes) = tiny_ciphertext_frame();
    bytes.push(0);
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &bytes),
        Err(WireError::LengthMismatch { .. })
    ));
}

#[test]
fn version_skew_is_reported_with_both_versions() {
    let (ctx, mut bytes) = tiny_ciphertext_frame();
    let future = VERSION + 1;
    bytes[8..10].copy_from_slice(&future.to_le_bytes());
    match poseidon_wire::decode_ciphertext(&ctx, &bytes) {
        Err(WireError::UnsupportedVersion { got, supported }) => {
            assert_eq!(got, future);
            assert_eq!(supported, VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_kind_and_kind_confusion_are_typed() {
    let (ctx, bytes) = tiny_ciphertext_frame();
    // peek_kind on a junk kind byte (header checksum not consulted there).
    let mut junk = bytes.clone();
    junk[10] = 0xEE;
    assert_eq!(
        poseidon_wire::peek_kind(&junk),
        Err(WireError::UnknownKind(0xEE))
    );
    // The intact frame's header: its kind and an empty flag byte.
    assert_eq!(poseidon_wire::peek_kind(&bytes), Ok(Kind::Ciphertext));
    let (kind, flags, _) = poseidon_wire::parse_frame(&bytes).unwrap();
    assert_eq!((kind, flags), (Kind::Ciphertext, 0));
    // A well-formed ciphertext frame handed to either plaintext decoder.
    let pool = BufferPool::new(8);
    for result in [
        poseidon_wire::decode_plaintext(&ctx, &bytes),
        decode_plaintext_pooled(&ctx, &bytes, &pool),
    ] {
        match result {
            Err(WireError::KindMismatch { expected, got }) => {
                assert_eq!(expected, Kind::Plaintext);
                assert_eq!(got, Kind::Ciphertext);
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }
    }
}

#[test]
fn not_a_frame_at_all() {
    let ctx = CkksContext::new(tiny_params());
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, b"hello"),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, b"NOTPOSEIDONWIREDATA_"),
        Err(WireError::BadMagic)
    ));
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &[]),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn foreign_context_is_a_context_mismatch() {
    let (_, bytes) = tiny_ciphertext_frame();
    let other = CkksContext::new(CkksParams::toy());
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&other, &bytes),
        Err(WireError::ContextMismatch(_))
    ));
    assert!(matches!(
        decode_ciphertext_pooled(&other, &bytes, &BufferPool::new(8)),
        Err(WireError::ContextMismatch(_))
    ));
}

/// A 36-byte frame whose header declares a payload so long that header,
/// payload and trailer together overflow the address space: every
/// decoder — the pooled ones, the key-set decoder and the chunk
/// assembler included — refuses it as a truncated payload, naming the
/// declared length rather than a wrapped total.
#[test]
fn overflowing_payload_length_is_a_typed_error() {
    let ctx = CkksContext::new(tiny_params());
    let pool = BufferPool::new(8);
    for payload_len in [u64::MAX - 27, u64::MAX - 5, u64::MAX] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&[1, 0]); // Kind::Params, no flags
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(&[0; 16]);
        assert_eq!(frame.len(), 36);
        let results = [
            (
                "parse_frame",
                poseidon_wire::parse_frame(&frame).map(|_| ()),
            ),
            ("peek_kind", poseidon_wire::peek_kind(&frame).map(|_| ())),
            ("params", poseidon_wire::decode_params(&frame).map(|_| ())),
            (
                "plaintext",
                poseidon_wire::decode_plaintext(&ctx, &frame).map(|_| ()),
            ),
            (
                "pooled plaintext",
                decode_plaintext_pooled(&ctx, &frame, &pool).map(|_| ()),
            ),
            (
                "ciphertext",
                poseidon_wire::decode_ciphertext(&ctx, &frame).map(|_| ()),
            ),
            (
                "pooled ciphertext",
                decode_ciphertext_pooled(&ctx, &frame, &pool).map(|_| ()),
            ),
            (
                "keyswitch key",
                poseidon_wire::decode_keyswitch_key(&ctx, &frame).map(|_| ()),
            ),
            ("keyset", poseidon_wire::decode_keyset(&frame).map(|_| ())),
            (
                "chunk assembler",
                KeysetAssembler::new().accept(&frame).map(|_| ()),
            ),
        ];
        let needed = usize::try_from(payload_len).expect("64-bit host");
        for (decoder, result) in results {
            assert_eq!(
                result,
                Err(WireError::Truncated {
                    needed,
                    available: 16
                }),
                "{decoder} at payload_len {payload_len:#x}"
            );
        }
    }
}

/// Rebuilds a frame around a hand-mangled payload (valid checksum, invalid
/// fields) so field validation is exercised *past* the checksum gate.
fn reframe(original: &[u8], mangle: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (kind, _flags, payload) = poseidon_wire::parse_frame(original).expect("valid input frame");
    let mut payload = payload.to_vec();
    mangle(&mut payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(match kind {
        Kind::Params => 1,
        Kind::Plaintext => 2,
        Kind::Ciphertext => 3,
        Kind::KeySwitchKey => 4,
        Kind::KeySet => 5,
        Kind::KeySetChunk => 6,
    });
    out.push(if kind == Kind::KeySet { 1 } else { 0 });
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = poseidon_wire::checksum(&out[8..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn checksummed_but_semantically_invalid_payloads_are_malformed() {
    let (ctx, bytes) = tiny_ciphertext_frame();

    // Out-of-range residue (≥ q) in the first c0 row.
    let q0 = ctx.chain_basis().primes()[0];
    let evil = reframe(&bytes, |p| {
        p[80..88].copy_from_slice(&q0.to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &evil),
        Err(WireError::Malformed(_))
    ));

    // Level beyond the chain.
    let evil = reframe(&bytes, |p| {
        p[64..72].copy_from_slice(&99u64.to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &evil),
        Err(WireError::Malformed(_))
    ));

    // Non-finite scale.
    let evil = reframe(&bytes, |p| {
        p[72..80].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &evil),
        Err(WireError::Malformed(_))
    ));

    // Trailing payload bytes behind a well-formed object.
    let evil = reframe(&bytes, |p| p.push(7));
    assert!(matches!(
        poseidon_wire::decode_ciphertext(&ctx, &evil),
        Err(WireError::Malformed(_))
    ));

    // Invalid parameter block (N = 0) in a params frame.
    let params_frame = poseidon_wire::encode_params(&tiny_params());
    let evil = reframe(&params_frame, |p| {
        p[0..8].copy_from_slice(&0u64.to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_params(&evil),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn keyset_field_validation_rejects_garbage() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut keys = KeySet::generate(&ctx, &mut rng);
    keys.add_rotation_key(1, &mut rng);
    let bytes = poseidon_wire::encode_keyset(&ctx, &keys);

    // Non-ternary secret coefficient (zigzag(5) = 10 in the first slot).
    let evil = reframe(&bytes, |p| {
        p[64..72].copy_from_slice(&10u64.to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_keyset(&evil),
        Err(WireError::Malformed(_))
    ));

    // Even Galois element: locate the single entry's g word. Layout after
    // params(64) + secret(16×8) + public b/a (2×3×16×8) + relin
    // (8 + 3 pairs × 2 polys × 4 rows × 16 × 8) is the Galois count.
    let g_off = 64 + 128 + 768 + (8 + 3 * 2 * 4 * 128) + 8;
    let evil = reframe(&bytes, |p| {
        p[g_off..g_off + 8].copy_from_slice(&4u64.to_le_bytes());
    });
    assert!(matches!(
        poseidon_wire::decode_keyset(&evil),
        Err(WireError::Malformed(_))
    ));
}

/// A 92-byte key-set frame: a parameter block declaring ring degree `n`,
/// 60-bit primes and a chain of 8, and no keys.
fn forged_keyset(n: usize) -> Vec<u8> {
    let params = CkksParams {
        n,
        first_prime_bits: 60,
        scale_prime_bits: 60,
        chain_len: 8,
        special_len: 1,
        special_prime_bits: 60,
        scale: 2f64.powi(40),
        error_std: 3.2,
    };
    let mut frame = poseidon_wire::encode_params(&params);
    frame[10] = 5; // the kind byte: a key set
    let end = frame.len() - poseidon_wire::TRAILER_LEN;
    let sum = poseidon_wire::checksum(&frame[MAGIC.len()..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// A key-set frame too short for the keys its parameters declare is
/// refused before a context is derived from them. Deriving one at
/// N = 2^22 takes seconds, and at 2^24 aborts the process on a failed
/// allocation — an abort no `catch_unwind` contains.
#[test]
fn forged_keyset_parameters_are_refused_before_a_context_is_built() {
    for log_n in [22u32, 40] {
        let frame = forged_keyset(1 << log_n);
        assert_eq!(frame.len(), 92);
        let start = Instant::now();
        let result = poseidon_wire::decode_keyset(&frame);
        let elapsed = start.elapsed();
        match result {
            Err(WireError::Truncated { .. }) => {}
            Err(other) => panic!("N = 2^{log_n}: expected Truncated, got {other:?}"),
            Ok(_) => panic!("N = 2^{log_n}: a frame without keys decoded"),
        }
        assert!(
            elapsed < Duration::from_secs(1),
            "N = 2^{log_n}: the refusal took {elapsed:?}, so a context was built"
        );
    }
}

#[test]
fn decoder_never_panics_on_random_garbage() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF00D);
    for len in [0usize, 1, 7, 19, 20, 27, 28, 64, 200, 1000] {
        for _ in 0..50 {
            let mut junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
            // Half the cases get a valid magic so parsing goes deeper.
            if rng.gen_range(0..2u32) == 0 && junk.len() >= 8 {
                junk[..8].copy_from_slice(&MAGIC);
            }
            let _ = decode_any(&ctx, &junk);
        }
    }
}
