//! Pooled decoding: the same decoders with rows drawn from a
//! `BufferPool` must be bit-identical to fresh allocations, reuse pool
//! rows in steady state, and hand rows back when a frame is refused. That
//! pooled decoders reject the whole corruption corpus is asserted in
//! `corruption.rs`, beside the copying decoders.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::params::CkksParams;
use he_rns::{Form, RnsBasis, RnsPoly};
use poseidon_wire::{decode_ciphertext_pooled, decode_plaintext_pooled, BufferPool, WireError};
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

#[test]
fn pooled_ciphertext_decode_is_bit_identical_to_copying_decode() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pool = BufferPool::new(64);
    for level in 0..ctx.chain_basis().len() {
        let basis = ctx.level_basis(level);
        let ct = Ciphertext::new(
            random_poly(&basis, &mut rng),
            random_poly(&basis, &mut rng),
            ctx.default_scale(),
        );
        let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);
        let copied = poseidon_wire::decode_ciphertext(&ctx, &bytes).unwrap();
        let pooled = decode_ciphertext_pooled(&ctx, &bytes, &pool).unwrap();
        assert_eq!(copied, pooled);
        assert_eq!(pooled, ct);
        assert_eq!(pooled.level(), level);
        assert_eq!(pooled.scale(), ctx.default_scale());
    }
}

#[test]
fn pooled_plaintext_decode_is_bit_identical_to_copying_decode() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let pool = BufferPool::new(64);
    let pt = Plaintext::new(
        random_poly(ctx.chain_basis(), &mut rng),
        ctx.default_scale(),
    );
    let bytes = poseidon_wire::encode_plaintext(&ctx, &pt);
    let copied = poseidon_wire::decode_plaintext(&ctx, &bytes).unwrap();
    let pooled = decode_plaintext_pooled(&ctx, &bytes, &pool).unwrap();
    assert_eq!(copied, pooled);
}

#[test]
fn pool_rows_are_reused_across_decodes() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let pool = BufferPool::new(64);
    let basis = ctx.chain_basis();
    let ct = Ciphertext::new(
        random_poly(basis, &mut rng),
        random_poly(basis, &mut rng),
        ctx.default_scale(),
    );
    let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);

    let first = decode_ciphertext_pooled(&ctx, &bytes, &pool).unwrap();
    // 2 components × 3 limbs = 6 rows recycled.
    pool.recycle_ciphertext(first);
    assert_eq!(pool.len(), 6);
    let second = decode_ciphertext_pooled(&ctx, &bytes, &pool).unwrap();
    assert_eq!(pool.len(), 0, "second decode drained the recycled rows");
    assert_eq!(second, ct);
}

#[test]
fn corrupt_residue_returns_rows_to_pool() {
    let ctx = CkksContext::new(tiny_params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let basis = ctx.chain_basis();
    let ct = Ciphertext::new(
        random_poly(basis, &mut rng),
        random_poly(basis, &mut rng),
        ctx.default_scale(),
    );
    let bytes = poseidon_wire::encode_ciphertext(&ctx, &ct);

    // Rebuild the frame with an out-of-range residue in the *last* c1 row
    // so several rows are already pooled when validation fails.
    let payload = &bytes[poseidon_wire::HEADER_LEN..bytes.len() - poseidon_wire::TRAILER_LEN];
    let mut payload = payload.to_vec();
    let q_last = *basis.primes().last().unwrap();
    let tail = payload.len() - 8;
    payload[tail..].copy_from_slice(&q_last.to_le_bytes());
    let mut evil = Vec::new();
    evil.extend_from_slice(&poseidon_wire::MAGIC);
    evil.extend_from_slice(&poseidon_wire::VERSION.to_le_bytes());
    evil.push(3); // Kind::Ciphertext
    evil.push(0);
    evil.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    evil.extend_from_slice(&payload);
    let sum = poseidon_wire::checksum(&evil[8..]);
    evil.extend_from_slice(&sum.to_le_bytes());

    let pool = BufferPool::new(64);
    // Warm the pool so we can observe conservation.
    for _ in 0..8 {
        pool.put(Vec::with_capacity(16));
    }
    let before = pool.len();
    let err = decode_ciphertext_pooled(&ctx, &evil, &pool).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)));
    assert_eq!(pool.len(), before, "failed decode must not leak pool rows");
}
