//! Residue digests: the FNV-1a hash the stack uses wherever it compares or
//! checksums data.
//!
//! Duplicate-execution checking (`he_ckks::integrity`) compares two runs by
//! [`digest_poly`]; the wire format's payload checksum is [`fnv1a_words`];
//! the serving layer's shard affinity hashes tenant ids with
//! [`fnv1a_bytes`]. All three are the one byte-wise FNV-1a below, so every
//! pinned digest in the workspace is reproducible from its definition.

use crate::poly::{Form, RnsPoly};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash in state `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the little-endian bytes of each word in `words`.
fn fnv1a_le(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        h = fnv1a(h, w.to_le_bytes());
    }
    h
}

/// FNV-1a over a byte string.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes.iter().copied())
}

/// FNV-1a over the little-endian bytes of a word slice. The same digest
/// the pinned-digest tests use, exposed here so checksum comparisons
/// across duplicate executions agree byte-for-byte.
pub fn fnv1a_words(words: &[u64]) -> u64 {
    fnv1a_le(FNV_OFFSET, words)
}

/// FNV-1a digest of an entire polynomial: every limb's residues in order,
/// then the form tag, so coeff- and eval-form states never collide.
pub fn digest_poly(p: &RnsPoly) -> u64 {
    let h = (0..p.level_count()).fold(FNV_OFFSET, |h, j| fnv1a_le(h, p.residues(j)));
    let tag = match p.form() {
        Form::Coeff => 1,
        Form::Eval => 2,
    };
    fnv1a(h, [tag])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::RnsBasis;

    #[test]
    fn fnv_digest_is_stable_and_form_sensitive() {
        let b = RnsBasis::generate(16, 28, 3);
        let p = RnsPoly::from_i64_coeffs(&b, &[7i64; 16]);
        assert_eq!(digest_poly(&p), digest_poly(&p.clone()));
        let e = p.clone().into_eval();
        assert_ne!(digest_poly(&p), digest_poly(&e));
        assert_eq!(fnv1a_words(&[]), FNV_OFFSET);
        assert_ne!(fnv1a_words(&[1]), fnv1a_words(&[2]));
    }

    #[test]
    fn words_and_bytes_share_one_hash() {
        let w = 0x0102_0304_0506_0708u64;
        assert_eq!(fnv1a_words(&[w]), fnv1a_bytes(&w.to_le_bytes()));
        assert_eq!(fnv1a_bytes(b""), FNV_OFFSET);
        // Reference FNV-1a 64 test vector.
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
