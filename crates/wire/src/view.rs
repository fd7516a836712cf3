//! Borrowed, zero-copy views over wire frames.
//!
//! The classic decoders ([`crate::decode_ciphertext`]) walk the payload
//! through a [`Reader`] one `u64` at a time and push into fresh
//! allocations. A [`FrameView`] instead validates the header and checksum
//! **once**, and the typed views ([`CiphertextView`], [`PlaintextView`])
//! then check only the structure — params, level, scale, exact word
//! count — while leaving the residue words as borrowed byte regions.
//! [`CiphertextView::read_into`] finally bulk-converts those regions into
//! rows taken from a [`BufferPool`], so a hot serving path performs zero
//! transient allocations per request once the pool is warm.
//!
//! Validation strength is unchanged: every residue word is still
//! range-checked against its prime during `read_into`, exactly as
//! [`crate::take_poly`] does, before any `RnsPoly` is constructed.
//!
//! An armed tamper plan needs a mutable copy of the bytes, so while one is
//! armed the pooled entry points fall back to the copying decoders —
//! correctness instrumentation beats the fast path.

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_rns::{Form, RnsBasis, RnsPoly};

use crate::{
    check_params, parse_frame, take_level, take_scale, BufferPool, Kind, Reader, WireError,
};

/// A parsed frame envelope borrowing the input bytes: magic, version,
/// declared length, and checksum verified exactly once.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    kind: Kind,
    flags: u8,
    payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Validates the envelope (magic, version, length, checksum) and
    /// borrows the payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] a malformed envelope produces.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let (kind, flags, payload) = parse_frame(bytes)?;
        Ok(Self {
            kind,
            flags,
            payload,
        })
    }

    /// The frame's object kind.
    #[inline]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The frame's flag byte.
    #[inline]
    pub fn flags(&self) -> u8 {
        self.flags
    }

    /// The checksum-verified payload bytes.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Rejects any kind but `want`.
    pub fn expect_kind(&self, want: Kind) -> Result<(), WireError> {
        if self.kind != want {
            return Err(WireError::KindMismatch {
                expected: want,
                got: self.kind,
            });
        }
        Ok(())
    }
}

/// Structural prefix shared by plaintext and ciphertext payloads:
/// params (verified against `ctx`), level, scale — returning the reader
/// positioned at the first residue word.
fn object_prefix<'a>(
    ctx: &CkksContext,
    payload: &'a [u8],
) -> Result<(usize, f64, Reader<'a>), WireError> {
    let mut r = Reader::new(payload);
    check_params(ctx, &mut r)?;
    let level = take_level(ctx, &mut r)?;
    let scale = take_scale(&mut r)?;
    Ok((level, scale, r))
}

/// Bulk-converts one borrowed word region into residue rows over `basis`,
/// each row taken from `pool`, range-checking every word against its
/// prime. The region length is already known to be exact.
fn rows_from_words(
    words: &[u8],
    basis: &RnsBasis,
    pool: &BufferPool,
) -> Result<Vec<Vec<u64>>, WireError> {
    let n = basis.n();
    let mut rows = Vec::with_capacity(basis.len());
    for (i, &q) in basis.primes().iter().enumerate() {
        let mut row = pool.take(n);
        let region = &words[i * n * 8..(i + 1) * n * 8];
        for chunk in region.chunks_exact(8) {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            if w >= q {
                // Give the rows back before bailing — a corrupt frame
                // must not leak pool capacity.
                pool.put(row);
                for r in rows {
                    pool.put(r);
                }
                return Err(WireError::Malformed(format!(
                    "residue {w} out of range for prime {q}"
                )));
            }
            row.push(w);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// A structurally validated ciphertext frame whose residue words are
/// still borrowed wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct CiphertextView<'a> {
    level: usize,
    scale: f64,
    c0_words: &'a [u8],
    c1_words: &'a [u8],
}

impl<'a> CiphertextView<'a> {
    /// Validates a ciphertext frame against `ctx` down to (but not
    /// including) the per-word range checks.
    ///
    /// # Errors
    ///
    /// [`WireError::ContextMismatch`] for foreign parameters; any other
    /// [`WireError`] for a malformed envelope or structure.
    pub fn parse(ctx: &CkksContext, bytes: &'a [u8]) -> Result<Self, WireError> {
        let view = FrameView::parse(bytes)?;
        view.expect_kind(Kind::Ciphertext)?;
        let (level, scale, mut r) = object_prefix(ctx, view.payload())?;
        let row_bytes = (level + 1) * ctx.n() * 8;
        let c0_words = r.take(row_bytes)?;
        let c1_words = r.take(row_bytes)?;
        r.finish()?;
        Ok(Self {
            level,
            scale,
            c0_words,
            c1_words,
        })
    }

    /// The encoded level.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The encoded scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Materialises the ciphertext, residue rows drawn from `pool`.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if any residue word is out of range for
    /// its prime (rows taken so far are returned to the pool).
    pub fn read_into(&self, ctx: &CkksContext, pool: &BufferPool) -> Result<Ciphertext, WireError> {
        let basis = ctx.level_basis(self.level);
        let c0_rows = rows_from_words(self.c0_words, &basis, pool)?;
        let c1_rows = match rows_from_words(self.c1_words, &basis, pool) {
            Ok(rows) => rows,
            Err(e) => {
                // c0's rows are already out of the pool — hand them back
                // so a corrupt frame cannot bleed pool capacity.
                for row in c0_rows {
                    pool.put(row);
                }
                return Err(e);
            }
        };
        let c0 = RnsPoly::from_residues(&basis, c0_rows, Form::Coeff);
        let c1 = RnsPoly::from_residues(&basis, c1_rows, Form::Coeff);
        Ok(Ciphertext::new(c0, c1, self.scale))
    }
}

/// A structurally validated plaintext frame whose residue words are
/// still borrowed wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct PlaintextView<'a> {
    level: usize,
    scale: f64,
    words: &'a [u8],
}

impl<'a> PlaintextView<'a> {
    /// Validates a plaintext frame against `ctx` down to (but not
    /// including) the per-word range checks.
    ///
    /// # Errors
    ///
    /// Same surface as [`CiphertextView::parse`].
    pub fn parse(ctx: &CkksContext, bytes: &'a [u8]) -> Result<Self, WireError> {
        let view = FrameView::parse(bytes)?;
        view.expect_kind(Kind::Plaintext)?;
        let (level, scale, mut r) = object_prefix(ctx, view.payload())?;
        let row_bytes = (level + 1) * ctx.n() * 8;
        let words = r.take(row_bytes)?;
        r.finish()?;
        Ok(Self {
            level,
            scale,
            words,
        })
    }

    /// The encoded level.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The encoded scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Materialises the plaintext, residue rows drawn from `pool`.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on out-of-range residues.
    pub fn read_into(&self, ctx: &CkksContext, pool: &BufferPool) -> Result<Plaintext, WireError> {
        let basis = ctx.level_basis(self.level);
        let poly = RnsPoly::from_residues(
            &basis,
            rows_from_words(self.words, &basis, pool)?,
            Form::Coeff,
        );
        Ok(Plaintext::new(poly, self.scale))
    }
}

/// One-shot pooled ciphertext decode: view parse + `read_into`.
///
/// Equivalent to [`crate::decode_ciphertext`] in result and validation
/// strength, but all residue rows come from `pool`. With a fault plan
/// armed this falls back to the copying decoder so the tamper plan still
/// fires.
///
/// # Errors
///
/// Same surface as [`crate::decode_ciphertext`].
pub fn decode_ciphertext_pooled(
    ctx: &CkksContext,
    bytes: &[u8],
    pool: &BufferPool,
) -> Result<Ciphertext, WireError> {
    let _span = crate::tel::decode().span(bytes.len() as u64);
    if poseidon_faults::armed() {
        return crate::decode_ciphertext(ctx, bytes);
    }
    CiphertextView::parse(ctx, bytes)?.read_into(ctx, pool)
}

/// One-shot pooled plaintext decode: view parse + `read_into`.
///
/// # Errors
///
/// Same surface as [`crate::decode_plaintext`].
pub fn decode_plaintext_pooled(
    ctx: &CkksContext,
    bytes: &[u8],
    pool: &BufferPool,
) -> Result<Plaintext, WireError> {
    let _span = crate::tel::decode().span(bytes.len() as u64);
    if poseidon_faults::armed() {
        return crate::decode_plaintext(ctx, bytes);
    }
    PlaintextView::parse(ctx, bytes)?.read_into(ctx, pool)
}
