//! Binary wire format for CKKS objects — the host↔accelerator marshalling
//! layer (paper §IV dataflow: ciphertexts and key material stream between
//! the host runtime and the accelerator's HBM-resident working set).
//!
//! Every frame is dependency-free, versioned, length-prefixed, and
//! checksummed:
//!
//! ```text
//! ┌──────────┬─────────┬──────┬───────┬─────────────┬─────────┬──────────┐
//! │ magic    │ version │ kind │ flags │ payload_len │ payload │ checksum │
//! │ 8 bytes  │ u16     │ u8   │ u8    │ u64         │ …       │ u64      │
//! └──────────┴─────────┴──────┴───────┴─────────────┴─────────┴──────────┘
//! ```
//!
//! All integers are little-endian; residues are explicit `u64` words;
//! floats travel as IEEE-754 bit patterns (`f64::to_bits`), so round trips
//! are bit-exact. The checksum is FNV-1a (reusing
//! [`he_rns::integrity::fnv1a_words`]) over everything after the magic —
//! version, kind, flags, length, and payload — so any single corrupted
//! bit in the frame is caught by a typed error.
//!
//! Each payload begins with the full [`CkksParams`] block. Contexts are
//! derived *deterministically* from their parameters
//! ([`CkksContext::try_new`] generates the prime chain), so the frame
//! never ships raw primes: decoders verify the encoded parameters against
//! the caller's context and reconstruct bases locally. [`decode_keyset`]
//! is the exception — it bootstraps a fresh context from the frame itself
//! (tenant provisioning). Key-switch keys travel only inside key-set
//! frames ([`encode_keyset_public`]), which reach a server as a stream of
//! [`chunk_keyset`] chunks; frame kind 4, a standalone key-switch key, is
//! retired and refused as [`WireError::UnknownKind`].
//!
//! **Every decode path returns a typed [`WireError`]** — malformed,
//! truncated, checksum-mismatched, or version-skewed input must never
//! panic. Every decoder runs one envelope gate: the header is read once
//! (with checked length arithmetic), the kind and checksum verified, and
//! an armed [`WireFrame`](poseidon_faults::FaultSite::WireFrame) plan
//! corrupts a *copy* of the incoming bytes first, modelling link
//! corruption the checksum has to catch. Every residue word — of a
//! ciphertext, plaintext, public key or key-switch row — is read by one
//! reader that range-checks it against its prime before any `RnsPoly`
//! exists. [`decode_ciphertext_pooled`] and [`decode_plaintext_pooled`]
//! run the same decoders with rows drawn from a [`BufferPool`] instead of
//! fresh allocations.
//!
//! # Examples
//!
//! ```
//! use he_ckks::prelude::*;
//! use poseidon_wire::{decode_ciphertext, encode_ciphertext};
//!
//! let ctx = CkksContext::new(CkksParams::toy());
//! let mut rng = rand::thread_rng();
//! let keys = KeySet::generate(&ctx, &mut rng);
//! let pt = Plaintext::new(
//!     he_rns::RnsPoly::from_i64_coeffs(ctx.chain_basis(), &vec![0i64; ctx.n()]),
//!     ctx.default_scale(),
//! );
//! let ct = keys.public().encrypt(&pt, &mut rng);
//! let bytes = encode_ciphertext(&ctx, &ct);
//! let back = decode_ciphertext(&ctx, &bytes).unwrap();
//! assert_eq!(back.c0(), ct.c0());
//! ```

#![forbid(unsafe_code)]

use std::fmt;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use he_ckks::keys::{KeySet, KeySwitchKey, PublicKey, SecretKey};
use he_ckks::params::CkksParams;
use he_rns::integrity::fnv1a_words;
use he_rns::{Form, RnsBasis, RnsPoly};

/// Telemetry scopes for frame marshalling (items = frame bytes).
pub(crate) mod tel {
    poseidon_telemetry::scope_fn! {
        pub encode = "wire.encode";
        pub decode = "wire.decode";
    }
}

mod chunk;
mod pool;

pub use chunk::{chunk_keyset, KeysetAssembler, KEYSET_CHUNK_BYTES, MAX_KEYSET_BYTES};
pub use pool::BufferPool;

/// Frame magic: the first eight bytes of every Poseidon wire frame.
pub const MAGIC: [u8; 8] = *b"PSDNWIRE";

/// The wire format version this build writes and accepts.
pub const VERSION: u16 = 1;

/// Header size in bytes (magic + version + kind + flags + payload length).
pub const HEADER_LEN: usize = 20;

/// Trailer size in bytes (the FNV-1a payload checksum).
pub const TRAILER_LEN: usize = 8;

/// KeySet frame flag bit: the frame carries the secret key coefficients.
const FLAG_HAS_SECRET: u8 = 1;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare [`CkksParams`] block.
    Params,
    /// A plaintext polynomial at some level.
    Plaintext,
    /// A two-component ciphertext at some level.
    Ciphertext,
    /// A full key set (public + relin + Galois keys, secret optional).
    KeySet,
    /// One slice of a chunked [`Kind::KeySet`] frame (streamed
    /// provisioning; see [`chunk_keyset`] / [`KeysetAssembler`]).
    KeySetChunk,
}

impl Kind {
    fn code(self) -> u8 {
        match self {
            Kind::Params => 1,
            Kind::Plaintext => 2,
            Kind::Ciphertext => 3,
            // 4 is retired (a standalone key-switch key); never reuse it.
            Kind::KeySet => 5,
            Kind::KeySetChunk => 6,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Kind::Params),
            2 => Some(Kind::Plaintext),
            3 => Some(Kind::Ciphertext),
            5 => Some(Kind::KeySet),
            6 => Some(Kind::KeySetChunk),
            _ => None,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Kind::Params => "params",
            Kind::Plaintext => "plaintext",
            Kind::Ciphertext => "ciphertext",
            Kind::KeySet => "keyset",
            Kind::KeySetChunk => "keyset-chunk",
        };
        f.write_str(s)
    }
}

/// Why a frame could not be decoded. Every variant is a graceful rejection
/// — no input, however malformed, panics the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a field could be read.
    Truncated {
        /// Bytes the pending field still needed.
        needed: usize,
        /// Bytes actually left in the buffer.
        available: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The frame was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The header kind byte is not a known [`Kind`].
    UnknownKind(u8),
    /// The frame decoded cleanly but is not the expected object kind.
    KindMismatch {
        /// Kind the caller asked for.
        expected: Kind,
        /// Kind the frame carries.
        got: Kind,
    },
    /// The buffer is longer than the header-declared frame.
    LengthMismatch {
        /// Total frame length the header declares.
        declared: u64,
        /// Bytes actually supplied.
        actual: u64,
    },
    /// The FNV-1a payload checksum does not match (corrupt frame).
    ChecksumMismatch {
        /// Checksum carried by the frame trailer.
        expected: u64,
        /// Checksum recomputed over the received payload.
        got: u64,
    },
    /// The frame's encoded parameters disagree with the caller's context.
    ContextMismatch(String),
    /// A structurally invalid payload (out-of-range residue, bad level,
    /// invalid parameters, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: field needs {needed} bytes, {available} left"
                )
            }
            WireError::BadMagic => write!(f, "bad magic: not a Poseidon wire frame"),
            WireError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {supported})"
                )
            }
            WireError::UnknownKind(code) => write!(f, "unknown frame kind {code}"),
            WireError::KindMismatch { expected, got } => {
                write!(f, "kind mismatch: expected {expected}, frame carries {got}")
            }
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header declares {declared} bytes, got {actual}"
                )
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#018x}, payload hashes to {got:#018x}"
                )
            }
            WireError::ContextMismatch(msg) => write!(f, "context mismatch: {msg}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a checksum of a byte region, keyed with its length, via the
/// integrity layer's word hasher: bytes are packed into little-endian u64
/// words (zero-padded tail) behind a leading length word. Frames hash
/// everything between the magic and the trailer, so a flipped bit in any
/// header field or payload word surfaces as [`WireError::ChecksumMismatch`]
/// (when no earlier field check catches it first).
pub fn checksum(region: &[u8]) -> u64 {
    let mut words = Vec::with_capacity(2 + region.len() / 8);
    words.push(region.len() as u64);
    for chunk in region.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(b));
    }
    fnv1a_words(&words)
}

// ---------------------------------------------------------------------------
// Fallible reader / writer primitives
// ---------------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Rejects trailing bytes after the last expected field.
    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    assert_eq!(p.form(), Form::Coeff, "wire polys travel in coeff form");
    for row in p.all_residues() {
        for &w in row {
            put_u64(out, w);
        }
    }
}

/// Reads `K` residue matrices over `basis` — the crate's one residue
/// reader. Every word is range-checked against its prime before any
/// `RnsPoly` is constructed (the constructor would only debug-assert).
/// Rows come from `pool` when one is given, else from fresh allocations;
/// on a bad word every row taken so far goes back to the pool, so a
/// corrupt frame cannot bleed pool capacity.
fn read_polys<const K: usize>(
    r: &mut Reader<'_>,
    basis: &RnsBasis,
    pool: Option<&BufferPool>,
) -> Result<[RnsPoly; K], WireError> {
    let n = basis.n();
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(K * basis.len());
    let read = (0..K).flat_map(|_| basis.primes()).try_for_each(|&q| {
        let words = r.take(n * 8)?;
        let mut row = pool.map_or_else(|| Vec::with_capacity(n), |pool| pool.take(n));
        row.extend(
            words
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))),
        );
        let bad = row.iter().copied().find(|&w| w >= q);
        rows.push(row);
        match bad {
            Some(w) => Err(WireError::Malformed(format!(
                "residue {w} out of range for prime {q}"
            ))),
            None => Ok(()),
        }
    });
    if let Err(e) = read {
        if let Some(pool) = pool {
            rows.into_iter().for_each(|row| pool.put(row));
        }
        return Err(e);
    }
    let mut rows = rows.into_iter();
    Ok(std::array::from_fn(|_| {
        let poly_rows = rows.by_ref().take(basis.len()).collect();
        RnsPoly::from_residues(basis, poly_rows, Form::Coeff)
    }))
}

fn put_params(out: &mut Vec<u8>, p: &CkksParams) {
    put_u64(out, p.n as u64);
    put_u64(out, u64::from(p.first_prime_bits));
    put_u64(out, u64::from(p.scale_prime_bits));
    put_u64(out, p.chain_len as u64);
    put_u64(out, p.special_len as u64);
    put_u64(out, u64::from(p.special_prime_bits));
    put_f64(out, p.scale);
    put_f64(out, p.error_std);
}

pub(crate) fn to_usize(v: u64, what: &str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Malformed(format!("{what} exceeds address width")))
}

fn to_u32(v: u64, what: &str) -> Result<u32, WireError> {
    u32::try_from(v).map_err(|_| WireError::Malformed(format!("{what} out of range")))
}

fn take_params(r: &mut Reader<'_>) -> Result<CkksParams, WireError> {
    let params = CkksParams {
        n: to_usize(r.u64()?, "ring degree")?,
        first_prime_bits: to_u32(r.u64()?, "first prime bits")?,
        scale_prime_bits: to_u32(r.u64()?, "scale prime bits")?,
        chain_len: to_usize(r.u64()?, "chain length")?,
        special_len: to_usize(r.u64()?, "special length")?,
        special_prime_bits: to_u32(r.u64()?, "special prime bits")?,
        scale: r.f64()?,
        error_std: r.f64()?,
    };
    params
        .validate()
        .map_err(|msg| WireError::Malformed(format!("invalid parameters: {msg}")))?;
    Ok(params)
}

fn check_params(ctx: &CkksContext, r: &mut Reader<'_>) -> Result<(), WireError> {
    let params = take_params(r)?;
    if &params != ctx.params() {
        return Err(WireError::ContextMismatch(format!(
            "frame encoded for N={} chain_len={} special_len={}, \
             context has N={} chain_len={} special_len={}",
            params.n,
            params.chain_len,
            params.special_len,
            ctx.params().n,
            ctx.params().chain_len,
            ctx.params().special_len,
        )));
    }
    Ok(())
}

fn take_level(ctx: &CkksContext, r: &mut Reader<'_>) -> Result<usize, WireError> {
    let level = to_usize(r.u64()?, "level")?;
    if level >= ctx.chain_basis().len() {
        return Err(WireError::Malformed(format!(
            "level {level} exceeds chain of {} primes",
            ctx.chain_basis().len()
        )));
    }
    Ok(level)
}

fn take_scale(r: &mut Reader<'_>) -> Result<f64, WireError> {
    let scale = r.f64()?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(WireError::Malformed(format!("invalid scale {scale}")));
    }
    Ok(scale)
}

// ---------------------------------------------------------------------------
// Frame assembly / parsing
// ---------------------------------------------------------------------------

pub(crate) fn frame(kind: Kind, flags: u8, payload: Vec<u8>) -> Vec<u8> {
    let _span = tel::encode().span((HEADER_LEN + payload.len() + TRAILER_LEN) as u64);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind.code());
    out.push(flags);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let sum = checksum(&out[MAGIC.len()..]);
    put_u64(&mut out, sum);
    out
}

/// Reads a frame header — magic, version, kind, flags and payload length —
/// the one place a header is parsed. A payload length whose frame would
/// not fit the address space can never be satisfied, so it is reported
/// as a truncated payload rather than summed into a wrapped total.
fn read_header(r: &mut Reader<'_>) -> Result<(Kind, u8, usize), WireError> {
    if r.take(MAGIC.len())? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2-byte slice"));
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let kind_code = r.take(1)?[0];
    let kind = Kind::from_code(kind_code).ok_or(WireError::UnknownKind(kind_code))?;
    let flags = r.take(1)?[0];
    let payload_len = to_usize(r.u64()?, "payload length")?;
    if payload_len.checked_add(HEADER_LEN + TRAILER_LEN).is_none() {
        return Err(WireError::Truncated {
            needed: payload_len,
            available: r.remaining(),
        });
    }
    Ok((kind, flags, payload_len))
}

/// Splits a frame into `(kind, flags, payload)`, verifying magic, version,
/// declared length, and checksum. The returned payload is unvalidated —
/// object decoders do field-level validation on top.
fn parse_frame(bytes: &[u8]) -> Result<(Kind, u8, &[u8]), WireError> {
    let mut r = Reader::new(bytes);
    let (kind, flags, payload_len) = read_header(&mut r)?;
    let declared = HEADER_LEN + payload_len + TRAILER_LEN;
    if bytes.len() > declared {
        return Err(WireError::LengthMismatch {
            declared: declared as u64,
            actual: bytes.len() as u64,
        });
    }
    let payload = r.take(payload_len)?;
    let expected = r.u64()?;
    let got = checksum(&bytes[MAGIC.len()..HEADER_LEN + payload_len]);
    if expected != got {
        return Err(WireError::ChecksumMismatch { expected, got });
    }
    Ok((kind, flags, payload))
}

/// The envelope gate every decoder runs: parses the frame, refuses any
/// kind but `want`, and hands the flags and checksum-verified payload to
/// the decoder body. With a fault plan armed, a copy of the bytes is
/// tampered first (modelling link corruption — the caller's buffer is
/// never touched) and the same gate runs on the copy.
pub(crate) fn decode_with<T>(
    bytes: &[u8],
    want: Kind,
    f: impl FnOnce(u8, &[u8]) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let _span = tel::decode().span(bytes.len() as u64);
    let tampered;
    let bytes = if poseidon_faults::armed() {
        let mut owned = bytes.to_vec();
        poseidon_faults::tamper_bytes(poseidon_faults::FaultSite::WireFrame, &mut owned);
        tampered = owned;
        &tampered[..]
    } else {
        bytes
    };
    let (kind, flags, payload) = parse_frame(bytes)?;
    if kind != want {
        return Err(WireError::KindMismatch {
            expected: want,
            got: kind,
        });
    }
    f(flags, payload)
}

// ---------------------------------------------------------------------------
// Params
// ---------------------------------------------------------------------------

/// Encodes a bare parameter block.
pub fn encode_params(params: &CkksParams) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_params(&mut payload, params);
    frame(Kind::Params, 0, payload)
}

/// Decodes a bare parameter block (validated, but no context is built).
///
/// # Errors
///
/// Any [`WireError`] on malformed/truncated/corrupt input.
pub fn decode_params(bytes: &[u8]) -> Result<CkksParams, WireError> {
    decode_with(bytes, Kind::Params, |_flags, payload| {
        let mut r = Reader::new(payload);
        let params = take_params(&mut r)?;
        r.finish()?;
        Ok(params)
    })
}

// ---------------------------------------------------------------------------
// Plaintext / Ciphertext
// ---------------------------------------------------------------------------

/// Decodes a plaintext or ciphertext frame: the parameter block (checked
/// against `ctx`), level and scale, then the `K` residue matrices at that
/// level.
fn decode_object<const K: usize>(
    ctx: &CkksContext,
    bytes: &[u8],
    kind: Kind,
    pool: Option<&BufferPool>,
) -> Result<([RnsPoly; K], f64), WireError> {
    decode_with(bytes, kind, |_flags, payload| {
        let mut r = Reader::new(payload);
        check_params(ctx, &mut r)?;
        let level = take_level(ctx, &mut r)?;
        let scale = take_scale(&mut r)?;
        let polys = read_polys(&mut r, &ctx.level_basis(level), pool)?;
        r.finish()?;
        Ok((polys, scale))
    })
}

/// Encodes a plaintext at its level.
///
/// # Panics
///
/// Panics if the plaintext does not belong to `ctx` (level wider than the
/// chain) — encoding operates on trusted, locally-produced objects.
pub fn encode_plaintext(ctx: &CkksContext, pt: &Plaintext) -> Vec<u8> {
    let level = pt.poly().level_count() - 1;
    assert!(level < ctx.chain_basis().len(), "plaintext outside context");
    let mut payload = Vec::with_capacity(64 + 16 + pt.poly().level_count() * ctx.n() * 8);
    put_params(&mut payload, ctx.params());
    put_u64(&mut payload, level as u64);
    put_f64(&mut payload, pt.scale());
    put_poly(&mut payload, pt.poly());
    frame(Kind::Plaintext, 0, payload)
}

/// Decodes a plaintext against `ctx`.
///
/// # Errors
///
/// [`WireError::ContextMismatch`] if the frame was encoded for different
/// parameters; any other [`WireError`] on malformed input.
pub fn decode_plaintext(ctx: &CkksContext, bytes: &[u8]) -> Result<Plaintext, WireError> {
    let ([poly], scale) = decode_object(ctx, bytes, Kind::Plaintext, None)?;
    Ok(Plaintext::new(poly, scale))
}

/// [`decode_plaintext`] with the residue rows drawn from `pool`.
///
/// # Errors
///
/// Same surface as [`decode_plaintext`].
pub fn decode_plaintext_pooled(
    ctx: &CkksContext,
    bytes: &[u8],
    pool: &BufferPool,
) -> Result<Plaintext, WireError> {
    let ([poly], scale) = decode_object(ctx, bytes, Kind::Plaintext, Some(pool))?;
    Ok(Plaintext::new(poly, scale))
}

/// Encodes a ciphertext at its level.
///
/// # Panics
///
/// Panics if the ciphertext does not belong to `ctx`.
pub fn encode_ciphertext(ctx: &CkksContext, ct: &Ciphertext) -> Vec<u8> {
    assert!(
        ct.level() < ctx.chain_basis().len(),
        "ciphertext outside context"
    );
    let mut payload = Vec::with_capacity(64 + 16 + 2 * (ct.level() + 1) * ctx.n() * 8);
    put_params(&mut payload, ctx.params());
    put_u64(&mut payload, ct.level() as u64);
    put_f64(&mut payload, ct.scale());
    put_poly(&mut payload, ct.c0());
    put_poly(&mut payload, ct.c1());
    frame(Kind::Ciphertext, 0, payload)
}

/// Decodes a ciphertext against `ctx`.
///
/// # Errors
///
/// [`WireError::ContextMismatch`] if the frame was encoded for different
/// parameters; any other [`WireError`] on malformed input.
pub fn decode_ciphertext(ctx: &CkksContext, bytes: &[u8]) -> Result<Ciphertext, WireError> {
    let ([c0, c1], scale) = decode_object(ctx, bytes, Kind::Ciphertext, None)?;
    Ok(Ciphertext::new(c0, c1, scale))
}

/// [`decode_ciphertext`] with the residue rows drawn from `pool` — the
/// serving path's decoder: once the pool is warm, a request allocates
/// nothing for polynomial data.
///
/// # Errors
///
/// Same surface as [`decode_ciphertext`].
pub fn decode_ciphertext_pooled(
    ctx: &CkksContext,
    bytes: &[u8],
    pool: &BufferPool,
) -> Result<Ciphertext, WireError> {
    let ([c0, c1], scale) = decode_object(ctx, bytes, Kind::Ciphertext, Some(pool))?;
    Ok(Ciphertext::new(c0, c1, scale))
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// One key-switch key inside a key-set frame: its digit pairs over `Q ∪ P`,
/// one per digit group of α = `special_len` chain primes.
/// Rows travel in coefficient form and [`take_ksk`] forward-transforms
/// them back, bit-identically.
fn put_ksk(out: &mut Vec<u8>, key: &KeySwitchKey) {
    put_u64(out, key.pairs().len() as u64);
    for (b, a) in key.pairs() {
        put_poly(out, &b.clone().into_coeff());
        put_poly(out, &a.clone().into_coeff());
    }
}

fn take_ksk(ctx: &CkksContext, r: &mut Reader<'_>) -> Result<KeySwitchKey, WireError> {
    let count = to_usize(r.u64()?, "key pair count")?;
    let dnum = ctx.params().dnum(ctx.chain_basis().len());
    if count != dnum {
        return Err(WireError::Malformed(format!(
            "keyswitch key has {count} digit pairs, chain needs {dnum}"
        )));
    }
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let [b, a] = read_polys(r, ctx.full_basis(), None)?;
        pairs.push((b.into_eval(), a.into_eval()));
    }
    Ok(KeySwitchKey::from_pairs(pairs))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn encode_keyset_inner(ctx: &CkksContext, keys: &KeySet, with_secret: bool) -> Vec<u8> {
    let mut payload = Vec::new();
    put_params(&mut payload, ctx.params());
    if with_secret {
        for &c in keys.secret().coeffs() {
            put_u64(&mut payload, zigzag(c));
        }
    }
    put_poly(&mut payload, keys.public().b());
    put_poly(&mut payload, keys.public().a());
    put_ksk(&mut payload, keys.relin());
    // Galois entries sorted by element: the backing map is unordered, and
    // the wire bytes must be deterministic for bit-exact re-encodes.
    let entries = keys.galois_entries();
    put_u64(&mut payload, entries.len() as u64);
    for (g, key) in entries {
        put_u64(&mut payload, g);
        put_ksk(&mut payload, key);
    }
    let flags = if with_secret { FLAG_HAS_SECRET } else { 0 };
    frame(Kind::KeySet, flags, payload)
}

/// Encodes a full key set *including the secret key* — for trusted
/// storage or tests. Servers should receive
/// [`encode_keyset_public`] frames instead.
pub fn encode_keyset(ctx: &CkksContext, keys: &KeySet) -> Vec<u8> {
    encode_keyset_inner(ctx, keys, true)
}

/// Encodes the evaluation-side key material only (public, relin, Galois) —
/// what a tenant registers with a serving front-end. The decoded set's
/// secret is all-zero and cannot decrypt.
pub fn encode_keyset_public(ctx: &CkksContext, keys: &KeySet) -> Vec<u8> {
    encode_keyset_inner(ctx, keys, false)
}

/// The fewest payload bytes after the parameter block that a key set with
/// `params` can occupy: the secret (when flagged), the public key, the
/// relinearisation key and the Galois count. `None` when that overflows.
fn keyset_min_payload(params: &CkksParams, with_secret: bool) -> Option<usize> {
    let poly_bytes = |limbs: usize| limbs.checked_mul(params.n)?.checked_mul(8);
    let secret = if with_secret { poly_bytes(1)? } else { 0 };
    let public = poly_bytes(params.chain_len)?.checked_mul(2)?;
    let relin = poly_bytes(params.chain_len.checked_add(params.special_len)?)?
        .checked_mul(2)?
        .checked_mul(params.dnum(params.chain_len))?
        .checked_add(8)?;
    secret
        .checked_add(public)?
        .checked_add(relin)?
        .checked_add(8)
}

/// Decodes a key set, deriving a fresh context from the frame's parameter
/// block (tenant provisioning: the frame is self-contained). A payload too
/// short for the keys its parameters declare is refused as
/// [`WireError::Truncated`] before any context is built.
///
/// # Errors
///
/// Any [`WireError`] on malformed input, including parameters the
/// deterministic prime generator rejects.
pub fn decode_keyset(bytes: &[u8]) -> Result<(CkksContext, KeySet), WireError> {
    decode_with(bytes, Kind::KeySet, |flags, payload| {
        let mut r = Reader::new(payload);
        let params = take_params(&mut r)?;
        // Refuse a payload too short for the keys its parameters declare
        // before deriving a context from them: at a forged ring degree
        // that takes seconds, or aborts the process on a failed
        // allocation, which no `catch_unwind` contains.
        let needed =
            keyset_min_payload(&params, flags & FLAG_HAS_SECRET != 0).ok_or_else(|| {
                WireError::Malformed("declared parameters exceed the address width".into())
            })?;
        if r.remaining() < needed {
            return Err(WireError::Truncated {
                needed,
                available: r.remaining(),
            });
        }
        let ctx = CkksContext::try_new(params)
            .map_err(|e| WireError::Malformed(format!("context derivation failed: {e}")))?;
        let n = ctx.n();
        let secret = if flags & FLAG_HAS_SECRET != 0 {
            let mut coeffs = Vec::with_capacity(n);
            for _ in 0..n {
                let c = unzigzag(r.u64()?);
                if c.abs() > 1 {
                    return Err(WireError::Malformed(format!(
                        "secret coefficient {c} is not ternary"
                    )));
                }
                coeffs.push(c);
            }
            SecretKey::from_coeffs(&ctx, coeffs)
        } else {
            SecretKey::from_coeffs(&ctx, vec![0i64; n])
        };
        let [b, a] = read_polys(&mut r, ctx.chain_basis(), None)?;
        let public = PublicKey::from_parts(&ctx, b, a);
        let relin = take_ksk(&ctx, &mut r)?;
        let count = to_usize(r.u64()?, "Galois key count")?;
        let two_n = 2 * n as u64;
        let mut galois = Vec::new();
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let g = r.u64()?;
            if g % 2 == 0 || g >= two_n {
                return Err(WireError::Malformed(format!(
                    "Galois element {g} is not an odd unit mod 2N"
                )));
            }
            if prev.is_some_and(|p| g <= p) {
                return Err(WireError::Malformed(
                    "Galois entries must be strictly ascending".into(),
                ));
            }
            prev = Some(g);
            galois.push((g, take_ksk(&ctx, &mut r)?));
        }
        r.finish()?;
        let keys = KeySet::from_parts(&ctx, secret, public, relin, galois);
        Ok((ctx, keys))
    })
}
