//! Chunked keyset streaming.
//!
//! A public keyset frame at paper-scale parameters is ~12 MB while
//! ciphertext frames are ~256 KB; pushing the
//! whole keyset as one wire message forces every transport buffer on the
//! path to that worst case. [`chunk_keyset`] slices an encoded
//! [`Kind::KeySet`](crate::Kind::KeySet) frame into a stream of small
//! [`Kind::KeySetChunk`](crate::Kind::KeySetChunk) frames, each
//! independently checksummed; a [`KeysetAssembler`] on the receiving side
//! re-assembles them in order and hands back the original keyset frame,
//! bit-identical, ready for [`crate::decode_keyset`].
//!
//! Chunk payload layout (after the standard frame header):
//!
//! ```text
//! index u64 | total_chunks u64 | total_len u64 | data …
//! ```
//!
//! The assembler enforces sequential indices, consistent totals across
//! chunks, and the [`MAX_KEYSET_BYTES`] cap before reserving any memory,
//! so a hostile `total_len` cannot trigger a huge pre-allocation.

use crate::{decode_with, frame, put_u64, to_usize, Kind, Reader, WireError};

/// Default chunk data size (1 MiB): large enough that a 12 MB keyset is
/// ~12 messages, small enough to interleave with ciphertext traffic.
pub const KEYSET_CHUNK_BYTES: usize = 1 << 20;

/// Upper bound on an assembled keyset frame (64 MiB) — a provisioning
/// DoS guard, matching the serving tier's max frame size.
pub const MAX_KEYSET_BYTES: usize = 64 << 20;

/// Slices an encoded keyset frame into a sequence of chunk frames, each
/// carrying at most `chunk_bytes` of data.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero or `keyset_frame` is empty or larger
/// than [`MAX_KEYSET_BYTES`] (both are local usage errors, not wire
/// input).
pub fn chunk_keyset(keyset_frame: &[u8], chunk_bytes: usize) -> Vec<Vec<u8>> {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    assert!(!keyset_frame.is_empty(), "cannot chunk an empty frame");
    assert!(
        keyset_frame.len() <= MAX_KEYSET_BYTES,
        "keyset frame exceeds MAX_KEYSET_BYTES"
    );
    let total_chunks = keyset_frame.len().div_ceil(chunk_bytes);
    keyset_frame
        .chunks(chunk_bytes)
        .enumerate()
        .map(|(index, data)| {
            let mut payload = Vec::with_capacity(24 + data.len());
            put_u64(&mut payload, index as u64);
            put_u64(&mut payload, total_chunks as u64);
            put_u64(&mut payload, keyset_frame.len() as u64);
            payload.extend_from_slice(data);
            frame(Kind::KeySetChunk, 0, payload)
        })
        .collect()
}

/// Reassembles a chunked keyset stream.
///
/// Feed each incoming chunk frame to [`accept`](Self::accept); it
/// returns `Ok(Some(frame))` with the reassembled keyset frame when the
/// final chunk lands. Any protocol violation (gap, duplicate,
/// inconsistent totals, oversized target) is a typed error, after which
/// the assembler resets so the peer can retry from chunk zero.
#[derive(Debug, Default)]
pub struct KeysetAssembler {
    buf: Vec<u8>,
    total_chunks: u64,
    total_len: usize,
    next_index: u64,
}

impl KeysetAssembler {
    /// A fresh assembler expecting chunk zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunks received so far in the current stream.
    pub fn received(&self) -> u64 {
        self.next_index
    }

    /// Drops any partial stream and waits for chunk zero again.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Accepts one chunk frame; returns the reassembled keyset frame
    /// bytes once the last chunk has arrived.
    ///
    /// # Errors
    ///
    /// Any envelope [`WireError`], or [`WireError::Malformed`] for
    /// out-of-order indices, totals that disagree with earlier chunks,
    /// or a declared size beyond [`MAX_KEYSET_BYTES`]. Errors reset the
    /// assembler.
    pub fn accept(&mut self, chunk_frame: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        let result = self.accept_inner(chunk_frame);
        if result.is_err() {
            self.reset();
        }
        result
    }

    fn accept_inner(&mut self, chunk_frame: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        decode_with(chunk_frame, Kind::KeySetChunk, |_flags, payload| {
            let mut r = Reader::new(payload);
            let index = r.u64()?;
            let total_chunks = r.u64()?;
            let total_len = to_usize(r.u64()?, "keyset total length")?;
            let data = r.take(r.remaining())?;

            if total_len == 0 || total_len > MAX_KEYSET_BYTES {
                return Err(WireError::Malformed(format!(
                    "declared keyset size {total_len} outside (0, {MAX_KEYSET_BYTES}]"
                )));
            }
            if total_chunks == 0 || index >= total_chunks {
                return Err(WireError::Malformed(format!(
                    "chunk index {index} outside stream of {total_chunks}"
                )));
            }
            if index != self.next_index {
                return Err(WireError::Malformed(format!(
                    "chunk {index} arrived, expected {}",
                    self.next_index
                )));
            }
            if index == 0 {
                self.total_chunks = total_chunks;
                self.total_len = total_len;
                self.buf = Vec::with_capacity(total_len.min(MAX_KEYSET_BYTES));
            } else if total_chunks != self.total_chunks || total_len != self.total_len {
                return Err(WireError::Malformed(format!(
                    "chunk {index} declares {total_chunks} chunks / {total_len} bytes, \
                     stream started with {} / {}",
                    self.total_chunks, self.total_len
                )));
            }
            if self.buf.len() + data.len() > self.total_len {
                return Err(WireError::Malformed(format!(
                    "chunk {index} overflows declared keyset size {}",
                    self.total_len
                )));
            }
            self.buf.extend_from_slice(data);
            self.next_index += 1;

            if self.next_index == self.total_chunks {
                if self.buf.len() != self.total_len {
                    return Err(WireError::Malformed(format!(
                        "stream ended with {} bytes, declared {}",
                        self.buf.len(),
                        self.total_len
                    )));
                }
                let frame = std::mem::take(&mut self.buf);
                self.next_index = 0;
                self.total_chunks = 0;
                self.total_len = 0;
                Ok(Some(frame))
            } else {
                Ok(None)
            }
        })
    }
}
