//! Multiplexed TCP front-end over the wire format, plus pipelining and
//! self-healing clients.
//!
//! ## Protocol (v6)
//!
//! Both directions speak `u32` little-endian length-prefixed frames
//! (length excludes the prefix itself; bounded by [`MAX_FRAME`]). Every
//! frame body begins with a **request id** chosen by the client; one
//! connection carries many in-flight requests, and the server answers
//! in whatever order its dispatcher shards finish — the client matches
//! replies to requests through a pending map keyed on the id.
//!
//! **Request** frame body:
//!
//! ```text
//! request_id: u64 LE
//! opcode: u8 | flags: u8 | ttl_ms: u32 LE
//! tenant_len: u16 LE | tenant: utf-8
//! [steps: i64 LE]                     -- Rotate only
//! blobs: (u32 LE length | bytes)*     -- poseidon-wire frames
//! ```
//!
//! `flags` bit 0 requests **idempotent replay**: the server records the
//! executed outcome under `(tenant, request_id)`, and a resubmission of
//! the same id returns the cached reply instead of re-running — the
//! server half of safe client retries. `ttl_ms` (0 = none) becomes an
//! absolute **deadline** at parse time, enforced at admission, dequeue,
//! and pre-execution; an expired request answers with a
//! deadline-exceeded error instead of computing dead work.
//!
//! Two-blob ops: `Add`/`Sub`/`Mul` (two ciphertexts), `AddPlain`/
//! `MulPlain` (ciphertext, plaintext). One-blob ops: `Square`,
//! `Rescale`, `Rotate`, `Conjugate` (ciphertext), and
//! `RegisterTenantChunk` (one [`poseidon_wire::chunk_keyset`] slice of a
//! key-set frame, normally [`poseidon_wire::encode_keyset_public`]) —
//! the one way keys reach the server. A key set under
//! [`poseidon_wire::KEYSET_CHUNK_BYTES`] is one chunk. Chunks stream in
//! order on one connection; chunk 0 binds the stream to its tenant, a
//! chunk for another tenant before the stream completes drops the stream
//! with a wire error (code 4), and the final chunk's reply acknowledges
//! the registration. `Program` (new in v4) carries
//! two blobs — raw utf-8 `.pos` program text, then one seed ciphertext
//! frame — and executes the whole program server-side through the
//! evaluation planner as a single admission-controlled unit.
//!
//! **Response** frame body: `request_id: u64 LE` (echoed) followed by
//! status `u8` — `0` = ok then one optional blob (`u32` LE length,
//! possibly zero, then a ciphertext frame), `1` = error then
//! `code: u8 | msg_len: u16 LE | msg`. The client maps the
//! deadline-exceeded code back to the typed
//! [`ServeError::DeadlineExceeded`]; every other code surfaces as
//! [`ServeError::Remote`]. Overload has one answer, code 2 (queue full),
//! which a [`ResilientClient`] retries with backoff.
//!
//! In code, opcode and error-code numbers are written once, in this
//! module's private `Opcode` and `ErrorCode` tables, which the client
//! encoder and the server parser both read. The numbers are part of the
//! protocol:
//!
//! ```text
//! opcode  operation               error code  meaning
//!      1  Add                              1  unknown tenant
//!      2  Sub                              2  queue full
//!      3  Mul                              3  evaluation error
//!      4  Square                           4  wire (frame decode) error
//!      5  Rescale                          5  shutting down
//!      6  Rotate                           6  internal error
//!      7  Conjugate                        7  protocol error
//!      8  AddPlain                         8  (retired; never reused)
//!      9  MulPlain                         9  deadline exceeded
//!     10  (retired; never reused)
//!     11  RegisterTenantChunk
//!     12  Program
//! ```
//!
//! A request's frames and, for an evicted tenant, the reload of its keys
//! from the retained key-set frame are both wire decodes: either failing
//! answers code 4.
//!
//! Any other opcode is refused with error code 7 and the connection is
//! closed. Opcode 10 (a whole key-set frame in one request) was retired
//! in v6: a client sends the same frame as one chunk.
//!
//! ## Resilience
//!
//! Both ends run with socket **read/write timeouts**
//! ([`SocketConfig`]). Reads are *patient while idle*: a connection
//! with no bytes in flight waits forever, but a peer that goes silent
//! mid-frame (the slowloris shape: a valid length prefix, then a stall)
//! trips the timeout and frees the connection without blocking other
//! sockets. [`ResilientClient`] layers per-request timeouts, capped
//! exponential backoff with deterministic seeded jitter, automatic
//! reconnection, and replay-flagged resubmission on top of [`Client`].
//!
//! The seeded chaos sites
//! `SocketRead`/`SocketWrite`/`SocketStall` hook the framed read/write
//! paths (truncate, corrupt, stall, disconnect) so the failure modes
//! above are reproducible in tests and campaigns.
//!
//! Operands are decoded by [`poseidon_wire::decode_ciphertext_pooled`]
//! and [`poseidon_wire::decode_plaintext_pooled`], which fill residue
//! rows from a shared [`poseidon_wire::BufferPool`]; encoded result
//! ciphertexts recycle their rows back into the pool, so the
//! steady-state request path allocates nothing for polynomial data.
//!
//! A protocol-level parse failure — an opcode outside the table is
//! refused before the tenant is looked up — answers with an error frame
//! and drops the connection; a wire/eval failure answers with an error
//! frame and keeps serving. Malformed input never panics the server.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use crate::ServeError;

mod client;
mod resilient;
mod server;

pub use client::{Client, PendingReply, SubmitOptions};
pub use resilient::{ResilientClient, RetryPolicy};
pub use server::{listen, listen_with};

/// Upper bound on one protocol frame (64 MiB — comfortably above any
/// supported key-set frame).
pub const MAX_FRAME: usize = 64 << 20;

/// Socket-level timeouts applied to both ends of a connection. Reads
/// are patient while idle (see the module docs): the read timeout only
/// trips against a peer stalled *mid-frame*.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Mid-frame read timeout in milliseconds (0 = never time out).
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds (0 = never time out).
    pub write_timeout_ms: u64,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
        }
    }
}

impl SocketConfig {
    fn apply_read(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_read_timeout(
            (self.read_timeout_ms > 0).then(|| Duration::from_millis(self.read_timeout_ms)),
        )
    }

    fn apply_write(&self, stream: &TcpStream) -> io::Result<()> {
        stream.set_write_timeout(
            (self.write_timeout_ms > 0).then(|| Duration::from_millis(self.write_timeout_ms)),
        )
    }
}

/// One serving operation, borrowing its operand frames: what
/// [`Client::submit`] and [`Client::request`] send.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum Op<'a> {
    /// Homomorphic addition of two ciphertext frames.
    Add {
        /// Left operand frame.
        a: &'a [u8],
        /// Right operand frame.
        b: &'a [u8],
    },
    /// Homomorphic subtraction.
    Sub {
        /// Left operand frame.
        a: &'a [u8],
        /// Right operand frame.
        b: &'a [u8],
    },
    /// Relinearised multiplication.
    Mul {
        /// Left operand frame.
        a: &'a [u8],
        /// Right operand frame.
        b: &'a [u8],
    },
    /// Relinearised squaring.
    Square {
        /// Operand frame.
        a: &'a [u8],
    },
    /// Rescale by the top chain prime.
    Rescale {
        /// Operand frame.
        a: &'a [u8],
    },
    /// Slot rotation — the request kind the scheduler coalesces.
    Rotate {
        /// Operand frame.
        a: &'a [u8],
        /// Left-rotation step count.
        steps: i64,
    },
    /// Slot-wise complex conjugation.
    Conjugate {
        /// Operand frame.
        a: &'a [u8],
    },
    /// Ciphertext + plaintext addition.
    AddPlain {
        /// Ciphertext operand frame.
        a: &'a [u8],
        /// Plaintext operand frame.
        pt: &'a [u8],
    },
    /// Ciphertext × plaintext multiplication.
    MulPlain {
        /// Ciphertext operand frame.
        a: &'a [u8],
        /// Plaintext operand frame.
        pt: &'a [u8],
    },
    /// Tenant provisioning, one chunk of a streamed key-set.
    RegisterTenantChunk {
        /// One [`poseidon_wire::chunk_keyset`] chunk frame.
        chunk: &'a [u8],
    },
    /// A whole `.pos` program submitted as one planned, admission-
    /// controlled unit (deadline, queue bound, and replay cover the full
    /// program, and the planner optimises across its dataflow).
    Program {
        /// Program text in the `.pos` trace format (utf-8).
        program: &'a [u8],
        /// Seed ciphertext frame bound to every program input.
        a: &'a [u8],
    },
}

impl Op<'_> {
    fn opcode(&self) -> Opcode {
        match self {
            Op::Add { .. } => Opcode::Add,
            Op::Sub { .. } => Opcode::Sub,
            Op::Mul { .. } => Opcode::Mul,
            Op::Square { .. } => Opcode::Square,
            Op::Rescale { .. } => Opcode::Rescale,
            Op::Rotate { .. } => Opcode::Rotate,
            Op::Conjugate { .. } => Opcode::Conjugate,
            Op::AddPlain { .. } => Opcode::AddPlain,
            Op::MulPlain { .. } => Opcode::MulPlain,
            Op::RegisterTenantChunk { .. } => Opcode::RegisterTenantChunk,
            Op::Program { .. } => Opcode::Program,
        }
    }

    fn steps(&self) -> Option<i64> {
        match self {
            Op::Rotate { steps, .. } => Some(*steps),
            _ => None,
        }
    }

    fn blobs(&self) -> Vec<&[u8]> {
        match self {
            Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => vec![a, b],
            Op::Square { a } | Op::Rescale { a } | Op::Rotate { a, .. } | Op::Conjugate { a } => {
                vec![a]
            }
            Op::AddPlain { a, pt } | Op::MulPlain { a, pt } => vec![a, pt],
            Op::RegisterTenantChunk { chunk } => vec![chunk],
            Op::Program { program, a } => vec![program, a],
        }
    }
}

/// The request opcodes — the one copy of their numbers, which the client
/// encoder and the server parser both read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Opcode {
    Add = 1,
    Sub = 2,
    Mul = 3,
    Square = 4,
    Rescale = 5,
    Rotate = 6,
    Conjugate = 7,
    AddPlain = 8,
    MulPlain = 9,
    // 10 is retired; never reuse it.
    RegisterTenantChunk = 11,
    Program = 12,
}

impl Opcode {
    const ALL: [Opcode; 11] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Square,
        Opcode::Rescale,
        Opcode::Rotate,
        Opcode::Conjugate,
        Opcode::AddPlain,
        Opcode::MulPlain,
        Opcode::RegisterTenantChunk,
        Opcode::Program,
    ];

    fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|op| *op as u8 == code)
    }
}

/// The reply error codes — the one copy of their numbers, which the
/// server's error frames and the client's reply parser both read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum ErrorCode {
    UnknownTenant = 1,
    QueueFull = 2,
    Eval = 3,
    Wire = 4,
    ShuttingDown = 5,
    Internal = 6,
    Protocol = 7,
    // 8 is retired; never reuse it.
    DeadlineExceeded = 9,
}

impl ErrorCode {
    fn of(e: &ServeError) -> Self {
        match e {
            ServeError::UnknownTenant(_) => ErrorCode::UnknownTenant,
            ServeError::QueueFull { .. } => ErrorCode::QueueFull,
            ServeError::Eval(_) => ErrorCode::Eval,
            ServeError::Wire(_) => ErrorCode::Wire,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Internal(_) => ErrorCode::Internal,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::Protocol(_) | ServeError::Io(_) | ServeError::Remote { .. } => {
                ErrorCode::Protocol
            }
        }
    }

    /// A remote failure a resubmission may clear: the queue was full or
    /// the worker failed, not the request.
    fn is_retryable(code: u8) -> bool {
        code == ErrorCode::QueueFull as u8 || code == ErrorCode::Internal as u8
    }
}

/// Request flag bit 0: idempotent replay (see the module docs).
const FLAG_REPLAY: u8 = 1;

/// Fills `buf` exactly. `Ok(false)` means the peer closed cleanly
/// before the first byte. While `idle_ok` and nothing has arrived, a
/// socket read timeout just keeps waiting (an idle connection is not an
/// error); once any byte of `buf` has landed, a timeout is the
/// slowloris signal and fails the read.
fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8], idle_ok: bool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if idle_ok && filled == 0 {
                    continue;
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read timed out mid-frame (stalled peer)",
                ));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF before a
/// prefix. Waits out idle periods regardless of the socket read
/// timeout; times out only against a peer stalled mid-frame.
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_eof(stream, &mut prefix, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut body = vec![0u8; len];
    if len > 0 && !read_exact_or_eof(stream, &mut body, false)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed between prefix and body",
        ));
    }
    // Chaos hook: seeded plans at `SocketRead` corrupt, truncate, stall,
    // or sever the inbound frame; every shape must surface as a typed
    // error (wire checksum, protocol parse, or socket error) downstream.
    match poseidon_faults::disrupt(poseidon_faults::FaultSite::SocketRead, &mut body) {
        Some(poseidon_faults::Disruption::Truncated(n)) => body.truncate(n),
        Some(poseidon_faults::Disruption::Stalled(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
        }
        Some(poseidon_faults::Disruption::Disconnected)
        | Some(poseidon_faults::Disruption::Panicked) => {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected read disconnect",
            ));
        }
        Some(poseidon_faults::Disruption::Corrupted) | None => {}
    }
    Ok(Some(body))
}

/// Framed write with the `SocketWrite`/`SocketStall` chaos sites wired
/// in. The disarmed path writes the body as given and copies nothing.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    use poseidon_faults::{disrupt, Disruption, FaultSite};
    if !poseidon_faults::armed() {
        stream.write_all(&(body.len() as u32).to_le_bytes())?;
        stream.write_all(body)?;
        return stream.flush();
    }
    // Mid-frame stall (the slowloris shape, from the writing side): send
    // the prefix and half the payload, hold the rest for the stall
    // duration. A peer with a read timeout must trip and free itself.
    if let Some(Disruption::Stalled(ms)) = disrupt(FaultSite::SocketStall, &mut []) {
        stream.write_all(&(body.len() as u32).to_le_bytes())?;
        let half = body.len() / 2;
        stream.write_all(&body[..half])?;
        stream.flush()?;
        std::thread::sleep(Duration::from_millis(ms));
        stream.write_all(&body[half..])?;
        return stream.flush();
    }
    let mut owned = body.to_vec();
    match disrupt(FaultSite::SocketWrite, &mut owned) {
        Some(Disruption::Disconnected) | Some(Disruption::Panicked) => {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected write disconnect",
            ));
        }
        Some(Disruption::Truncated(n)) => {
            // Declare the full length but deliver a prefix, then sever:
            // the peer observes a mid-frame EOF.
            stream.write_all(&(owned.len() as u32).to_le_bytes())?;
            stream.write_all(&owned[..n])?;
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected write truncation",
            ));
        }
        Some(Disruption::Stalled(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(Disruption::Corrupted) | None => {}
    }
    stream.write_all(&(owned.len() as u32).to_le_bytes())?;
    stream.write_all(&owned)?;
    stream.flush()
}

struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.buf.len() - self.pos < n {
            return Err(ServeError::Protocol(format!(
                "request frame truncated: wanted {n} more bytes"
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn blob(&mut self) -> Result<&'a [u8], ServeError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")) as usize;
        self.take(len)
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.pos != self.buf.len() {
            return Err(ServeError::Protocol(format!(
                "{} trailing bytes after request",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}
