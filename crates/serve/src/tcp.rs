//! Multiplexed TCP front-end over the wire format, plus pipelining and
//! self-healing clients.
//!
//! ## Protocol (v4)
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
//! and pre-execution; an expired request answers with error code 9
//! instead of computing dead work.
//!
//! Two-blob ops: `Add`/`Sub`/`Mul` (two ciphertexts), `AddPlain`/
//! `MulPlain` (ciphertext, plaintext). One-blob ops: `Square`,
//! `Rescale`, `Rotate`, `Conjugate` (ciphertext), `RegisterTenant`
//! (key-set frame, normally [`poseidon_wire::encode_keyset_public`]),
//! and `RegisterTenantChunk` (one [`poseidon_wire::chunk_keyset`] slice;
//! chunks stream in order on one connection and the final chunk's reply
//! acknowledges the registration). `Program` (opcode 12, v4) carries
//! two blobs — raw utf-8 `.pos` program text, then one seed ciphertext
//! frame — and executes the whole program server-side through the
//! evaluation planner as a single admission-controlled unit.
//!
//! **Response** frame body: `request_id: u64 LE` (echoed) followed by
//! status `u8` — `0` = ok then one optional blob (`u32` LE length,
//! possibly zero, then a ciphertext frame), `1` = error then
//! `code: u8 | retry_after_ms: u32 LE | msg_len: u16 LE | msg`.
//! `retry_after_ms` is nonzero only for code 8 (overloaded): the
//! server's backoff hint. The client maps codes 8 and 9 back to the
//! typed [`ServeError::Overloaded`] / [`ServeError::DeadlineExceeded`];
//! every other code surfaces as [`ServeError::Remote`].
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
//! Ciphertext operands are decoded **zero-copy**: the server validates
//! each frame once through [`poseidon_wire::CiphertextView`] and fills
//! residue rows from a shared [`poseidon_wire::BufferPool`]; encoded
//! result ciphertexts recycle their rows back into the pool, so the
//! steady-state request path allocates nothing for polynomial data.
//!
//! A protocol-level parse failure answers with an error frame and drops
//! the connection; a wire/eval failure answers with an error frame and
//! keeps serving. Malformed input never panics the server.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_ckks::cipher::Ciphertext;
use poseidon_wire::{BufferPool, KeysetAssembler};

use crate::{EvalService, Request, ServeError, TenantContext};

/// Upper bound on one protocol frame (64 MiB — comfortably above any
/// supported key-set frame).
pub const MAX_FRAME: usize = 64 << 20;

/// Residue rows retained by a listener's decode pool. At paper-scale
/// parameters a row is ~32 KiB, so the cap bounds pool memory at a few
/// MiB while covering many in-flight requests.
const POOL_ROWS: usize = 256;

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

/// One serving operation, borrowing its operand frames. The generic
/// surface behind [`Client::request`]; the named convenience methods
/// (`add`, `mul`, …) are thin wrappers over these variants.
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
    /// Tenant provisioning from one whole key-set frame.
    RegisterTenant {
        /// The key-set frame.
        keyset: &'a [u8],
    },
    /// Tenant provisioning, one chunk of a streamed key-set.
    RegisterTenantChunk {
        /// One [`poseidon_wire::chunk_keyset`] chunk frame.
        chunk: &'a [u8],
    },
    /// A whole `.pos` program submitted as one planned, admission-
    /// controlled unit (deadline, priority, and replay cover the full
    /// program, and the planner optimises across its dataflow).
    Program {
        /// Program text in the `.pos` trace format (utf-8).
        program: &'a [u8],
        /// Seed ciphertext frame bound to every program input.
        a: &'a [u8],
    },
}

impl Op<'_> {
    fn code(&self) -> u8 {
        match self {
            Op::Add { .. } => 1,
            Op::Sub { .. } => 2,
            Op::Mul { .. } => 3,
            Op::Square { .. } => 4,
            Op::Rescale { .. } => 5,
            Op::Rotate { .. } => 6,
            Op::Conjugate { .. } => 7,
            Op::AddPlain { .. } => 8,
            Op::MulPlain { .. } => 9,
            Op::RegisterTenant { .. } => 10,
            Op::RegisterTenantChunk { .. } => 11,
            Op::Program { .. } => 12,
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
            Op::RegisterTenant { keyset } => vec![keyset],
            Op::RegisterTenantChunk { chunk } => vec![chunk],
            Op::Program { program, a } => vec![program, a],
        }
    }
}

/// Request flag bit 0: idempotent replay (see the module docs).
const FLAG_REPLAY: u8 = 1;

fn error_code(e: &ServeError) -> u8 {
    match e {
        ServeError::UnknownTenant(_) => 1,
        ServeError::QueueFull { .. } => 2,
        ServeError::Eval(_) => 3,
        ServeError::Wire(_) => 4,
        ServeError::ShuttingDown => 5,
        ServeError::Internal(_) => 6,
        ServeError::Overloaded { .. } => 8,
        ServeError::DeadlineExceeded => 9,
        _ => 7,
    }
}

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

fn ok_response(id: u64, blob: Option<&[u8]>) -> Vec<u8> {
    let blob = blob.unwrap_or(&[]);
    let mut out = Vec::with_capacity(13 + blob.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(0);
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
    out
}

fn err_response(id: u64, e: &ServeError) -> Vec<u8> {
    let retry_after_ms: u32 = match e {
        ServeError::Overloaded { retry_after_ms } => {
            (*retry_after_ms).min(u64::from(u32::MAX)) as u32
        }
        _ => 0,
    };
    let msg = e.to_string();
    let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
    let mut out = Vec::with_capacity(16 + msg.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(1);
    out.push(error_code(e));
    out.extend_from_slice(&retry_after_ms.to_le_bytes());
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg);
    out
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

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Traffic from the connection's reader (and the dispatcher sinks) to
/// its single writer thread.
enum WriterMsg {
    /// Announces an in-flight request *before* it is submitted, carrying
    /// the context its eventual result encodes under. Always enqueued
    /// ahead of the matching `Done`, so the writer never sees an
    /// unknown id.
    Expect { id: u64, ctx: TenantContext },
    /// A dispatcher shard finished the job — out of order by design.
    Done {
        id: u64,
        result: Box<Result<Ciphertext, ServeError>>,
    },
    /// A fully rendered response (registration acks, pre-submit errors).
    Immediate { body: Vec<u8> },
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<WriterMsg>, pool: Arc<BufferPool>) {
    let mut pending: HashMap<u64, TenantContext> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        let body = match msg {
            WriterMsg::Expect { id, ctx } => {
                pending.insert(id, ctx);
                continue;
            }
            WriterMsg::Done { id, result } => {
                let Some(ctx) = pending.remove(&id) else {
                    // A stray completion (e.g. a drop-guard reply racing
                    // an already-answered id) is dropped, not fatal: the
                    // client resolved this id already.
                    continue;
                };
                match *result {
                    Ok(ct) => {
                        let frame = poseidon_wire::encode_ciphertext(&ctx, &ct);
                        // The result's residue rows feed future decodes.
                        pool.recycle_ciphertext(ct);
                        ok_response(id, Some(&frame))
                    }
                    Err(e) => err_response(id, &e),
                }
            }
            WriterMsg::Immediate { body } => body,
        };
        if write_frame(&mut stream, &body).is_err() {
            break;
        }
    }
}

/// Whether the connection can keep parsing frames after this request.
enum Flow {
    Continue,
    /// Protocol desync — unrecoverable mid-stream; close after reporting.
    Close,
}

/// Parses and dispatches one request frame. Eval ops are *submitted*
/// (the reply flows through the writer when a dispatcher finishes);
/// registrations are answered immediately.
fn process(
    service: &EvalService,
    pool: &Arc<BufferPool>,
    assembler: &mut KeysetAssembler,
    frame: &[u8],
    tx: &mpsc::Sender<WriterMsg>,
) -> Flow {
    let mut r = FrameReader { buf: frame, pos: 0 };
    let id = match r.take(8) {
        Ok(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
        Err(e) => {
            let _ = tx.send(WriterMsg::Immediate {
                body: err_response(0, &e),
            });
            return Flow::Close;
        }
    };
    match process_body(service, pool, assembler, id, &mut r, tx) {
        Ok(()) => Flow::Continue,
        Err(e) => {
            let desync = matches!(e, ServeError::Protocol(_));
            let _ = tx.send(WriterMsg::Immediate {
                body: err_response(id, &e),
            });
            if desync {
                Flow::Close
            } else {
                Flow::Continue
            }
        }
    }
}

fn process_body(
    service: &EvalService,
    pool: &Arc<BufferPool>,
    assembler: &mut KeysetAssembler,
    id: u64,
    r: &mut FrameReader<'_>,
    tx: &mpsc::Sender<WriterMsg>,
) -> Result<(), ServeError> {
    let code = r.take(1)?[0];
    let flags = r.take(1)?[0];
    let ttl_ms = u32::from_le_bytes(r.take(4)?.try_into().expect("4-byte slice"));
    // The deadline is anchored at parse time: queueing and execution all
    // happen inside the client's budget from here on.
    let deadline = (ttl_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(ttl_ms)));
    let replay = flags & FLAG_REPLAY != 0;
    let tenant_len = u16::from_le_bytes(r.take(2)?.try_into().expect("2-byte slice")) as usize;
    let tenant = std::str::from_utf8(r.take(tenant_len)?)
        .map_err(|_| ServeError::Protocol("tenant id is not utf-8".into()))?
        .to_string();

    // Provisioning ops are answered inline from the reader thread.
    match code {
        10 => {
            let keyset = r.blob()?;
            r.done()?;
            service.register_tenant_frame(&tenant, keyset)?;
            let _ = tx.send(WriterMsg::Immediate {
                body: ok_response(id, None),
            });
            return Ok(());
        }
        11 => {
            let chunk = r.blob()?;
            r.done()?;
            if let Some(keyset) = assembler.accept(chunk)? {
                service.register_tenant_frame(&tenant, &keyset)?;
            }
            let _ = tx.send(WriterMsg::Immediate {
                body: ok_response(id, None),
            });
            return Ok(());
        }
        _ => {}
    }

    let steps = if code == 6 {
        Some(i64::from_le_bytes(
            r.take(8)?.try_into().expect("8-byte slice"),
        ))
    } else {
        None
    };

    let ctx = service
        .tenant_context(&tenant)
        .ok_or_else(|| ServeError::UnknownTenant(tenant.clone()))?;

    // Program submission carries its `.pos` text as the *first* blob —
    // handled before the generic leading-ciphertext decode below.
    if code == 12 {
        let text = std::str::from_utf8(r.blob()?)
            .map_err(|_| ServeError::Protocol("program text is not utf-8".into()))?
            .to_string();
        let a = poseidon_wire::decode_ciphertext_pooled(&ctx, r.blob()?, pool)?;
        r.done()?;
        let _ = tx.send(WriterMsg::Expect { id, ctx });
        let done_tx = tx.clone();
        let submit = service.submit_tagged_opts(
            &tenant,
            Request::Program { text, a },
            id,
            deadline,
            replay,
            move |id, result| {
                let _ = done_tx.send(WriterMsg::Done {
                    id,
                    result: Box::new(result),
                });
            },
        );
        if let Err(e) = submit {
            let _ = tx.send(WriterMsg::Done {
                id,
                result: Box::new(Err(e)),
            });
        }
        return Ok(());
    }

    let a = poseidon_wire::decode_ciphertext_pooled(&ctx, r.blob()?, pool)?;
    let request = match code {
        1 => Request::Add {
            a,
            b: poseidon_wire::decode_ciphertext_pooled(&ctx, r.blob()?, pool)?,
        },
        2 => Request::Sub {
            a,
            b: poseidon_wire::decode_ciphertext_pooled(&ctx, r.blob()?, pool)?,
        },
        3 => Request::Mul {
            a,
            b: poseidon_wire::decode_ciphertext_pooled(&ctx, r.blob()?, pool)?,
        },
        4 => Request::Square { a },
        5 => Request::Rescale { a },
        6 => Request::Rotate {
            a,
            steps: steps.expect("steps parsed for Rotate"),
        },
        7 => Request::Conjugate { a },
        8 => Request::AddPlain {
            a,
            pt: poseidon_wire::decode_plaintext_pooled(&ctx, r.blob()?, pool)?,
        },
        9 => Request::MulPlain {
            a,
            pt: poseidon_wire::decode_plaintext_pooled(&ctx, r.blob()?, pool)?,
        },
        other => return Err(ServeError::Protocol(format!("unknown opcode {other}"))),
    };
    r.done()?;

    // Expect strictly precedes Done on the writer channel: the sink can
    // only fire after submit enqueues the job (or, on a replay-cache
    // hit, inline below) — both after this send.
    let _ = tx.send(WriterMsg::Expect { id, ctx });
    let done_tx = tx.clone();
    if let Err(e) =
        service.submit_tagged_opts(&tenant, request, id, deadline, replay, move |id, result| {
            let _ = done_tx.send(WriterMsg::Done {
                id,
                result: Box::new(result),
            });
        })
    {
        // The job never entered a queue; answer through the same path
        // so the writer clears its Expect entry.
        let _ = tx.send(WriterMsg::Done {
            id,
            result: Box::new(Err(e)),
        });
    }
    Ok(())
}

fn handle_connection(
    service: Arc<EvalService>,
    mut stream: TcpStream,
    pool: Arc<BufferPool>,
    socket: SocketConfig,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = socket.apply_read(&stream);
    let _ = socket.apply_write(&write_half);
    let (tx, rx) = mpsc::channel();
    let writer_pool = Arc::clone(&pool);
    let Ok(writer) = std::thread::Builder::new()
        .name("poseidon-serve-write".into())
        .spawn(move || writer_loop(write_half, rx, writer_pool))
    else {
        return;
    };
    let mut assembler = KeysetAssembler::new();
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        match process(&service, &pool, &mut assembler, &frame, &tx) {
            Flow::Continue => {}
            Flow::Close => break,
        }
    }
    // Dropping our sender lets the writer drain in-flight replies and
    // exit once every dispatcher sink has fired.
    drop(tx);
    let _ = writer.join();
}

/// [`listen`] with explicit socket timeouts — the short-timeout knob
/// the slowloris tests turn.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn listen_with(
    service: Arc<EvalService>,
    addr: impl ToSocketAddrs,
    socket: SocketConfig,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let pool = Arc::new(BufferPool::new(POOL_ROWS));
    let handle = std::thread::Builder::new()
        .name("poseidon-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let service = Arc::clone(&service);
                let pool = Arc::clone(&pool);
                let _ = std::thread::Builder::new()
                    .name("poseidon-serve-conn".into())
                    .spawn(move || handle_connection(service, stream, pool, socket));
            }
        })?;
    Ok((local, handle))
}

/// Binds `addr` and serves connections on background threads; returns
/// the bound address (use port 0 for an ephemeral port) and the acceptor
/// handle. The acceptor runs until the process exits or the listener
/// errors; per-connection threads are detached. All connections share
/// one decode [`BufferPool`] and the default [`SocketConfig`] timeouts.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn listen(
    service: Arc<EvalService>,
    addr: impl ToSocketAddrs,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    listen_with(service, addr, SocketConfig::default())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

type ReplyTx = mpsc::Sender<Result<Option<Vec<u8>>, ServeError>>;

struct PendingMap {
    replies: HashMap<u64, ReplyTx>,
    /// Set when the reader thread stops; new submissions fail fast.
    dead: Option<String>,
}

struct ClientShared {
    writer: Mutex<TcpStream>,
    pending: Mutex<PendingMap>,
    next_id: AtomicU64,
}

/// Per-request knobs for [`Client::submit_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Explicit request id. `None` draws from the client's counter; a
    /// caller supplying ids (the replay path) owns their uniqueness.
    pub id: Option<u64>,
    /// Deadline budget shipped to the server (0 = none): enforced at
    /// admission, dequeue, and pre-execution over there.
    pub ttl_ms: u32,
    /// Request idempotent replay: the server caches this id's executed
    /// outcome, and a resubmission returns the cached reply.
    pub replay: bool,
}

/// One submitted request on a [`Client`]; [`wait`](PendingReply::wait)
/// blocks for the server's reply. Dropping it abandons the reply.
#[derive(Debug)]
pub struct PendingReply {
    rx: mpsc::Receiver<Result<Option<Vec<u8>>, ServeError>>,
    id: u64,
}

impl PendingReply {
    /// The request id this reply is keyed on.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the server answers this request.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], or [`ServeError::Io`] if the
    /// connection died first.
    pub fn wait(self) -> Result<Option<Vec<u8>>, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Io("connection closed".into())))
    }

    /// Blocks for at most `timeout`; `None` means no reply yet (the
    /// pending reply stays valid and can be waited again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Option<Vec<u8>>, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Some(Err(ServeError::Io("connection closed".into())))
            }
        }
    }
}

/// Multiplexing client for the protocol above. All payloads are
/// `poseidon-wire` frames; encoding/decoding stays on the caller's side
/// (the client never needs key material). Shareable across threads
/// (`&self` methods): requests interleave on one connection and replies
/// are matched by id, so many calls can be in flight at once — that
/// pipelining is what keeps the server's shard queues full enough to
/// coalesce.
pub struct Client {
    shared: Arc<ClientShared>,
    read_half: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Client {
    /// Connects to a serving endpoint and starts the reply-demux reader,
    /// with the default [`SocketConfig`] timeouts.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, SocketConfig::default())
    }

    /// [`connect`](Self::connect) with explicit socket timeouts.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect_with(addr: impl ToSocketAddrs, socket: SocketConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        socket.apply_write(&stream)?;
        socket.apply_read(&read_half)?;
        let shared = Arc::new(ClientShared {
            writer: Mutex::new(stream),
            pending: Mutex::new(PendingMap {
                replies: HashMap::new(),
                dead: None,
            }),
            next_id: AtomicU64::new(1),
        });
        let reader_shared = Arc::clone(&shared);
        let mut reader_stream = read_half.try_clone()?;
        let reader = std::thread::Builder::new()
            .name("poseidon-client-read".into())
            .spawn(move || reader_loop(&mut reader_stream, &reader_shared))?;
        Ok(Self {
            shared,
            read_half,
            reader: Some(reader),
        })
    }

    /// Sends one request without waiting — the pipelining primitive.
    /// Replies arrive whenever the server finishes; collect them through
    /// the returned [`PendingReply`] in any order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection is closed or the send fails.
    pub fn submit(&self, tenant: &str, op: Op<'_>) -> Result<PendingReply, ServeError> {
        self.submit_opts(tenant, op, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with per-request options: explicit id,
    /// deadline budget, and the idempotent-replay flag — the primitives
    /// [`ResilientClient`] builds safe resubmission from.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection is closed or the send fails;
    /// [`ServeError::Protocol`], with nothing sent, for a tenant id longer
    /// than 65 535 bytes or a request longer than [`MAX_FRAME`].
    pub fn submit_opts(
        &self,
        tenant: &str,
        op: Op<'_>,
        opts: SubmitOptions,
    ) -> Result<PendingReply, ServeError> {
        // Refuse what the protocol cannot carry before anything is sent: a
        // truncated tenant id would run the request against whichever
        // tenant its prefix names, and the server drops a connection that
        // sends a body past MAX_FRAME, failing every request behind it.
        let tenant_len = u16::try_from(tenant.len()).map_err(|_| {
            ServeError::Protocol(format!(
                "tenant id of {} bytes exceeds the protocol's {} bytes",
                tenant.len(),
                u16::MAX
            ))
        })?;
        let blobs = op.blobs();
        let len = 16
            + tenant.len()
            + op.steps().map_or(0, |_| 8)
            + blobs.iter().map(|blob| 4 + blob.len()).sum::<usize>();
        if len > MAX_FRAME {
            return Err(ServeError::Protocol(format!(
                "request of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
            )));
        }
        let id = opts
            .id
            .unwrap_or_else(|| self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        {
            let mut pending = self.shared.pending.lock().expect("pending map poisoned");
            if let Some(reason) = &pending.dead {
                return Err(ServeError::Io(reason.clone()));
            }
            pending.replies.insert(id, tx);
        }

        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&id.to_le_bytes());
        body.push(op.code());
        body.push(if opts.replay { FLAG_REPLAY } else { 0 });
        body.extend_from_slice(&opts.ttl_ms.to_le_bytes());
        body.extend_from_slice(&tenant_len.to_le_bytes());
        body.extend_from_slice(tenant.as_bytes());
        if let Some(s) = op.steps() {
            body.extend_from_slice(&s.to_le_bytes());
        }
        for blob in blobs {
            body.extend_from_slice(&(blob.len() as u32).to_le_bytes());
            body.extend_from_slice(blob);
        }

        let write_result = {
            let mut stream = self.shared.writer.lock().expect("writer poisoned");
            write_frame(&mut stream, &body)
        };
        if let Err(e) = write_result {
            self.shared
                .pending
                .lock()
                .expect("pending map poisoned")
                .replies
                .remove(&id);
            return Err(ServeError::Io(e.to_string()));
        }
        Ok(PendingReply { rx, id })
    }

    /// Submit + wait: one request, blocking for its reply. The generic
    /// surface every named convenience method wraps.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], or a local [`ServeError::Io`].
    pub fn request(&self, tenant: &str, op: Op<'_>) -> Result<Option<Vec<u8>>, ServeError> {
        self.submit(tenant, op)?.wait()
    }

    fn expect_blob(result: Result<Option<Vec<u8>>, ServeError>) -> Result<Vec<u8>, ServeError> {
        result?.ok_or_else(|| ServeError::Protocol("expected a ciphertext in response".into()))
    }

    /// Registers a tenant from a key-set frame.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn register_tenant(&self, tenant: &str, keyset_frame: &[u8]) -> Result<(), ServeError> {
        self.request(
            tenant,
            Op::RegisterTenant {
                keyset: keyset_frame,
            },
        )
        .map(|_| ())
    }

    /// Registers a tenant by streaming its key-set frame in
    /// [`poseidon_wire::KEYSET_CHUNK_BYTES`] chunks — all chunks are
    /// pipelined before the acks are collected, so provisioning takes
    /// one round trip regardless of key-set size.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`] for whichever chunk failed.
    pub fn register_tenant_chunked(
        &self,
        tenant: &str,
        keyset_frame: &[u8],
    ) -> Result<(), ServeError> {
        let chunks = poseidon_wire::chunk_keyset(keyset_frame, poseidon_wire::KEYSET_CHUNK_BYTES);
        let mut acks = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            acks.push(self.submit(tenant, Op::RegisterTenantChunk { chunk })?);
        }
        for ack in acks {
            ack.wait()?;
        }
        Ok(())
    }

    /// Homomorphic addition of two ciphertext frames.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn add(&self, tenant: &str, a: &[u8], b: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Add { a, b }))
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn sub(&self, tenant: &str, a: &[u8], b: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Sub { a, b }))
    }

    /// Relinearised multiplication.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn mul(&self, tenant: &str, a: &[u8], b: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Mul { a, b }))
    }

    /// Relinearised squaring.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn square(&self, tenant: &str, a: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Square { a }))
    }

    /// Rescale by the top chain prime.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn rescale(&self, tenant: &str, a: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Rescale { a }))
    }

    /// Slot rotation by `steps`.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn rotate(&self, tenant: &str, a: &[u8], steps: i64) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Rotate { a, steps }))
    }

    /// Slot-wise conjugation.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn conjugate(&self, tenant: &str, a: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::Conjugate { a }))
    }

    /// Ciphertext + plaintext addition.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn add_plain(&self, tenant: &str, a: &[u8], pt: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::AddPlain { a, pt }))
    }

    /// Ciphertext × plaintext multiplication.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message.
    pub fn mul_plain(&self, tenant: &str, a: &[u8], pt: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(tenant, Op::MulPlain { a, pt }))
    }

    /// Submits a whole `.pos` program with `a` seeding every program
    /// input; the reply is the program's final output ciphertext.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], flattened to its message — a parse
    /// or planning failure comes back as an eval error (code 3) without
    /// executing any operation.
    pub fn program(&self, tenant: &str, program: &str, a: &[u8]) -> Result<Vec<u8>, ServeError> {
        Self::expect_blob(self.request(
            tenant,
            Op::Program {
                program: program.as_bytes(),
                a,
            },
        ))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Fail outstanding requests with a typed error *before* tearing
        // the socket down: a waiter never observes a silent hang, even
        // if the reader thread is itself wedged on a half-closed socket.
        {
            let mut pending = self.shared.pending.lock().expect("pending map poisoned");
            if pending.dead.is_none() {
                pending.dead = Some("client dropped".into());
            }
            for (_, tx) in pending.replies.drain() {
                let _ = tx.send(Err(ServeError::Io("client dropped".into())));
            }
        }
        let _ = self.read_half.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Demultiplexes server replies into the pending map until the
/// connection closes, then fails every outstanding request.
fn reader_loop(stream: &mut TcpStream, shared: &ClientShared) {
    let reason = loop {
        let frame = match read_frame(stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break "server closed the connection".to_string(),
            Err(e) => break e.to_string(),
        };
        if frame.len() < 9 {
            break format!("short response frame of {} bytes", frame.len());
        }
        let id = u64::from_le_bytes(frame[..8].try_into().expect("8-byte slice"));
        let result = parse_reply(&frame[8..]);
        let tx = shared
            .pending
            .lock()
            .expect("pending map poisoned")
            .replies
            .remove(&id);
        // An unknown id (abandoned PendingReply) is dropped silently.
        if let Some(tx) = tx {
            let _ = tx.send(result);
        }
    };
    let mut pending = shared.pending.lock().expect("pending map poisoned");
    if pending.dead.is_none() {
        pending.dead = Some(reason.clone());
    }
    for (_, tx) in pending.replies.drain() {
        let _ = tx.send(Err(ServeError::Io(reason.clone())));
    }
}

fn parse_reply(body: &[u8]) -> Result<Option<Vec<u8>>, ServeError> {
    let mut r = FrameReader { buf: body, pos: 0 };
    match r.take(1)?[0] {
        0 => {
            let blob = r.blob()?;
            r.done()?;
            Ok(if blob.is_empty() {
                None
            } else {
                Some(blob.to_vec())
            })
        }
        1 => {
            let code = r.take(1)?[0];
            let retry_after_ms = u64::from(u32::from_le_bytes(
                r.take(4)?.try_into().expect("4-byte slice"),
            ));
            let len = u16::from_le_bytes(r.take(2)?.try_into().expect("2-byte slice")) as usize;
            let message = String::from_utf8_lossy(r.take(len)?).into_owned();
            r.done()?;
            Err(match code {
                8 => ServeError::Overloaded { retry_after_ms },
                9 => ServeError::DeadlineExceeded,
                code => ServeError::Remote { code, message },
            })
        }
        s => Err(ServeError::Protocol(format!("unknown response status {s}"))),
    }
}

// ---------------------------------------------------------------------------
// Resilient client
// ---------------------------------------------------------------------------

/// Retry/backoff/timeout policy for [`ResilientClient`]. Backoff is
/// capped exponential with deterministic seeded jitter — two clients
/// built from the same seed retry on identical schedules, which is what
/// lets the chaos campaign assert its outcomes bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per request (first attempt included). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry k is `min(base << (k-1), max) + jitter`.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (pre-jitter).
    pub max_backoff_ms: u64,
    /// Per-attempt reply timeout; an attempt that exceeds it abandons
    /// the connection and retries. `0` waits forever.
    pub request_timeout_ms: u64,
    /// Deadline budget attached to every attempt (protocol `ttl_ms`;
    /// 0 = none).
    pub ttl_ms: u32,
    /// Seed for the backoff-jitter stream: two clients built from the
    /// same seed retry on identical schedules. The seed does *not*
    /// determine the replay request-id range — ids additionally mix
    /// per-instance OS entropy, because the server's replay cache is
    /// keyed `(tenant, id)` and two clients drawing the same ids for
    /// one tenant would silently receive each other's cached replies.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            request_timeout_ms: 5_000,
            ttl_ms: 0,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// SplitMix64 — the same deterministic stream the fault injector uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-instance entropy for the replay request-id range: a process-wide
/// instance counter hashed through an OS-randomly-keyed SipHash
/// ([`RandomState`] draws its keys from the OS at first use), with the
/// process id folded in. Two `ResilientClient`s — in one process, in
/// two processes, or across a restart — therefore draw from disjoint id
/// ranges even under the identical default [`RetryPolicy`], which is
/// what keeps the server's `(tenant, id)`-keyed replay cache from
/// handing one client another client's cached reply.
///
/// [`RandomState`]: std::collections::hash_map::RandomState
fn instance_entropy() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    use std::sync::OnceLock;
    static INSTANCE: AtomicU64 = AtomicU64::new(0);
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
    h.write_u64(INSTANCE.fetch_add(1, Ordering::Relaxed));
    h.write_u32(std::process::id());
    h.finish()
}

/// A self-healing wrapper over [`Client`]: per-request timeout, capped
/// exponential backoff with seeded jitter, automatic reconnection, and
/// replay-flagged resubmission. Every request ships the replay flag, so
/// a retry of a request the server already executed returns the cached
/// reply — the observable effect is exactly-once even when the
/// connection dies mid-flight.
///
/// Retryable failures: local socket errors, per-attempt timeouts,
/// [`ServeError::Overloaded`] (honouring its retry-after hint), and the
/// remote queue-full/internal codes. Everything else (unknown tenant,
/// eval errors, protocol desync, deadline exhaustion) returns
/// immediately.
pub struct ResilientClient {
    addr: SocketAddr,
    socket: SocketConfig,
    policy: RetryPolicy,
    conn: Mutex<Option<Client>>,
    jitter: Mutex<u64>,
    next_id: AtomicU64,
    connects: AtomicU64,
    retries: AtomicU64,
}

impl ResilientClient {
    /// Resolves `addr` once and connects eagerly (the address is kept
    /// for reconnects).
    ///
    /// # Errors
    ///
    /// Address resolution or initial connect failure.
    pub fn connect(
        addr: impl ToSocketAddrs,
        socket: SocketConfig,
        policy: RetryPolicy,
    ) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let client = Self {
            addr,
            socket,
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            conn: Mutex::new(None),
            jitter: Mutex::new(splitmix64(policy.jitter_seed)),
            // Replay ids must not collide across reconnects (a fresh
            // Client counts from 1; the top bit separates the ranges)
            // nor across client instances (the server's replay cache
            // is keyed (tenant, id), so a shared range would alias two
            // clients' cached replies) — mix per-instance entropy into
            // the seeded base.
            next_id: AtomicU64::new(
                splitmix64(policy.jitter_seed ^ instance_entropy()) | (1 << 63),
            ),
            connects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Connections established so far (1 = never reconnected).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Resubmissions performed so far across all requests.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn ensure_connected(&self) -> io::Result<()> {
        let mut conn = self.conn.lock().expect("connection poisoned");
        if conn.is_none() {
            *conn = Some(Client::connect_with(self.addr, self.socket)?);
            self.connects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn drop_conn(&self) {
        *self.conn.lock().expect("connection poisoned") = None;
    }

    fn next_jitter(&self) -> u64 {
        let mut state = self.jitter.lock().expect("jitter poisoned");
        *state = splitmix64(*state);
        *state
    }

    fn backoff_ms(&self, attempt: u32, hint_ms: Option<u64>) -> u64 {
        let exp = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.policy.max_backoff_ms);
        let base = hint_ms.map_or(exp, |h| h.max(exp).min(self.policy.max_backoff_ms.max(h)));
        let jitter_span = self.policy.base_backoff_ms.max(1);
        base + self.next_jitter() % jitter_span
    }

    fn attempt(&self, tenant: &str, op: Op<'_>, id: u64) -> Result<Option<Vec<u8>>, ServeError> {
        self.ensure_connected()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let pending = {
            let conn = self.conn.lock().expect("connection poisoned");
            let client = conn.as_ref().expect("connection established above");
            match client.submit_opts(
                tenant,
                op,
                SubmitOptions {
                    id: Some(id),
                    ttl_ms: self.policy.ttl_ms,
                    replay: true,
                },
            ) {
                Ok(pending) => pending,
                Err(e) => {
                    drop(conn);
                    self.drop_conn();
                    return Err(e);
                }
            }
        };
        if self.policy.request_timeout_ms == 0 {
            return pending.wait();
        }
        match pending.wait_timeout(Duration::from_millis(self.policy.request_timeout_ms)) {
            Some(Ok(reply)) => Ok(reply),
            Some(Err(e)) => {
                if matches!(e, ServeError::Io(_)) {
                    self.drop_conn();
                }
                Err(e)
            }
            None => {
                // The attempt outlived its budget: the connection is
                // suspect (stalled server, lost reply). Abandon it; the
                // replay flag makes resubmission safe.
                self.drop_conn();
                Err(ServeError::Io(format!(
                    "request {id} timed out after {} ms",
                    self.policy.request_timeout_ms
                )))
            }
        }
    }

    /// One request with the full resilience ladder: submit with replay,
    /// bounded wait, reconnect + seeded backoff + resubmit on retryable
    /// failure.
    ///
    /// # Errors
    ///
    /// The last attempt's [`ServeError`] once retries are exhausted, or
    /// the first non-retryable failure.
    pub fn request(&self, tenant: &str, op: Op<'_>) -> Result<Option<Vec<u8>>, ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            match self.attempt(tenant, op, id) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let hint = match &e {
                        ServeError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                        _ => None,
                    };
                    let retryable = matches!(
                        e,
                        ServeError::Io(_)
                            | ServeError::Overloaded { .. }
                            | ServeError::QueueFull { .. }
                            | ServeError::Remote { code: 2 | 6, .. }
                    );
                    attempt += 1;
                    if !retryable || attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(self.backoff_ms(attempt - 1, hint)));
                }
            }
        }
    }

    /// Registers a tenant from a key-set frame, with the same retry
    /// ladder (registration replaces the tenant, so it is naturally
    /// idempotent).
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn register_tenant(&self, tenant: &str, keyset_frame: &[u8]) -> Result<(), ServeError> {
        self.request(
            tenant,
            Op::RegisterTenant {
                keyset: keyset_frame,
            },
        )
        .map(|_| ())
    }

    /// Blocking convenience: expects a ciphertext reply.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn call(&self, tenant: &str, op: Op<'_>) -> Result<Vec<u8>, ServeError> {
        self.request(tenant, op)?
            .ok_or_else(|| ServeError::Protocol("expected a ciphertext in response".into()))
    }
}
