//! The serving end: one reader and one writer thread per connection,
//! requests parsed against the opcode table and admitted into the
//! [`EvalService`].

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::context::CkksContext;
use poseidon_wire::{BufferPool, KeysetAssembler, WireError};

use super::{read_frame, write_frame, ErrorCode, FrameReader, Opcode, SocketConfig, FLAG_REPLAY};
use crate::{EvalService, Request, ServeError};

/// Residue rows retained by a listener's decode pool. At paper-scale
/// parameters a row is ~32 KiB, so the cap bounds pool memory at a few
/// MiB while covering many in-flight requests.
const POOL_ROWS: usize = 256;

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
    let msg = e.to_string();
    let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
    let mut out = Vec::with_capacity(12 + msg.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.push(1);
    out.push(ErrorCode::of(e) as u8);
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg);
    out
}

/// Traffic from the connection's reader (and the dispatcher sinks) to
/// its single writer thread.
enum WriterMsg {
    /// Announces an in-flight request *before* it is submitted, carrying
    /// a handle on the tenant's context, which its eventual result encodes
    /// under. Always enqueued ahead of the matching `Done`, so the writer
    /// never sees an unknown id.
    Expect { id: u64, ctx: CkksContext },
    /// A dispatcher shard finished the job — out of order by design.
    Done {
        id: u64,
        result: Box<Result<Ciphertext, ServeError>>,
    },
    /// A fully rendered response (registration acks, pre-submit errors).
    Immediate { body: Vec<u8> },
}

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<WriterMsg>, pool: Arc<BufferPool>) {
    let mut pending: HashMap<u64, CkksContext> = HashMap::new();
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

/// A connection's key-set stream: the chunks assembled so far and the
/// tenant its chunk 0 named, which the finished key set registers under.
#[derive(Default)]
struct KeyStream {
    tenant: String,
    assembler: KeysetAssembler,
}

impl KeyStream {
    /// Feeds one chunk sent for `tenant`; returns the finished key-set
    /// frame with the stream's last chunk. A chunk for another tenant
    /// before the stream completes drops the stream: nothing registers,
    /// and the next chunk 0 starts afresh.
    fn accept(&mut self, tenant: &str, chunk: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
        if self.assembler.received() == 0 {
            tenant.clone_into(&mut self.tenant);
        } else if self.tenant != tenant {
            self.assembler.reset();
            return Err(WireError::Malformed(format!(
                "key-set chunk for tenant {tenant:?} inside the stream of tenant {:?}; \
                 the stream is dropped",
                self.tenant
            )));
        }
        self.assembler.accept(chunk)
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
    keys: &mut KeyStream,
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
    match process_body(service, pool, keys, id, &mut r, tx) {
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
    keys: &mut KeyStream,
    id: u64,
    r: &mut FrameReader<'_>,
    tx: &mpsc::Sender<WriterMsg>,
) -> Result<(), ServeError> {
    let code = r.take(1)?[0];
    let opcode = Opcode::from_code(code)
        .ok_or_else(|| ServeError::Protocol(format!("unknown opcode {code}")))?;
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

    // Provisioning is answered inline from the reader thread; a chunk
    // only registers once it completes its key set.
    if opcode == Opcode::RegisterTenantChunk {
        let chunk = r.blob()?;
        r.done()?;
        if let Some(keyset) = keys.accept(&tenant, chunk)? {
            service.register_tenant_frame(&tenant, &keyset)?;
        }
        let _ = tx.send(WriterMsg::Immediate {
            body: ok_response(id, None),
        });
        return Ok(());
    }

    let steps = if opcode == Opcode::Rotate {
        i64::from_le_bytes(r.take(8)?.try_into().expect("8-byte slice"))
    } else {
        0
    };
    // An unknown tenant answers code 1; a key reload that fails to decode
    // answers code 4, as it does in process.
    let looked_up = service.tenant(&tenant)?;
    let ctx = looked_up.keys.context().clone();
    let ct = |r: &mut FrameReader<'_>| -> Result<Ciphertext, ServeError> {
        Ok(poseidon_wire::decode_ciphertext_pooled(
            &ctx,
            r.blob()?,
            pool,
        )?)
    };
    let pt = |r: &mut FrameReader<'_>| -> Result<Plaintext, ServeError> {
        Ok(poseidon_wire::decode_plaintext_pooled(
            &ctx,
            r.blob()?,
            pool,
        )?)
    };
    let request = match opcode {
        Opcode::Add => Request::Add {
            a: ct(r)?,
            b: ct(r)?,
        },
        Opcode::Sub => Request::Sub {
            a: ct(r)?,
            b: ct(r)?,
        },
        Opcode::Mul => Request::Mul {
            a: ct(r)?,
            b: ct(r)?,
        },
        Opcode::Square => Request::Square { a: ct(r)? },
        Opcode::Rescale => Request::Rescale { a: ct(r)? },
        Opcode::Rotate => Request::Rotate { a: ct(r)?, steps },
        Opcode::Conjugate => Request::Conjugate { a: ct(r)? },
        Opcode::AddPlain => Request::AddPlain {
            a: ct(r)?,
            pt: pt(r)?,
        },
        Opcode::MulPlain => Request::MulPlain {
            a: ct(r)?,
            pt: pt(r)?,
        },
        // The `.pos` text travels first, then the seed ciphertext.
        Opcode::Program => Request::Program {
            text: std::str::from_utf8(r.blob()?)
                .map_err(|_| ServeError::Protocol("program text is not utf-8".into()))?
                .to_string(),
            a: ct(r)?,
        },
        Opcode::RegisterTenantChunk => unreachable!("provisioning is answered above"),
    };
    r.done()?;

    // Expect strictly precedes Done on the writer channel: the sink can
    // only fire after submit enqueues the job (or, on a replay-cache
    // hit, inline below) — both after this send.
    let _ = tx.send(WriterMsg::Expect { id, ctx });
    let done_tx = tx.clone();
    let sink = move |id, result| {
        let _ = done_tx.send(WriterMsg::Done {
            id,
            result: Box::new(result),
        });
    };
    if let Err(e) =
        service.submit_tagged_to(looked_up, &tenant, request, id, deadline, replay, sink)
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
    let mut keys = KeyStream::default();
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        match process(&service, &pool, &mut keys, &frame, &tx) {
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
