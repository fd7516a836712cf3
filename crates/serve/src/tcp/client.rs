//! The multiplexing client: requests interleave on one connection and
//! a reader thread matches replies to them by request id.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::{
    read_frame, write_frame, ErrorCode, FrameReader, Op, SocketConfig, FLAG_REPLAY, MAX_FRAME,
};
use crate::ServeError;

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
    /// Held while one registration writes its chunks, so two key-set
    /// streams on this connection never interleave.
    provisioning: Mutex<()>,
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
            provisioning: Mutex::new(()),
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
    /// [`ResilientClient`](super::ResilientClient) builds safe resubmission from.
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
        body.push(op.opcode() as u8);
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

    /// Submit + wait: one request, blocking for its reply.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`], or a local [`ServeError::Io`].
    pub fn request(&self, tenant: &str, op: Op<'_>) -> Result<Option<Vec<u8>>, ServeError> {
        self.submit(tenant, op)?.wait()
    }

    /// Registers a tenant by streaming its key-set frame in
    /// [`poseidon_wire::KEYSET_CHUNK_BYTES`] chunks (a smaller key set is
    /// one chunk) — the one way keys reach a server. All chunks are
    /// pipelined before the acks are collected, so provisioning takes one
    /// round trip regardless of key-set size. Registrations from several
    /// threads on one client write their chunks one stream at a time;
    /// only the acks are awaited concurrently.
    ///
    /// # Errors
    ///
    /// The server's [`ServeError`] for whichever chunk failed;
    /// [`ServeError::Protocol`], with nothing sent, for an empty frame or
    /// one larger than [`poseidon_wire::MAX_KEYSET_BYTES`].
    pub fn register_tenant_chunked(
        &self,
        tenant: &str,
        keyset_frame: &[u8],
    ) -> Result<(), ServeError> {
        if keyset_frame.is_empty() || keyset_frame.len() > poseidon_wire::MAX_KEYSET_BYTES {
            return Err(ServeError::Protocol(format!(
                "key-set frame of {} bytes outside (0, {}]",
                keyset_frame.len(),
                poseidon_wire::MAX_KEYSET_BYTES
            )));
        }
        let chunks = poseidon_wire::chunk_keyset(keyset_frame, poseidon_wire::KEYSET_CHUNK_BYTES);
        let mut acks = Vec::with_capacity(chunks.len());
        {
            let _stream = self
                .provisioning
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for chunk in &chunks {
                acks.push(self.submit(tenant, Op::RegisterTenantChunk { chunk })?);
            }
        }
        for ack in acks {
            ack.wait()?;
        }
        Ok(())
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
            let len = u16::from_le_bytes(r.take(2)?.try_into().expect("2-byte slice")) as usize;
            let message = String::from_utf8_lossy(r.take(len)?).into_owned();
            r.done()?;
            Err(if code == ErrorCode::DeadlineExceeded as u8 {
                ServeError::DeadlineExceeded
            } else {
                ServeError::Remote { code, message }
            })
        }
        s => Err(ServeError::Protocol(format!("unknown response status {s}"))),
    }
}
