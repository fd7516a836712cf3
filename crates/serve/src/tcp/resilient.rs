//! The self-healing client: per-request timeouts, seeded backoff,
//! reconnection and replay-flagged resubmission over [`Client`].

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use poseidon_faults::splitmix64;

use super::{Client, ErrorCode, Op, SocketConfig, SubmitOptions};
use crate::ServeError;

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
/// Retryable failures: local socket errors, per-attempt timeouts, and
/// the remote queue-full/internal codes. Everything else (unknown tenant,
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

    fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.policy.max_backoff_ms);
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
                    let retryable = match e {
                        ServeError::Io(_) => true,
                        ServeError::Remote { code, .. } => ErrorCode::is_retryable(code),
                        _ => false,
                    };
                    attempt += 1;
                    if !retryable || attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(self.backoff_ms(attempt - 1)));
                }
            }
        }
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
