//! Multi-tenant sharded evaluation service over the Poseidon wire
//! format.
//!
//! The paper's deployment model (§VII) is an accelerator shared by many
//! client keys: requests arrive as serialized ciphertexts, are queued,
//! batched, and executed against per-tenant key material resident on the
//! device. This crate is the software model of that serving layer, built
//! on std-only threads and scaled the way the paper scales its memory
//! system — many independent channels, placement by affinity, stealing
//! for skew:
//!
//! - **Sharded dispatch with tenant affinity** —
//!   [`ServiceConfig::shards`] dispatcher workers drain per-shard
//!   queues; a job's shard is the FNV-1a hash of its tenant id, so one
//!   tenant's requests stay on one worker and rotation coalescing (see
//!   below) keeps firing. An idle worker steals from the *back* of a
//!   loaded victim's queue — only when the victim is busy or its
//!   backlog exceeds `max_batch`, so stealing never splits a batch a
//!   resident worker was about to coalesce. Outputs are bit-identical
//!   at every shard count.
//! - **Global admission control** — [`EvalService::submit`] rejects
//!   with [`ServeError::QueueFull`] at one capacity bound shared by all
//!   shards instead of buffering without bound; rejects are counted
//!   (`serve.reject`, plus per-shard `serve.shard.N` and `serve.steal`)
//!   so operators see backpressure and skew.
//! - **Batching scheduler** — each dispatcher drains up to
//!   `max_batch` jobs at once and coalesces rotation requests on the
//!   *same ciphertext* into one hoisted
//!   [`Evaluator::try_rotate_many`] call: the expensive digit
//!   decomposition (`keyswitch.hoist`) is paid once per batch instead of
//!   once per request — the software analogue of the paper's reuse of a
//!   decomposed operand across automorphisms.
//! - **One way in for keys, one bounded key cache** — every tenant is
//!   registered from a public key-set frame: over TCP as a stream of
//!   chunks ([`tcp::Client::register_tenant_chunked`]), in process by
//!   [`EvalService::register_tenant`], which needs the keys alone and
//!   encodes one under their own context. The cache keeps each tenant's
//!   frame as a cheap `Arc<[u8]>`; the decoded key material is a bounded
//!   LRU resident (`key_cache_capacity`). An evicted tenant's next request
//!   re-decodes from the retained frame (outside the lock, installed only
//!   while the slot still holds that frame) bit-identically; a reload that
//!   fails to decode is a [`ServeError::Wire`]. A tenant's keys, its
//!   evaluator and every frame decoded for it share one [`CkksContext`], a
//!   reference-counted handle. Counters: `serve.keycache.{hit,miss,evict}`.
//! - **Per-tenant plan cache** — a [`Request::Program`] is parsed,
//!   lowered and planned on its tenant's first submission of that exact
//!   text; the plan, with the plaintext operands its first execution
//!   prepares, is kept in the tenant (at most 16 programs and about
//!   16 MiB, least-recently-used evicted) and goes away with it. Only a
//!   plan whose execution succeeded is kept; one whose execution fails is
//!   dropped. Counters: `serve.plan.{hit,miss,evict}`.
//! - **Integrity escalation** — each tenant holds one [`Evaluator`]; every
//!   single operation runs on it under [`run_checked`] (dual execution +
//!   digest compare), so a persistent datapath fault surfaces as a
//!   per-request [`EvalError::IntegrityFault`] response, never a crashed
//!   server. Rotation groups and programs run once. Worker panics are
//!   contained and returned as [`ServeError::Internal`].
//! - **Multiplexed TCP front-end** — every [`tcp`] request carries a
//!   client-chosen request id echoed in the reply, so one socket holds
//!   many requests in flight and replies return in completion order.
//!   The [`tcp::Client`] is `&self`-shareable (submit from any thread,
//!   a reader demuxes by id), payloads decode into pooled scratch rows,
//!   and multi-megabyte keysets stream in 1 MiB chunks, each stream bound
//!   to the tenant its first chunk names.
//! - **One request path** — a TCP request is parsed against one opcode
//!   table into one [`Request`], and every submission — in-process
//!   ([`EvalService::submit`]) or tagged from a connection — passes one
//!   admission function (tenant lookup, replay, deadline, queue) into
//!   one kind of reply sink.
//!
//! [`CkksContext`]: he_ckks::context::CkksContext
//! [`Evaluator`]: he_ckks::eval::Evaluator
//! [`Evaluator::try_rotate_many`]: he_ckks::eval::Evaluator::try_rotate_many
//! [`run_checked`]: he_ckks::integrity::run_checked
//! [`EvalError::IntegrityFault`]: he_ckks::error::EvalError::IntegrityFault

#![forbid(unsafe_code)]

use std::fmt;

use he_ckks::cipher::{Ciphertext, Plaintext};
use he_ckks::error::EvalError;
use poseidon_wire::WireError;

mod key_cache;
mod service;
mod shard;
pub mod tcp;

pub use service::{EvalService, ServiceConfig, Ticket};

/// One evaluation request against a tenant's key material. Ciphertexts
/// are owned: the service executes asynchronously to the submitter.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Request {
    /// Homomorphic addition.
    Add {
        /// Left operand.
        a: Ciphertext,
        /// Right operand.
        b: Ciphertext,
    },
    /// Homomorphic subtraction.
    Sub {
        /// Left operand.
        a: Ciphertext,
        /// Right operand.
        b: Ciphertext,
    },
    /// Relinearised multiplication.
    Mul {
        /// Left operand.
        a: Ciphertext,
        /// Right operand.
        b: Ciphertext,
    },
    /// Relinearised squaring.
    Square {
        /// Operand.
        a: Ciphertext,
    },
    /// Rescale by the top chain prime.
    Rescale {
        /// Operand.
        a: Ciphertext,
    },
    /// Slot rotation — the request kind the scheduler coalesces.
    Rotate {
        /// Operand.
        a: Ciphertext,
        /// Left-rotation step count.
        steps: i64,
    },
    /// Slot-wise complex conjugation.
    Conjugate {
        /// Operand.
        a: Ciphertext,
    },
    /// Ciphertext + plaintext addition.
    AddPlain {
        /// Ciphertext operand.
        a: Ciphertext,
        /// Plaintext operand.
        pt: Plaintext,
    },
    /// Ciphertext × plaintext multiplication.
    MulPlain {
        /// Ciphertext operand.
        a: Ciphertext,
        /// Plaintext operand.
        pt: Plaintext,
    },
    /// A whole `.pos` program, compiled through the evaluation planner
    /// and executed as **one** admission-controlled unit: the deadline,
    /// queue bound, and replay cache govern the entire program, and
    /// the planner's rotation hoisting and rescale fusion apply across
    /// its full dataflow instead of per wire op.
    Program {
        /// Program text in the `.pos` trace format
        /// (`poseidon_sim::program`).
        text: String,
        /// Seed ciphertext bound to every graph input slot.
        a: Ciphertext,
    },
}

/// Why a request was rejected or failed. Like the wire layer, serving is
/// panic-free: every failure mode is a typed response.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// No tenant registered under this identifier.
    UnknownTenant(String),
    /// Admission control: the bounded queue is at capacity. Carries the
    /// observed depth so client backoff can be informed rather than
    /// blind.
    QueueFull {
        /// Jobs queued across all shards at the moment of rejection.
        depth: usize,
        /// The configured queue bound.
        capacity: usize,
    },
    /// The request's deadline elapsed before execution (at admission,
    /// dequeue, or just before running); no work was performed.
    DeadlineExceeded,
    /// The evaluation itself failed (missing key, level exhaustion,
    /// integrity escalation, …).
    Eval(EvalError),
    /// A wire frame in the request could not be decoded.
    Wire(WireError),
    /// The service is shutting down; queued jobs are drained with this.
    ShuttingDown,
    /// A contained worker panic or broken internal channel.
    Internal(String),
    /// A malformed TCP protocol frame (not a wire-format issue).
    Protocol(String),
    /// A client-side socket error.
    Io(String),
    /// A server-reported failure, as seen by the TCP client: the
    /// server's error code plus its message.
    Remote {
        /// Server-side error code, as listed in the [`tcp`] module docs:
        /// 1 unknown tenant, 2 queue full, 3 evaluation error, 4 wire
        /// error, 5 shutting down, 6 internal error, 7 protocol error
        /// (8 is retired). The deadline-exceeded code (9) is mapped back
        /// to [`ServeError::DeadlineExceeded`] by the client and never
        /// surfaces as `Remote`.
        code: u8,
        /// The server's rendered error message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            ServeError::QueueFull { depth, capacity } => {
                write!(
                    f,
                    "queue full: admission control rejected (depth {depth} of capacity {capacity})"
                )
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before execution")
            }
            ServeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ServeError::Wire(e) => write!(f, "wire decode failed: {e}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Io(msg) => write!(f, "socket error: {msg}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EvalError> for ServeError {
    fn from(e: EvalError) -> Self {
        ServeError::Eval(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// Queue/batch observability scopes.
pub(crate) mod tel {
    poseidon_telemetry::scope_fn! {
        pub enqueue = "serve.enqueue";
        pub dequeue = "serve.dequeue";
        pub batch = "serve.batch.size";
        pub reject = "serve.reject";
        pub steal = "serve.steal";
        pub keycache_hit = "serve.keycache.hit";
        pub keycache_miss = "serve.keycache.miss";
        pub keycache_evict = "serve.keycache.evict";
        pub deadline = "serve.deadline";
        pub replay_hit = "serve.replay.hit";
        pub watchdog_restart = "serve.watchdog.restart";
        pub watchdog_failed = "serve.watchdog.failed";
        pub replay_coalesced = "serve.replay.coalesced";
        pub program = "serve.program";
        pub plan_hit = "serve.plan.hit";
        pub plan_miss = "serve.plan.miss";
        pub plan_evict = "serve.plan.evict";
    }
}
