//! The in-process service: tenant registry (LRU key cache), sharded
//! bounded queues, the batching dispatcher workers, and the watchdog
//! supervisor that restarts them.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_ckks::cipher::Ciphertext;
use he_ckks::context::CkksContext;
use he_ckks::error::EvalError;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::run_checked;
use he_ckks::keys::KeySet;
use poseidon_core::plan::{GraphOp, Plan};

use crate::key_cache::KeyCache;
use crate::shard::{dispatch_loop, Job, Reply, SharedQueues, Sink};
use crate::{Request, ServeError};

/// Sizing knobs for the queues and scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Admission-control bound: submissions beyond this many queued jobs
    /// (summed across shards) are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Upper bound on jobs drained into one scheduling batch (the
    /// coalescing window for same-ciphertext rotations).
    pub max_batch: usize,
    /// Dispatcher worker count. Each tenant hashes to one shard
    /// (affinity keeps its rotation coalescing intact); idle workers
    /// steal from the back of loaded shards. `0` is treated as `1`.
    pub shards: usize,
    /// How many tenants may hold decoded key material at once; beyond
    /// this the least-recently-used tenant's keys are dropped and
    /// re-decoded from its retained key-set frame on next use. In-process
    /// registrations count like any other.
    pub key_cache_capacity: usize,
    /// How often the watchdog scans the dispatcher workers for deaths
    /// and stalls. `0` disables the watchdog entirely.
    pub watchdog_interval_ms: u64,
    /// A worker executing one job (or one coalesced rotation group) for
    /// longer than this is declared stalled: that batch's unanswered jobs
    /// fail with a typed `Internal` error and a replacement worker takes
    /// over the shard's queue. A batch of many short jobs is not a stall.
    /// Generous by default — integrity-checked jobs are milliseconds, not
    /// seconds. `0` disables stall detection (deaths are still handled).
    pub stall_timeout_ms: u64,
    /// Entry bound on the idempotent-replay cache: completed `(tenant,
    /// request id)` results retained so a client retry of an
    /// already-executed request returns the cached reply instead of
    /// re-running (exactly-once observable effect). Eviction is
    /// tenant-fair FIFO: the oldest entry of the tenant holding the
    /// most entries goes first, so one chatty tenant cannot evict every
    /// other tenant's window.
    pub replay_capacity: usize,
    /// Approximate byte bound on the same cache. Each cached success
    /// clones a full ciphertext (potentially megabytes of RNS
    /// residues), so the entry count alone is not a memory bound; FIFO
    /// eviction also fires once the summed approximate entry sizes
    /// exceed this. The newest entry is always retained. `0` disables
    /// the byte bound.
    pub replay_capacity_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 16,
            shards: 1,
            key_cache_capacity: 64,
            watchdog_interval_ms: 25,
            stall_timeout_ms: 10_000,
            replay_capacity: 256,
            replay_capacity_bytes: 64 << 20,
        }
    }
}

/// The most programs one tenant keeps planned.
const PLAN_CACHE_ENTRIES: usize = 16;
/// About the most bytes of plaintexts one tenant's planned programs hold;
/// a plan larger than this on its own runs uncached.
const PLAN_CACHE_BYTES: usize = 16 << 20;

/// Per-tenant evaluation state, built from the tenant's key-set frame at
/// registration and rebuilt from it, bit-identically, after eviction. Its
/// context is the one the keys and the evaluator share
/// (`keys.context()`).
pub(crate) struct Tenant {
    pub(crate) keys: KeySet,
    /// The tenant's one evaluator. A single operation runs on it under
    /// [`run_checked`]; a rotation group and a program run on it once.
    eval: Evaluator,
    /// Programs this tenant ran, planned over its context. Kept here and
    /// nowhere wider, so re-registration and key-cache eviction, which
    /// drop the tenant, drop its plans with it.
    plans: Mutex<PlanCache>,
}

impl Tenant {
    /// Decodes a key-set frame into a tenant's evaluation state.
    pub(crate) fn from_frame(frame: &[u8]) -> Result<Self, poseidon_wire::WireError> {
        let (ctx, keys) = poseidon_wire::decode_keyset(frame)?;
        Ok(Self {
            keys,
            eval: Evaluator::new(&ctx),
            plans: Mutex::new(PlanCache::default()),
        })
    }

    fn plans(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        self.plans.lock().expect("plan cache poisoned")
    }
}

/// A tenant's planned programs keyed by their exact text, least recently
/// used first, bounded by [`PLAN_CACHE_ENTRIES`] and [`PLAN_CACHE_BYTES`].
#[derive(Default)]
struct PlanCache {
    entries: Vec<CachedPlan>,
    bytes: usize,
}

struct CachedPlan {
    text: Box<str>,
    plan: Arc<Plan>,
    bytes: usize,
}

impl PlanCache {
    /// The plan of `text`, now the most recently used.
    fn get(&mut self, text: &str) -> Option<Arc<Plan>> {
        let i = self.entries.iter().position(|e| *e.text == *text)?;
        let entry = self.entries.remove(i);
        let plan = Arc::clone(&entry.plan);
        self.entries.push(entry);
        Some(plan)
    }

    /// Keeps `plan` for `text` unless `text` already has one (a concurrent
    /// request planned it too) or `bytes` alone exceed the byte bound, then
    /// evicts least-recently-used entries down to both bounds.
    fn insert(&mut self, text: &str, plan: Arc<Plan>, bytes: usize) {
        if bytes > PLAN_CACHE_BYTES || self.entries.iter().any(|e| *e.text == *text) {
            return;
        }
        self.bytes += bytes;
        self.entries.push(CachedPlan {
            text: text.into(),
            plan,
            bytes,
        });
        while self.entries.len() > PLAN_CACHE_ENTRIES || self.bytes > PLAN_CACHE_BYTES {
            let evicted = self.entries.remove(0);
            self.bytes -= evicted.bytes;
            crate::tel::plan_evict().add(1);
        }
    }

    /// Forgets `plan`, if it is still kept.
    fn remove(&mut self, plan: &Arc<Plan>) {
        if let Some(i) = self.entries.iter().position(|e| Arc::ptr_eq(&e.plan, plan)) {
            let removed = self.entries.remove(i);
            self.bytes -= removed.bytes;
        }
    }
}

/// Approximate bytes a kept plan holds: its plaintext side table, and the
/// prepared form — the plaintext's limbs and the special limbs — of every
/// plaintext a `RotateSum` weights by, which its first execution builds.
fn plan_bytes(plan: &Plan, ctx: &CkksContext) -> usize {
    let limb = ctx.n() * std::mem::size_of::<u64>();
    let plaintexts = plan.graph.plaintexts();
    let mut weighted = vec![false; plaintexts.len()];
    for node in plan.graph.nodes() {
        if let GraphOp::RotateSum { weights, .. } = &node.op {
            for &pt in weights.iter().flatten() {
                weighted[pt] = true;
            }
        }
    }
    let special = ctx.special_basis().len();
    plaintexts
        .iter()
        .zip(weighted)
        .map(|(pt, weighted)| {
            let side = pt.level() + 1;
            let prepared = if weighted { side + special } else { 0 };
            (side + prepared) * limb
        })
        .sum()
}

/// Handle to one submitted job: the receiving end of the channel its
/// reply sink sends on. [`wait`](Ticket::wait) blocks for the result.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Ciphertext, ServeError>>,
}

impl Ticket {
    /// Blocks until a dispatcher answers this job.
    ///
    /// # Errors
    ///
    /// Whatever the dispatcher reported — or [`ServeError::Internal`] if
    /// it dropped the reply channel without answering.
    pub fn wait(self) -> Result<Ciphertext, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Internal("reply channel dropped".into())))
    }

    /// Blocks for at most `timeout`; `None` means the job is still in
    /// flight (the ticket stays valid).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Ciphertext, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Some(Err(ServeError::Internal("reply channel dropped".into())))
            }
        }
    }
}

/// A replay-flagged request's key: `(tenant, request id)`.
type ReplayKey = (Arc<str>, u64);

/// One replay-flagged `(tenant, request id)`.
enum ReplayEntry {
    /// Queued or executing, with the sinks of the duplicates that arrived
    /// meanwhile: the one execution answers them all.
    Running(Vec<Sink>),
    /// Executed: the outcome a later duplicate is answered from.
    Done(Box<CachedOutcome>),
}

struct CachedOutcome {
    result: Result<Ciphertext, ServeError>,
    /// Approximate heap size of `result`, fixed at insert time.
    cost: usize,
}

/// Approximate heap bytes held by one cached outcome. Residue rows
/// dominate (`2 polys × limbs × n × 8 bytes`); everything else is a
/// flat per-entry overhead.
fn outcome_cost(result: &Result<Ciphertext, ServeError>) -> usize {
    const ENTRY_OVERHEAD: usize = 96;
    match result {
        Ok(ct) => ENTRY_OVERHEAD + 8 * ct.n() * (ct.c0().level_count() + ct.c1().level_count()),
        Err(_) => ENTRY_OVERHEAD,
    }
}

/// The idempotent-replay record: the server half of safe resubmission. One
/// map under one lock holds every replay-flagged `(tenant, request id)`,
/// running or done, so a duplicate sees the first submission's execution
/// or its outcome, never neither. Only *executed* outcomes are kept
/// (success or a deterministic evaluation error): an admission rejection
/// never ran, so retrying it must actually run.
///
/// The bounds cover `Done` entries only. Two hold at once: an entry count
/// and an *approximate byte* budget (each cached success clones full RNS
/// polynomials, so the entry count alone could pin hundreds of megabytes);
/// the newest entry always survives. Eviction is tenant-fair: the victim
/// is the oldest entry of whichever tenant holds the most, so one chatty
/// tenant shrinks its own window first and cannot FIFO-evict the other
/// tenants' idempotency windows. With a single tenant this degenerates to
/// plain FIFO.
struct ReplayRecord {
    capacity: usize,
    capacity_bytes: usize,
    state: Mutex<ReplayState>,
}

#[derive(Default)]
struct ReplayState {
    map: HashMap<ReplayKey, ReplayEntry>,
    /// `Done` keys, oldest first.
    order: VecDeque<ReplayKey>,
    /// Summed cost of the `Done` entries.
    bytes: usize,
    /// `Done` entries per tenant.
    per_tenant: HashMap<Arc<str>, usize>,
}

impl ReplayState {
    /// Evicts one `Done` entry, tenant-fairly: the oldest entry belonging
    /// to a tenant currently holding the most. The order scan is linear,
    /// but the deque is bounded by the (small) entry cap. Scanning from the
    /// front means the victim is never the just-inserted back entry while
    /// anything older ties it.
    fn evict_fair(&mut self) {
        let heaviest = self.per_tenant.values().copied().max().unwrap_or(0);
        let victim = self
            .order
            .iter()
            .position(|(t, _)| self.per_tenant.get(t).copied().unwrap_or(0) == heaviest);
        let Some(key) = victim.and_then(|i| self.order.remove(i)) else {
            return;
        };
        if let Some(ReplayEntry::Done(old)) = self.map.remove(&key) {
            self.bytes -= old.cost;
        }
        if let Some(count) = self.per_tenant.get_mut(&key.0) {
            *count -= 1;
            if *count == 0 {
                self.per_tenant.remove(&key.0);
            }
        }
    }
}

impl ReplayRecord {
    fn new(capacity: usize, capacity_bytes: usize) -> Self {
        Self {
            capacity,
            capacity_bytes,
            state: Mutex::new(ReplayState::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, ReplayState> {
        self.state.lock().expect("replay record poisoned")
    }

    /// Under the one lock: attaches `sink` to `key`'s running execution,
    /// or answers it, once the lock is released, with `key`'s outcome —
    /// `None` either way — or, once `admissible` passes, marks `key`
    /// running and hands `sink` back to go with the job.
    fn claim(
        &self,
        key: &ReplayKey,
        sink: Sink,
        admissible: impl FnOnce() -> Result<(), ServeError>,
    ) -> Result<Option<Sink>, ServeError> {
        let mut state = self.state();
        match state.map.get_mut(key) {
            Some(ReplayEntry::Running(waiters)) => {
                waiters.push(sink);
                crate::tel::replay_coalesced().add(1);
            }
            Some(ReplayEntry::Done(outcome)) => {
                let result = outcome.result.clone();
                drop(state);
                crate::tel::replay_hit().add(1);
                sink(result);
            }
            None => {
                admissible()?;
                state
                    .map
                    .insert(key.clone(), ReplayEntry::Running(Vec::new()));
                return Ok(Some(sink));
            }
        }
        Ok(None)
    }

    /// Ends `key`'s execution with `result` — kept as its outcome when it
    /// executed and the entry bound is not 0, dropped otherwise — and
    /// hands back the sinks that attached to it.
    fn finish(&self, key: &ReplayKey, result: &Result<Ciphertext, ServeError>) -> Vec<Sink> {
        let mut state = self.state();
        let Some(ReplayEntry::Running(waiters)) = state.map.remove(key) else {
            return Vec::new();
        };
        let executed = matches!(result, Ok(_) | Err(ServeError::Eval(_)));
        if executed && self.capacity > 0 {
            let cost = outcome_cost(result);
            let outcome = Box::new(CachedOutcome {
                result: result.clone(),
                cost,
            });
            state.map.insert(key.clone(), ReplayEntry::Done(outcome));
            state.order.push_back(key.clone());
            state.bytes += cost;
            *state.per_tenant.entry(Arc::clone(&key.0)).or_insert(0) += 1;
            // The newest entry always survives (order.len() > 1): an
            // oversized result must still be replayable at least until the
            // next insert, or retrying it would re-execute.
            while (state.order.len() > self.capacity
                || (self.capacity_bytes > 0 && state.bytes > self.capacity_bytes))
                && state.order.len() > 1
            {
                state.evict_fair();
            }
        }
        waiters
    }
}

struct WorkerSlot {
    handle: JoinHandle<()>,
}

/// Owns the dispatcher worker handles and performs the watchdog scan:
/// a finished handle outside shutdown is a death (escaped panic), a
/// busy-since pulse past the stall bound is a wedge. Either way the
/// worker's epoch is retired (a recovered zombie exits on observing it)
/// and a fresh worker is installed, which drains the shard's queue.
struct Supervisor {
    queues: Arc<SharedQueues>,
    slots: Mutex<Vec<WorkerSlot>>,
    stall_timeout_ms: u64,
}

impl Supervisor {
    fn spawn_worker(queues: &Arc<SharedQueues>, i: usize, epoch: u64) -> JoinHandle<()> {
        let q = Arc::clone(queues);
        std::thread::Builder::new()
            .name(format!("poseidon-serve-dispatch-{i}"))
            .spawn(move || dispatch_loop(q, i, epoch))
            .expect("spawn dispatcher")
    }

    fn scan(&self) {
        if self.queues.is_shutdown() {
            return;
        }
        let mut slots = self.slots.lock().expect("worker handles poisoned");
        for (i, slot) in slots.iter_mut().enumerate() {
            let dead = slot.handle.is_finished();
            let stalled = !dead
                && self.stall_timeout_ms > 0
                && self.queues.busy_for_ms(i) > self.stall_timeout_ms;
            if !dead && !stalled {
                continue;
            }
            if self.queues.is_shutdown() {
                // Workers exit on their own during shutdown; a finished
                // handle here is drain, not death.
                return;
            }
            let epoch = self.queues.bump_epoch(i);
            // A stalled zombie may sleep forever holding its batch; its
            // waiters must not. Fail the shard's in-flight replies with
            // a typed Internal now — the zombie's own sends become
            // no-ops once the slots are empty (exactly-once either
            // way). A *dead* worker's unwind already answered its batch
            // through the Reply drop guards, so this drains nothing.
            let failed = if stalled {
                self.queues.fail_in_flight(i)
            } else {
                0
            };
            let fresh = Self::spawn_worker(&self.queues, i, epoch);
            let old = std::mem::replace(slot, WorkerSlot { handle: fresh });
            if dead {
                // Reap the panicked thread. A stalled zombie cannot be
                // joined (it may be wedged indefinitely); dropping its
                // handle detaches it, and the retired epoch guarantees
                // it exits without touching the queues if it recovers.
                let _ = old.handle.join();
            }
            crate::tel::watchdog_restart().add(1);
            if failed > 0 {
                crate::tel::watchdog_failed().add(failed as u64);
            }
        }
    }

    fn shutdown_join(&self) {
        let handles: Vec<_> = self
            .slots
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for slot in handles {
            let _ = slot.handle.join();
        }
    }
}

/// The batch evaluation service. `shards` dispatcher workers drain
/// per-tenant-affine bounded queues in batches under a watchdog
/// supervisor; see the crate docs for the scheduling and resilience
/// policies.
pub struct EvalService {
    queues: Arc<SharedQueues>,
    tenants: KeyCache,
    supervisor: Arc<Supervisor>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    replay: Arc<ReplayRecord>,
}

impl EvalService {
    /// Starts the service, its dispatcher workers, and (unless
    /// `watchdog_interval_ms` is 0) the watchdog supervisor thread.
    pub fn start(config: ServiceConfig) -> Arc<Self> {
        let shards = config.shards.max(1);
        let queues = Arc::new(SharedQueues::new(
            shards,
            config.queue_capacity,
            config.max_batch,
        ));
        let slots = (0..shards)
            .map(|i| WorkerSlot {
                handle: Supervisor::spawn_worker(&queues, i, 0),
            })
            .collect();
        let supervisor = Arc::new(Supervisor {
            queues: Arc::clone(&queues),
            slots: Mutex::new(slots),
            stall_timeout_ms: config.stall_timeout_ms,
        });
        let watchdog = if config.watchdog_interval_ms > 0 {
            let sup = Arc::clone(&supervisor);
            let interval = Duration::from_millis(config.watchdog_interval_ms);
            Some(
                std::thread::Builder::new()
                    .name("poseidon-serve-watchdog".into())
                    .spawn(move || loop {
                        std::thread::sleep(interval);
                        if sup.queues.is_shutdown() {
                            return;
                        }
                        sup.scan();
                    })
                    .expect("spawn watchdog"),
            )
        } else {
            None
        };
        Arc::new(Self {
            queues,
            tenants: KeyCache::new(config.key_cache_capacity),
            supervisor,
            watchdog: Mutex::new(watchdog),
            replay: Arc::new(ReplayRecord::new(
                config.replay_capacity,
                config.replay_capacity_bytes,
            )),
        })
    }

    /// Registers (or replaces) a tenant from in-process key material: the
    /// evaluation half of `keys` is encoded as a public key-set frame
    /// ([`poseidon_wire::encode_keyset_public`]) under the keys' own
    /// context and registered through
    /// [`register_tenant_frame`](Self::register_tenant_frame), so the
    /// tenant is held, evicted and reloaded like one provisioned over TCP.
    pub fn register_tenant(&self, id: impl Into<String>, keys: &KeySet) {
        let frame = poseidon_wire::encode_keyset_public(keys.context(), keys);
        self.register_tenant_frame(id, &frame)
            .expect("a key set decodes from its own public frame");
    }

    /// Registers (or replaces) a tenant from a serialized key-set frame —
    /// every registration's one path. The frame carries its own
    /// parameters; the context is derived deterministically from them.
    /// The frame is retained so the decoded keys can be evicted under
    /// memory pressure and rebuilt bit-identically on next use.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] if the frame does not decode.
    pub fn register_tenant_frame(
        &self,
        id: impl Into<String>,
        frame: &[u8],
    ) -> Result<(), ServeError> {
        let tenant = Tenant::from_frame(frame)?;
        let id: Arc<str> = Arc::from(id.into());
        self.tenants.insert(id, Arc::from(frame), Arc::new(tenant));
        Ok(())
    }

    /// The registered tenant `id`, its keys reloaded from their frame if
    /// they were evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] if `id` was never registered, and
    /// [`ServeError::Wire`] if the reload fails to decode.
    pub(crate) fn tenant(&self, id: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .get(id)?
            .ok_or_else(|| ServeError::UnknownTenant(id.into()))
    }

    /// Decoded tenants currently resident in the key cache —
    /// observability for tests and operators.
    pub fn resident_tenants(&self) -> usize {
        self.tenants.resident()
    }

    /// The configured dispatcher shard count.
    pub fn shards(&self) -> usize {
        self.queues.shard_count()
    }

    /// Which shard a tenant's jobs land on (FNV-1a affinity).
    pub fn shard_of(&self, tenant_id: &str) -> usize {
        self.queues.shard_for(tenant_id, self.queues.shard_count())
    }

    /// Completed results currently retained by the idempotent-replay
    /// record (observability for tests and operators).
    pub fn replay_entries(&self) -> usize {
        self.replay.state().order.len()
    }

    /// Approximate bytes currently pinned by the idempotent-replay
    /// record's completed results (observability for tests and operators).
    pub fn replay_bytes(&self) -> usize {
        self.replay.state().bytes
    }

    /// Replay-flagged `(tenant, id)` executions currently queued or
    /// executing — duplicates of these attach to the pending execution
    /// instead of running twice (observability for tests and
    /// operators).
    pub fn replay_in_flight(&self) -> usize {
        let state = self.replay.state();
        state.map.len() - state.order.len()
    }

    /// Heartbeat count for one dispatcher worker — ticks every time the
    /// worker returns to the queue, so a flatlined value under load
    /// means a wedge (the watchdog's view, exposed for observability).
    pub fn worker_beats(&self, shard: usize) -> u64 {
        self.queues.beats(shard)
    }

    /// Jobs one dispatcher worker has dequeued but not yet answered —
    /// the replies the watchdog would fail with a typed error if the
    /// worker stalled (observability for tests and operators).
    pub fn worker_in_flight(&self, shard: usize) -> usize {
        self.queues.in_flight_len(shard)
    }

    /// Current worker generation for one shard: starts at 0, incremented
    /// each time the watchdog replaces the worker.
    pub fn worker_epoch(&self, shard: usize) -> u64 {
        self.queues.epoch(shard)
    }

    /// Runs one watchdog scan synchronously (deaths and stalls are
    /// detected exactly as the background thread would) — lets tests
    /// drive failover deterministically instead of sleeping.
    pub fn watchdog_scan(&self) {
        self.supervisor.scan();
    }

    /// Rejects a request whose deadline has already passed.
    fn admissible(deadline: Option<Instant>) -> Result<(), ServeError> {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            crate::tel::deadline().add(1);
            return Err(ServeError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Enqueues one request. Admission control is strict: a full queue
    /// rejects immediately rather than blocking the caller.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::QueueFull`], or
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, tenant_id: &str, request: Request) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.admit(
            self.tenant(tenant_id)?,
            tenant_id,
            request,
            None,
            None,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        Ok(Ticket { rx })
    }

    /// Enqueues one request tagged with a caller-chosen id, with a
    /// deadline and the idempotent-replay flag; the `sink` receives
    /// `(id, result)` from whichever dispatcher worker finishes the job
    /// — the multiplexed front-end's out-of-order reply path. A request
    /// whose deadline has already passed is rejected at admission, and
    /// one that expires while queued is answered with
    /// [`ServeError::DeadlineExceeded`] at dequeue instead of computing
    /// dead work. With `replay` set, an id this tenant already executed
    /// returns the cached result immediately (the sink fires inline;
    /// nothing re-runs); an id still *queued or executing* attaches this
    /// sink to that pending execution (one run, every waiter answered — a
    /// retry racing its original never double-executes); and a fresh
    /// execution's outcome is recorded before any sink sees it — the
    /// server half of safe client resubmission.
    ///
    /// # Errors
    ///
    /// The [`submit`](Self::submit) surface plus
    /// [`ServeError::DeadlineExceeded`]. On error the sink is dropped
    /// unused: the caller still owns error reporting for requests that
    /// never entered the queue.
    pub fn submit_tagged_opts(
        &self,
        tenant_id: &str,
        request: Request,
        id: u64,
        deadline: Option<Instant>,
        replay: bool,
        sink: impl FnOnce(u64, Result<Ciphertext, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.submit_tagged_to(
            self.tenant(tenant_id)?,
            tenant_id,
            request,
            id,
            deadline,
            replay,
            sink,
        )
    }

    /// [`submit_tagged_opts`](Self::submit_tagged_opts) for a tenant the
    /// caller has already looked up: the TCP front-end reads the tenant's
    /// context to decode a request's operands, and hands the same tenant
    /// on, so a request takes the key cache once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit_tagged_to(
        &self,
        tenant: Arc<Tenant>,
        tenant_id: &str,
        request: Request,
        id: u64,
        deadline: Option<Instant>,
        replay: bool,
        sink: impl FnOnce(u64, Result<Ciphertext, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        let replay_id = replay.then_some(id);
        self.admit(
            tenant,
            tenant_id,
            request,
            deadline,
            replay_id,
            Box::new(move |result| sink(id, result)),
        )
    }

    /// The one admission path, for `tenant`, looked up once by the caller:
    /// replay (attach to a pending execution, or answer from the record),
    /// the deadline check and the queue submit. `replay_id` keys the
    /// idempotent-replay record when the request carries the replay flag.
    fn admit(
        &self,
        tenant: Arc<Tenant>,
        tenant_id: &str,
        request: Request,
        deadline: Option<Instant>,
        replay_id: Option<u64>,
        sink: Sink,
    ) -> Result<(), ServeError> {
        let tid: Arc<str> = Arc::from(tenant_id);
        let (key, sink): (_, Sink) = match replay_id {
            None => {
                Self::admissible(deadline)?;
                (None, sink)
            }
            Some(id) => {
                let key = (Arc::clone(&tid), id);
                let Some(sink) = self
                    .replay
                    .claim(&key, sink, || Self::admissible(deadline))?
                else {
                    return Ok(());
                };
                let record = Arc::clone(&self.replay);
                let done = key.clone();
                let sink = Box::new(move |result: Result<Ciphertext, ServeError>| {
                    for waiter in record.finish(&done, &result) {
                        waiter(result.clone());
                    }
                    sink(result);
                });
                (Some(key), sink)
            }
        };
        let submitted = self.queues.submit(Job {
            tenant_id: tid,
            tenant,
            request,
            deadline,
            reply: Reply::new(sink),
        });
        if let (Err(e), Some(key)) = (&submitted, &key) {
            // The job never entered a queue (its reply was defused, so the
            // completion wrapper will never run): end the execution with
            // the rejection, which is not kept, and answer any waiters that
            // attached in the window with it.
            let refused = Err(e.clone());
            for waiter in self.replay.finish(key, &refused) {
                waiter(refused.clone());
            }
        }
        submitted
    }

    /// Submit + wait: the blocking convenience used by tests and simple
    /// embedders.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit) and [`Ticket::wait`].
    pub fn call(&self, tenant_id: &str, request: Request) -> Result<Ciphertext, ServeError> {
        self.submit(tenant_id, request)?.wait()
    }

    /// Pauses all dispatchers (jobs accumulate). Lets tests and
    /// operators control batch formation deterministically.
    pub fn suspend(&self) {
        self.queues.suspend();
    }

    /// Resumes the dispatchers.
    pub fn resume(&self) {
        self.queues.resume();
    }

    /// Jobs currently queued across all shards (excluding batches in
    /// flight).
    pub fn queue_depth(&self) -> usize {
        self.queues.depth()
    }

    /// Stops the dispatchers; queued jobs are answered with
    /// [`ServeError::ShuttingDown`]. Called automatically on drop.
    pub fn shutdown(&self) {
        self.queues.begin_shutdown();
        if let Some(handle) = self
            .watchdog
            .lock()
            .expect("watchdog handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
        self.supervisor.shutdown_join();
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers `job` with [`ServeError::DeadlineExceeded`] if its deadline
/// has passed; returns the job back otherwise.
fn reap_expired(job: Job) -> Option<Job> {
    match job.deadline {
        Some(d) if Instant::now() >= d => {
            crate::tel::deadline().add(1);
            job.reply.send(Err(ServeError::DeadlineExceeded));
            None
        }
        _ => Some(job),
    }
}

/// Runs one dequeued batch, routing each job once: a `Rotate` with every
/// rotation of the same tenant and ciphertext in the batch (its group), a
/// `Program` through its tenant's plan, and any other request as one
/// evaluator call under [`run_checked`]. Rotation groups run first, then
/// the other jobs, each in arrival order. `start_job` runs before each group
/// and each other job, restarting the watchdog's clock, so a stall is one
/// job over the bound, not a long batch.
pub(crate) fn execute_batch(batch: Vec<Job>, start_job: impl Fn()) {
    // Dequeue-time deadline check: a request that expired while queued
    // is answered without computing dead work.
    let (mut queue, others): (VecDeque<Job>, VecDeque<Job>) = batch
        .into_iter()
        .filter_map(reap_expired)
        .partition(|job| matches!(job.request, Request::Rotate { .. }));
    queue.extend(others);

    while let Some(job) = queue.pop_front() {
        // Pre-execution deadline check: earlier jobs may have consumed the
        // remaining budget.
        let Some(job) = reap_expired(job) else {
            continue;
        };
        let (tenant, eval, keys) = (&job.tenant, &job.tenant.eval, &job.tenant.keys);
        let (site, op): (&'static str, &dyn Fn() -> Result<Ciphertext, EvalError>) =
            match &job.request {
                Request::Rotate { a, steps } => {
                    let riders = take_riders(&mut queue, &job.tenant_id, a);
                    let steps: Vec<i64> = std::iter::once(*steps)
                        .chain(riders.iter().map(|(steps, _)| *steps))
                        .collect();
                    start_job();
                    let results = run_rotation_group(tenant, a, &steps);
                    let members = std::iter::once(job).chain(riders.into_iter().map(|(_, r)| r));
                    for (member, result) in members.zip(results) {
                        member.reply.send(result);
                    }
                    continue;
                }
                Request::Program { text, a } => {
                    start_job();
                    let result = contain(|| run_program(tenant, text, a).map_err(ServeError::Eval));
                    job.reply.send(result);
                    continue;
                }
                Request::Add { a, b } => ("add", &|| eval.try_add(a, b)),
                Request::Sub { a, b } => ("sub", &|| eval.try_sub(a, b)),
                Request::Mul { a, b } => ("mul", &|| eval.try_mul(a, b, keys)),
                Request::Square { a } => ("square", &|| eval.try_square(a, keys)),
                Request::Rescale { a } => ("rescale", &|| eval.try_rescale(a)),
                Request::Conjugate { a } => ("conjugate", &|| eval.try_conjugate(a, keys)),
                Request::AddPlain { a, pt } => ("add_plain", &|| eval.try_add_plain(a, pt)),
                Request::MulPlain { a, pt } => ("mul_plain", &|| eval.try_mul_plain(a, pt)),
            };
        start_job();
        let result = contain(|| run_checked(site, op).map_err(ServeError::Eval));
        job.reply.send(result);
    }
}

/// Takes from `queue` the rest of a rotation group: every rotation of
/// `tenant_id`'s ciphertext `a`, with its steps, answering any that expired
/// meanwhile. The operand comparison is exact, so equal ciphertexts share
/// one hoist and distinct ones never do.
fn take_riders(queue: &mut VecDeque<Job>, tenant_id: &str, a: &Ciphertext) -> Vec<(i64, Job)> {
    let mut riders = Vec::new();
    for job in std::mem::take(queue) {
        match job.request {
            Request::Rotate { a: ref b, steps } if *job.tenant_id == *tenant_id && b == a => {
                riders.extend(reap_expired(job).map(|rider| (steps, rider)));
            }
            _ => queue.push_back(job),
        }
    }
    riders
}

/// Rotates `a` by each of one group's `steps` through a single hoisted
/// `try_rotate_many` lift — k requests, one digit decomposition — and
/// returns each member's result. Each member's key is looked up first, so
/// a member without one is answered with its own `MissingRotationKey` and
/// the others still share the hoist.
fn run_rotation_group(
    tenant: &Tenant,
    a: &Ciphertext,
    steps: &[i64],
) -> Vec<Result<Ciphertext, ServeError>> {
    let resolved: Vec<Result<i64, EvalError>> = steps
        .iter()
        .map(|&s| tenant.keys.rotation_switch(s).map(|_| s))
        .collect();
    let keyed: Vec<i64> = resolved.iter().flatten().copied().collect();
    let mut fan = contain(|| {
        tenant
            .eval
            .try_rotate_many(a, &keyed, &tenant.keys)
            .map_err(ServeError::Eval)
    })
    .map(Vec::into_iter);
    resolved
        .into_iter()
        .map(|member| match (member, &mut fan) {
            (Err(e), _) => Err(ServeError::Eval(e)),
            (Ok(_), Ok(rotated)) => rotated.next().ok_or_else(|| {
                ServeError::Internal("rotation fan returned too few outputs".into())
            }),
            (Ok(_), Err(e)) => Err(e.clone()),
        })
        .collect()
}

/// Executes one `.pos` program as a unit on a handle copy of the tenant's
/// evaluator. Every graph input is seeded with `a`; the reply is the
/// program's final output.
///
/// The plan — parse → lower (`compile_trace`) → pass pipeline (`plan`) —
/// comes from the tenant's plan cache when this exact text ran before, and
/// with it the `RotateSum` plaintexts its first execution prepared. A plan
/// is kept only once an execution of it has succeeded, and dropped when an
/// execution of it returns any error, so operands prepared by a failed or
/// integrity-escalated request never serve a later one. Parse and planning
/// errors are never kept: the same malformed text fails the same way every
/// time. The cache lock is held to look a plan up, keep it or drop it,
/// never while one executes.
///
/// Serve-side planning runs without bootstrap insertion — tenants
/// register evaluation keys, not bootstrap keys, so an exhausted
/// program is a typed rejection rather than a silent truncation.
fn run_program(tenant: &Tenant, text: &str, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
    use poseidon_core::plan::{execute, plan_trace, PlanOptions};

    let cached = tenant.plans().get(text);
    let hit = cached.is_some();
    let plan = match cached {
        Some(plan) => {
            crate::tel::plan_hit().add(1);
            plan
        }
        None => {
            crate::tel::plan_miss().add(1);
            let trace = poseidon_sim::program::parse(text)
                .map_err(|e| EvalError::InvalidParams(format!("program parse: {e}")))?;
            let plan = plan_trace(&trace, tenant.keys.context(), &PlanOptions::default())
                .map_err(|e| EvalError::InvalidParams(format!("program planning: {e}")))?;
            Arc::new(plan)
        }
    };
    crate::tel::program().add(plan.schedule.len() as u64);
    let inputs = vec![a.clone(); plan.graph.inputs().len()];
    let mut eval = tenant.eval.clone();
    let reply = execute(&plan, &mut eval, &inputs, &tenant.keys).and_then(|outcome| {
        outcome
            .outputs
            .into_iter()
            .next_back()
            .ok_or_else(|| EvalError::InvalidParams("program produced no outputs".into()))
    });
    if reply.is_err() {
        tenant.plans().remove(&plan);
    } else if !hit {
        let bytes = plan_bytes(&plan, tenant.keys.context());
        tenant.plans().insert(text, plan, bytes);
    }
    reply
}

/// Panic containment: a worker panic answers this request with
/// `Internal` instead of killing the dispatcher.
fn contain<R>(f: impl FnOnce() -> Result<R, ServeError>) -> Result<R, ServeError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            Err(ServeError::Internal(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use he_ckks::cipher::Plaintext;
    use he_ckks::params::CkksParams;
    use rand::SeedableRng;

    use super::*;

    fn setup() -> (CkksContext, KeySet, Ciphertext) {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9706);
        let mut keys = KeySet::generate(&ctx, &mut rng);
        keys.add_rotation_keys(1..=4i64, &mut rng);
        let scale = ctx.default_scale();
        let values = [he_ckks::encoding::Complex::new(0.5, 0.0)];
        let pt = Plaintext::new(
            ctx.encoder().encode_rns(ctx.chain_basis(), &values, scale),
            scale,
        );
        let a = keys.public().encrypt(&pt, &mut rng);
        (ctx, keys, a)
    }

    fn tenant() -> (Tenant, Ciphertext) {
        let (ctx, keys, a) = setup();
        let frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
        (Tenant::from_frame(&frame).expect("decodes"), a)
    }

    /// A weighted rotation fan, so every plan prepares `RotateSum` operands.
    fn program(tag: usize) -> String {
        format!("# program {tag}\nn=65536 special=2 dnum=1\nrotation L=3 x4\npmult L=3 x4\nhadd L=3 x4\n")
    }

    #[test]
    fn more_programs_than_the_entry_bound_keep_the_most_recent() {
        let (tenant, a) = tenant();
        let texts: Vec<String> = (0..PLAN_CACHE_ENTRIES + 3).map(program).collect();
        for text in &texts {
            run_program(&tenant, text, &a).expect("program runs");
        }
        let plans = tenant.plans();
        assert_eq!(plans.entries.len(), PLAN_CACHE_ENTRIES);
        let kept: Vec<&str> = plans.entries.iter().map(|e| &*e.text).collect();
        let newest: Vec<&str> = texts[3..].iter().map(String::as_str).collect();
        assert_eq!(kept, newest, "the least recently used go first");
        let bytes: usize = plans.entries.iter().map(|e| e.bytes).sum();
        assert_eq!(plans.bytes, bytes);
        assert!(bytes > 0, "a weighted fan's plaintexts are counted");
        assert!(
            plans
                .entries
                .iter()
                .all(|e| !e.plan.stats.rotation_sums.is_empty()),
            "every kept plan weights a rotation sum"
        );
    }

    #[test]
    fn a_replaced_or_evicted_tenant_keeps_no_plans() {
        let (ctx, keys, a) = setup();
        let frame = poseidon_wire::encode_keyset_public(&ctx, &keys);
        let service = EvalService::start(ServiceConfig {
            key_cache_capacity: 1,
            ..ServiceConfig::default()
        });
        let kept = |id: &str| {
            let tenant = service.tenant(id).expect("registered");
            let count = tenant.plans().entries.len();
            count
        };
        let run = |id: &str| {
            let text = program(0);
            service
                .call(id, Request::Program { text, a: a.clone() })
                .expect("program runs");
        };
        for id in ["t0", "t1"] {
            service.register_tenant_frame(id, &frame).expect("register");
        }
        run("t1");
        assert_eq!(kept("t1"), 1);
        service
            .register_tenant_frame("t1", &frame)
            .expect("re-register");
        assert_eq!(kept("t1"), 0, "re-registration drops the plans");
        run("t1");
        assert_eq!(kept("t1"), 1);
        // With room for one decoded tenant, each reload below evicts the other.
        run("t0");
        assert_eq!(kept("t0"), 1);
        assert_eq!(kept("t1"), 0, "t1 was evicted with its plans");
        assert_eq!(kept("t0"), 0, "t0 was evicted with its plans");
        service.shutdown();
    }

    #[test]
    fn failures_and_oversized_plans_are_not_kept() {
        let (tenant, a) = tenant();
        assert!(run_program(&tenant, "not a trace", &a).is_err());
        // Step 5 has no rotation key: the plan executes and fails.
        let unkeyed = "n=65536 special=2 dnum=1\nrotation L=3 x5\nhadd L=3 x5\n";
        let err = run_program(&tenant, unkeyed, &a).expect_err("no key for step 5");
        assert!(matches!(err, EvalError::MissingRotationKey { .. }), "{err}");
        assert!(tenant.plans().entries.is_empty());
        // A kept plan whose execution fails is dropped: here the input sits
        // at level 0, below what the program consumes.
        let rescaled = format!("{}rescale L=3 x1\n", program(0));
        run_program(&tenant, &rescaled, &a).expect("program runs");
        assert_eq!(tenant.plans().entries.len(), 1);
        let floor = tenant.eval.try_drop_to_level(&a, 0).expect("drops");
        run_program(&tenant, &rescaled, &floor).expect_err("no prime to rescale by");
        assert!(tenant.plans().entries.is_empty());

        let mut plans = PlanCache::default();
        let plan = Arc::new(Plan::passthrough(poseidon_core::plan::EvalGraph::new(40.0)));
        plans.insert("huge", Arc::clone(&plan), PLAN_CACHE_BYTES + 1);
        assert!(plans.get("huge").is_none());
        plans.insert("small", Arc::clone(&plan), 1);
        plans.remove(&plan);
        assert!(plans.entries.is_empty() && plans.bytes == 0);
    }
}
