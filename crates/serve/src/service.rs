//! The in-process service: tenant registry (LRU key cache), sharded
//! bounded queues, the batching dispatcher workers, and the watchdog
//! supervisor that restarts them.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use he_ckks::cipher::Ciphertext;
use he_ckks::context::CkksContext;
use he_ckks::eval::Evaluator;
use he_ckks::integrity::{digest_ciphertext, CheckedEvaluator};
use he_ckks::keys::KeySet;

use crate::key_cache::KeyCache;
use crate::shard::{dispatch_loop, Job, Reply, SharedQueues};
use crate::{Request, ServeError};

/// The default tenant priority: tenants never marked otherwise sit here
/// and are only rejected at the hard [`ServeError::QueueFull`] bound,
/// never shed by the overload ladder.
pub const DEFAULT_PRIORITY: u8 = 128;

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
    /// How many frame-registered tenants may hold decoded key material
    /// at once; beyond this the least-recently-used tenant's keys are
    /// dropped and re-decoded from its retained frame on next use.
    /// In-process registrations are pinned and never counted.
    pub key_cache_capacity: usize,
    /// How often the watchdog scans the dispatcher workers for deaths
    /// and stalls. `0` disables the watchdog entirely.
    pub watchdog_interval_ms: u64,
    /// A worker continuously executing one batch for longer than this is
    /// declared stalled: its queued jobs fail over to a surviving shard
    /// and a replacement worker is installed. Generous by default —
    /// integrity-checked batches are milliseconds, not seconds. `0`
    /// disables stall detection (deaths are still handled).
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

/// Per-tenant evaluation state, built once at registration (or rebuilt
/// deterministically from the retained keyset frame after eviction).
pub(crate) struct Tenant {
    pub(crate) ctx: CkksContext,
    pub(crate) keys: KeySet,
    pub(crate) eval: Evaluator,
    pub(crate) checked: CheckedEvaluator,
}

impl Tenant {
    pub(crate) fn build(ctx: CkksContext, keys: KeySet) -> Self {
        let eval = Evaluator::new(&ctx);
        let checked = CheckedEvaluator::new(&ctx);
        Self {
            ctx,
            keys,
            eval,
            checked,
        }
    }
}

/// A cheap handle on a tenant's [`CkksContext`] — an `Arc` clone, not a
/// context copy. Dereferences to the context for decoding wire frames.
#[derive(Clone)]
pub struct TenantContext {
    tenant: Arc<Tenant>,
}

impl Deref for TenantContext {
    type Target = CkksContext;

    fn deref(&self) -> &CkksContext {
        &self.tenant.ctx
    }
}

impl AsRef<CkksContext> for TenantContext {
    fn as_ref(&self) -> &CkksContext {
        &self.tenant.ctx
    }
}

/// Handle to one submitted job; [`wait`](Ticket::wait) blocks for its
/// result.
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

/// Bounded FIFO cache of completed results keyed `(tenant, request
/// id)`: the server half of safe resubmission. Only *executed* outcomes
/// are cached (success or a deterministic evaluation error) — admission
/// rejections never ran, so retrying them must actually run.
///
/// Two bounds hold at once: a global entry count and a global
/// *approximate byte* budget (each cached success clones full RNS
/// polynomials, so entry count alone could pin hundreds of megabytes).
/// Eviction is tenant-fair: the victim is the oldest entry of whichever
/// tenant holds the most cached entries, so one chatty tenant shrinks
/// its own window first and cannot FIFO-evict the other tenants'
/// idempotency windows. With a single tenant this degenerates to plain
/// FIFO.
struct ReplayCache {
    capacity: usize,
    capacity_bytes: usize,
    state: Mutex<ReplayState>,
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

#[derive(Default)]
struct ReplayState {
    map: HashMap<(Arc<str>, u64), CachedOutcome>,
    order: VecDeque<(Arc<str>, u64)>,
    bytes: usize,
    per_tenant: HashMap<Arc<str>, usize>,
}

impl ReplayState {
    fn remove_key(&mut self, key: &(Arc<str>, u64)) {
        if let Some(old) = self.map.remove(key) {
            self.bytes -= old.cost;
            if let Some(count) = self.per_tenant.get_mut(&key.0) {
                *count -= 1;
                if *count == 0 {
                    self.per_tenant.remove(&key.0);
                }
            }
        }
    }

    /// Evicts one entry, tenant-fairly: the oldest entry belonging to a
    /// tenant currently holding the most cached entries. The order scan
    /// is linear, but the deque is bounded by the (small) global entry
    /// cap. Scanning from the front means the victim is never the
    /// just-inserted back entry while anything older ties it.
    fn evict_fair(&mut self) {
        let heaviest = self.per_tenant.values().copied().max().unwrap_or(0);
        let victim = self
            .order
            .iter()
            .position(|(t, _)| self.per_tenant.get(t).copied().unwrap_or(0) == heaviest);
        if let Some(i) = victim {
            let old = self.order.remove(i).expect("position within deque");
            self.remove_key(&old);
        }
    }
}

impl ReplayCache {
    fn new(capacity: usize, capacity_bytes: usize) -> Self {
        Self {
            capacity,
            capacity_bytes,
            state: Mutex::new(ReplayState::default()),
        }
    }

    fn get(&self, tenant: &Arc<str>, id: u64) -> Option<Result<Ciphertext, ServeError>> {
        let state = self.state.lock().expect("replay cache poisoned");
        state
            .map
            .get(&(Arc::clone(tenant), id))
            .map(|o| o.result.clone())
    }

    fn put(&self, tenant: Arc<str>, id: u64, result: Result<Ciphertext, ServeError>) {
        if self.capacity == 0 {
            return;
        }
        let cost = outcome_cost(&result);
        let mut state = self.state.lock().expect("replay cache poisoned");
        let key = (tenant, id);
        match state
            .map
            .insert(key.clone(), CachedOutcome { result, cost })
        {
            None => {
                state.order.push_back(key.clone());
                state.bytes += cost;
                *state.per_tenant.entry(Arc::clone(&key.0)).or_insert(0) += 1;
            }
            Some(old) => {
                state.bytes = state.bytes - old.cost + cost;
            }
        }
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

    fn len(&self) -> usize {
        self.state.lock().expect("replay cache poisoned").map.len()
    }

    fn bytes(&self) -> usize {
        self.state.lock().expect("replay cache poisoned").bytes
    }
}

/// The boxed completion sink of a tagged submission.
type TaggedSink = Box<dyn FnOnce(u64, Result<Ciphertext, ServeError>) + Send>;

/// In-flight replay-flagged executions and the sinks attached to each,
/// keyed `(tenant, request id)`.
type PendingSinks = HashMap<(Arc<str>, u64), Vec<TaggedSink>>;

/// Replay-flagged executions currently queued or executing, keyed
/// `(tenant, request id)`. A duplicate replay submission that *races*
/// the original — retried before the first execution completed —
/// attaches its sink here instead of enqueueing a second execution;
/// the primary's completion fans the one result out to every attached
/// waiter. Completion writes the replay cache *before* clearing its
/// entry here, so a submitter that misses this map and then reads the
/// cache can never miss both.
#[derive(Default)]
struct ReplayPending {
    map: Mutex<PendingSinks>,
}

struct WorkerSlot {
    handle: JoinHandle<()>,
}

/// Owns the dispatcher worker handles and performs the watchdog scan:
/// a finished handle outside shutdown is a death (escaped panic), a
/// busy-since pulse past the stall bound is a wedge. Either way the
/// victim shard's queued jobs fail over to a surviving sibling, the
/// worker's epoch is retired (a recovered zombie exits on observing
/// it), and a fresh worker is installed.
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
            let requeued = self.queues.requeue_shard(i);
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
            if requeued > 0 {
                crate::tel::watchdog_requeued().add(requeued as u64);
            }
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
    replay: Arc<ReplayCache>,
    replay_pending: Arc<ReplayPending>,
    priorities: Mutex<HashMap<String, u8>>,
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
            replay: Arc::new(ReplayCache::new(
                config.replay_capacity,
                config.replay_capacity_bytes,
            )),
            replay_pending: Arc::new(ReplayPending::default()),
            priorities: Mutex::new(HashMap::new()),
        })
    }

    /// Registers (or replaces) a tenant from in-process key material.
    /// Such tenants have no frame to reload from, so their decoded state
    /// is pinned resident (never evicted by the key cache).
    pub fn register_tenant(&self, id: impl Into<String>, ctx: CkksContext, keys: KeySet) {
        let id: Arc<str> = Arc::from(id.into());
        self.tenants
            .insert_pinned(id, Arc::new(Tenant::build(ctx, keys)));
    }

    /// Registers a tenant from a serialized key-set frame (the TCP
    /// provisioning path). The frame carries its own parameters; the
    /// context is derived deterministically from them. The frame is
    /// retained so the decoded keys can be evicted under memory pressure
    /// and rebuilt bit-identically on next use.
    ///
    /// # Errors
    ///
    /// [`ServeError::Wire`] if the frame does not decode.
    pub fn register_tenant_frame(
        &self,
        id: impl Into<String>,
        frame: &[u8],
    ) -> Result<(), ServeError> {
        let (ctx, keys) = poseidon_wire::decode_keyset(frame)?;
        let id: Arc<str> = Arc::from(id.into());
        self.tenants
            .insert_frame(id, Arc::from(frame), Arc::new(Tenant::build(ctx, keys)));
        Ok(())
    }

    /// Sets a tenant's priority for the overload ladder. The default is
    /// [`DEFAULT_PRIORITY`] (128): under sustained pressure, priorities
    /// below 64 shed at 3/4 queue capacity and priorities below 128 at
    /// 7/8, both as typed [`ServeError::Overloaded`]; tenants at or
    /// above the default only ever see the hard
    /// [`ServeError::QueueFull`] bound.
    pub fn set_tenant_priority(&self, id: impl Into<String>, priority: u8) {
        self.priorities
            .lock()
            .expect("priorities poisoned")
            .insert(id.into(), priority);
    }

    /// The tenant's current overload-ladder priority.
    pub fn tenant_priority(&self, id: &str) -> u8 {
        self.priorities
            .lock()
            .expect("priorities poisoned")
            .get(id)
            .copied()
            .unwrap_or(DEFAULT_PRIORITY)
    }

    pub(crate) fn tenant(&self, id: &str) -> Result<Option<Arc<Tenant>>, ServeError> {
        self.tenants.get(id)
    }

    /// The tenant's context, for decoding its wire frames — a cheap
    /// shared handle (no context clone; the historical API copied the
    /// full prime chain and NTT tables per lookup).
    pub fn tenant_context(&self, id: &str) -> Option<TenantContext> {
        self.tenants
            .get(id)
            .ok()
            .flatten()
            .map(|tenant| TenantContext { tenant })
    }

    /// Decoded tenants currently resident in the key cache (pinned
    /// registrations included) — observability for tests and operators.
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
    /// cache (observability for tests and operators).
    pub fn replay_entries(&self) -> usize {
        self.replay.len()
    }

    /// Approximate bytes currently pinned by the idempotent-replay
    /// cache (observability for tests and operators).
    pub fn replay_bytes(&self) -> usize {
        self.replay.bytes()
    }

    /// Replay-flagged `(tenant, id)` executions currently queued or
    /// executing — duplicates of these attach to the pending execution
    /// instead of running twice (observability for tests and
    /// operators).
    pub fn replay_in_flight(&self) -> usize {
        self.replay_pending
            .map
            .lock()
            .expect("replay pending poisoned")
            .len()
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

    fn lookup(&self, tenant_id: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenant(tenant_id)?
            .ok_or_else(|| ServeError::UnknownTenant(tenant_id.into()))
    }

    fn expired(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Enqueues one request. Admission control is strict: a full queue
    /// rejects immediately rather than blocking the caller.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::QueueFull`],
    /// [`ServeError::Overloaded`], or [`ServeError::ShuttingDown`].
    pub fn submit(&self, tenant_id: &str, request: Request) -> Result<Ticket, ServeError> {
        self.submit_opts(tenant_id, request, None)
    }

    /// [`submit`](Self::submit) with an absolute deadline: a request
    /// whose deadline has already passed is rejected at admission, and
    /// one that expires while queued is answered with
    /// [`ServeError::DeadlineExceeded`] at dequeue instead of computing
    /// dead work.
    ///
    /// # Errors
    ///
    /// The [`submit`](Self::submit) surface plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn submit_opts(
        &self,
        tenant_id: &str,
        request: Request,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let tenant = self.lookup(tenant_id)?;
        if Self::expired(deadline) {
            crate::tel::deadline().add(1);
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        self.queues.submit(Job {
            tenant_id: Arc::from(tenant_id),
            tenant,
            request,
            deadline,
            priority: self.tenant_priority(tenant_id),
            reply: Reply::ticket(tx),
        })?;
        Ok(Ticket { rx })
    }

    /// Enqueues one request tagged with a caller-chosen id; the `sink`
    /// receives `(id, result)` from whichever dispatcher worker finishes
    /// the job — the multiplexed front-end's out-of-order reply path.
    ///
    /// # Errors
    ///
    /// Same surface as [`submit`](Self::submit). On error the sink is
    /// dropped unused: the caller still owns error reporting for
    /// requests that never entered the queue.
    pub fn submit_tagged(
        &self,
        tenant_id: &str,
        request: Request,
        id: u64,
        sink: impl FnOnce(u64, Result<Ciphertext, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.submit_tagged_opts(tenant_id, request, id, None, false, sink)
    }

    /// [`submit_tagged`](Self::submit_tagged) with a deadline and the
    /// idempotent-replay flag. With `replay` set, an id this tenant
    /// already executed returns the cached result immediately (the sink
    /// fires inline; nothing re-runs); an id still *queued or
    /// executing* attaches this sink to that pending execution (one
    /// run, every waiter answered — a retry racing its original never
    /// double-executes); and a fresh execution's outcome is recorded
    /// before any sink sees it — the server half of safe client
    /// resubmission.
    ///
    /// # Errors
    ///
    /// The [`submit`](Self::submit) surface plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn submit_tagged_opts(
        &self,
        tenant_id: &str,
        request: Request,
        id: u64,
        deadline: Option<Instant>,
        replay: bool,
        sink: impl FnOnce(u64, Result<Ciphertext, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        let tenant = self.lookup(tenant_id)?;
        let tid: Arc<str> = Arc::from(tenant_id);
        let reply = if replay {
            let key = (Arc::clone(&tid), id);
            {
                let mut pending = self
                    .replay_pending
                    .map
                    .lock()
                    .expect("replay pending poisoned");
                if let Some(waiters) = pending.get_mut(&key) {
                    // The same (tenant, id) is already queued or
                    // executing: ride that execution instead of
                    // enqueueing a second one.
                    waiters.push(Box::new(sink));
                    crate::tel::replay_coalesced().add(1);
                    return Ok(());
                }
                // Completed-outcome check under the pending lock:
                // completion fills the cache before clearing its
                // pending entry, so missing both maps means the id
                // genuinely never executed.
                if let Some(cached) = self.replay.get(&tid, id) {
                    crate::tel::replay_hit().add(1);
                    drop(pending);
                    sink(id, cached);
                    return Ok(());
                }
                if Self::expired(deadline) {
                    crate::tel::deadline().add(1);
                    return Err(ServeError::DeadlineExceeded);
                }
                pending.insert(key, Vec::new());
            }
            let cache = Arc::clone(&self.replay);
            let pending = Arc::clone(&self.replay_pending);
            let key_tenant = Arc::clone(&tid);
            Reply::tagged(
                id,
                Box::new(move |id, result: Result<Ciphertext, ServeError>| {
                    // Record only executed outcomes: an admission-style
                    // error (queue full, shutdown, deadline) never ran,
                    // so a retry must be allowed to actually run. Cache
                    // first, *then* clear pending (see above).
                    if matches!(result, Ok(_) | Err(ServeError::Eval(_))) {
                        cache.put(Arc::clone(&key_tenant), id, result.clone());
                    }
                    let waiters = pending
                        .map
                        .lock()
                        .expect("replay pending poisoned")
                        .remove(&(key_tenant, id))
                        .unwrap_or_default();
                    for waiter in waiters {
                        waiter(id, result.clone());
                    }
                    sink(id, result);
                }),
            )
        } else {
            if Self::expired(deadline) {
                crate::tel::deadline().add(1);
                return Err(ServeError::DeadlineExceeded);
            }
            Reply::tagged(id, Box::new(sink))
        };
        let submitted = self.queues.submit(Job {
            tenant_id: Arc::clone(&tid),
            tenant,
            request,
            deadline,
            priority: self.tenant_priority(tenant_id),
            reply,
        });
        if let Err(e) = &submitted {
            if replay {
                // The job never entered a queue (its reply was defused,
                // so the completion wrapper will never run): clear the
                // pending entry and answer any waiters that attached in
                // the window with the same rejection.
                let waiters = self
                    .replay_pending
                    .map
                    .lock()
                    .expect("replay pending poisoned")
                    .remove(&(tid, id))
                    .unwrap_or_default();
                for waiter in waiters {
                    waiter(id, Err(e.clone()));
                }
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

/// Coalescing key for rotation jobs: tenant plus a cheap ciphertext
/// digest (level/scale folded in). Digest ties are confirmed by exact
/// residue comparison before jobs share a hoist. The tenant id is an
/// `Arc` clone — the historical key allocated a `String` per job.
fn rotation_key(tenant_id: &Arc<str>, ct: &Ciphertext) -> (Arc<str>, u64, usize, u64) {
    (
        Arc::clone(tenant_id),
        digest_ciphertext(ct),
        ct.level(),
        ct.scale().to_bits(),
    )
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

pub(crate) fn execute_batch(batch: Vec<Job>) {
    // Dequeue-time deadline check: a request that expired while queued
    // is answered without computing dead work.
    let batch: Vec<Job> = batch.into_iter().filter_map(reap_expired).collect();

    // Rotation groups: representative ciphertext + member jobs.
    type Key = (Arc<str>, u64, usize, u64);
    let mut groups: Vec<(Key, Vec<Job>)> = Vec::new();
    let mut singles: Vec<Job> = Vec::new();

    for job in batch {
        let Request::Rotate { ref a, .. } = job.request else {
            singles.push(job);
            continue;
        };
        let key = rotation_key(&job.tenant_id, a);
        let slot = groups.iter_mut().find(|(k, jobs)| {
            *k == key
                && matches!(
                    &jobs[0].request,
                    // Digest collisions must not merge distinct operands.
                    Request::Rotate { a: rep, .. } if rep.c0() == a.c0() && rep.c1() == a.c1()
                )
        });
        match slot {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((key, vec![job])),
        }
    }

    for (_, jobs) in groups {
        // Pre-execution deadline check, per member: earlier groups may
        // have consumed the remaining budget.
        let jobs: Vec<Job> = jobs.into_iter().filter_map(reap_expired).collect();
        if !jobs.is_empty() {
            run_rotation_group(jobs);
        }
    }
    for job in singles {
        let Some(job) = reap_expired(job) else {
            continue;
        };
        let result = contain(|| run_one(&job.tenant, &job.request).map_err(ServeError::Eval));
        job.reply.send(result);
    }
}

/// Executes one same-ciphertext rotation group through a single hoisted
/// `try_rotate_many` lift — k requests, one digit decomposition.
fn run_rotation_group(jobs: Vec<Job>) {
    let steps: Vec<i64> = jobs
        .iter()
        .map(|j| match &j.request {
            Request::Rotate { steps, .. } => *steps,
            _ => unreachable!("rotation group holds only Rotate jobs"),
        })
        .collect();
    // Borrow the representative operand in place — the historical path
    // cloned the full ciphertext (two RNS polys) per group.
    let outcome = {
        let tenant = &jobs[0].tenant;
        let Request::Rotate { a, .. } = &jobs[0].request else {
            unreachable!("rotation group holds only Rotate jobs");
        };
        contain(|| {
            tenant
                .eval
                .try_rotate_many(a, &steps, &tenant.keys)
                .map_err(ServeError::Eval)
        })
    };
    match outcome {
        Ok(rotated) => {
            for (job, ct) in jobs.into_iter().zip(rotated) {
                job.reply.send(Ok(ct));
            }
        }
        Err(e) => {
            for job in jobs {
                job.reply.send(Err(e.clone()));
            }
        }
    }
}

/// Non-rotation ops run under the integrity-checked evaluator: a
/// persistent datapath fault comes back as `EvalError::IntegrityFault`
/// for this request only.
fn run_one(tenant: &Tenant, request: &Request) -> Result<Ciphertext, he_ckks::error::EvalError> {
    match request {
        Request::Add { a, b } => tenant.checked.add(a, b),
        Request::Sub { a, b } => tenant.checked.sub(a, b),
        Request::Mul { a, b } => tenant.checked.mul(a, b, &tenant.keys),
        Request::Square { a } => tenant.checked.square(a, &tenant.keys),
        Request::Rescale { a } => tenant.checked.rescale(a),
        // Fallback for a Rotate that reached the scalar path.
        Request::Rotate { a, steps } => tenant.checked.rotate(a, *steps, &tenant.keys),
        Request::Conjugate { a } => tenant.checked.conjugate(a, &tenant.keys),
        Request::AddPlain { a, pt } => tenant.checked.add_plain(a, pt),
        Request::MulPlain { a, pt } => tenant.checked.mul_plain(a, pt),
        Request::Program { text, a } => run_program(tenant, text, a),
    }
}

/// Compiles and executes one `.pos` program as a unit: parse → lower
/// (`compile_trace`) → pass pipeline (`plan`) → plan executor, on a
/// fresh evaluator over the tenant's context. Every graph input is
/// seeded with `a`; the reply is the program's final output.
///
/// Serve-side planning runs without bootstrap insertion — tenants
/// register evaluation keys, not bootstrap keys, so an exhausted
/// program is a typed rejection rather than a silent truncation.
fn run_program(
    tenant: &Tenant,
    text: &str,
    a: &Ciphertext,
) -> Result<Ciphertext, he_ckks::error::EvalError> {
    use he_ckks::error::EvalError;
    use poseidon_core::plan::{execute, plan_trace, PlanOptions};

    let trace = poseidon_sim::program::parse(text)
        .map_err(|e| EvalError::InvalidParams(format!("program parse: {e}")))?;
    let plan = plan_trace(&trace, &tenant.ctx, &PlanOptions::default())
        .map_err(|e| EvalError::InvalidParams(format!("program planning: {e}")))?;
    crate::tel::program().add(plan.schedule.len() as u64);
    let inputs = vec![a.clone(); plan.graph.inputs().len()];
    let mut eval = Evaluator::new(&tenant.ctx);
    let outcome = execute(&plan, &mut eval, &inputs, &tenant.keys)?;
    outcome
        .outputs
        .into_iter()
        .next_back()
        .ok_or_else(|| EvalError::InvalidParams("program produced no outputs".into()))
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
