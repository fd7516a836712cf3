//! Sharded dispatch queues: per-tenant shard affinity plus bounded work
//! stealing, heartbeat pulses for the watchdog, and failover requeueing.
//!
//! The software analogue of the paper's channel scheduling: Poseidon
//! keeps all HBM channels busy by statically mapping operands to
//! channels and letting idle lanes pull from busy ones. Here each
//! dispatcher worker owns one shard of the job queue; a tenant always
//! hashes to the same shard (FNV-1a affinity), so same-ciphertext
//! rotation requests from one tenant stay adjacent and the batching
//! scheduler's hoist coalescing still fires. A worker whose shard runs
//! dry *steals from the back* of a loaded sibling — only when that
//! sibling is mid-batch or oversubscribed — so the front of every shard
//! (the coalescing window the owner will drain next) is never broken up
//! by theft.
//!
//! All shards live under one mutex with one condvar. Queue depths are a
//! few dozen jobs while each job is milliseconds of NTT work, so
//! fine-grained per-shard locking would buy nothing and cost deadlock
//! surface; the single lock also makes admission control (one global
//! capacity) and shutdown draining trivially race-free.
//!
//! Resilience hooks (this layer's contribution to the watchdog in
//! [`crate::service`]):
//!
//! - every worker carries an **epoch**: a replaced worker (stalled,
//!   superseded by the watchdog) observes the bumped epoch at its next
//!   queue interaction and exits instead of competing with its
//!   replacement;
//! - every shard has a **pulse**: a beats counter plus a busy-since
//!   timestamp, letting the watchdog distinguish "executing a long
//!   batch" from "wedged";
//! - [`SharedQueues::requeue_shard`] migrates a victim shard's queued
//!   jobs to the least-loaded surviving sibling in submission order, so
//!   coalescing windows survive failover intact;
//! - every dequeued job parks its reply sink in the [`InFlightTable`]
//!   until answered, so a *wedged* worker's held batch can be failed by
//!   the watchdog with a typed error instead of hanging its waiters
//!   until the zombie wakes (which may be never). Whoever takes the
//!   slot first — the executing worker or the watchdog — answers;
//!   the loser's send is a no-op, so a reply fires exactly once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use he_ckks::cipher::Ciphertext;

use crate::service::Tenant;
use crate::{Request, ServeError};

/// Milliseconds since process start (monotonic). The watchdog's clock:
/// cheap, `u64`-storable, immune to wall-clock steps.
pub(crate) fn now_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    Instant::now().duration_since(start).as_millis() as u64
}

/// How a finished job's result leaves the dispatcher: one boxed
/// callback, whether it feeds a [`Ticket`](crate::Ticket)'s channel or a
/// connection's writer.
pub(crate) type Sink = Box<dyn FnOnce(Result<Ciphertext, ServeError>) + Send>;

/// Reply sinks parked by dequeued-but-unanswered jobs, one slot map per
/// shard. The executing worker answers through its slot; if the worker
/// wedges, the watchdog drains the shard's slots at replacement and
/// fails each with a typed [`ServeError::Internal`] — the in-flight
/// half of "never a hang, never a lost reply". The slot mutexes are
/// leaf locks: nothing is acquired while one is held.
pub(crate) struct InFlightTable {
    shards: Vec<Mutex<HashMap<u64, Sink>>>,
    serial: AtomicU64,
}

impl InFlightTable {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            serial: AtomicU64::new(0),
        }
    }

    fn park(&self, shard: usize, sink: Sink) -> u64 {
        let serial = self.serial.fetch_add(1, Ordering::Relaxed);
        self.shards[shard]
            .lock()
            .expect("in-flight table poisoned")
            .insert(serial, sink);
        serial
    }

    fn take(&self, shard: usize, serial: u64) -> Option<Sink> {
        self.shards[shard]
            .lock()
            .expect("in-flight table poisoned")
            .remove(&serial)
    }

    /// Fails every parked reply on `shard` with a typed error. Called by
    /// the watchdog when it retires a stalled worker: the zombie may
    /// sleep forever, so its waiters must not. Returns how many replies
    /// were failed.
    pub(crate) fn fail_shard(&self, shard: usize) -> usize {
        let drained: Vec<Sink> = {
            let mut slots = self.shards[shard].lock().expect("in-flight table poisoned");
            slots.drain().map(|(_, sink)| sink).collect()
        };
        let n = drained.len();
        for sink in drained {
            sink(Err(ServeError::Internal(
                "worker stalled past the watchdog timeout; request abandoned at failover".into(),
            )));
        }
        n
    }
}

/// A job's reply channel. Before dequeue it owns its sink directly,
/// armed with a drop guard: if a worker dies mid-batch (an escaped
/// panic unwinds the batch it held), every unanswered reply resolves as
/// a typed [`ServeError::Internal`] rather than a silently lost
/// response. At dequeue the sink is parked in the [`InFlightTable`]
/// (see [`Reply::park_in_flight`]) so the watchdog can also answer it
/// if the worker wedges. Admission-control rejections
/// [`defuse`](Reply::defuse) the guard — the submitter still owns error
/// reporting for jobs that never entered a queue.
pub(crate) struct Reply {
    inner: Option<ReplyState>,
}

enum ReplyState {
    Direct(Sink),
    Parked {
        table: Arc<InFlightTable>,
        shard: usize,
        serial: u64,
    },
}

impl ReplyState {
    fn dispatch(self, result: Result<Ciphertext, ServeError>) {
        match self {
            ReplyState::Direct(sink) => sink(result),
            // Empty slot: the watchdog already failed this job (or a
            // racing path answered it) — exactly-once means we drop.
            ReplyState::Parked {
                table,
                shard,
                serial,
            } => {
                if let Some(sink) = table.take(shard, serial) {
                    sink(result);
                }
            }
        }
    }
}

impl Reply {
    pub(crate) fn new(sink: Sink) -> Self {
        Self {
            inner: Some(ReplyState::Direct(sink)),
        }
    }

    pub(crate) fn send(mut self, result: Result<Ciphertext, ServeError>) {
        if let Some(state) = self.inner.take() {
            state.dispatch(result);
        }
    }

    /// Moves the sink into `table`'s slot map for `shard` — called at
    /// dequeue, while the executing worker owns this job. From here on
    /// the reply is answered by whoever claims the slot first: the
    /// worker (normal completion, or its unwind drop guard) or the
    /// watchdog ([`InFlightTable::fail_shard`] on a stall).
    fn park_in_flight(&mut self, table: &Arc<InFlightTable>, shard: usize) {
        if let Some(ReplyState::Direct(sink)) = self.inner.take() {
            let serial = table.park(shard, sink);
            self.inner = Some(ReplyState::Parked {
                table: Arc::clone(table),
                shard,
                serial,
            });
        }
    }

    /// Disarms the drop guard without answering: the job was rejected at
    /// admission and its error travels back on the submit path instead.
    pub(crate) fn defuse(&mut self) {
        self.inner = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(state) = self.inner.take() {
            state.dispatch(Err(ServeError::Internal(
                "dispatcher dropped reply (worker died mid-batch)".into(),
            )));
        }
    }
}

pub(crate) struct Job {
    pub(crate) tenant_id: Arc<str>,
    pub(crate) tenant: Arc<Tenant>,
    pub(crate) request: Request,
    /// Absolute completion deadline; enforced at admission, dequeue, and
    /// just before execution.
    pub(crate) deadline: Option<Instant>,
    /// Tenant priority for the overload ladder (default 128; below 128
    /// sheds first under pressure).
    pub(crate) priority: u8,
    pub(crate) reply: Reply,
}

/// FNV-1a over the tenant id — the shard affinity hash. Stable across
/// runs (no randomized hasher) so a tenant's shard is deterministic.
pub(crate) fn tenant_hash(id: &str) -> u64 {
    he_rns::integrity::fnv1a_bytes(id.as_bytes())
}

/// One shard's heartbeat, read lock-free by the watchdog. `beats` ticks
/// every time the worker returns to the queue; `busy_since_ms` is the
/// [`now_ms`] timestamp when its current batch started (0 = idle).
pub(crate) struct Pulse {
    pub(crate) beats: AtomicU64,
    pub(crate) busy_since_ms: AtomicU64,
}

struct QueueSet {
    shards: Vec<VecDeque<Job>>,
    /// Worker i is currently executing a batch (its shard may be stolen
    /// from while this is set).
    busy: Vec<bool>,
    /// Total queued jobs across shards (the admission-control quantity).
    total: usize,
    suspended: bool,
    shutdown: bool,
}

/// The shared queue set: one mutex + condvar over all shards.
pub(crate) struct SharedQueues {
    state: Mutex<QueueSet>,
    cv: Condvar,
    capacity: usize,
    max_batch: usize,
    /// Per-shard worker generation. A worker spawned at epoch e exits as
    /// soon as it observes `epochs[me] != e` — the watchdog bumps this
    /// when it installs a replacement, so a stalled-then-recovered
    /// zombie never races its successor for jobs.
    epochs: Vec<AtomicU64>,
    pulses: Vec<Pulse>,
    /// Reply sinks of dequeued-but-unanswered jobs, per executing shard.
    in_flight: Arc<InFlightTable>,
    /// Live queue-depth gauges, one per shard (`serve.queue.depth.N`):
    /// each enqueue/dequeue samples the shard's depth, so
    /// `items / count` reads as the mean observed depth.
    depth_gauges: Vec<Arc<poseidon_telemetry::Metric>>,
}

impl SharedQueues {
    pub(crate) fn new(shards: usize, capacity: usize, max_batch: usize) -> Self {
        let shards = shards.max(1);
        Self {
            state: Mutex::new(QueueSet {
                shards: (0..shards).map(|_| VecDeque::new()).collect(),
                busy: vec![false; shards],
                total: 0,
                suspended: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity,
            max_batch: max_batch.max(1),
            epochs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            in_flight: Arc::new(InFlightTable::new(shards)),
            pulses: (0..shards)
                .map(|_| Pulse {
                    beats: AtomicU64::new(0),
                    busy_since_ms: AtomicU64::new(0),
                })
                .collect(),
            depth_gauges: (0..shards)
                .map(|i| {
                    poseidon_telemetry::Registry::global().scope_indexed("serve.queue.depth.", i)
                })
                .collect(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.state.lock().expect("queue poisoned").shards.len()
    }

    pub(crate) fn shard_for(&self, tenant_id: &str, shard_count: usize) -> usize {
        (tenant_hash(tenant_id) % shard_count as u64) as usize
    }

    fn sample_depth(&self, q: &QueueSet, shard: usize) {
        self.depth_gauges[shard].add(q.shards[shard].len() as u64);
    }

    /// Enqueues one job onto its tenant's shard. Strict admission
    /// control against the *global* capacity, with a graceful-
    /// degradation ladder in front of it: under sustained pressure the
    /// lowest-priority tenants shed first (typed
    /// [`ServeError::Overloaded`] with a depth-derived retry hint)
    /// while higher-priority traffic is still admitted.
    pub(crate) fn submit(&self, mut job: Job) -> Result<(), ServeError> {
        {
            let mut q = self.state.lock().expect("queue poisoned");
            if q.shutdown {
                job.reply.defuse();
                return Err(ServeError::ShuttingDown);
            }
            if q.total >= self.capacity {
                crate::tel::reject().add(1);
                job.reply.defuse();
                return Err(ServeError::QueueFull {
                    depth: q.total,
                    capacity: self.capacity,
                });
            }
            // Overload ladder: at 3/4 capacity shed the low tier
            // (priority < 64); at 7/8 shed everything below the default
            // (priority < 128). Default-priority tenants ride through to
            // the hard QueueFull bound.
            let floor = if q.total >= self.capacity.saturating_mul(7) / 8 {
                128
            } else if q.total >= self.capacity.saturating_mul(3) / 4 {
                64
            } else {
                0
            };
            if job.priority < floor {
                crate::tel::shed().add(1);
                let retry_after_ms = 10 + 4 * q.total as u64;
                job.reply.defuse();
                return Err(ServeError::Overloaded { retry_after_ms });
            }
            let shard = self.shard_for(&job.tenant_id, q.shards.len());
            q.shards[shard].push_back(job);
            q.total += 1;
            self.sample_depth(&q, shard);
        }
        crate::tel::enqueue().add(1);
        self.cv.notify_all();
        Ok(())
    }

    pub(crate) fn suspend(&self) {
        self.state.lock().expect("queue poisoned").suspended = true;
    }

    pub(crate) fn resume(&self) {
        self.state.lock().expect("queue poisoned").suspended = false;
        self.cv.notify_all();
    }

    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").total
    }

    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().expect("queue poisoned").shutdown = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.state.lock().expect("queue poisoned").shutdown
    }

    /// Current worker generation for shard `i`.
    pub(crate) fn epoch(&self, i: usize) -> u64 {
        self.epochs[i].load(Ordering::Acquire)
    }

    /// Retires shard `i`'s current worker generation (the old worker
    /// exits at its next queue interaction), clears its busy/pulse
    /// state, and returns the fresh epoch its replacement should run at.
    pub(crate) fn bump_epoch(&self, i: usize) -> u64 {
        let fresh = self.epochs[i].fetch_add(1, Ordering::AcqRel) + 1;
        let mut q = self.state.lock().expect("queue poisoned");
        q.busy[i] = false;
        self.pulses[i].busy_since_ms.store(0, Ordering::Release);
        drop(q);
        self.cv.notify_all();
        fresh
    }

    /// How long shard `i`'s worker has been executing its current batch,
    /// in milliseconds (0 when idle). The watchdog's stall signal.
    pub(crate) fn busy_for_ms(&self, i: usize) -> u64 {
        let since = self.pulses[i].busy_since_ms.load(Ordering::Acquire);
        if since == 0 {
            0
        } else {
            now_ms().saturating_sub(since).max(1)
        }
    }

    /// Heartbeat count for shard `i`'s worker (liveness observability).
    pub(crate) fn beats(&self, i: usize) -> u64 {
        self.pulses[i].beats.load(Ordering::Acquire)
    }

    /// Fails every in-flight (dequeued, unanswered) job executing on
    /// shard `i` with a typed [`ServeError::Internal`]. The watchdog's
    /// stall-replacement path: the retired zombie still holds the batch,
    /// but its waiters get answered now. Returns how many were failed.
    pub(crate) fn fail_in_flight(&self, i: usize) -> usize {
        self.in_flight.fail_shard(i)
    }

    /// In-flight jobs currently parked for shard `i` (observability).
    pub(crate) fn in_flight_len(&self, i: usize) -> usize {
        self.in_flight.shards[i]
            .lock()
            .expect("in-flight table poisoned")
            .len()
    }

    /// Failover: migrates every job queued on `victim` to the least-
    /// loaded surviving shard, preserving submission order (the jobs
    /// stay contiguous, so the coalescing window survives the move).
    /// Returns how many jobs moved. With a single shard there is no
    /// survivor; jobs stay put for the respawned worker.
    pub(crate) fn requeue_shard(&self, victim: usize) -> usize {
        let mut q = self.state.lock().expect("queue poisoned");
        if q.shards[victim].is_empty() {
            return 0;
        }
        let Some(target) = (0..q.shards.len())
            .filter(|&j| j != victim)
            .min_by_key(|&j| q.shards[j].len())
        else {
            return 0;
        };
        let moved: Vec<Job> = q.shards[victim].drain(..).collect();
        let n = moved.len();
        for job in moved {
            q.shards[target].push_back(job);
        }
        self.sample_depth(&q, victim);
        self.sample_depth(&q, target);
        drop(q);
        self.cv.notify_all();
        n
    }

    /// Is there a shard worker `me` may steal from? Only shards whose
    /// owner is mid-batch, or whose backlog exceeds one full batch —
    /// an idle owner's short queue is left intact so its coalescing
    /// window (the queue front it will drain next) survives.
    fn steal_candidate(&self, q: &QueueSet, me: usize) -> Option<usize> {
        (0..q.shards.len())
            .filter(|&j| j != me && !q.shards[j].is_empty())
            .filter(|&j| q.busy[j] || q.shards[j].len() > self.max_batch)
            .max_by_key(|&j| q.shards[j].len())
    }

    /// Blocks until worker `me` (spawned at `epoch`) has a batch to run.
    /// Returns `None` on shutdown — after draining `me`'s own shard with
    /// [`ServeError::ShuttingDown`] — or when the watchdog has retired
    /// this worker's epoch (the shard now belongs to a replacement; exit
    /// without touching shared state). The bool is `true` when the batch
    /// was stolen from a sibling shard.
    pub(crate) fn next_batch(&self, me: usize, epoch: u64) -> Option<(Vec<Job>, bool)> {
        let mut q = self.state.lock().expect("queue poisoned");
        if self.epochs[me].load(Ordering::Acquire) != epoch {
            return None;
        }
        q.busy[me] = false;
        self.pulses[me].busy_since_ms.store(0, Ordering::Release);
        self.pulses[me].beats.fetch_add(1, Ordering::AcqRel);
        loop {
            if self.epochs[me].load(Ordering::Acquire) != epoch {
                return None;
            }
            if q.shutdown {
                let drained: Vec<Job> = q.shards[me].drain(..).collect();
                q.total -= drained.len();
                drop(q);
                for job in drained {
                    job.reply.send(Err(ServeError::ShuttingDown));
                }
                return None;
            }
            if !q.suspended {
                if !q.shards[me].is_empty() {
                    let n = q.shards[me].len().min(self.max_batch);
                    let mut batch: Vec<Job> = q.shards[me].drain(..n).collect();
                    for job in &mut batch {
                        job.reply.park_in_flight(&self.in_flight, me);
                    }
                    q.total -= batch.len();
                    q.busy[me] = true;
                    self.pulses[me]
                        .busy_since_ms
                        .store(now_ms().max(1), Ordering::Release);
                    self.sample_depth(&q, me);
                    return Some((batch, false));
                }
                if let Some(victim) = self.steal_candidate(&q, me) {
                    // Take up to half the victim's backlog off the BACK:
                    // newest jobs move, the owner's coalescing window at
                    // the front stays whole.
                    let len = q.shards[victim].len();
                    let take = len.div_ceil(2).min(self.max_batch);
                    let mut batch: Vec<Job> = Vec::with_capacity(take);
                    for _ in 0..take {
                        batch.push(q.shards[victim].pop_back().expect("victim non-empty"));
                    }
                    // Restore submission order within the stolen slice.
                    batch.reverse();
                    for job in &mut batch {
                        job.reply.park_in_flight(&self.in_flight, me);
                    }
                    q.total -= batch.len();
                    q.busy[me] = true;
                    self.pulses[me]
                        .busy_since_ms
                        .store(now_ms().max(1), Ordering::Release);
                    self.sample_depth(&q, victim);
                    return Some((batch, true));
                }
            }
            q = self.cv.wait(q).expect("queue poisoned");
        }
    }
}

/// One dispatcher worker: drain own shard (or steal), execute, repeat —
/// until shutdown or until the watchdog retires this worker's `epoch`.
pub(crate) fn dispatch_loop(queues: Arc<SharedQueues>, me: usize, epoch: u64) {
    let shard_scope = poseidon_telemetry::Registry::global().scope_indexed("serve.shard.", me);
    loop {
        let Some((batch, stolen)) = queues.next_batch(me, epoch) else {
            return;
        };
        crate::tel::dequeue().add(batch.len() as u64);
        crate::tel::batch().add(batch.len() as u64);
        shard_scope.add(batch.len() as u64);
        if stolen {
            crate::tel::steal().add(batch.len() as u64);
        }
        // Chaos hook: a seeded plan at `ShardWorker` can stall this
        // worker (tripping the stall watchdog) or kill it outright (the
        // escaped panic unwinds `batch`, whose Reply drop guards answer
        // every held job with a typed Internal error; the watchdog then
        // requeues the shard and respawns the worker).
        match poseidon_faults::disrupt(poseidon_faults::FaultSite::ShardWorker, &mut []) {
            Some(poseidon_faults::Disruption::Stalled(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Some(poseidon_faults::Disruption::Panicked) => {
                panic!("injected shard-worker panic");
            }
            _ => {}
        }
        crate::service::execute_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::tenant_hash;

    #[test]
    fn affinity_hash_is_stable_and_spreads() {
        // Pinned values: the shard map is part of observable behaviour
        // (affinity must not silently change between builds).
        assert_eq!(tenant_hash(""), 0xcbf2_9ce4_8422_2325);
        let shards = 4u64;
        let ids = ["acme", "globex", "initech", "umbrella", "t0", "t1", "t2"];
        let mut seen = std::collections::HashSet::new();
        for id in ids {
            seen.insert(tenant_hash(id) % shards);
        }
        assert!(seen.len() >= 2, "hash degenerated to one shard: {seen:?}");
    }
}
