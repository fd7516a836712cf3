//! The persistent helper team behind every fan-out.
//!
//! One process-wide pool of parked helper threads, grown lazily to the
//! largest `team − 1` any dispatch has asked for and never torn down (the
//! paper's lanes are instantiated once and time-multiplexed; so are these).
//! A dispatch ([`run`]) *posts* a job — the borrowed per-index body, the
//! item count, an atomic `next` index and `team − 1` helper slots — wakes
//! parked helpers, and then claims items itself, one `fetch_add` at a time,
//! until none are left. It then *withdraws* the job under the pool lock, so
//! no helper can join late, and waits only for helpers that actually joined
//! to leave. A helper that does not wake in time finds nothing to do; the
//! caller never waits on a thread that has not started.
//!
//! This is the workspace's only `unsafe`: the body borrows the dispatcher's
//! stack, and helpers are `'static` threads, so its lifetime is erased.
//!
//! **Invariant.** The dispatcher neither returns nor unwinds before its job
//! is withdrawn and its helper count is zero. [`Posting`]'s `Drop` is the
//! only place a job is withdrawn, so every exit from [`run`] — return or
//! panic on one of the caller's own items — goes through it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

type Payload = Box<dyn Any + Send + 'static>;
type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// One fan-out: what participants need without holding the pool lock.
struct Job {
    /// The dispatcher's per-index closure with its lifetime erased. Only
    /// dereferenced by [`Job::work`], whose callers hold the invariant.
    body: *const Body<'static>,
    items: usize,
    /// The next unclaimed index. `Relaxed` everywhere: it only hands out
    /// distinct indices. What an item reads was published by posting the job
    /// under the pool mutex, and what it writes reaches the dispatcher when
    /// the helper leaves under that same mutex.
    next: AtomicUsize,
}

// SAFETY: `items` and `next` are `Send + Sync` on their own. `body` points
// at a `dyn Fn(usize) + Sync`, which may be called through a shared
// reference from any thread; the pointee outlives every such call by the
// module invariant, and nothing is ever moved out of or dropped through it.
unsafe impl Send for Job {}
// SAFETY: as above — every field is only read through `&Job`.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs items until none are left.
    ///
    /// # Safety
    ///
    /// The closure behind `body` must be alive for the whole call: the
    /// caller is the dispatcher itself, or a helper counted in the job's
    /// [`Posted::inside`].
    unsafe fn work(&self) {
        // SAFETY: alive by this function's contract.
        let body = unsafe { &*self.body };
        let (start, mut claimed) = (std::time::Instant::now(), 0u64);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items {
                break;
            }
            body(i);
            claimed += 1;
        }
        if claimed > 0 {
            super::tel::worker().record_nanos(claimed, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A job while helpers may join or are still inside it.
struct Posted {
    job: Arc<Job>,
    /// Helpers that may still join; zeroed when the dispatcher withdraws.
    open: usize,
    /// Helpers that joined and have not left.
    inside: usize,
    /// The first panic a helper caught, for the dispatcher to re-raise.
    panic: Option<Payload>,
}

struct State {
    posted: Vec<Posted>,
    /// Helper threads spawned so far.
    helpers: usize,
}

impl State {
    fn position(&self, job: &Arc<Job>) -> usize {
        self.posted
            .iter()
            .position(|p| Arc::ptr_eq(&p.job, job))
            .expect("a job stays posted until its dispatcher has seen every helper leave")
    }

    fn entry(&mut self, job: &Arc<Job>) -> &mut Posted {
        let at = self.position(job);
        &mut self.posted[at]
    }

    /// Takes a helper slot of the oldest job that still has one and
    /// unclaimed items.
    fn join(&mut self) -> Option<Arc<Job>> {
        let p = self
            .posted
            .iter_mut()
            .find(|p| p.open > 0 && p.job.next.load(Ordering::Relaxed) < p.job.items)?;
        p.open -= 1;
        p.inside += 1;
        Some(Arc::clone(&p.job))
    }
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here until a job is posted.
    posted: Condvar,
    /// Dispatchers park here until the helpers inside their job have left.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        posted: Vec::new(),
        helpers: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

impl Pool {
    /// No item ever runs under this lock, and every update made under it is
    /// a counter step, a push or a remove, so the state is valid even if a
    /// holder panicked; withdrawing must not fail (it runs in `Drop`, and
    /// memory safety depends on it), so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        on.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Body of a helper thread: join a job, claim until it is empty, leave,
    /// park. Helpers live for the rest of the process, so their
    /// [`scratch`](crate::scratch) pools stay warm between dispatches.
    fn help(&'static self) {
        // Helpers only ever run items: a dispatch from one is nested.
        let _in_worker = super::WorkerGuard::enter();
        let mut state = self.lock();
        loop {
            let Some(job) = state.join() else {
                state = self.wait(&self.posted, state);
                continue;
            };
            drop(state);
            // SAFETY: `join` counted this helper in `inside`, and the
            // dispatcher waits for `inside == 0` before its closure dies.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { job.work() }));
            state = self.lock();
            let entry = state.entry(&job);
            entry.inside -= 1;
            if let Err(payload) = outcome {
                entry.panic.get_or_insert(payload);
            }
            if entry.inside == 0 && entry.open == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// The dispatcher's hold on its posted job; dropping it withdraws the job.
struct Posting<'a> {
    job: &'a Arc<Job>,
    /// Where a helper's panic is left for [`run`] to re-raise.
    helper_panic: &'a mut Option<Payload>,
}

impl<'a> Posting<'a> {
    /// Posts `job` with `helpers` slots, growing the team to that many
    /// threads first, and wakes parked helpers. A thread the OS refuses is
    /// not an error: the dispatch runs with whoever exists, the caller
    /// alone if need be.
    fn new(job: &'a Arc<Job>, helpers: usize, helper_panic: &'a mut Option<Payload>) -> Self {
        let mut state = POOL.lock();
        while state.helpers < helpers {
            let name = format!("poseidon-par-{}", state.helpers);
            let spawned = std::thread::Builder::new().name(name).spawn(|| POOL.help());
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
        state.posted.push(Posted {
            job: Arc::clone(job),
            open: helpers,
            inside: 0,
            panic: None,
        });
        drop(state);
        // From here the job is visible, so the guard exists before anything
        // else happens.
        let posting = Posting { job, helper_panic };
        for _ in 0..helpers {
            POOL.posted.notify_one();
        }
        posting
    }
}

impl Drop for Posting<'_> {
    fn drop(&mut self) {
        let mut state = POOL.lock();
        state.entry(self.job).open = 0;
        while state.entry(self.job).inside > 0 {
            state = POOL.wait(&POOL.left, state);
        }
        let at = state.position(self.job);
        *self.helper_panic = state.posted.swap_remove(at).panic;
    }
}

/// Runs `body(i)` exactly once for every `i < items` on the calling thread
/// and up to `team − 1` helpers, and returns once every call has returned.
/// A panic on the caller's own item unwinds from here after the helpers have
/// left; otherwise the first panic a helper caught is re-raised with its
/// original payload. Items not yet claimed when an item panics still run.
pub(crate) fn run(team: usize, items: usize, body: &Body<'_>) {
    // SAFETY: the lifetime erasure. Only `Job::work` dereferences the
    // pointer, and by the module invariant — enforced by `Posting::drop`
    // below, on return and on unwind alike — every `work` call on this job
    // ends before `run` does, while `body` is still borrowed.
    let body = unsafe { std::mem::transmute::<*const Body<'_>, *const Body<'static>>(body) };
    let job = Arc::new(Job {
        body,
        items,
        next: AtomicUsize::new(0),
    });
    let mut helper_panic = None;
    {
        let _posting = Posting::new(&job, team.saturating_sub(1), &mut helper_panic);
        let _in_worker = super::WorkerGuard::enter();
        // SAFETY: `body` is borrowed for the whole of `run`.
        unsafe { job.work() };
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}
