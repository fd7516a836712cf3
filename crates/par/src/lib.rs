//! Limb-parallel execution engine for the Poseidon software stack.
//!
//! The paper's accelerator gets its throughput from hardware parallelism
//! over *independent RNS limbs*: 512 vector lanes chew on butterflies while
//! 32 HBM channels stream one limb each (paper §IV), and those lanes are
//! instantiated once and time-multiplexed over every basic operation. The
//! software library mirrors both halves here: every per-prime loop in
//! `he-rns`/`he-ckks` hands its limbs to one process-wide team of
//! persistent helper threads instead of a serial `for`.
//!
//! Design constraints (and how they're met):
//!
//! * **No external dependencies.** The engine is `std`-only; no rayon.
//! * **A dispatch costs a wake-up, not a thread.** Helpers are spawned
//!   lazily, up to the largest `team − 1` any dispatch has asked for, and
//!   then park between jobs (private module `pool`). A dispatch posts a job,
//!   wakes helpers and starts claiming items *itself*; it never waits for a
//!   helper that has not started, and a helper that wakes too late finds
//!   nothing to do. Measured on the 2-core reference host an empty fan-out
//!   costs its caller under a microsecond (`par.par_map.overhead_ns`),
//!   against 72–91 µs to spawn a scoped team per dispatch.
//! * **Bit-exact at any thread count.** Participants claim items one index
//!   at a time and every result lands at its own index, so outputs are
//!   identical regardless of [`threads()`] and of who ran what; `1` degrades
//!   to the plain serial loop.
//! * **Cut-offs priced in work.** The `weight` a call site passes is its
//!   estimated element *operations* per item (see [`PAR_THRESHOLD`] for the
//!   convention), and a team is only as large as the work can feed: every
//!   participant gets at least [`PAR_THRESHOLD`] operations, or the dispatch
//!   stays on the caller.
//! * **The thread count is read once.** Team size is the scoped override
//!   ([`with_threads`]) if one is set, otherwise the `POSEIDON_THREADS`
//!   environment variable or [`std::thread::available_parallelism`], read on
//!   first use and kept for the life of the process (the host query is a
//!   syscall plus cgroup reads, far too dear to repeat per dispatch).
//! * **No nested fan-out.** Code running inside a dispatch — on a helper or
//!   on the caller — executes nested dispatches serially (the limbs are
//!   already spread across the team; splitting further only adds overhead).
//! * **Allocation hygiene.** [`scratch`] keeps a small per-thread pool of
//!   `Vec<u64>` buffers so hot paths (keyswitch lifts, basis conversion)
//!   don't churn the allocator once warm. Helpers outlive dispatches, so
//!   their pools stay warm too.
//! * **One `unsafe` module.** Handing a stack-borrowed closure to
//!   long-lived threads needs a lifetime erasure; it is confined to `pool`,
//!   next to the invariant that makes it sound. The rest of the workspace
//!   forbids `unsafe_code`, but for `he-rns`'s vector inner product.
//!
//! In the telemetry registry, `par.serial` counts dispatches that stayed
//! on the caller and `par.dispatch` those that fanned out. Cheap operations
//! (an 8-limb add at `N = 2^12`) stay on the caller *by design*, so a high
//! `par.serial.count` or a low parallel share is a diagnostic of the
//! workload's mix, not a defect.
//!
//! # Examples
//!
//! ```
//! let mut data = vec![1u64; 8];
//! poseidon_par::with_threads(4, || {
//!     poseidon_par::par_for_each_mut(&mut data, 1 << 20, |i, v| *v += i as u64);
//! });
//! assert_eq!(data[5], 6);
//! ```

#![deny(unsafe_code)]

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

#[allow(unsafe_code)]
mod pool;
pub mod scratch;

/// Telemetry scopes for the dispatch layer. `par.dispatch` spans each
/// parallel fan-out (items = team size), `par.serial` counts dispatches
/// that fell below the cutoff (items = item count), and `par.worker` is one
/// span per participant — caller or helper — that claimed at least one item
/// of a fan-out (items = items it claimed); `par.contained` counts items
/// whose panic the serial retry contained.
mod tel {
    poseidon_telemetry::scope_fn! {
        pub dispatch = "par.dispatch";
        pub serial = "par.serial";
        pub worker = "par.worker";
        pub contained = "par.contained";
    }
}

/// Element operations each participant of a fan-out must be fed: a team is
/// `min(threads(), items, items × weight / PAR_THRESHOLD)`, and a dispatch
/// whose team would be one runs on the caller.
///
/// Sized against what a dispatch costs. A pointwise element operation is
/// 2–3 ns on the 2-core reference host (`rns.mul_assign` 43.8 µs and
/// `rns.automorphism_eval` 34.6 µs over 8 × 2^11 elements on the caller);
/// a fan-out that hands work to a parked helper pays that helper's wake-up
/// before the helper claims anything. The constant was fixed when an empty
/// fan-out measured 24.5 µs, 17 µs of it a host-parallelism query made per
/// dispatch that [`threads`] makes once per process, so it errs toward
/// staying on the caller; 2^15 and 2^16 measured the same on all six
/// benchmark workloads.
/// An 8-limb add at `N = 2^12` (2^15 operations in all) stays on the
/// caller; a 10-limb key-switch inner product does not.
///
/// `weight` is the estimated element operations per item. By call-site
/// family: pointwise `add`/`sub`/`neg`/`mul`/automorphism pass `N`; forward
/// and inverse NTTs pass `N·log₂N` (`he_ntt::NttTable::weight`); basis
/// conversion, Moddown and rescale pass `N ×` the operations per
/// coefficient (the terms summed, plus the subtract and the scaling
/// product); the key-switch inner product passes its digit count `×` the
/// per-digit cost (`3N`: gather or lift, two multiply–adds; plus an NTT
/// when digits are lifted in place).
pub const PAR_THRESHOLD: usize = 1 << 15;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set while executing inside a dispatch — always on a helper, and on
    /// the caller while it claims items or runs a serial dispatch — so that
    /// nested dispatches stay serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process's thread count: `POSEIDON_THREADS` if it is a positive
/// integer, otherwise the host's available parallelism. An invalid value
/// falls back to the host silently.
fn process_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("POSEIDON_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The thread count dispatches on this thread currently resolve to: the
/// [`with_threads`] override if one is active, otherwise the process's
/// count (`POSEIDON_THREADS` or the host, read once).
pub fn threads() -> usize {
    match LOCAL_THREADS.with(Cell::get) {
        0 => process_threads(),
        local => local,
    }
}

/// Runs `f` with the calling thread's dispatches using `n` threads,
/// restoring the previous setting afterwards (panic-safe).
///
/// This override is thread-local, so concurrent tests (cargo's default
/// test harness) can pin different counts without racing each other.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(|c| c.replace(n)));
    f()
}

/// True while the current thread is executing inside an engine dispatch.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// The team size a dispatch of `items` items × `weight` weight would use
/// right now (1 = it would run serially): as many participants as there are
/// threads, items, and [`PAR_THRESHOLD`]-sized shares of the work.
fn team_size(items: usize, weight: usize) -> usize {
    if items <= 1 || in_worker() {
        return 1;
    }
    let shares = items.saturating_mul(weight.max(1)) / PAR_THRESHOLD;
    threads().min(items).min(shares).max(1)
}

/// Why a result slot's mutex cannot be poisoned or contended.
const ONE_CLAIM: &str = "each index is claimed exactly once, so its slot is locked exactly once";

/// Marks the current thread as inside a dispatch for as long as it lives,
/// then restores what it found: a nested (serial) dispatch that ends must
/// not make the rest of the enclosing item look like top-level code.
struct WorkerGuard {
    was_in_worker: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard {
            was_in_worker: IN_WORKER.with(|c| c.replace(true)),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.was_in_worker));
    }
}

/// Applies `f(index, &mut item)` to every slice element, the team claiming
/// one index at a time. `weight` is the estimated element operations per
/// item (see [`PAR_THRESHOLD`]); small payloads run serially.
///
/// Deterministic: items keep their positions, so the result is identical
/// at every thread count. A panic in `f` reaches the caller with its
/// original payload once every participant has stopped.
pub fn par_for_each_mut<T, F>(items: &mut [T], weight: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let t = team_size(n, weight);
    if t <= 1 {
        tel::serial().add(n as u64);
        let _guard = WorkerGuard::enter();
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let _dispatch = tel::dispatch().span(t as u64);
    // An index is claimed by exactly one participant; the uncontended mutex
    // is how safe code hands that participant the `&mut`.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    pool::run(t, n, &|i| {
        let mut item = slots[i].lock().expect(ONE_CLAIM);
        f(i, &mut **item);
    });
}

/// Builds `vec![f(0), f(1), …, f(n-1)]`, evaluating `f` across the thread
/// team. `weight` as in [`par_for_each_mut`]. Output order is index order
/// regardless of scheduling, keeping results bit-identical to serial.
///
/// # Panic containment
///
/// On the parallel path each item runs under `catch_unwind`: a panicking
/// item does not tear down the dispatch. Failed items are re-run serially
/// on the calling thread, once each — a transient failure (a poisoned
/// limb job) recovers and bumps `par.contained`; a panic that
/// reproduces on the retry propagates to the caller with its original
/// payload, so deterministic `assert!` failures behave exactly as before.
/// The retry re-invokes `f` from scratch, which is sound here because
/// dispatch closures in this workspace are pure per-index producers.
pub fn par_map<U, F>(n: usize, weight: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let t = team_size(n, weight);
    if t <= 1 {
        tel::serial().add(n as u64);
        let _guard = WorkerGuard::enter();
        return (0..n).map(f).collect();
    }
    let _dispatch = tel::dispatch().span(t as u64);
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool::run(t, n, &|i| {
        // A panicking item leaves its slot empty; the unwind payload is
        // dropped here and regenerated (or not) by the serial retry below.
        if let Ok(v) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
            *slots[i].lock().expect(ONE_CLAIM) = Some(v);
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner().expect(ONE_CLAIM).unwrap_or_else(|| {
                // Serial re-dispatch of the poisoned item on the calling
                // thread; a second failure propagates unchanged.
                let _guard = WorkerGuard::enter();
                let v = f(i);
                tel::contained().add(1);
                v
            })
        })
        .collect()
}

/// Two-result variant of [`par_map`]: evaluates `f(j) -> (A, B)` over the
/// index space and unzips, preserving order. Used by keyswitch, whose per
/// digit work yields the `(b, a)` product pair.
pub fn par_map_unzip<A, B, F>(n: usize, weight: usize, f: F) -> (Vec<A>, Vec<B>)
where
    A: Send,
    B: Send,
    F: Fn(usize) -> (A, B) + Sync,
{
    let pairs = par_map(n, weight, f);
    let mut left = Vec::with_capacity(pairs.len());
    let mut right = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        left.push(a);
        right.push(b);
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn with_threads_overrides_the_count_then_restores_it() {
        let outer = threads();
        with_threads(7, || {
            assert_eq!(threads(), 7);
            with_threads(3, || assert_eq!(threads(), 3));
            assert_eq!(threads(), 7);
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn par_for_each_mut_matches_serial() {
        let weight = PAR_THRESHOLD; // force the parallel path
        let mut serial: Vec<u64> = (0..64).collect();
        let mut parallel = serial.clone();
        with_threads(1, || {
            par_for_each_mut(&mut serial, weight, |i, v| *v = *v * 3 + i as u64)
        });
        with_threads(8, || {
            par_for_each_mut(&mut parallel, weight, |i, v| *v = *v * 3 + i as u64)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_preserves_index_order() {
        let out = with_threads(8, || par_map(100, PAR_THRESHOLD, |i| i * i));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_unzip_pairs_up() {
        let (a, b) = with_threads(4, || {
            par_map_unzip(10, PAR_THRESHOLD, |i| (i, i as u64 * 2))
        });
        assert_eq!(a, (0..10).collect::<Vec<_>>());
        assert_eq!(b, (0..10).map(|i| i as u64 * 2).collect::<Vec<_>>());
    }

    #[test]
    fn small_payloads_stay_serial() {
        // weight 1, 4 items: far below PAR_THRESHOLD — must not leave the
        // calling thread.
        use std::sync::atomic::AtomicBool;
        let main_id = std::thread::current().id();
        let hit_other_thread = AtomicBool::new(false);
        let mut items = [0u8; 4];
        with_threads(4, || {
            par_for_each_mut(&mut items, 1, |_, v| {
                *v = 1;
                if std::thread::current().id() != main_id {
                    hit_other_thread.store(true, Ordering::SeqCst);
                }
            })
        });
        assert_eq!(items, [1; 4]);
        assert!(!hit_other_thread.load(Ordering::SeqCst));
        // Serial path leaves IN_WORKER false afterwards.
        assert!(!in_worker());
    }

    #[test]
    fn cut_off_is_priced_in_work_not_elements() {
        // Eight limbs at N = 2^12: a pointwise op (weight N) is 2^15
        // operations in all and stays on the caller; the same limbs under an
        // NTT (weight N·log₂N) feed a team.
        let n = 1usize << 12;
        with_threads(8, || {
            assert_eq!(team_size(8, n), 1);
            assert_eq!(team_size(8, n * 12), 8);
            // A team is only as large as the work can feed.
            assert_eq!(team_size(8, 3 * PAR_THRESHOLD / 8), 3);
            // Never more participants than threads or items.
            assert_eq!(team_size(3, 1 << 30), 3);
        });
        with_threads(2, || assert_eq!(team_size(8, n * 12), 2));
        with_threads(1, || assert_eq!(team_size(8, n * 12), 1));
    }

    #[test]
    fn nested_dispatch_runs_serially() {
        let out = with_threads(4, || {
            par_map(4, PAR_THRESHOLD, |i| {
                // Inside a dispatch: a nested one must stay on this thread
                // (and must still be correct) ...
                let inner = par_map(4, PAR_THRESHOLD, move |j| i * 10 + j);
                // ... and its end leaves the rest of this item nested.
                assert!(in_worker());
                inner.into_iter().sum::<usize>()
            })
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn worker_panic_propagates() {
        // A deterministic panic survives the contained retry and reaches
        // the caller with its original payload.
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(8, PAR_THRESHOLD, |i| {
                    if i == 7 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        let payload = caught.expect_err("persistent panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    /// Held by the tests that bump the process-wide `par.contained`
    /// counter, so that an exact `before + 1` can be asserted.
    static CONTAINS_A_PANIC: Mutex<()> = Mutex::new(());

    #[test]
    fn transient_worker_panic_is_contained() {
        use std::sync::atomic::AtomicBool;
        let _counter = CONTAINS_A_PANIC.lock().unwrap_or_else(|e| e.into_inner());
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        TRIPPED.store(false, Ordering::SeqCst);
        let before = tel::contained().count();
        let out = with_threads(4, || {
            par_map(8, PAR_THRESHOLD, |i| {
                if i == 3 && !TRIPPED.swap(true, Ordering::SeqCst) {
                    panic!("transient limb failure");
                }
                i * 2
            })
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(tel::contained().count(), before + 1);
    }

    #[test]
    fn unzip_recovers_transient_panics_too() {
        use std::sync::atomic::AtomicBool;
        let _counter = CONTAINS_A_PANIC.lock().unwrap_or_else(|e| e.into_inner());
        static TRIPPED: AtomicBool = AtomicBool::new(false);
        TRIPPED.store(false, Ordering::SeqCst);
        let (a, b) = with_threads(4, || {
            par_map_unzip(6, PAR_THRESHOLD, |i| {
                if i == 5 && !TRIPPED.swap(true, Ordering::SeqCst) {
                    panic!("transient");
                }
                (i, i as u64)
            })
        });
        assert_eq!(a, (0..6).collect::<Vec<_>>());
        assert_eq!(b, (0..6).map(|i| i as u64).collect::<Vec<_>>());
    }
}
