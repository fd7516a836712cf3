//! The persistent helper team, driven through the public dispatch API.
//!
//! Every test here holds [`exclusive`]: the team is process-wide, and these
//! cases either need a helper to be free to join (the [`Meet`] interlock
//! would otherwise wait on a helper another test keeps busy) or count the
//! process's helper threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

use poseidon_par::{in_worker, par_for_each_mut, par_map, with_threads, PAR_THRESHOLD};

/// The largest team any test in this binary asks for.
const LARGEST_TEAM: usize = 8;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Forces a dispatch to be shared: the caller's items wait until a helper
/// has claimed one. Interleavings are forced with flags, never with sleeps.
struct Meet {
    caller: ThreadId,
    helper_in: AtomicBool,
}

impl Meet {
    fn new() -> Self {
        Meet {
            caller: std::thread::current().id(),
            helper_in: AtomicBool::new(false),
        }
    }

    /// Call first thing in an item. Returns whether the item is running on
    /// a helper; on the caller, returns only once a helper is inside one.
    fn on_helper(&self) -> bool {
        if std::thread::current().id() != self.caller {
            self.helper_in.store(true, Ordering::SeqCst);
            return true;
        }
        spin_until(&self.helper_in);
        false
    }
}

fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
}

/// Live helper threads of this process, by the name the pool gives them.
/// `None` where `/proc` does not list tasks (not Linux).
fn helper_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("poseidon-par-"))
            .count(),
    )
}

#[test]
fn caller_panic_does_not_unwind_past_a_helper_inside_an_item() {
    let _x = exclusive();
    let helper_done = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&helper_done);
    let caught = catch_unwind(AssertUnwindSafe(move || {
        // The buffer the helper writes to dies when this closure unwinds.
        let mut buf = [0u64; 2];
        let meet = Meet::new();
        let caller_panicking = AtomicBool::new(false);
        with_threads(2, || {
            par_for_each_mut(&mut buf, PAR_THRESHOLD, |_, v| {
                if meet.on_helper() {
                    spin_until(&caller_panicking);
                    // Widen the window a dispatch that did not wait would
                    // fall into; a correct one passes at any duration.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    *v = 7;
                    done.store(true, Ordering::SeqCst);
                } else {
                    caller_panicking.store(true, Ordering::SeqCst);
                    panic!("caller boom");
                }
            })
        });
    }));
    let payload = caught.expect_err("the caller's own panic propagates");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"));
    assert!(
        helper_done.load(Ordering::SeqCst),
        "the dispatch unwound while a helper was still inside an item"
    );
    // The team is intact: the next dispatch works.
    let out = with_threads(2, || par_map(16, PAR_THRESHOLD, |i| i + 1));
    assert_eq!(out, (1..=16).collect::<Vec<_>>());
}

#[test]
fn helper_panic_reaches_the_caller_and_the_helper_survives() {
    let _x = exclusive();
    // Grow the team first so that the count below is of survivors.
    with_threads(2, || par_map(2, PAR_THRESHOLD, |i| i));
    let before = helper_threads();

    let meet = Meet::new();
    let mut items = [0u8; 2];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || {
            par_for_each_mut(&mut items, PAR_THRESHOLD, |_, _| {
                if meet.on_helper() {
                    panic!("helper boom");
                }
            })
        })
    }));
    let payload = caught.expect_err("a helper's panic propagates");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));

    // A helper still joins the next dispatch, and none was lost or respawned.
    let meet = Meet::new();
    let on_helper = with_threads(2, || par_map(2, PAR_THRESHOLD, |_| meet.on_helper()));
    assert!(on_helper.contains(&true));
    assert_eq!(helper_threads(), before);
}

#[test]
fn concurrent_dispatchers_get_serial_identical_results() {
    let _x = exclusive();
    let item = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
    let serial: Vec<u64> = (0..37).map(item).collect();
    let start = Barrier::new(LARGEST_TEAM);
    std::thread::scope(|s| {
        for k in 0..LARGEST_TEAM {
            let (serial, start) = (&serial, &start);
            s.spawn(move || {
                // More dispatchers than helpers at every setting: whoever
                // finds every helper busy finishes alone.
                let team = [1, 2, 4, 8][k % 4];
                start.wait();
                with_threads(team, || {
                    for _ in 0..200 {
                        assert_eq!(&par_map(37, PAR_THRESHOLD, item), serial);
                        let mut v = vec![0u64; 37];
                        par_for_each_mut(&mut v, PAR_THRESHOLD, |i, x| *x = item(i));
                        assert_eq!(&v, serial);
                    }
                });
            });
        }
    });
}

#[test]
fn nested_dispatch_from_a_helper_runs_on_that_helper() {
    let _x = exclusive();
    let meet = Meet::new();
    let out = with_threads(2, || {
        par_map(2, PAR_THRESHOLD, |i| {
            let on_helper = meet.on_helper();
            assert!(in_worker());
            let outer = std::thread::current().id();
            let nested = || {
                with_threads(LARGEST_TEAM, || {
                    par_map(8, PAR_THRESHOLD, |j| {
                        assert_eq!(std::thread::current().id(), outer);
                        i * 10 + j
                    })
                })
            };
            // Twice: the end of one nested dispatch must leave the next one
            // nested too.
            let inner = nested();
            assert!(in_worker());
            assert_eq!(nested(), inner);
            (on_helper, inner.into_iter().sum::<usize>())
        })
    });
    assert!(out.iter().any(|&(on_helper, _)| on_helper));
    assert_eq!(out.iter().map(|&(_, s)| s).collect::<Vec<_>>(), [28, 108]);
}

#[test]
fn back_to_back_dispatches_reuse_the_team_and_lose_no_item() {
    let _x = exclusive();
    let expect: Vec<usize> = (0..LARGEST_TEAM).collect();
    with_threads(LARGEST_TEAM, || {
        for _ in 0..10_000 {
            assert_eq!(par_map(LARGEST_TEAM, PAR_THRESHOLD, |i| i), expect);
        }
    });
    // The team grew to `team − 1` on the first dispatch and no thread has
    // been spawned since: `LARGEST_TEAM` bounds every team in this process.
    if let Some(helpers) = helper_threads() {
        assert_eq!(helpers, LARGEST_TEAM - 1);
    }
}
