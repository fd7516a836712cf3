//! Per-thread scratch-buffer pool for hot-path `Vec<u64>` allocations.
//!
//! Keyswitching and basis conversion allocate short-lived limb vectors on
//! every call (lifts into the extension basis, conversion temporaries).
//! Rather than hitting the allocator each time, callers [`take`] a zeroed
//! buffer and [`recycle`] it when done; each thread keeps a small stack of
//! retired buffers, so once warm the hot paths allocate nothing.
//!
//! The pool is thread-local on purpose: every thread that runs limb work —
//! a dispatching thread or one of the engine's persistent helpers — builds
//! its own, so there is no locking and no cross-thread traffic, and because
//! helpers outlive dispatches theirs stay warm (at most `POOL_CAP`
//! buffers each).
//!
//! # Examples
//!
//! ```
//! use poseidon_par::scratch;
//! let buf = scratch::take(1024);
//! assert!(buf.iter().all(|&x| x == 0));
//! scratch::recycle(buf);
//! let again = scratch::take(512); // reuses the retired allocation
//! assert_eq!(again.len(), 512);
//! scratch::recycle(again);
//! ```

use std::cell::RefCell;

/// Retired buffers kept per thread; beyond this, [`recycle`] just drops.
const POOL_CAP: usize = 32;

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Hands out a zeroed `Vec<u64>` of length `len`, reusing a retired
/// buffer when one with enough capacity is pooled.
pub fn take(len: usize) -> Vec<u64> {
    let reused = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let idx = pool.iter().rposition(|b| b.capacity() >= len);
        idx.map(|i| pool.swap_remove(i))
    });
    match reused {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0);
            buf
        }
        None => vec![0u64; len],
    }
}

/// Returns a buffer to the calling thread's pool (dropped if full).
pub fn recycle(buf: Vec<u64>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    });
}

/// Drops every buffer pooled by the calling thread (mainly for tests and
/// memory-sensitive callers).
pub fn clear() {
    POOL.with(|p| p.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_even_after_dirty_recycle() {
        clear();
        let mut buf = take(64);
        buf.iter_mut().for_each(|x| *x = 0xDEAD_BEEF);
        recycle(buf);
        let buf = take(64);
        assert!(buf.iter().all(|&x| x == 0));
        recycle(buf);
    }

    #[test]
    fn reuses_capacity() {
        clear();
        let buf = take(256);
        let ptr = buf.as_ptr();
        recycle(buf);
        let buf = take(128);
        assert_eq!(buf.as_ptr(), ptr, "should reuse the pooled allocation");
        recycle(buf);
    }

    #[test]
    fn pool_is_bounded() {
        clear();
        let bufs: Vec<_> = (0..POOL_CAP + 8).map(|_| take(16)).collect();
        for b in bufs {
            recycle(b);
        }
        POOL.with(|p| assert!(p.borrow().len() <= POOL_CAP));
        clear();
    }
}
