//! Reusable residue-row scratch buffers for pooled decoding.
//!
//! [`crate::decode_ciphertext_pooled`] runs the same decoder as
//! [`crate::decode_ciphertext`], but the crate's one residue reader takes
//! each `Vec<u64>` limb row from a [`BufferPool`] instead of the
//! allocator; at serving rates that is thousands of short-lived
//! multi-KiB allocations per second avoided. The pool keeps a bounded
//! free list of such rows so the steady state allocates nothing: decoders
//! take rows out (and hand them back when a frame is refused), and the
//! dispatcher puts the rows of consumed operands back via
//! [`BufferPool::recycle_ciphertext`].
//!
//! The pool is a plain `Mutex<Vec<_>>` — take/put are two pointer moves
//! under an uncontended lock, far cheaper than the page-touching `malloc`
//! they replace, and safe to share across dispatcher shards.

use std::sync::Mutex;

use he_ckks::cipher::Ciphertext;
use he_rns::RnsPoly;

/// A bounded free list of `Vec<u64>` residue rows.
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u64>>>,
    max_buffers: usize,
}

impl BufferPool {
    /// An empty pool retaining at most `max_buffers` free rows; excess
    /// [`put`](Self::put)s fall through to the allocator.
    pub fn new(max_buffers: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            max_buffers,
        }
    }

    /// Takes one cleared row with at least `capacity_hint` capacity
    /// (allocating fresh only when the pool is empty).
    pub fn take(&self, capacity_hint: usize) -> Vec<u64> {
        let recycled = self.free.lock().expect("buffer pool poisoned").pop();
        match recycled {
            Some(mut row) => {
                row.clear();
                row.reserve(capacity_hint);
                row
            }
            None => Vec::with_capacity(capacity_hint),
        }
    }

    /// Returns one row to the free list (dropped if the pool is full).
    pub fn put(&self, row: Vec<u64>) {
        if row.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().expect("buffer pool poisoned");
        if free.len() < self.max_buffers {
            free.push(row);
        }
    }

    /// Recycles every residue row of a consumed polynomial.
    fn recycle_poly(&self, poly: RnsPoly) {
        for row in poly.into_residues() {
            self.put(row);
        }
    }

    /// Recycles both component polynomials of a consumed ciphertext —
    /// the natural call after an evaluator has produced its output and
    /// the request operand is dead.
    pub fn recycle_ciphertext(&self, ct: Ciphertext) {
        let (c0, c1, _scale) = ct.into_parts();
        self.recycle_poly(c0);
        self.recycle_poly(c1);
    }

    /// Rows currently sitting on the free list.
    pub fn len(&self) -> usize {
        self.free.lock().expect("buffer pool poisoned").len()
    }

    /// Whether the free list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_round_trip_reuses_capacity() {
        let pool = BufferPool::new(4);
        let mut row = pool.take(128);
        row.extend_from_slice(&[1, 2, 3]);
        let cap = row.capacity();
        pool.put(row);
        assert_eq!(pool.len(), 1);
        let row = pool.take(16);
        assert!(row.is_empty(), "recycled rows come back cleared");
        assert!(row.capacity() >= cap.min(16));
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn bounded_at_max_buffers() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn zero_capacity_rows_are_not_retained() {
        let pool = BufferPool::new(4);
        pool.put(Vec::new());
        assert!(pool.is_empty());
    }
}
