//! Lazily reduced inner products of residue rows.

use he_math::BarrettReducer;

/// `Σ_j x_j ⊙ y_j mod q` over one residue row, with the products summed in
/// 128 bits and **one** Barrett reduction per coefficient — the paper's
/// MM → MA → shared-SBT chain, as opposed to a reduction per product.
///
/// Every product of reduced residues is below `q²`, so
/// `⌊2^126 / q²⌋` of them ([`block_len`](Self::block_len)) fit under
/// [`BarrettReducer::REDUCE_LIMIT`]. A longer sum is folded: the running
/// total is reduced to `[0, q)` — itself below `q²`, hence one term of the
/// next block — and accumulation continues. For primes below 2^60 a block
/// holds at least 64 products, so a key-switch over fewer digits than that
/// never folds.
///
/// Moddown's conversion `Σ_j t_j·(p̂_j mod q)` is the same sum with a scalar
/// second operand and a first operand reduced modulo a *different* prime;
/// [`with_term_bound`](Self::with_term_bound) sizes the block for it.
///
/// Modular arithmetic is exact: the result is bit-identical to reducing
/// every product and adding modulo `q`.
///
/// # Examples
///
/// ```
/// use he_math::BarrettReducer;
/// use he_rns::LazyDot;
/// let red = BarrettReducer::new(97);
/// let mut dot = LazyDot::new(red, 2);
/// dot.mul_add(&[96, 2], &[96, 3]);
/// dot.mul_add(&[5, 50], &[7, 2]);
/// assert_eq!(dot.finish(), vec![(96 * 96 + 35) % 97, (6 + 100) % 97]);
/// ```
#[derive(Debug, Clone)]
pub struct LazyDot {
    red: BarrettReducer,
    acc: Vec<u128>,
    /// No single product added exceeds this.
    term_bound: u128,
    block: usize,
    /// Terms currently summed in every slot of `acc`.
    terms: usize,
}

impl LazyDot {
    /// An empty sum over rows of length `n` modulo `red`'s prime `q`, for
    /// products of operands that are both reduced modulo `q`.
    pub fn new(red: BarrettReducer, n: usize) -> Self {
        let q = u128::from(red.modulus());
        Self::with_term_bound(red, n, q * q)
    }

    /// An empty sum whose every product is at most `term_bound` — for
    /// operands reduced modulo another prime than `q`.
    ///
    /// # Panics
    ///
    /// Panics if `term_bound` is below `q` (a folded total must count as one
    /// term) or above half of [`BarrettReducer::REDUCE_LIMIT`] (a block must
    /// hold the folded total and one more term).
    pub fn with_term_bound(red: BarrettReducer, n: usize, term_bound: u128) -> Self {
        assert!(
            (u128::from(red.modulus())..=BarrettReducer::REDUCE_LIMIT / 2).contains(&term_bound),
            "term bound out of range"
        );
        Self {
            red,
            acc: vec![0; n],
            term_bound,
            block: (BarrettReducer::REDUCE_LIMIT / term_bound) as usize,
            terms: 0,
        }
    }

    /// How many products are summed between two reductions.
    #[inline]
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// Makes room for one more term per slot, folding a full block first.
    fn next_term(&mut self) {
        if self.terms == self.block {
            for a in &mut self.acc {
                *a = u128::from(self.red.reduce(*a));
            }
            self.terms = 1;
        }
        self.terms += 1;
    }

    /// Adds the element-wise product `x ⊙ y`.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the accumulator's.
    pub fn mul_add(&mut self, x: &[u64], y: &[u64]) {
        assert_eq!(x.len(), self.acc.len(), "row length must match");
        assert_eq!(y.len(), self.acc.len(), "row length must match");
        self.next_term();
        for ((a, &xc), &yc) in self.acc.iter_mut().zip(x).zip(y) {
            let term = u128::from(xc) * u128::from(yc);
            debug_assert!(term <= self.term_bound);
            *a += term;
        }
    }

    /// Adds the row `x` scaled by `w`.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the accumulator's.
    pub fn scale_add(&mut self, x: &[u64], w: u64) {
        assert_eq!(x.len(), self.acc.len(), "row length must match");
        self.next_term();
        for (a, &xc) in self.acc.iter_mut().zip(x) {
            let term = u128::from(xc) * u128::from(w);
            debug_assert!(term <= self.term_bound);
            *a += term;
        }
    }

    /// Reduces the sum: one residue in `[0, q)` per coefficient.
    pub fn finish(self) -> Vec<u64> {
        self.acc.iter().map(|&a| self.red.reduce(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sum_is_zero() {
        let dot = LazyDot::new(BarrettReducer::new(97), 3);
        assert_eq!(dot.finish(), vec![0; 3]);
    }

    #[test]
    fn scaled_rows_fold_across_blocks() {
        // Rows reduced modulo a larger prime than `q`, a bound that admits
        // two terms per block: seven terms fold three times.
        let (q, p) = (97u64, 1009u64);
        let bound = BarrettReducer::REDUCE_LIMIT / 2;
        let mut dot = LazyDot::with_term_bound(BarrettReducer::new(q), 2, bound);
        assert_eq!(dot.block_len(), 2);
        let mut want = [0u64; 2];
        for j in 0..7u64 {
            let row = [p - 1 - j, 3 * j];
            let w = q - 1 - j;
            dot.scale_add(&row, w);
            for (s, x) in want.iter_mut().zip(row) {
                *s = (*s + x * w) % q;
            }
        }
        assert_eq!(dot.finish(), want);
    }
}
