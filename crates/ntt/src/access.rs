//! BRAM data-access-pattern model for the NTT cores (paper §IV-B, Table III
//! and Fig. 5).
//!
//! Poseidon's NTT cores take `2^k` operands per cycle. The conventional
//! radix-2 NTT needs `log2(N)` iterations whose input index offset doubles
//! each phase; the fused NTT needs `ceil(log2(N)/k)` iterations whose offset
//! grows by `2^k` per phase. To feed a core all `2^k` operands in one cycle,
//! operands are interleaved *diagonally* across `2^k` single-port BRAMs —
//! this module computes both the offsets and the bank assignment so the
//! simulator can assert conflict-freedom.

/// Access-pattern summary for one NTT configuration.
///
/// # Examples
///
/// ```
/// use he_ntt::access::AccessPattern;
/// let p = AccessPattern::new(4096, 3);
/// assert_eq!(p.conventional_iterations(), 12);
/// assert_eq!(p.fused_iterations(), 4);
/// assert_eq!(p.fused_offset(2), 8);   // Fig. 5 iteration 2: 0,8,16,...
/// assert_eq!(p.fused_offset(3), 64);  // Fig. 5 iteration 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPattern {
    n: usize,
    k: u32,
}

impl AccessPattern {
    /// Creates the pattern model for transform length `n` and fusion degree
    /// `k`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `k` is zero or exceeds
    /// `log2(n)`.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(n.is_power_of_two(), "n must be a power of two");
        assert!(k >= 1 && k <= n.trailing_zeros(), "k out of range");
        Self { n, k }
    }

    /// Iterations (phases) of the conventional radix-2 NTT: `log2(N)`.
    pub fn conventional_iterations(&self) -> u32 {
        self.n.trailing_zeros()
    }

    /// Iterations of the fused NTT: `ceil(log2(N) / k)`.
    pub fn fused_iterations(&self) -> u32 {
        let l = self.n.trailing_zeros();
        l.div_ceil(self.k)
    }

    /// Index offset between consecutive operands in conventional iteration
    /// `iter` (1-based): `2^(iter-1)`.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0 or exceeds [`conventional_iterations`].
    ///
    /// [`conventional_iterations`]: Self::conventional_iterations
    pub fn conventional_offset(&self, iter: u32) -> usize {
        assert!(iter >= 1 && iter <= self.conventional_iterations());
        1usize << (iter - 1)
    }

    /// Index offset between consecutive operands in fused iteration `iter`
    /// (1-based): `2^(k·(iter-1))` — 1, 8, 64, 512, … for k = 3.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0 or exceeds [`fused_iterations`].
    ///
    /// [`fused_iterations`]: Self::fused_iterations
    pub fn fused_offset(&self, iter: u32) -> usize {
        assert!(iter >= 1 && iter <= self.fused_iterations());
        1usize << (self.k * (iter - 1)).min(self.n.trailing_zeros() - 1)
    }

    /// The diagonal BRAM bank that stores operand index `idx` so that each
    /// fused gather touches `2^k` *distinct* banks (Fig. 5's diagonal
    /// layout): `bank = (idx + idx / 2^k) mod 2^k` folded over phases —
    /// we use the standard skewed scheme `(sum of base-2^k digits) mod 2^k`.
    fn bram_bank(&self, idx: usize) -> usize {
        let radix = 1usize << self.k;
        let mut v = idx;
        let mut acc = 0usize;
        while v > 0 {
            acc += v % radix;
            v /= radix;
        }
        acc % radix
    }

    /// Checks that every gather in every fused iteration touches `2^k`
    /// distinct BRAM banks (no port conflicts). Returns the first violating
    /// `(iteration, base)` if any.
    pub fn verify_conflict_free(&self) -> Result<(), (u32, usize)> {
        let radix = 1usize << self.k;
        for iter in 1..=self.fused_iterations() {
            let off = self.fused_offset(iter);
            // Bases: every index whose digit at the iteration position is 0.
            let mut base = 0usize;
            while base + (radix - 1) * off < self.n {
                let mut seen = vec![false; radix];
                for e in 0..radix {
                    let b = self.bram_bank(base + e * off);
                    if seen[b] {
                        return Err((iter, base));
                    }
                    seen[b] = true;
                }
                base += if (base + 1).is_multiple_of(off) {
                    (radix - 1) * off + 1
                } else {
                    1
                };
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_offsets_for_4096_k3() {
        let p = AccessPattern::new(4096, 3);
        // Conventional: 12 iterations, offsets 1,2,4,...,2048.
        assert_eq!(p.conventional_iterations(), 12);
        assert_eq!(p.conventional_offset(1), 1);
        assert_eq!(p.conventional_offset(12), 2048);
        // Fused: 4 iterations, offsets 1, 8, 64, 512.
        assert_eq!(p.fused_iterations(), 4);
        let offs: Vec<usize> = (1..=4).map(|i| p.fused_offset(i)).collect();
        assert_eq!(offs, vec![1, 8, 64, 512]);
    }

    #[test]
    fn diagonal_banking_is_conflict_free() {
        for (n, k) in [(512usize, 3u32), (4096, 3), (256, 2), (4096, 4)] {
            let p = AccessPattern::new(n, k);
            assert_eq!(p.verify_conflict_free(), Ok(()), "n={n} k={k}");
        }
    }

    #[test]
    fn naive_banking_would_conflict() {
        // Sanity: with linear banking (idx mod 2^k), iteration 2's gather
        // {0, 8, 16, ...} hits bank 0 every time — the diagonal scheme is
        // what avoids this.
        let p = AccessPattern::new(4096, 3);
        let ops: Vec<usize> = (0..8).map(|e| e * p.fused_offset(2)).collect();
        let linear: Vec<usize> = ops.iter().map(|i| i % 8).collect();
        assert!(linear.iter().all(|&b| b == 0));
        let diagonal: Vec<usize> = ops.iter().map(|&i| p.bram_bank(i)).collect();
        let mut sorted = diagonal.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }
}
