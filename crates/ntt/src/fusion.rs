//! NTT-fusion: the radix-2^k fused transform of the paper's §III-A.
//!
//! The conventional NTT performs log2(N) phases of "Twiddle, Accumulate,
//! Modulo" (TAM) butterflies — every element passes through one modular
//! reduction per phase. Fusing k consecutive phases collapses them into a
//! single *fused TAM*: each 2^k-element block is transformed by one
//! precomputed 2^k × 2^k coefficient matrix, accumulated in 128-bit
//! registers, with a **single** Barrett reduction per output element.
//!
//! The trade-off the paper quantifies in Table II falls out of this
//! structure directly:
//!
//! * modular reductions per block drop from `k·2^k` to `2^k`;
//! * multiplies/adds per block rise from `k·2^k` to `(2^k − 1)·2^k`
//!   (a dense matrix apply);
//! * the number of distinct twiddle factors to store grows, because the
//!   matrix entries are *products* of stage twiddles.
//!
//! [`FusedNtt`] computes outputs bit-exactly equal to the radix-2 transform
//! (property-tested), while [`FusionAnalysis`] reports the operation counts
//! used by the Table II / Fig. 10 regenerators.

use he_math::BarrettReducer;
use std::collections::HashSet;

use crate::table::NttTable;

/// A fused radix-2^k forward NTT bound to an [`NttTable`].
///
/// # Examples
///
/// ```
/// use he_ntt::{FusedNtt, NttTable};
/// let q = he_math::prime::ntt_prime(30, 1 << 7).unwrap();
/// let table = NttTable::new(64, q);
/// let fused = FusedNtt::new(&table, 3);
/// let mut a: Vec<u64> = (0..64u64).collect();
/// let mut b = a.clone();
/// table.forward(&mut a);
/// fused.forward(&mut b);
/// assert_eq!(a, b); // bit-exact with the radix-2 transform
/// ```
#[derive(Debug, Clone)]
pub struct FusedNtt {
    n: usize,
    /// One group of fused stages; applied in order.
    groups: Vec<StageGroup>,
    reducer: BarrettReducer,
    /// Mean distinct twiddle-matrix coefficients (∉ {0, 1}) per kernel —
    /// the per-block twiddle storage that Table II's `W (fused)` tracks.
    distinct_twiddles_per_block: f64,
}

/// One fused stage group: `k_eff` radix-2 stages starting at `m0` groups.
#[derive(Debug, Clone)]
struct StageGroup {
    /// Group count entering this stage group.
    m0: usize,
    /// Number of radix-2 stages fused here (may be < k for the remainder).
    k_eff: u32,
    /// `t_first / 2^(k_eff-1)`: element stride inside a block.
    t_min: usize,
    /// Per first-stage-group kernel matrix, row-major `2^k_eff × 2^k_eff`.
    kernels: Vec<Vec<u64>>,
}

impl FusedNtt {
    /// Builds the fused transform for fusion degree `k` (radix `2^k`).
    ///
    /// When `log2(N)` is not a multiple of `k`, the final stage group fuses
    /// the remaining `log2(N) mod k` stages at a smaller radix.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > log2(N)`.
    pub fn new(table: &NttTable, k: u32) -> Self {
        let n = table.n();
        let q = table.modulus();
        let log_n = table.log_n();
        assert!(k >= 1 && k <= log_n, "fusion degree out of range");

        let mut groups = Vec::new();
        let mut kernel_count = 0usize;
        let mut distinct_total = 0usize;
        let mut m0 = 1usize;
        let mut stages_done = 0u32;
        while stages_done < log_n {
            let k_eff = k.min(log_n - stages_done);
            let block = 1usize << k_eff;
            let t_first = n / (2 * m0);
            let t_min = t_first >> (k_eff - 1);
            // Build the kernel matrix for each first-stage group i0 by
            // symbolically executing the k_eff radix-2 stages on basis
            // vectors over Z_q.
            let mut kernels = Vec::with_capacity(m0);
            for i0 in 0..m0 {
                let mut mat = vec![0u64; block * block];
                for e0 in 0..block {
                    let mut v = vec![0u64; block];
                    v[e0] = 1;
                    // Stage s pairs elements (e, e + 2^(k_eff-1-s)).
                    for s in 0..k_eff {
                        let d = 1usize << (k_eff - 1 - s);
                        let m_s = m0 << s;
                        let mut e = 0;
                        while e < block {
                            if e & d == 0 {
                                // Global group index at stage s.
                                let i_s = i0 * (1usize << s) + (e >> (k_eff - s));
                                let w = table.psi_rev_value(m_s + i_s);
                                let u = v[e];
                                let t = table.reducer().mul(w, v[e + d]);
                                v[e] = he_math::modops::add_mod(u, t, q);
                                v[e + d] = he_math::modops::sub_mod(u, t, q);
                                e += 1;
                            } else {
                                e += d; // skip the upper half of the pair span
                            }
                        }
                    }
                    for (e, &val) in v.iter().enumerate() {
                        mat[e * block + e0] = val;
                    }
                }
                let per_kernel: HashSet<u64> = mat.iter().copied().filter(|&v| v > 1).collect();
                distinct_total += per_kernel.len();
                kernel_count += 1;
                kernels.push(mat);
            }
            groups.push(StageGroup {
                m0,
                k_eff,
                t_min,
                kernels,
            });
            m0 <<= k_eff;
            stages_done += k_eff;
        }

        Self {
            n,
            groups,
            reducer: BarrettReducer::new(q),
            distinct_twiddles_per_block: distinct_total as f64 / kernel_count as f64,
        }
    }

    /// Number of fused phases (stage groups) — `ceil(log2(N)/k)`, paper
    /// Table III's "iterations".
    #[inline]
    pub fn phases(&self) -> usize {
        self.groups.len()
    }

    /// Mean distinct non-trivial twiddle coefficients per fused kernel —
    /// the per-block storage cost Table II's `W (fused)` column tracks.
    #[inline]
    pub fn distinct_twiddles_per_block(&self) -> f64 {
        self.distinct_twiddles_per_block
    }

    /// Applies the fused forward transform in place; output is bit-exact
    /// with [`NttTable::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal N");
        let mut gathered = Vec::new();
        for g in &self.groups {
            let block = 1usize << g.k_eff;
            let span = 2 * (self.n / (2 * g.m0)); // group width = n / m0
            for i0 in 0..g.m0 {
                let base = i0 * span;
                let mat = &g.kernels[i0];
                for b in 0..g.t_min {
                    gathered.clear();
                    gathered.extend((0..block).map(|e| a[base + b + e * g.t_min]));
                    for e in 0..block {
                        let row = &mat[e * block..(e + 1) * block];
                        let mut acc: u128 = 0;
                        for (c, &x) in row.iter().zip(&gathered) {
                            acc += *c as u128 * x as u128;
                        }
                        // The single modular reduction of the fused TAM.
                        a[base + b + e * g.t_min] = self.reducer.reduce(acc);
                    }
                }
            }
        }
    }
}

/// Analytical operation counts for one fused TAM kernel, matching the
/// structure of paper Table II.
///
/// All counts are per 2^k-input block (k radix-2 stages fused).
///
/// # Examples
///
/// ```
/// use he_ntt::FusionAnalysis;
/// let a = FusionAnalysis::for_radix(3);
/// assert_eq!(a.reductions_unfused, 24);
/// assert_eq!(a.reductions_fused, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionAnalysis {
    /// Fusion degree `k`.
    pub k: u32,
    /// Twiddle factors stored per block, unfused (`2^(k-1)`).
    pub twiddles_unfused: u64,
    /// Twiddle factors reported by the paper for the fused kernel.
    pub twiddles_fused_paper: u64,
    /// Multiplications per block, unfused (`k·2^k`, per-element count as the
    /// paper tallies them).
    pub mult_unfused: u64,
    /// Multiplications per block, fused (`(2^k − 1)·2^k`, dense matrix).
    pub mult_fused: u64,
    /// Additions per block, unfused (equal to `mult_unfused`).
    pub add_unfused: u64,
    /// Additions per block, fused (equal to `mult_fused`).
    pub add_fused: u64,
    /// Modular reductions per block, unfused (`k·2^k`).
    pub reductions_unfused: u64,
    /// Modular reductions per block, fused (`2^k`).
    pub reductions_fused: u64,
}

impl FusionAnalysis {
    /// Operation counts for fusion degree `k` (2 ≤ k ≤ 6 covers Table II;
    /// other positive values extrapolate the same formulas).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn for_radix(k: u32) -> Self {
        assert!(k >= 1, "fusion degree must be positive");
        let block = 1u64 << k;
        let twiddles_fused_paper = match k {
            1 => 1,
            2 => 2,
            3 => 5,
            4 => 13,
            5 => 34,
            6 => 85,
            _ => (block * block - block) / 3 + 1, // extrapolation
        };
        Self {
            k,
            twiddles_unfused: block / 2,
            twiddles_fused_paper,
            mult_unfused: k as u64 * block,
            mult_fused: (block - 1) * block,
            add_unfused: k as u64 * block,
            add_fused: (block - 1) * block,
            reductions_unfused: k as u64 * block,
            reductions_fused: block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NttTable;

    fn check_fused(n: usize, k: u32) {
        let q = he_math::prime::ntt_prime(30, 2 * n as u64).unwrap();
        let table = NttTable::new(n, q);
        let fused = FusedNtt::new(&table, k);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761 + 17) % q).collect();
        let mut r2 = a.clone();
        let mut rf = a;
        table.forward(&mut r2);
        fused.forward(&mut rf);
        assert_eq!(r2, rf, "n={n} k={k}");
    }

    #[test]
    fn fused_matches_radix2_when_k_divides_logn() {
        check_fused(64, 2);
        check_fused(64, 3);
        check_fused(256, 4);
    }

    #[test]
    fn fused_handles_remainder_stages() {
        check_fused(32, 3); // log2 = 5 → phases of 3 + 2
        check_fused(128, 4); // log2 = 7 → 4 + 3
        check_fused(128, 5); // 5 + 2
    }

    #[test]
    fn degenerate_radices() {
        check_fused(16, 1); // pure radix-2 through the fused path
        check_fused(16, 4); // the whole transform in one fused phase
    }

    #[test]
    fn phase_count_matches_ceiling() {
        let q = he_math::prime::ntt_prime(30, 1 << 13).unwrap();
        let table = NttTable::new(1 << 12, q);
        assert_eq!(FusedNtt::new(&table, 3).phases(), 4); // paper: 12/3 = 4
        assert_eq!(FusedNtt::new(&table, 5).phases(), 3); // 5+5+2
    }

    #[test]
    fn analysis_reproduces_table2_counts() {
        // Paper Table II rows (k, mult/add unfused, mult/add fused).
        let rows = [
            (2u32, 8u64, 12u64),
            (3, 24, 56),
            (4, 64, 240),
            (5, 160, 992),
        ];
        for (k, unfused, fused) in rows {
            let a = FusionAnalysis::for_radix(k);
            assert_eq!(a.mult_unfused, unfused);
            assert_eq!(a.mult_fused, fused);
            assert_eq!(a.add_unfused, unfused);
            assert_eq!(a.add_fused, fused);
        }
        // Reduction headline: k=3 turns 24 reductions into 8.
        let a3 = FusionAnalysis::for_radix(3);
        assert_eq!(a3.reductions_unfused, 24);
        assert_eq!(a3.reductions_fused, 8);
    }

    #[test]
    fn twiddle_storage_grows_with_k() {
        let q = he_math::prime::ntt_prime(30, 1 << 9).unwrap();
        let table = NttTable::new(256, q);
        let t2 = FusedNtt::new(&table, 2).distinct_twiddles_per_block();
        let t4 = FusedNtt::new(&table, 4).distinct_twiddles_per_block();
        assert!(
            t4 > t2,
            "fused twiddle storage must grow with k ({t2} vs {t4})"
        );
    }
}
