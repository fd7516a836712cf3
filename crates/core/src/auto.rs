//! HFAuto — the hardware-friendly automorphism (paper §III-B, Fig. 6).
//!
//! The Galois automorphism maps coefficient `idx` to `idx·g mod N` (with a
//! sign flip whenever `idx·g mod 2N ≥ N`). Done element-at-a-time — the
//! "naive Auto" baseline — a single index map per cycle makes the operator
//! the pipeline's bottleneck.
//!
//! HFAuto segments the N-element vector into `R = N/C` rows of lane width
//! `C` and observes (the paper's lemma, `⌊a mod CR / C⌋ = ⌊a/C⌋ mod R`)
//! that the destination of element `(i, j)` factors as
//!
//! * row `I = (i·g + ⌊j·g / C⌋) mod R` — stage ❶ permutes whole rows by
//!   `i ↦ i·g mod R`, stage ❷ rotates each *column* `j` by the extra
//!   offset `⌊j·g/C⌋ mod R` (the per-FIFO cyclic shift),
//! * stage ❸ switches the storage dimension (the BRAM transpose), and
//! * column `J = j·g mod C` — stage ❹ permutes columns.
//!
//! Every stage moves `C` elements per step instead of 1 — the parallelism
//! the paper trades a little extra logic for (Tables VIII/IX).

mod tel {
    poseidon_telemetry::scope_fn! {
        pub hfauto = "auto.hfauto";
    }
}

/// The HFAuto engine for a fixed `(N, C)` split.
///
/// # Examples
///
/// ```
/// use poseidon_core::HfAuto;
/// let hf = HfAuto::new(16, 4);
/// let data: Vec<u64> = (0..16).collect();
/// let q = 97;
/// let out = hf.apply(&data, 3, q);
/// // Element 1 (X¹) maps to X³ with no sign change: out[3] = data[1].
/// assert_eq!(out[3], data[1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HfAuto {
    n: usize,
    c: usize,
    r: usize,
}

impl HfAuto {
    /// Creates the engine for vector length `n` split into lanes of `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` and `c` are powers of two with `c ≤ n`.
    pub fn new(n: usize, c: usize) -> Self {
        assert!(
            n.is_power_of_two() && c.is_power_of_two(),
            "powers of two required"
        );
        assert!(c >= 1 && c <= n, "lane width must divide the vector");
        Self { n, c, r: n / c }
    }

    /// Vector length `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Lane width `C`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.c
    }

    /// Segment count `R = N/C`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.r
    }

    /// Applies the negacyclic Galois automorphism `X ↦ X^g` to `data`
    /// modulo `q` using the four-stage HFAuto schedule. Bit-exact with
    /// [`he_rns::RnsPoly::automorphism`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N`, `g` is even, or values are unreduced.
    pub fn apply(&self, data: &[u64], g: u64, q: u64) -> Vec<u64> {
        assert_eq!(data.len(), self.n, "input length must equal N");
        assert_eq!(g % 2, 1, "Galois element must be odd");
        debug_assert!(data.iter().all(|&v| v < q), "values must be reduced");
        let _span = tel::hfauto().span(self.n as u64);
        let (n, c, r) = (self.n as u64, self.c as u64, self.r as u64);

        // Stage ❶ with sign pre-application: read row i, negate elements
        // whose destination wraps past X^N, and place the row at i·g mod R.
        // (The sign comparator shares the SBT datapath in hardware.)
        let mut grid = vec![vec![0u64; self.c]; self.r];
        for i in 0..r {
            let dest_row = (i * g) % r;
            for j in 0..c {
                let idx = i * c + j;
                let e = (idx * g) % (2 * n);
                let v = data[idx as usize];
                grid[dest_row as usize][j as usize] = if e >= n && v != 0 { q - v } else { v };
            }
        }

        // Stage ❷: per-column cyclic rotation by ⌊j·g/C⌋ mod R (the FIFO
        // shift — all C columns advance in parallel each step).
        let mut shifted = vec![vec![0u64; self.c]; self.r];
        for j in 0..c {
            let off = (j * g / c) % r;
            for i in 0..r {
                let dest = (i + off) % r;
                shifted[dest as usize][j as usize] = grid[i as usize][j as usize];
            }
        }

        // Stage ❸: dimension switch — in hardware a diagonal BRAM layout;
        // functionally the identity on the logical grid.

        // Stage ❹: column permutation j ↦ j·g mod C, written back C-wide.
        let mut out = vec![0u64; self.n];
        for i in 0..r {
            for j in 0..c {
                let dest_col = (j * g) % c;
                out[(i * c + dest_col) as usize] = shifted[i as usize][j as usize];
            }
        }
        out
    }

    /// The naive single-index-per-cycle automorphism (the paper's "Auto"
    /// baseline in Tables VIII/IX). Same output, element-at-a-time cost.
    pub fn apply_naive(&self, data: &[u64], g: u64, q: u64) -> (Vec<u64>, u64) {
        assert_eq!(data.len(), self.n, "input length must equal N");
        assert_eq!(g % 2, 1, "Galois element must be odd");
        let n = self.n as u64;
        let mut out = vec![0u64; self.n];
        let mut cycles = 0u64;
        for (idx, &v) in data.iter().enumerate() {
            let e = (idx as u64 * g) % (2 * n);
            if e < n {
                out[e as usize] = v;
            } else {
                out[(e - n) as usize] = if v == 0 { 0 } else { q - v };
            }
            cycles += 1; // one index mapping per cycle
        }
        (out, cycles)
    }

    /// Modelled latency in C-wide steps for the HFAuto schedule: each of
    /// the four stages streams R rows.
    pub fn hf_latency_steps(&self) -> u64 {
        4 * self.r as u64
    }

    /// Modelled latency in cycles for the naive baseline: one element per
    /// cycle.
    pub fn naive_latency_cycles(&self) -> u64 {
        self.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_rns::{RnsBasis, RnsPoly};

    fn reference(data: &[i64], g: u64, n: usize) -> Vec<i64> {
        let basis = RnsBasis::generate(n, 28, 1);
        let p = RnsPoly::from_i64_coeffs(&basis, data);
        p.automorphism(g).to_centered_coeffs()
    }

    #[test]
    fn hfauto_matches_reference_automorphism() {
        let n = 64;
        let q = he_math::prime::ntt_prime(28, 2 * n as u64).unwrap();
        let center = |v: u64| {
            if v > q / 2 {
                v as i64 - q as i64
            } else {
                v as i64
            }
        };
        for c in [1usize, 4, 8, 64] {
            let hf = HfAuto::new(n, c);
            for g in [3u64, 5, 25, 127] {
                // Reference basis has a different prime; compare via signed
                // semantics with small values.
                let small: Vec<i64> = (0..n as i64).collect();
                let small_u: Vec<u64> = small
                    .iter()
                    .map(|&v| he_math::modops::reduce_i64(v, q))
                    .collect();
                let hf_small: Vec<i64> = hf
                    .apply(&small_u, g, q)
                    .iter()
                    .map(|&v| center(v))
                    .collect();
                assert_eq!(hf_small, reference(&small, g, n), "c={c} g={g}");
            }
        }
    }

    #[test]
    fn hfauto_equals_naive_for_all_params() {
        let n = 128;
        let q = he_math::prime::ntt_prime(28, 2 * n as u64).unwrap();
        let data: Vec<u64> = (0..n as u64).map(|i| (i * i * 7 + 3) % q).collect();
        for c in [2usize, 16, 32, 128] {
            let hf = HfAuto::new(n, c);
            for g in [3u64, 9, 255] {
                let (naive, _) = hf.apply_naive(&data, g, q);
                assert_eq!(hf.apply(&data, g, q), naive, "c={c} g={g}");
            }
        }
    }

    #[test]
    fn identity_element_is_identity() {
        let n = 32;
        let q = 97u64;
        let hf = HfAuto::new(n, 8);
        let data: Vec<u64> = (0..n as u64).collect();
        assert_eq!(hf.apply(&data, 1, q), data);
    }

    #[test]
    fn latency_model_favours_hfauto() {
        let hf = HfAuto::new(1 << 16, 512);
        // 4 stages × 128 rows = 512 C-wide steps vs 65536 scalar cycles.
        assert_eq!(hf.hf_latency_steps(), 512);
        assert_eq!(hf.naive_latency_cycles(), 65536);
        assert!(hf.hf_latency_steps() * 64 < hf.naive_latency_cycles() * 2);
    }
}
