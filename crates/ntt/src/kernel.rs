//! The portable lazy-reduction NTT kernel, and the oracle of its vector
//! twin.
//!
//! The paper's §III-A NTT-fusion collapses k butterfly stages into one
//! fused TAM so each 2^k block pays 2^k modular reductions instead of
//! k·2^k. In software the same saving is realised with *lazy (redundant)
//! arithmetic*: Harvey butterflies keep values in `[0, 4q)` (forward) or
//! `[0, 2q)` (inverse), the Shoup twiddle product lands in `[0, 2q)`
//! without correction, and stages run k = 3 at a time, mirroring the
//! paper's radix-8 fused TAM (Table II's sweet spot).
//!
//! `forward_fused` / `inverse_fused` are the transforms behind
//! [`crate::NttTable::forward`] / `inverse` wherever the AVX-512 IFMA
//! kernel of [`crate::ifma`] does not take the call (a CPU without IFMA, a
//! prime of 2^50 or more, `N < 16`, or an input word past the lazy bound),
//! and what that kernel is tested against: stage groups of k = 3, where
//! each 8-element block is gathered once and runs 12 lazy butterflies in
//! registers, plus the `log2 N mod 3` remainder as one radix-2 stage or
//! one radix-4 group on the coarse stages, where the columns are widest
//! (first in the forward transform, last in the inverse). Neither
//! transform reduces at a group boundary: the lazy representatives are
//! carried through the whole transform, and each output is reduced exactly
//! once — in the forward transform's last group write-back (a final pass
//! when N < 8), in the inverse's `N⁻¹` pass. That is why
//! [`crate::NttTable::new`] requires `q < 2^62`: `4q` must fit in a `u64`.
//! Inner loops are explicit 8-lane chunked passes over the contiguous
//! sub-transform columns; the vector kernel runs the same schedule on
//! 8-lane registers, the CPU's share of the paper's 512 vector lanes.
//!
//! Outputs are fully reduced and modular arithmetic is exact, so the
//! transform value — not just its residue class — is bit-identical to the
//! radix-2 oracle in [`crate::negacyclic`] at every length
//! (`tests/kernel_equivalence.rs`).

use he_math::modops::csub;
use he_math::shoup::mul_shoup_lane_lazy;

use crate::table::Twiddles;

/// One twiddle and its Shoup quotient `⌊w·2^64/q⌋`, read from a table's
/// parallel arrays.
#[derive(Clone, Copy)]
struct Tw {
    w: u64,
    quot: u64,
}

impl Tw {
    #[inline(always)]
    fn at(t: &Twiddles, i: usize) -> Self {
        Self {
            w: t.w[i],
            quot: t.w64[i],
        }
    }

    /// `i..i + K` of the table.
    #[inline(always)]
    fn run<const K: usize>(t: &Twiddles, i: usize) -> [Self; K] {
        let (w, quot) = (&t.w[i..i + K], &t.w64[i..i + K]);
        let mut out = [Self { w: 0, quot: 0 }; K];
        for (k, o) in out.iter_mut().enumerate() {
            *o = Self {
                w: w[k],
                quot: quot[k],
            };
        }
        out
    }

    /// `a·w mod q` in `[0, 2q)` for any `a`: Harvey's lazy product.
    #[inline(always)]
    fn mul_lazy(self, a: u64, q: u64) -> u64 {
        mul_shoup_lane_lazy(a, self.w, self.quot, q)
    }
}

/// Debug-build operation counters for reconciling the fused kernel against
/// the analytic [`crate::FusionAnalysis`] model (paper Table II).
///
/// Counters are thread-local and compiled in only under
/// `debug_assertions`; release builds pay nothing and the accessors return
/// zero. A "multiply" is one 64×64 hardware multiply of a twiddle product
/// (each Shoup product counts 2, matching how Table II tallies the
/// unfused butterflies); a "reduction" is one full modular reduction of an
/// output to `[0, q)`, counted where it runs — once per output per
/// transform.
pub mod op_counters {
    #[cfg(debug_assertions)]
    use std::cell::Cell;

    #[cfg(debug_assertions)]
    thread_local! {
        static REDUCTIONS: Cell<u64> = const { Cell::new(0) };
        static MULTIPLIES: Cell<u64> = const { Cell::new(0) };
    }

    /// Zeroes this thread's counters.
    pub fn reset() {
        #[cfg(debug_assertions)]
        {
            REDUCTIONS.with(|c| c.set(0));
            MULTIPLIES.with(|c| c.set(0));
        }
    }

    /// Full modular reductions performed by fused kernels on this thread
    /// since [`reset`] (0 in release builds).
    pub fn reductions() -> u64 {
        #[cfg(debug_assertions)]
        {
            REDUCTIONS.with(Cell::get)
        }
        #[cfg(not(debug_assertions))]
        0
    }

    /// Twiddle multiplies performed by fused kernels on this thread since
    /// [`reset`] (0 in release builds).
    pub fn multiplies() -> u64 {
        #[cfg(debug_assertions)]
        {
            MULTIPLIES.with(Cell::get)
        }
        #[cfg(not(debug_assertions))]
        0
    }

    #[inline(always)]
    pub(crate) fn count(_reductions: u64, _multiplies: u64) {
        #[cfg(debug_assertions)]
        {
            REDUCTIONS.with(|c| c.set(c.get() + _reductions));
            MULTIPLIES.with(|c| c.set(c.get() + _multiplies));
        }
    }
}

/// Harvey forward butterfly. Inputs in `[0, 4q)`, outputs in `[0, 4q)`:
/// the upper input is folded to `[0, 2q)`, the twiddle product lands in
/// `[0, 2q)` with no correction, and the add/sub pair stays below `4q`.
/// Total on any word: outside the contract the sums wrap, so a corrupted
/// word yields some wrong residue (which fault detection then sees), never
/// a panic; inside it the wrapping ops compute the same words.
#[inline(always)]
fn fwd_bf(x: u64, y: u64, w: Tw, q: u64) -> (u64, u64) {
    let two_q = 2 * q;
    let x = csub(x, two_q);
    let t = w.mul_lazy(y, q);
    (x.wrapping_add(t), x.wrapping_add(two_q).wrapping_sub(t))
}

/// Harvey inverse (Gentleman–Sande) butterfly. Inputs in `[0, 2q)`,
/// outputs in `[0, 2q)`: the sum is folded once, the difference is offset
/// by `2q` before the lazy twiddle product. Total on any word, as
/// [`fwd_bf`] is.
#[inline(always)]
fn inv_bf(x: u64, y: u64, w: Tw, q: u64) -> (u64, u64) {
    let two_q = 2 * q;
    let s = csub(x.wrapping_add(y), two_q);
    let d = x.wrapping_add(two_q).wrapping_sub(y);
    (s, w.mul_lazy(d, q))
}

/// Folds a forward-kernel value from `[0, 4q)` to `[0, q)`.
#[inline(always)]
fn reduce_4q(v: u64, q: u64, two_q: u64) -> u64 {
    csub(csub(v, two_q), q)
}

/// Borrows two distinct lanes of a block mutably (`i < j`).
#[inline(always)]
fn pair_mut<const L: usize, const B: usize>(
    v: &mut [[u64; L]; B],
    i: usize,
    j: usize,
) -> (&mut [u64; L], &mut [u64; L]) {
    debug_assert!(i < j);
    let (lo, hi) = v.split_at_mut(j);
    (&mut lo[i], &mut hi[0])
}

/// One forward butterfly across `L` lanes (the chunked, autovectorisable
/// inner pass: both lane arrays are contiguous memory).
#[inline(always)]
fn fwd_bf_lanes<const L: usize>(x: &mut [u64; L], y: &mut [u64; L], w: Tw, q: u64) {
    for l in 0..L {
        let (u, v) = fwd_bf(x[l], y[l], w, q);
        x[l] = u;
        y[l] = v;
    }
}

#[inline(always)]
fn inv_bf_lanes<const L: usize>(x: &mut [u64; L], y: &mut [u64; L], w: Tw, q: u64) {
    for l in 0..L {
        let (u, v) = inv_bf(x[l], y[l], w, q);
        x[l] = u;
        y[l] = v;
    }
}

/// `L` columns of one forward radix-8 fused block, starting at column
/// `b0`. The block slice spans `8·t_min` elements; lane `e` is the
/// contiguous run `[e·t_min, e·t_min + t_min)`. Three butterfly levels run
/// entirely in registers. Values enter and leave in `[0, 4q)`; only the
/// transform's last group (`REDUCE`) folds each output to `[0, q)` at its
/// write-back, the one reduction that output takes.
#[inline(always)]
fn fwd_radix8_cols<const L: usize, const REDUCE: bool>(
    a: &mut [u64],
    b0: usize,
    t_min: usize,
    w1: Tw,
    w2: [Tw; 2],
    w3: [Tw; 4],
    q: u64,
) {
    let two_q = 2 * q;
    let mut v = [[0u64; L]; 8];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t_min;
        lane.copy_from_slice(&a[s..s + L]);
    }
    // Level 1 (stage m): pairs (e, e+4), one twiddle.
    for e in 0..4 {
        let (x, y) = pair_mut(&mut v, e, e + 4);
        fwd_bf_lanes(x, y, w1, q);
    }
    // Level 2 (stage 2m): pairs (e, e+2) within each half.
    for (h, &w) in w2.iter().enumerate() {
        for e in 0..2 {
            let i = 4 * h + e;
            let (x, y) = pair_mut(&mut v, i, i + 2);
            fwd_bf_lanes(x, y, w, q);
        }
    }
    // Level 3 (stage 4m): adjacent pairs.
    for (c, &w) in w3.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        fwd_bf_lanes(x, y, w, q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t_min;
        if REDUCE {
            for (out, &val) in a[s..s + L].iter_mut().zip(lane) {
                *out = reduce_4q(val, q, two_q);
            }
        } else {
            a[s..s + L].copy_from_slice(lane);
        }
    }
    op_counters::count(if REDUCE { 8 * L as u64 } else { 0 }, 24 * L as u64);
}

/// All columns of one forward radix-8 fused block. After the remainder
/// stages every group but the last has `t_min = 8^j ≥ 8` (chunks of 8
/// columns); the last has `t_min = 1` and reduces its outputs.
#[inline]
fn fwd_radix8_block(a: &mut [u64], t_min: usize, w1: Tw, w2: [Tw; 2], w3: [Tw; 4], q: u64) {
    if t_min == 1 {
        fwd_radix8_cols::<1, true>(a, 0, t_min, w1, w2, w3, q);
    } else {
        for b0 in (0..t_min).step_by(8) {
            fwd_radix8_cols::<8, false>(a, b0, t_min, w1, w2, w3, q);
        }
    }
}

/// `L` columns of the forward radix-4 remainder group (the two coarsest
/// stages when `log2 N mod 3 == 2`); values stay in `[0, 4q)`.
#[inline(always)]
fn fwd_radix4_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t_min: usize,
    w1: Tw,
    w2: [Tw; 2],
    q: u64,
) {
    let mut v = [[0u64; L]; 4];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t_min;
        lane.copy_from_slice(&a[s..s + L]);
    }
    for e in 0..2 {
        let (x, y) = pair_mut(&mut v, e, e + 2);
        fwd_bf_lanes(x, y, w1, q);
    }
    for (c, &w) in w2.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        fwd_bf_lanes(x, y, w, q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t_min;
        a[s..s + L].copy_from_slice(lane);
    }
    op_counters::count(0, 8 * L as u64);
}

/// Forward negacyclic NTT: the `log2 N mod 3` remainder stages first, on
/// the coarsest stages where the columns are `N/2` or `N/4` wide, then
/// fused radix-8 groups. Values are carried in Harvey's `[0, 4q)` across
/// every group boundary and reduced once per output, in the last group's
/// write-back (or in a final pass when `N < 8`), so the result is
/// bit-identical to the radix-2 oracle. Requires `q < 2^62`
/// ([`crate::NttTable::new`] asserts it).
pub(crate) fn forward_fused(a: &mut [u64], psi_rev: &Twiddles, q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && psi_rev.w.len() == n);
    let two_q = 2 * q;
    let mut m = match n.trailing_zeros() % 3 {
        1 => {
            // One radix-2 stage across the two halves.
            let (lo, hi) = a.split_at_mut(n / 2);
            let w = Tw::at(psi_rev, 1);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                (*x, *y) = fwd_bf(*x, *y, w, q);
            }
            op_counters::count(0, n as u64);
            2
        }
        2 => {
            // One radix-4 group across the four quarters.
            let t_min = n / 4;
            let (w1, w2) = (Tw::at(psi_rev, 1), Tw::run(psi_rev, 2));
            if t_min == 1 {
                fwd_radix4_cols::<1>(a, 0, t_min, w1, w2, q);
            } else {
                for b0 in (0..t_min).step_by(8) {
                    fwd_radix4_cols::<8>(a, b0, t_min, w1, w2, q);
                }
            }
            4
        }
        _ => 1,
    };
    let mut t = n / (2 * m);
    while m < n {
        let t_min = t / 4;
        for i0 in 0..m {
            let base = 2 * i0 * t;
            let w1 = Tw::at(psi_rev, m + i0);
            let w2 = Tw::run(psi_rev, 2 * m + 2 * i0);
            let w3 = Tw::run(psi_rev, 4 * m + 4 * i0);
            fwd_radix8_block(&mut a[base..base + 2 * t], t_min, w1, w2, w3, q);
        }
        m <<= 3;
        t >>= 3;
    }
    if n < 8 {
        // No radix-8 group ran: the remainder was the whole transform.
        for x in a.iter_mut() {
            *x = reduce_4q(*x, q, two_q);
        }
        op_counters::count(n as u64, 0);
    }
}

/// `L` columns of one inverse radix-8 fused block. Lane `e` is the
/// contiguous run `[e·t, e·t + t)` of the block; values stay in `[0, 2q)`
/// throughout, so the group boundary needs no extra reduction — the final
/// `N⁻¹` pass in [`inverse_fused`] fully reduces.
#[inline(always)]
fn inv_radix8_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t: usize,
    wa: [Tw; 4],
    wb: [Tw; 2],
    wc: Tw,
    q: u64,
) {
    let mut v = [[0u64; L]; 8];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t;
        lane.copy_from_slice(&a[s..s + L]);
    }
    // Level 1 (finest stage): adjacent pairs.
    for (c, &w) in wa.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        inv_bf_lanes(x, y, w, q);
    }
    // Level 2: pairs (e, e+2) within each half.
    for (h, &w) in wb.iter().enumerate() {
        for e in 0..2 {
            let i = 4 * h + e;
            let (x, y) = pair_mut(&mut v, i, i + 2);
            inv_bf_lanes(x, y, w, q);
        }
    }
    // Level 3 (coarsest stage in the group): pairs (e, e+4).
    for e in 0..4 {
        let (x, y) = pair_mut(&mut v, e, e + 4);
        inv_bf_lanes(x, y, wc, q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t;
        a[s..s + L].copy_from_slice(lane);
    }
    op_counters::count(0, 24 * L as u64);
}

/// All columns of one inverse radix-8 fused block. Groups run finest stage
/// first, so `t = 8^j`: the first group has `t = 1`, every later one takes
/// its columns in chunks of 8. The radix-4 or radix-2 remainder follows
/// them, on the same `t`.
#[inline]
fn inv_radix8_block(a: &mut [u64], t: usize, wa: [Tw; 4], wb: [Tw; 2], wc: Tw, q: u64) {
    if t == 1 {
        inv_radix8_cols::<1>(a, 0, t, wa, wb, wc, q);
    } else {
        for b0 in (0..t).step_by(8) {
            inv_radix8_cols::<8>(a, b0, t, wa, wb, wc, q);
        }
    }
}

/// `L` columns of one inverse radix-4 fused block.
#[inline(always)]
fn inv_radix4_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t: usize,
    wa: [Tw; 2],
    wb: Tw,
    q: u64,
) {
    let mut v = [[0u64; L]; 4];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t;
        lane.copy_from_slice(&a[s..s + L]);
    }
    for (c, &w) in wa.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        inv_bf_lanes(x, y, w, q);
    }
    for e in 0..2 {
        let (x, y) = pair_mut(&mut v, e, e + 2);
        inv_bf_lanes(x, y, wb, q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t;
        a[s..s + L].copy_from_slice(lane);
    }
    op_counters::count(0, 8 * L as u64);
}

#[inline]
fn inv_radix4_block(a: &mut [u64], t: usize, wa: [Tw; 2], wb: Tw, q: u64) {
    if t == 1 {
        inv_radix4_cols::<1>(a, 0, t, wa, wb, q);
    } else {
        for b0 in (0..t).step_by(8) {
            inv_radix4_cols::<8>(a, b0, t, wa, wb, q);
        }
    }
}

/// Inverse negacyclic NTT through fused radix-8 stage groups, including
/// the final `N⁻¹` scaling. Bit-identical to the scalar kernel.
pub(crate) fn inverse_fused(a: &mut [u64], inv_psi_rev: &Twiddles, n_inv: &Twiddles, q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && inv_psi_rev.w.len() == n);
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        match m.trailing_zeros() {
            rem if rem >= 3 => {
                let groups = m / 8;
                for i in 0..groups {
                    let base = i * 8 * t;
                    let wa = Tw::run(inv_psi_rev, m / 2 + 4 * i);
                    let wb = Tw::run(inv_psi_rev, m / 4 + 2 * i);
                    let wc = Tw::at(inv_psi_rev, m / 8 + i);
                    inv_radix8_block(&mut a[base..base + 8 * t], t, wa, wb, wc, q);
                }
                t *= 8;
                m /= 8;
            }
            2 => {
                let groups = m / 4;
                for i in 0..groups {
                    let base = i * 4 * t;
                    let wa = Tw::run(inv_psi_rev, m / 2 + 2 * i);
                    let wb = Tw::at(inv_psi_rev, m / 4 + i);
                    inv_radix4_block(&mut a[base..base + 4 * t], t, wa, wb, q);
                }
                t *= 4;
                m /= 4;
            }
            _ => {
                // One remaining Gentleman–Sande stage.
                let h = m / 2;
                let mut j1 = 0;
                for i in 0..h {
                    let w = Tw::at(inv_psi_rev, h + i);
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (u, v) = inv_bf(*x, *y, w, q);
                        *x = u;
                        *y = v;
                    }
                    j1 += 2 * t;
                }
                op_counters::count(0, m as u64 * t as u64);
                t *= 2;
                m = h;
            }
        }
    }
    let n_inv = Tw::at(n_inv, 0);
    for x in a.iter_mut() {
        *x = csub(n_inv.mul_lazy(*x, q), q);
    }
    op_counters::count(n as u64, 2 * n as u64);
}
