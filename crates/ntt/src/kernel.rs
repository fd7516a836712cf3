//! The production lazy-reduction NTT kernel.
//!
//! The paper's §III-A NTT-fusion collapses k butterfly stages into one
//! fused TAM so each 2^k block pays 2^k modular reductions instead of
//! k·2^k. In software the same saving is realised with *lazy (redundant)
//! arithmetic*: Harvey butterflies keep values in `[0, 4q)` (forward) or
//! `[0, 2q)` (inverse), the Shoup twiddle product lands in `[0, 2q)`
//! without correction, and a full reduction happens only at stage-group
//! boundaries — k = 3 stages at a time, mirroring the paper's radix-8
//! fused TAM (Table II's sweet spot).
//!
//! [`forward_fused`] / [`inverse_fused`] are the only transforms behind
//! [`crate::NttTable::forward`] / `inverse`: stage groups of k = 3
//! (remainders at radix 4/2), where each 8-element block is gathered once,
//! runs 12 lazy butterflies in registers, and is reduced exactly once per
//! output at the group boundary. Inner loops are explicit 4- and 8-lane
//! chunked passes over the contiguous sub-transform columns — the software
//! stand-in for the paper's 512 vector lanes.
//!
//! Outputs are fully reduced and modular arithmetic is exact, so the
//! transform value — not just its residue class — is bit-identical to the
//! seed radix-2 oracle in [`crate::negacyclic`] at every length
//! (`tests/kernel_equivalence.rs`).

use he_math::modops::csub;
use he_math::ShoupMul;

/// Debug-build operation counters for reconciling the fused kernel against
/// the analytic [`crate::FusionAnalysis`] model (paper Table II).
///
/// Counters are thread-local and compiled in only under
/// `debug_assertions`; release builds pay nothing and the accessors return
/// zero. A "multiply" is one 64×64 hardware multiply of a twiddle product
/// (each Shoup product counts 2, matching how Table II tallies the
/// unfused butterflies); a "reduction" is one full modular reduction of an
/// output at a fused-group boundary.
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
    pub(super) fn count(_reductions: u64, _multiplies: u64) {
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
#[inline(always)]
fn fwd_bf(x: u64, y: u64, w: &ShoupMul, two_q: u64) -> (u64, u64) {
    let x = csub(x, two_q);
    let t = w.mul_lazy_unreduced(y);
    (x + t, x + two_q - t)
}

/// Harvey inverse (Gentleman–Sande) butterfly. Inputs in `[0, 2q)`,
/// outputs in `[0, 2q)`: the sum is folded once, the difference is offset
/// by `2q` before the lazy twiddle product.
#[inline(always)]
fn inv_bf(x: u64, y: u64, w: &ShoupMul, two_q: u64) -> (u64, u64) {
    let s = csub(x + y, two_q);
    let d = x + two_q - y;
    (s, w.mul_lazy_unreduced(d))
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
fn fwd_bf_lanes<const L: usize>(x: &mut [u64; L], y: &mut [u64; L], w: &ShoupMul, two_q: u64) {
    for l in 0..L {
        let (u, v) = fwd_bf(x[l], y[l], w, two_q);
        x[l] = u;
        y[l] = v;
    }
}

#[inline(always)]
fn inv_bf_lanes<const L: usize>(x: &mut [u64; L], y: &mut [u64; L], w: &ShoupMul, two_q: u64) {
    for l in 0..L {
        let (u, v) = inv_bf(x[l], y[l], w, two_q);
        x[l] = u;
        y[l] = v;
    }
}

/// `L` columns of one forward radix-8 fused block, starting at column
/// `b0`. The block slice spans `8·t_min` elements; lane `e` is the
/// contiguous run `[e·t_min, e·t_min + t_min)`. Three butterfly levels run
/// entirely in registers; each output takes its single full reduction at
/// the write-back (the fused-TAM boundary).
#[inline(always)]
fn fwd_radix8_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t_min: usize,
    w1: &ShoupMul,
    w2: &[ShoupMul],
    w3: &[ShoupMul],
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
        fwd_bf_lanes(x, y, w1, two_q);
    }
    // Level 2 (stage 2m): pairs (e, e+2) within each half.
    for (h, w) in w2.iter().enumerate() {
        for e in 0..2 {
            let i = 4 * h + e;
            let (x, y) = pair_mut(&mut v, i, i + 2);
            fwd_bf_lanes(x, y, w, two_q);
        }
    }
    // Level 3 (stage 4m): adjacent pairs.
    for (c, w) in w3.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        fwd_bf_lanes(x, y, w, two_q);
    }
    // Group boundary: the single modular reduction per output.
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t_min;
        for (out, &val) in a[s..s + L].iter_mut().zip(lane) {
            *out = reduce_4q(val, q, two_q);
        }
    }
    op_counters::count(8 * L as u64, 24 * L as u64);
}

/// All columns of one forward radix-8 fused block, chunked 8 / 4 / narrow.
#[inline]
fn fwd_radix8_block(
    a: &mut [u64],
    t_min: usize,
    w1: &ShoupMul,
    w2: &[ShoupMul],
    w3: &[ShoupMul],
    q: u64,
) {
    if t_min >= 8 {
        for b0 in (0..t_min).step_by(8) {
            fwd_radix8_cols::<8>(a, b0, t_min, w1, w2, w3, q);
        }
    } else if t_min == 4 {
        fwd_radix8_cols::<4>(a, 0, t_min, w1, w2, w3, q);
    } else if t_min == 2 {
        fwd_radix8_cols::<2>(a, 0, t_min, w1, w2, w3, q);
    } else {
        fwd_radix8_cols::<1>(a, 0, t_min, w1, w2, w3, q);
    }
}

/// `L` columns of one forward radix-4 fused block (the 2-stage remainder
/// group when `log2 N mod 3 == 2`).
#[inline(always)]
fn fwd_radix4_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t_min: usize,
    w1: &ShoupMul,
    w2: &[ShoupMul],
    q: u64,
) {
    let two_q = 2 * q;
    let mut v = [[0u64; L]; 4];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t_min;
        lane.copy_from_slice(&a[s..s + L]);
    }
    for e in 0..2 {
        let (x, y) = pair_mut(&mut v, e, e + 2);
        fwd_bf_lanes(x, y, w1, two_q);
    }
    for (c, w) in w2.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        fwd_bf_lanes(x, y, w, two_q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t_min;
        for (out, &val) in a[s..s + L].iter_mut().zip(lane) {
            *out = reduce_4q(val, q, two_q);
        }
    }
    op_counters::count(4 * L as u64, 8 * L as u64);
}

#[inline]
fn fwd_radix4_block(a: &mut [u64], t_min: usize, w1: &ShoupMul, w2: &[ShoupMul], q: u64) {
    if t_min >= 4 {
        for b0 in (0..t_min).step_by(4) {
            fwd_radix4_cols::<4>(a, b0, t_min, w1, w2, q);
        }
    } else if t_min == 2 {
        fwd_radix4_cols::<2>(a, 0, t_min, w1, w2, q);
    } else {
        fwd_radix4_cols::<1>(a, 0, t_min, w1, w2, q);
    }
}

/// Forward negacyclic NTT through fused radix-8 stage groups. Bit-identical
/// to the scalar kernel; reductions happen only at group boundaries.
pub(crate) fn forward_fused(a: &mut [u64], psi_rev: &[ShoupMul], q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && psi_rev.len() == n);
    let two_q = 2 * q;
    let log_n = n.trailing_zeros();
    let mut m = 1usize;
    let mut t = n / 2;
    let mut done = 0u32;
    while done < log_n {
        match log_n - done {
            rem if rem >= 3 => {
                let t_min = t / 4;
                for i0 in 0..m {
                    let base = 2 * i0 * t;
                    let w1 = &psi_rev[m + i0];
                    let w2 = &psi_rev[2 * m + 2 * i0..2 * m + 2 * i0 + 2];
                    let w3 = &psi_rev[4 * m + 4 * i0..4 * m + 4 * i0 + 4];
                    fwd_radix8_block(&mut a[base..base + 2 * t], t_min, w1, w2, w3, q);
                }
                m <<= 3;
                t >>= 3;
                done += 3;
            }
            2 => {
                // t == 2 here: one radix-4 group finishes the transform.
                let t_min = t / 2;
                for i0 in 0..m {
                    let base = 2 * i0 * t;
                    let w1 = &psi_rev[m + i0];
                    let w2 = &psi_rev[2 * m + 2 * i0..2 * m + 2 * i0 + 2];
                    fwd_radix4_block(&mut a[base..base + 2 * t], t_min, w1, w2, q);
                }
                m <<= 2;
                t >>= 2;
                done += 2;
            }
            _ => {
                // t == 1: a single lazy stage, reduced at its boundary.
                for i0 in 0..m {
                    let j = 2 * i0;
                    let (u, v) = fwd_bf(a[j], a[j + 1], &psi_rev[m + i0], two_q);
                    a[j] = reduce_4q(u, q, two_q);
                    a[j + 1] = reduce_4q(v, q, two_q);
                }
                op_counters::count(2 * m as u64, 2 * m as u64);
                m <<= 1;
                t >>= 1;
                done += 1;
            }
        }
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
    wa: &[ShoupMul],
    wb: &[ShoupMul],
    wc: &ShoupMul,
    q: u64,
) {
    let two_q = 2 * q;
    let mut v = [[0u64; L]; 8];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t;
        lane.copy_from_slice(&a[s..s + L]);
    }
    // Level 1 (finest stage): adjacent pairs.
    for (c, w) in wa.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        inv_bf_lanes(x, y, w, two_q);
    }
    // Level 2: pairs (e, e+2) within each half.
    for (h, w) in wb.iter().enumerate() {
        for e in 0..2 {
            let i = 4 * h + e;
            let (x, y) = pair_mut(&mut v, i, i + 2);
            inv_bf_lanes(x, y, w, two_q);
        }
    }
    // Level 3 (coarsest stage in the group): pairs (e, e+4).
    for e in 0..4 {
        let (x, y) = pair_mut(&mut v, e, e + 4);
        inv_bf_lanes(x, y, wc, two_q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t;
        a[s..s + L].copy_from_slice(lane);
    }
    op_counters::count(0, 24 * L as u64);
}

#[inline]
fn inv_radix8_block(
    a: &mut [u64],
    t: usize,
    wa: &[ShoupMul],
    wb: &[ShoupMul],
    wc: &ShoupMul,
    q: u64,
) {
    if t >= 8 {
        for b0 in (0..t).step_by(8) {
            inv_radix8_cols::<8>(a, b0, t, wa, wb, wc, q);
        }
    } else if t == 4 {
        inv_radix8_cols::<4>(a, 0, t, wa, wb, wc, q);
    } else if t == 2 {
        inv_radix8_cols::<2>(a, 0, t, wa, wb, wc, q);
    } else {
        inv_radix8_cols::<1>(a, 0, t, wa, wb, wc, q);
    }
}

/// `L` columns of one inverse radix-4 fused block.
#[inline(always)]
fn inv_radix4_cols<const L: usize>(
    a: &mut [u64],
    b0: usize,
    t: usize,
    wa: &[ShoupMul],
    wb: &ShoupMul,
    q: u64,
) {
    let two_q = 2 * q;
    let mut v = [[0u64; L]; 4];
    for (e, lane) in v.iter_mut().enumerate() {
        let s = b0 + e * t;
        lane.copy_from_slice(&a[s..s + L]);
    }
    for (c, w) in wa.iter().enumerate() {
        let (x, y) = pair_mut(&mut v, 2 * c, 2 * c + 1);
        inv_bf_lanes(x, y, w, two_q);
    }
    for e in 0..2 {
        let (x, y) = pair_mut(&mut v, e, e + 2);
        inv_bf_lanes(x, y, wb, two_q);
    }
    for (e, lane) in v.iter().enumerate() {
        let s = b0 + e * t;
        a[s..s + L].copy_from_slice(lane);
    }
    op_counters::count(0, 8 * L as u64);
}

#[inline]
fn inv_radix4_block(a: &mut [u64], t: usize, wa: &[ShoupMul], wb: &ShoupMul, q: u64) {
    if t >= 4 {
        for b0 in (0..t).step_by(4) {
            inv_radix4_cols::<4>(a, b0, t, wa, wb, q);
        }
    } else if t == 2 {
        inv_radix4_cols::<2>(a, 0, t, wa, wb, q);
    } else {
        inv_radix4_cols::<1>(a, 0, t, wa, wb, q);
    }
}

/// Inverse negacyclic NTT through fused radix-8 stage groups, including
/// the final `N⁻¹` scaling. Bit-identical to the scalar kernel.
pub(crate) fn inverse_fused(a: &mut [u64], inv_psi_rev: &[ShoupMul], n_inv: &ShoupMul, q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && inv_psi_rev.len() == n);
    let two_q = 2 * q;
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        match m.trailing_zeros() {
            rem if rem >= 3 => {
                let groups = m / 8;
                for i in 0..groups {
                    let base = i * 8 * t;
                    let wa = &inv_psi_rev[m / 2 + 4 * i..m / 2 + 4 * i + 4];
                    let wb = &inv_psi_rev[m / 4 + 2 * i..m / 4 + 2 * i + 2];
                    let wc = &inv_psi_rev[m / 8 + i];
                    inv_radix8_block(&mut a[base..base + 8 * t], t, wa, wb, wc, q);
                }
                t *= 8;
                m /= 8;
            }
            2 => {
                let groups = m / 4;
                for i in 0..groups {
                    let base = i * 4 * t;
                    let wa = &inv_psi_rev[m / 2 + 2 * i..m / 2 + 2 * i + 2];
                    let wb = &inv_psi_rev[m / 4 + i];
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
                    let w = &inv_psi_rev[h + i];
                    let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let (u, v) = inv_bf(*x, *y, w, two_q);
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
    for x in a.iter_mut() {
        *x = csub(n_inv.mul_lazy_unreduced(*x), q);
    }
    op_counters::count(n as u64, 2 * n as u64);
}
