//! The negacyclic transforms on AVX-512 IFMA: [`crate::NttTable::forward`]
//! and `inverse`'s vector kernel, on Intel HEXL's 52-bit Harvey butterfly
//! (Boemer et al., arXiv 2103.16400).
//!
//! For a prime `q < 2^50` every lazy value below `4q` fits the 52 bits a
//! `vpmadd52` lane multiplies. The twiddle product `y·w mod q` is then
//! `vpmadd52huq` for the quotient `⌊w'·y/2^52⌋` with `w' = ⌊w·2^52/q⌋`,
//! `vpmadd52luq` twice for `w·y − quot·q` modulo 2^52, and a 52-bit mask:
//! the quotient undershoots by at most one, so the product lands in
//! `[0, 2q)`, the scalar kernel's lazy range. The butterflies keep the
//! scalar kernel's ranges (`[0, 4q)` forward, `[0, 2q)` inverse) and reduce
//! each output once, so the outputs, fully reduced, are the scalar
//! kernel's bits. Eight coefficients go by at a time: the coarse stages in
//! the scalar kernel's radix-8 groups, the three finest on pairs of
//! registers, their lanes regrouped by `vpermt2q` between stages.
//!
//! The module is one of the workspace's three `unsafe` files.
//!
//! **Invariant.** A kernel runs only after `forward` or `inverse` has
//! seen `avx512f` and `avx512ifma` on this CPU, `q < 2^50`, a power-of-two
//! length of at least 16 and every twiddle array exactly that long, never
//! assumed them: every load and store then lies inside its row. Operands
//! are checked before the run, not during it: a call with a word at or
//! past the scalar kernel's lazy bound (`4q` forward, `2q` inverse; a word
//! tampered by fault injection, say, whose bit at or above 52 `vpmadd52`
//! would not see) reports that it did not run, leaving the row untouched,
//! and the caller runs the scalar kernel on it.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use crate::kernel::op_counters;
use crate::table::Twiddles;

/// Primes below this take the vector transforms: `[0, 4q)` fits 52 bits.
const Q_LIMIT: u64 = 1 << 50;

/// The shortest transform the vector kernel takes: its three finest stages
/// run on pairs of registers, 16 words.
const MIN_N: usize = 16;

/// Whether this CPU has `avx512f` and `avx512ifma`: the one detection
/// behind every vector kernel of the workspace.
#[cfg(target_arch = "x86_64")]
pub fn detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// Whether this CPU has `avx512f` and `avx512ifma` (never, off x86-64).
#[cfg(not(target_arch = "x86_64"))]
pub fn detected() -> bool {
    false
}

/// Whether a length-`n` transform modulo `q` runs the vector kernel on
/// this CPU (for operands inside the lazy bound): the CPU has IFMA,
/// `q < 2^50` and `n ≥ 16`.
pub fn selected(n: usize, q: u64) -> bool {
    q < Q_LIMIT && n >= MIN_N && detected()
}

/// Whether the kernel may run over `a` with `tw`: the CPU and the prime
/// select it, and the length and the table are checked, not assumed.
fn fits(a: &[u64], tw: &Twiddles, q: u64) -> bool {
    let n = a.len();
    selected(n, q) && n.is_power_of_two() && tw.w.len() == n && tw.w52.len() == n
}

/// The forward transform of `a` (every word below `4q`) on the vector
/// kernel, bit-identical to [`crate::kernel`]'s. Returns `false`, `a`
/// untouched, unless the kernel is [`selected`], `tw` fits `a` and every
/// word of `a` is below `4q`.
pub(crate) fn forward(a: &mut [u64], tw: &Twiddles, q: u64) -> bool {
    let ran = fits(a, tw, q) && run_forward(a, tw, q);
    if ran {
        let n = a.len() as u64;
        op_counters::count(n, n * u64::from(n.trailing_zeros()));
    }
    ran
}

/// The inverse transform of `a` (every word below `2q`), `N⁻¹` included, on
/// the vector kernel; `n_inv` is `N⁻¹` as a one-entry table. Returns
/// `false`, `a` untouched, unless the kernel is [`selected`], the tables
/// fit `a` and every word of `a` is below `2q`.
pub(crate) fn inverse(a: &mut [u64], tw: &Twiddles, n_inv: &Twiddles, q: u64) -> bool {
    let ran = fits(a, tw, q)
        && n_inv.w.len() == 1
        && n_inv.w52.len() == 1
        && run_inverse(a, tw, n_inv, q);
    if ran {
        let n = a.len() as u64;
        op_counters::count(n, n * u64::from(n.trailing_zeros()) + 2 * n);
    }
    ran
}

#[cfg(target_arch = "x86_64")]
fn run_forward(a: &mut [u64], tw: &Twiddles, q: u64) -> bool {
    // SAFETY: `forward` calls this only after `fits`: the CPU has
    // `avx512f` and `avx512ifma`, `q < 2^50`, and `a` and both twiddle
    // arrays share one power-of-two length of at least 16.
    unsafe { x86::forward(a, tw, q) }
}

#[cfg(target_arch = "x86_64")]
fn run_inverse(a: &mut [u64], tw: &Twiddles, n_inv: &Twiddles, q: u64) -> bool {
    // SAFETY: as in `run_forward`, and `inverse` has checked that `n_inv`
    // holds one entry in each array.
    unsafe { x86::inverse(a, tw, n_inv, q) }
}

#[cfg(not(target_arch = "x86_64"))]
fn run_forward(_: &mut [u64], _: &Twiddles, _: u64) -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn run_inverse(_: &mut [u64], _: &Twiddles, _: &Twiddles, _: u64) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use crate::table::Twiddles;

    /// One call's modulus constants, broadcast.
    #[derive(Clone, Copy)]
    struct Modulus {
        q: __m512i,
        two_q: __m512i,
        /// `2^52 − q`: `vpmadd52luq` by it subtracts a multiple of `q`
        /// modulo 2^52.
        neg_q: __m512i,
        mask52: __m512i,
    }

    impl Modulus {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(q: u64) -> Self {
            Self {
                q: _mm512_set1_epi64(q as i64),
                two_q: _mm512_set1_epi64(2 * q as i64),
                neg_q: _mm512_set1_epi64(((1u64 << 52) - q) as i64),
                mask52: _mm512_set1_epi64(((1u64 << 52) - 1) as i64),
            }
        }
    }

    /// A broadcast twiddle and its 52-bit quotient, or eight of each.
    #[derive(Clone, Copy)]
    struct Tw {
        w: __m512i,
        w52: __m512i,
    }

    impl Tw {
        /// Entry `i` of `t` in every lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat(t: &Twiddles, i: usize) -> Self {
            Self {
                w: _mm512_set1_epi64(t.w[i] as i64),
                w52: _mm512_set1_epi64(t.w52[i] as i64),
            }
        }

        /// Entries `i..i + K` of `t`, each in every lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splats<const K: usize>(t: &Twiddles, i: usize) -> [Self; K] {
            let mut out = [Self::splat(t, i); K];
            for (k, o) in out.iter_mut().enumerate() {
                *o = Self::splat(t, i + k);
            }
            out
        }

        /// Entries `i..i + 8 / r` of `t`, each repeated in `r` adjacent
        /// lanes (`r` = 1, 2 or 4).
        ///
        /// # Safety
        ///
        /// The CPU has `avx512f`, and `i + 8 / r ≤` the length of both of
        /// `t`'s arrays.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn spread(t: &Twiddles, i: usize, r: usize) -> Self {
            let live: __mmask8 = u8::MAX >> (8 - 8 / r);
            let idx = _mm512_set_epi64(
                (7 / r) as i64,
                (6 / r) as i64,
                (5 / r) as i64,
                (4 / r) as i64,
                (3 / r) as i64,
                (2 / r) as i64,
                (1 / r) as i64,
                0,
            );
            // SAFETY: the live lanes are `i..i + 8 / r`, inside both arrays
            // by the caller's contract; a masked-off lane is not read.
            let (w, w52) = unsafe {
                (
                    _mm512_maskz_loadu_epi64(live, t.w.as_ptr().add(i).cast()),
                    _mm512_maskz_loadu_epi64(live, t.w52.as_ptr().add(i).cast()),
                )
            };
            Self {
                w: _mm512_permutexvar_epi64(idx, w),
                w52: _mm512_permutexvar_epi64(idx, w52),
            }
        }
    }

    /// `x − c` where that does not wrap, else `x`: one fold by `c`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csub(x: __m512i, c: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, c))
    }

    /// `y·w mod q` in `[0, 2q)`, for `y < 2^52`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_lazy(y: __m512i, w: Tw, m: Modulus) -> __m512i {
        let zero = _mm512_setzero_si512();
        let quot = _mm512_madd52hi_epu64(zero, w.w52, y);
        let low = _mm512_madd52lo_epu64(zero, w.w, y);
        _mm512_and_si512(_mm512_madd52lo_epu64(low, quot, m.neg_q), m.mask52)
    }

    /// The forward (Cooley–Tukey) butterfly, `[0, 4q)` in and out.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn fwd_bf(x: __m512i, y: __m512i, w: Tw, m: Modulus) -> (__m512i, __m512i) {
        let x = csub(x, m.two_q);
        let t = mul_lazy(y, w, m);
        (
            _mm512_add_epi64(x, t),
            _mm512_sub_epi64(_mm512_add_epi64(x, m.two_q), t),
        )
    }

    /// The inverse (Gentleman–Sande) butterfly, `[0, 2q)` in and out.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn inv_bf(x: __m512i, y: __m512i, w: Tw, m: Modulus) -> (__m512i, __m512i) {
        let s = csub(_mm512_add_epi64(x, y), m.two_q);
        let d = _mm512_sub_epi64(_mm512_add_epi64(x, m.two_q), y);
        (s, mul_lazy(d, w, m))
    }

    /// The eight words of `a` from `j`.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `j + 8 ≤ a.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(a: &[u64], j: usize) -> __m512i {
        debug_assert!(j + 8 <= a.len());
        // SAFETY: `j..j + 8` lies inside `a` by the caller's contract.
        unsafe { _mm512_loadu_epi64(a.as_ptr().add(j).cast()) }
    }

    /// Writes `v` to the eight words of `a` from `j`.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `j + 8 ≤ a.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(a: &mut [u64], j: usize, v: __m512i) {
        debug_assert!(j + 8 <= a.len());
        // SAFETY: `j..j + 8` lies inside `a` by the caller's contract.
        unsafe { _mm512_storeu_epi64(a.as_mut_ptr().add(j).cast(), v) }
    }

    /// The `K` registers of `a` at `j, j + s, …, j + (K − 1)s`.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `j + (K − 1)s + 8 ≤ a.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn gather<const K: usize>(a: &[u64], j: usize, s: usize) -> [__m512i; K] {
        let mut v = [_mm512_setzero_si512(); K];
        for (e, v) in v.iter_mut().enumerate() {
            // SAFETY: `j + e·s + 8 ≤ a.len()` for every `e < K`.
            *v = unsafe { load(a, j + e * s) };
        }
        v
    }

    /// Writes what [`gather`] read back in place.
    ///
    /// # Safety
    ///
    /// As [`gather`]'s.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter<const K: usize>(a: &mut [u64], j: usize, s: usize, v: [__m512i; K]) {
        for (e, &v) in v.iter().enumerate() {
            // SAFETY: `j + e·s + 8 ≤ a.len()` for every `e < K`.
            unsafe { store(a, j + e * s, v) };
        }
    }

    /// Whether every word of `a` is below `bound`.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `a.len()` is a multiple of 8.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn below(a: &[u64], bound: __m512i) -> bool {
        let mut past: __mmask8 = 0;
        for j in (0..a.len()).step_by(8) {
            // SAFETY: `j + 8 ≤ a.len()`, a multiple of 8.
            past |= _mm512_cmpge_epu64_mask(unsafe { load(a, j) }, bound);
        }
        past == 0
    }

    /// Lanes of `vpermt2q` indices: `i < 8` picks lane `i` of the first
    /// operand, `8 + i` lane `i` of the second.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(i: [i64; 8]) -> __m512i {
        _mm512_set_epi64(i[7], i[6], i[5], i[4], i[3], i[2], i[1], i[0])
    }

    /// `vpermt2q` index pairs regrouping 16 consecutive words `A ‖ B`
    /// between the butterfly layouts of the three finest stages. In the
    /// layout of the stage of half-span `t`, the first register holds each
    /// butterfly's lower word `x` and the second its partner `y`, `t` words
    /// on, butterfly by butterfly.
    struct Regroup {
        /// Natural order ↔ the `t = 4` layout (its own inverse).
        half: [__m512i; 2],
        /// The `t = 4` layout ↔ the `t = 2` layout (its own inverse).
        quarter: [__m512i; 2],
        /// The `t = 2` layout ↔ the `t = 1` layout (its own inverse).
        eighth: [__m512i; 2],
        /// Natural order → the `t = 1` layout (even words, odd words).
        split: [__m512i; 2],
        /// The `t = 1` layout → natural order.
        merge: [__m512i; 2],
    }

    impl Regroup {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new() -> Self {
            Self {
                half: [
                    lanes([0, 1, 2, 3, 8, 9, 10, 11]),
                    lanes([4, 5, 6, 7, 12, 13, 14, 15]),
                ],
                quarter: [
                    lanes([0, 1, 8, 9, 4, 5, 12, 13]),
                    lanes([2, 3, 10, 11, 6, 7, 14, 15]),
                ],
                eighth: [
                    lanes([0, 8, 2, 10, 4, 12, 6, 14]),
                    lanes([1, 9, 3, 11, 5, 13, 7, 15]),
                ],
                split: [
                    lanes([0, 2, 4, 6, 8, 10, 12, 14]),
                    lanes([1, 3, 5, 7, 9, 11, 13, 15]),
                ],
                merge: [
                    lanes([0, 8, 1, 9, 2, 10, 3, 11]),
                    lanes([4, 12, 5, 13, 6, 14, 7, 15]),
                ],
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn regroup(x: __m512i, y: __m512i, idx: &[__m512i; 2]) -> (__m512i, __m512i) {
        (
            _mm512_permutex2var_epi64(x, idx[0], y),
            _mm512_permutex2var_epi64(x, idx[1], y),
        )
    }

    /// The forward kernel. Returns `false`, `a` untouched, if a word of
    /// `a` is `4q` or more.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `avx512ifma`; `q < 2^50`; `a.len()` is a
    /// power of two of at least 16, and so long are `tw.w` and `tw.w52`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn forward(a: &mut [u64], tw: &Twiddles, q: u64) -> bool {
        let n = a.len();
        let m = Modulus::new(q);
        // SAFETY: `n` is a multiple of 16.
        if !unsafe { below(a, _mm512_add_epi64(m.two_q, m.two_q)) } {
            return false;
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { forward_coarse(a, tw, m) };
        let r = Regroup::new();
        for p in 0..n / 16 {
            let j = 16 * p;
            // SAFETY: `j + 16 ≤ n`; the twiddle runs end at
            // `n/8 + 2p + 2 ≤ n/4`, `n/4 + 4p + 4 ≤ n/2` and
            // `n/2 + 8p + 8 ≤ n`, inside both arrays.
            unsafe {
                let (x, y) = regroup(load(a, j), load(a, j + 8), &r.half);
                let (x, y) = fwd_bf(x, y, Tw::spread(tw, n / 8 + 2 * p, 4), m);
                let (x, y) = regroup(x, y, &r.quarter);
                let (x, y) = fwd_bf(x, y, Tw::spread(tw, n / 4 + 4 * p, 2), m);
                let (x, y) = regroup(x, y, &r.eighth);
                let (x, y) = fwd_bf(x, y, Tw::spread(tw, n / 2 + 8 * p, 1), m);
                let x = csub(csub(x, m.two_q), m.q);
                let y = csub(csub(y, m.two_q), m.q);
                let (lo, hi) = regroup(x, y, &r.merge);
                store(a, j, lo);
                store(a, j + 8, hi);
            }
        }
        true
    }

    /// The forward stages of half-span 8 and more: the `log2 N mod 3`
    /// remainder as one radix-2 stage or radix-4 group, then radix-8
    /// groups, eight columns at a time, each on eight registers.
    ///
    /// # Safety
    ///
    /// As [`forward`]'s.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn forward_coarse(a: &mut [u64], tw: &Twiddles, m: Modulus) {
        let n = a.len();
        let mut groups = 1;
        let mut t = n / 2;
        match (n.trailing_zeros() - 3) % 3 {
            1 => {
                let w = Tw::splat(tw, 1);
                for j in (0..t).step_by(8) {
                    // SAFETY: `j + t + 8 ≤ 2t = n`.
                    unsafe {
                        let (x, y) = fwd_bf(load(a, j), load(a, j + t), w, m);
                        store(a, j, x);
                        store(a, j + t, y);
                    }
                }
                groups = 2;
                t /= 2;
            }
            2 => {
                let (w1, w2) = (Tw::splat(tw, 1), Tw::splats::<2>(tw, 2));
                let s = n / 4;
                for j in (0..s).step_by(8) {
                    // SAFETY: `j + 3s + 8 ≤ 4s = n`.
                    unsafe {
                        let mut v = gather::<4>(a, j, s);
                        for e in 0..2 {
                            (v[e], v[e + 2]) = fwd_bf(v[e], v[e + 2], w1, m);
                        }
                        for (c, &w) in w2.iter().enumerate() {
                            (v[2 * c], v[2 * c + 1]) = fwd_bf(v[2 * c], v[2 * c + 1], w, m);
                        }
                        scatter(a, j, s, v);
                    }
                }
                groups = 4;
                t /= 4;
            }
            _ => {}
        }
        // Radix-8 groups over stages `t, t/2, t/4`, down to `t/4 = 8`.
        while t >= 32 {
            let s = t / 4;
            for i in 0..groups {
                let base = 2 * i * t;
                let w1 = Tw::splat(tw, groups + i);
                let w2 = Tw::splats::<2>(tw, 2 * groups + 2 * i);
                let w3 = Tw::splats::<4>(tw, 4 * groups + 4 * i);
                for j in (base..base + s).step_by(8) {
                    // SAFETY: `j + 7s + 8 ≤ base + 8s = base + 2t ≤ n`.
                    unsafe {
                        let mut v = gather::<8>(a, j, s);
                        for e in 0..4 {
                            (v[e], v[e + 4]) = fwd_bf(v[e], v[e + 4], w1, m);
                        }
                        for (h, &w) in w2.iter().enumerate() {
                            for e in 4 * h..4 * h + 2 {
                                (v[e], v[e + 2]) = fwd_bf(v[e], v[e + 2], w, m);
                            }
                        }
                        for (c, &w) in w3.iter().enumerate() {
                            (v[2 * c], v[2 * c + 1]) = fwd_bf(v[2 * c], v[2 * c + 1], w, m);
                        }
                        scatter(a, j, s, v);
                    }
                }
            }
            groups *= 8;
            t /= 8;
        }
        debug_assert!(t == 4 && groups == n / 8);
    }

    /// The inverse kernel, `N⁻¹` included. Returns `false`, `a`
    /// untouched, if a word of `a` is `2q` or more.
    ///
    /// # Safety
    ///
    /// As [`forward`]'s, and `n_inv`'s arrays hold one entry each.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn inverse(a: &mut [u64], tw: &Twiddles, n_inv: &Twiddles, q: u64) -> bool {
        let n = a.len();
        let m = Modulus::new(q);
        // SAFETY: `n` is a multiple of 16.
        if !unsafe { below(a, m.two_q) } {
            return false;
        }
        let r = Regroup::new();
        for p in 0..n / 16 {
            let j = 16 * p;
            // SAFETY: as in `forward`'s pairs: the same words and the same
            // twiddle runs.
            unsafe {
                let (x, y) = regroup(load(a, j), load(a, j + 8), &r.split);
                let (x, y) = inv_bf(x, y, Tw::spread(tw, n / 2 + 8 * p, 1), m);
                let (x, y) = regroup(x, y, &r.eighth);
                let (x, y) = inv_bf(x, y, Tw::spread(tw, n / 4 + 4 * p, 2), m);
                let (x, y) = regroup(x, y, &r.quarter);
                let (x, y) = inv_bf(x, y, Tw::spread(tw, n / 8 + 2 * p, 4), m);
                let (lo, hi) = regroup(x, y, &r.half);
                store(a, j, lo);
                store(a, j + 8, hi);
            }
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { inverse_coarse(a, tw, m) };
        let scale = Tw::splat(n_inv, 0);
        for j in (0..n).step_by(8) {
            // SAFETY: `j + 8 ≤ n`.
            unsafe { store(a, j, csub(mul_lazy(load(a, j), scale, m), m.q)) };
        }
        true
    }

    /// The inverse stages of half-span 8 and more, mirroring
    /// [`forward_coarse`]: radix-8 groups from the finest, then the
    /// remainder as one radix-4 group or radix-2 stage.
    ///
    /// # Safety
    ///
    /// As [`forward`]'s.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn inverse_coarse(a: &mut [u64], tw: &Twiddles, m: Modulus) {
        let n = a.len();
        // Radix-8 groups over stages `t, 2t, 4t`, from `t = 8` while
        // `4t ≤ n/2`.
        let mut t = 8;
        while n / t >= 8 {
            let blocks = n / (8 * t);
            for i in 0..blocks {
                let base = i * 8 * t;
                let h = n / (2 * t);
                let wa = Tw::splats::<4>(tw, h + 4 * i);
                let wb = Tw::splats::<2>(tw, h / 2 + 2 * i);
                let wc = Tw::splat(tw, h / 4 + i);
                for j in (base..base + t).step_by(8) {
                    // SAFETY: `j + 7t + 8 ≤ base + 8t ≤ n`.
                    unsafe {
                        let mut v = gather::<8>(a, j, t);
                        for (c, &w) in wa.iter().enumerate() {
                            (v[2 * c], v[2 * c + 1]) = inv_bf(v[2 * c], v[2 * c + 1], w, m);
                        }
                        for (h, &w) in wb.iter().enumerate() {
                            for e in 4 * h..4 * h + 2 {
                                (v[e], v[e + 2]) = inv_bf(v[e], v[e + 2], w, m);
                            }
                        }
                        for e in 0..4 {
                            (v[e], v[e + 4]) = inv_bf(v[e], v[e + 4], wc, m);
                        }
                        scatter(a, j, t, v);
                    }
                }
            }
            t *= 8;
        }
        match n / t {
            4 => {
                let wa = Tw::splats::<2>(tw, 2);
                let wb = Tw::splat(tw, 1);
                for j in (0..t).step_by(8) {
                    // SAFETY: `j + 3t + 8 ≤ 4t = n`.
                    unsafe {
                        let mut v = gather::<4>(a, j, t);
                        for (c, &w) in wa.iter().enumerate() {
                            (v[2 * c], v[2 * c + 1]) = inv_bf(v[2 * c], v[2 * c + 1], w, m);
                        }
                        for e in 0..2 {
                            (v[e], v[e + 2]) = inv_bf(v[e], v[e + 2], wb, m);
                        }
                        scatter(a, j, t, v);
                    }
                }
            }
            2 => {
                let w = Tw::splat(tw, 1);
                for j in (0..t).step_by(8) {
                    // SAFETY: `j + t + 8 ≤ 2t = n`.
                    unsafe {
                        let (x, y) = inv_bf(load(a, j), load(a, j + t), w, m);
                        store(a, j, x);
                        store(a, j + t, y);
                    }
                }
            }
            _ => debug_assert_eq!(t, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NttTable;

    /// An IFMA host must not silently stay scalar on a table the vector
    /// kernel takes; any other host must stay scalar.
    #[test]
    fn an_ifma_host_transforms_on_the_vector_kernel() {
        for bits in [20u32, 31, 45, 50, 51, 61] {
            for log_n in [1u32, 3, 4, 11] {
                let n = 1usize << log_n;
                let q = he_math::prime::ntt_prime(bits, 2 * n as u64).unwrap();
                let t = NttTable::new(n, q);
                let vector = detected() && bits <= 50 && n >= MIN_N;
                assert_eq!(selected(n, q), vector, "{bits} bits, n = {n}");
                let mut a: Vec<u64> = (0..n as u64).map(|i| i * 7 % q).collect();
                assert_eq!(
                    forward(&mut a, &t.psi_rev, q),
                    vector,
                    "forward, {bits} bits, n = {n}"
                );
                assert_eq!(
                    inverse(&mut a, &t.inv_psi_rev, &t.n_inv, q),
                    vector,
                    "inverse, {bits} bits, n = {n}"
                );
            }
        }
    }

    /// A word at or past the lazy bound leaves the row untouched for the
    /// scalar kernel.
    #[test]
    fn a_word_past_the_lazy_bound_is_refused() {
        let n = 64;
        let q = he_math::prime::ntt_prime(40, 2 * n as u64).unwrap();
        let t = NttTable::new(n, q);
        for (bound, past) in [(4 * q, 4 * q), (4 * q, 1 << 52), (4 * q, u64::MAX)] {
            let mut a = vec![bound - 1; n];
            a[n - 3] = past;
            let before = a.clone();
            assert!(!forward(&mut a, &t.psi_rev, q));
            assert_eq!(a, before);
        }
        for past in [2 * q, 1 << 52, u64::MAX] {
            let mut a = vec![2 * q - 1; n];
            a[5] = past;
            let before = a.clone();
            assert!(!inverse(&mut a, &t.inv_psi_rev, &t.n_inv, q));
            assert_eq!(a, before);
        }
    }
}
