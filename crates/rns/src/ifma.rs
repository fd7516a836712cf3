//! The key-switch inner product on AVX-512 IFMA: [`LazyDot::dot_pair`]'s
//! vector kernel, after Intel HEXL's 52-bit multiply-adds (Boemer et al.,
//! arXiv 2103.16400).
//!
//! `vpmadd52luq` / `vpmadd52huq` add the low and the high 52 bits of a
//! product of two 52-bit lanes to a 64-bit lane. For residues modulo a prime
//! below 2^52 the kernel keeps, per output and per coefficient, two such
//! sums, `lo = Σ lo52(x·k)` and `hi = Σ hi52(x·k)`; below
//! [`MAX_DIGITS`] products neither wraps, so `lo + hi·2^52` is the exact sum
//! (below 2^117) and one [`BarrettReducer::reduce`] gives the scalar
//! kernel's bits. Eight coefficients go by at a time, digits in the scalar
//! kernel's groups and coefficient blocks; hoisted digits are gathered
//! through the Galois permutation.
//!
//! The module is one of the workspace's three `unsafe` files.
//!
//! **Invariant.** The vector kernel runs only after [`dot_pair`] has seen
//! `avx512f` and `avx512ifma` on this CPU and has checked every row length
//! and every permutation index against `n`, never assumed them: every lane a
//! load, a gather or a store touches then lies inside its row. Operands are
//! not checked before the run: every loaded lane is ORed into a guard, and
//! a call whose guard holds a bit at or above 52 (a key row tampered by
//! fault injection, say) reports that it did not sum exactly, so the caller
//! reruns the scalar kernel and keeps its bits.
//!
//! [`LazyDot::dot_pair`]: crate::LazyDot::dot_pair

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use he_math::BarrettReducer;

/// The most digits one call sums: each half-product is below 2^52, so 2^12
/// of them fit a 64-bit lane.
const MAX_DIGITS: usize = 1 << 12;

/// Whether a call of [`dot_pair`] over `digits` digit rows modulo `q` runs
/// the vector kernel on this CPU.
pub(crate) fn selected(q: u64, digits: usize) -> bool {
    q < 1 << 52 && digits <= MAX_DIGITS && he_ntt::ifma::detected()
}

/// `out_b[c] = Σ_j x_j[π(c)]·b_j[c] mod q` and `out_a` likewise, as
/// [`LazyDot::dot_pair`](crate::LazyDot::dot_pair) defines them, on the
/// vector kernel. Returns `false` — the outputs then hold no result and the
/// caller runs the scalar kernel — unless the kernel is
/// [`selected`], every row and the permutation are `out_b.len()` long, every
/// permutation index is below that, and no operand had a bit at or above 52.
pub(crate) fn dot_pair(
    red: BarrettReducer,
    xs: &[&[u64]],
    perm: Option<&[usize]>,
    keys: &[(&[u64], &[u64])],
    out_b: &mut [u64],
    out_a: &mut [u64],
) -> bool {
    let n = out_b.len();
    let rows_fit = || {
        xs.len() == keys.len()
            && out_a.len() == n
            && xs.iter().all(|x| x.len() == n)
            && keys.iter().all(|(b, a)| b.len() == n && a.len() == n)
    };
    let perm_fits = || perm.is_none_or(|p| p.len() == n && p.iter().all(|&src| src < n));
    selected(red.modulus(), xs.len())
        && rows_fit()
        && perm_fits()
        && run(red, xs, perm, keys, out_b, out_a)
}

#[cfg(target_arch = "x86_64")]
fn run(
    red: BarrettReducer,
    xs: &[&[u64]],
    perm: Option<&[usize]>,
    keys: &[(&[u64], &[u64])],
    out_b: &mut [u64],
    out_a: &mut [u64],
) -> bool {
    // SAFETY: `dot_pair` calls this only after `selected` saw `avx512f` and
    // `avx512ifma` on this CPU and after checking every row's length and
    // every permutation index against `out_b.len()`.
    unsafe { x86::dot_pair(red, xs, perm, keys, out_b, out_a) }
}

#[cfg(not(target_arch = "x86_64"))]
fn run(
    _: BarrettReducer,
    _: &[&[u64]],
    _: Option<&[usize]>,
    _: &[(&[u64], &[u64])],
    _: &mut [u64],
    _: &mut [u64],
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use he_math::BarrettReducer;

    use crate::lazy::{COEFF_BLOCK, DIGIT_GROUP};

    /// Eight coefficients' running sums, one lane each.
    type Lanes = [u64; 8];

    /// The kernel. Returns whether every operand was below 2^52.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f` and `avx512ifma`. Every row of `xs` and `keys`
    /// and `out_a` are `n = out_b.len()` long, and `perm`, if any, is `n`
    /// long with every index below `n`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn dot_pair(
        red: BarrettReducer,
        xs: &[&[u64]],
        perm: Option<&[usize]>,
        keys: &[(&[u64], &[u64])],
        out_b: &mut [u64],
        out_a: &mut [u64],
    ) -> bool {
        let n = out_b.len();
        let mut guard = _mm512_setzero_si512();
        // Low and high halves of the `b` sums, then of the `a` sums.
        let mut sums = [[[0u64; 8]; COEFF_BLOCK / 8]; 4];
        for start in (0..n).step_by(COEFF_BLOCK) {
            let end = (start + COEFF_BLOCK).min(n);
            for s in &mut sums {
                s.fill([0; 8]);
            }
            for (x_group, key_group) in xs.chunks(DIGIT_GROUP).zip(keys.chunks(DIGIT_GROUP)) {
                for (v, c) in (start..end).step_by(8).enumerate() {
                    // Lane `i` is coefficient `c + i`, live while below `end`:
                    // lanes `0..m` for `m = min(8, end − c) ≥ 1`.
                    let k: __mmask8 = u8::MAX >> (8 - (end - c).min(8));
                    // SAFETY: `perm` is `n` long (a `usize` is a word here)
                    // and every live lane is below `end ≤ n`.
                    let src = perm
                        .map(|p| unsafe { _mm512_maskz_loadu_epi64(k, p.as_ptr().add(c).cast()) });
                    let [mut lo_b, mut hi_b, mut lo_a, mut hi_a] =
                        sums.each_ref().map(|s| get(&s[v]));
                    for (x, (b, a)) in x_group.iter().zip(key_group) {
                        // SAFETY: every row is `n` long, the live lanes
                        // `0..m` end at `c + m = min(c + 8, end) ≤ n`, and every
                        // index in `src` is below `n`.
                        let (x, b, a) = unsafe {
                            let x = match src {
                                Some(src) => _mm512_mask_i64gather_epi64::<8>(
                                    _mm512_setzero_si512(),
                                    k,
                                    src,
                                    x.as_ptr().cast(),
                                ),
                                None => load(x, c, k),
                            };
                            (x, load(b, c, k), load(a, c, k))
                        };
                        // 0xFE: the truth table of `x | b | a`.
                        guard = _mm512_or_si512(guard, _mm512_ternarylogic_epi64::<0xFE>(x, b, a));
                        lo_b = _mm512_madd52lo_epu64(lo_b, x, b);
                        hi_b = _mm512_madd52hi_epu64(hi_b, x, b);
                        lo_a = _mm512_madd52lo_epu64(lo_a, x, a);
                        hi_a = _mm512_madd52hi_epu64(hi_a, x, a);
                    }
                    for (s, lanes) in sums.iter_mut().zip([lo_b, hi_b, lo_a, hi_a]) {
                        put(&mut s[v], lanes);
                    }
                }
            }
            let [lo_b, hi_b, lo_a, hi_a] = &sums;
            for (out, lo, hi) in [(&mut *out_b, lo_b, hi_b), (&mut *out_a, lo_a, hi_a)] {
                let halves = lo.as_flattened().iter().zip(hi.as_flattened());
                for (o, (&lo, &hi)) in out[start..end].iter_mut().zip(halves) {
                    *o = red.reduce(u128::from(lo) + (u128::from(hi) << 52));
                }
            }
        }
        _mm512_test_epi64_mask(guard, _mm512_set1_epi64(-1 << 52)) == 0
    }

    /// The live lanes of `k` of the eight words of `row` from `c`; the
    /// others read as zero and are not accessed.
    ///
    /// # Safety
    ///
    /// The CPU has `avx512f`; `k`'s live lanes are `0..m` for some `m ≥ 1`,
    /// and `c + m ≤ row.len()`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(row: &[u64], c: usize, k: __mmask8) -> __m512i {
        // SAFETY: `c < c + m ≤ row.len()` by the caller's contract, so the
        // offset stays inside the row, and a lane past its end is masked
        // off, which the load does not read.
        unsafe { _mm512_maskz_loadu_epi64(k, row.as_ptr().add(c).cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn get(lanes: &Lanes) -> __m512i {
        // SAFETY: `lanes` is eight readable words; the load is unaligned.
        unsafe { _mm512_loadu_epi64(lanes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn put(lanes: &mut Lanes, v: __m512i) {
        // SAFETY: `lanes` is eight writable words; the store is unaligned.
        unsafe { _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), v) }
    }
}
