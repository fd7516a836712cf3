//! Lazily reduced inner products of residue rows.

use he_math::BarrettReducer;

/// Coefficients per pass of [`LazyDot::dot_pair`] and digits summed in
/// registers within one. A pass walks a digit group's three row streams
/// (digit, `b`, `a`) side by side in 2 KB runs — 24 streams are what the L1
/// ways and the L2 streamer of the reference host follow — and a longer
/// chain carries its sums between passes in two stack blocks (8 KB, resident
/// in L1). Fixed from a three-shape sweep (EXPERIMENTS.md "Rotation fan");
/// not knobs.
const COEFF_BLOCK: usize = 256;
const DIGIT_GROUP: usize = 8;

/// The fold rule of a sum of products modulo `q` that is reduced **once** per
/// coefficient — the paper's MM → MA → shared-SBT chain, as opposed to a
/// reduction per product — and the kernels that sum under it: two that sum
/// in one call, and [`LazyRow`], which holds a row of sums across calls.
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
/// let dot = LazyDot::new(BarrettReducer::new(97));
/// let keys: [(&[u64], &[u64]); 2] = [(&[96, 3], &[1, 0]), (&[7, 2], &[0, 1])];
/// let (mut out_b, mut out_a) = ([0; 2], [0; 2]);
/// dot.dot_pair(&[&[96, 2], &[5, 50]], None, &keys, &mut out_b, &mut out_a);
/// assert_eq!(out_b, [(96 * 96 + 35) % 97, (6 + 100) % 97]);
/// assert_eq!(out_a, [96, 50]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LazyDot {
    red: BarrettReducer,
    block: usize,
}

impl LazyDot {
    /// The rule modulo `red`'s prime `q` for products of operands that are
    /// both reduced modulo `q`.
    pub fn new(red: BarrettReducer) -> Self {
        let q = u128::from(red.modulus());
        Self::with_term_bound(red, q * q)
    }

    /// The rule for products of at most `term_bound` — for operands reduced
    /// modulo another prime than `q`.
    ///
    /// # Panics
    ///
    /// Panics if `term_bound` is below `q` (a folded total must count as one
    /// term) or above half of [`BarrettReducer::REDUCE_LIMIT`] (a block must
    /// hold the folded total and one more term).
    pub fn with_term_bound(red: BarrettReducer, term_bound: u128) -> Self {
        assert!(
            (u128::from(red.modulus())..=BarrettReducer::REDUCE_LIMIT / 2).contains(&term_bound),
            "term bound out of range"
        );
        Self {
            red,
            block: (BarrettReducer::REDUCE_LIMIT / term_bound) as usize,
        }
    }

    /// How many products are summed between two reductions.
    #[inline]
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// The key-switch kernel: `out_b[c] = Σ_j x_j[π(c)]·b_j[c] mod q` and
    /// `out_a` likewise over `a_j`, for digit rows `xs`, key rows
    /// `keys[j] = (b_j, a_j)` and the slot permutation `perm` (`None` reads
    /// the digits in place). One loop over coefficient blocks; within a block
    /// the digits go by in groups, a group's products summed per coefficient
    /// in registers, so a digit residue is loaded once for its two uses and
    /// nothing of size `N` is written but the outputs.
    ///
    /// # Panics
    ///
    /// Panics if the row counts or any row length disagree.
    pub fn dot_pair(
        &self,
        xs: &[&[u64]],
        perm: Option<&[usize]>,
        keys: &[(&[u64], &[u64])],
        out_b: &mut [u64],
        out_a: &mut [u64],
    ) {
        let n = out_b.len();
        assert_eq!(xs.len(), keys.len(), "one key pair per digit");
        let rows = xs.iter().zip(keys);
        let rows_match = rows.fold(true, |ok, (x, (b, a))| {
            ok && [x.len(), b.len(), a.len()] == [n; 3]
        });
        let ends_match = out_a.len() == n && perm.is_none_or(|p| p.len() == n);
        assert!(rows_match && ends_match, "row length must match");
        // A folded total is one term of the next block, so a group is at
        // most `block − 1` digits (`block ≥ 2` by construction).
        let (red, block) = (self.red, self.block);
        let group = DIGIT_GROUP.min(block - 1);
        let (mut sum_b, mut sum_a) = ([0u128; COEFF_BLOCK], [0u128; COEFF_BLOCK]);
        for start in (0..n).step_by(COEFF_BLOCK) {
            let at = start..(start + COEFF_BLOCK).min(n);
            let (sum_b, sum_a) = (&mut sum_b[..at.len()], &mut sum_a[..at.len()]);
            sum_b.fill(0);
            sum_a.fill(0);
            let mut terms = 0;
            for (x_group, key_group) in xs.chunks(group).zip(keys.chunks(group)) {
                if terms + x_group.len() > block {
                    for s in sum_b.iter_mut().chain(sum_a.iter_mut()) {
                        *s = u128::from(red.reduce(*s));
                    }
                    terms = 1;
                }
                terms += x_group.len();
                for ((sb, sa), c) in sum_b.iter_mut().zip(sum_a.iter_mut()).zip(at.clone()) {
                    let src = perm.map_or(c, |p| p[c]);
                    let (mut b_sum, mut a_sum) = (*sb, *sa);
                    for (x, (b, a)) in x_group.iter().zip(key_group) {
                        let x = u128::from(x[src]);
                        b_sum += x * u128::from(b[c]);
                        a_sum += x * u128::from(a[c]);
                    }
                    (*sb, *sa) = (b_sum, a_sum);
                }
            }
            for (o, &s) in out_b[at.clone()].iter_mut().zip(sum_b.iter()) {
                *o = red.reduce(s);
            }
            for (o, &s) in out_a[at].iter_mut().zip(sum_a.iter()) {
                *o = red.reduce(s);
            }
        }
    }

    /// A row of `n` running sums under this rule, all zero — for a sum whose
    /// terms arrive a row at a time, from separate kernel calls.
    pub fn row(&self, n: usize) -> LazyRow {
        LazyRow {
            dot: *self,
            sums: vec![0; n],
            terms: 0,
        }
    }

    /// `Σ x·w mod q` over `(x, w)` terms — one coefficient of a basis
    /// conversion, whose weights are per-limb scalars.
    #[inline(always)]
    pub fn scaled_sum(&self, terms: impl Iterator<Item = (u64, u64)>) -> u64 {
        let (mut sum, mut count) = (0u128, 0);
        for (x, w) in terms {
            if count == self.block {
                sum = u128::from(self.red.reduce(sum));
                count = 1;
            }
            count += 1;
            sum += u128::from(x) * u128::from(w);
        }
        self.red.reduce(sum)
    }
}

/// One row of sums under a [`LazyDot`] rule, held unreduced between the
/// calls that add to it: the accumulator of a rotation sum, where each term
/// is a key-switch output times a plaintext row and only the total is
/// reduced, inverse-NTT'd and Moddown'd. Folds as [`LazyDot`] does.
///
/// # Examples
///
/// ```
/// use he_math::BarrettReducer;
/// use he_rns::LazyDot;
/// let mut row = LazyDot::new(BarrettReducer::new(97)).row(2);
/// row.add_weighted(&[96, 3], Some(&[96, 2]));
/// row.add_weighted(&[5, 95], None);
/// let mut out = [0; 2];
/// row.reduce_into(&mut out);
/// assert_eq!(out, [(96 * 96 + 5) % 97, (6 + 95) % 97]);
/// ```
#[derive(Debug, Clone)]
pub struct LazyRow {
    dot: LazyDot,
    sums: Vec<u128>,
    terms: usize,
}

impl LazyRow {
    /// Adds the term `x[c]·w[c]` to every sum, or `x[c]` itself without
    /// weights. Every product must be within the rule's term bound (for
    /// [`LazyDot::new`], both rows reduced modulo `q`).
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not the sums'.
    pub fn add_weighted(&mut self, x: &[u64], w: Option<&[u64]>) {
        let n = self.sums.len();
        assert!(
            x.len() == n && w.is_none_or(|w| w.len() == n),
            "row length must match"
        );
        if self.terms == self.dot.block {
            for s in &mut self.sums {
                *s = u128::from(self.dot.red.reduce(*s));
            }
            self.terms = 1;
        }
        self.terms += 1;
        match w {
            Some(w) => {
                for ((s, &x), &w) in self.sums.iter_mut().zip(x).zip(w) {
                    *s += u128::from(x) * u128::from(w);
                }
            }
            None => {
                for (s, &x) in self.sums.iter_mut().zip(x) {
                    *s += u128::from(x);
                }
            }
        }
    }

    /// The sums modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s length is not the sums'.
    pub fn reduce_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.sums.len(), "row length must match");
        for (o, &s) in out.iter_mut().zip(&self.sums) {
            *o = self.dot.red.reduce(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sum_is_zero() {
        let dot = LazyDot::new(BarrettReducer::new(97));
        let (mut b, mut a) = ([5; 3], [5; 3]);
        dot.dot_pair(&[], None, &[], &mut b, &mut a);
        assert_eq!((b, a), ([0; 3], [0; 3]));
        assert_eq!(dot.scaled_sum(std::iter::empty()), 0);
    }

    #[test]
    fn a_row_of_the_largest_terms_folds_past_one_block() {
        // A rotation sum's terms under a 60-bit prime: `(s + P·c_0)·w` with
        // `s + P·c_0 = 2q − 2` and `w = q − 1`, 32 to a block, 200 of them.
        let q = he_math::prime::ntt_prime_chain(60, 32, 1)[0];
        let red = BarrettReducer::new(q);
        let dot = LazyDot::with_term_bound(red, 2 * u128::from(q) * u128::from(q));
        let terms = 200;
        assert!(terms > 6 * dot.block_len());
        let mut row = dot.row(3);
        for _ in 0..terms {
            row.add_weighted(&[2 * q - 2; 3], Some(&[q - 1; 3]));
        }
        let term = red.mul(q - 2, q - 1);
        let want = (0..terms).fold(0, |sum, _| red.add(sum, term));
        let mut got = [0; 3];
        row.reduce_into(&mut got);
        assert_eq!(got, [want; 3]);
    }

    #[test]
    fn scaled_terms_fold_across_blocks() {
        // Residues reduced modulo a larger prime than `q`, a bound that
        // admits two terms per block: seven terms fold three times.
        let (q, p) = (97u64, 1009u64);
        let bound = BarrettReducer::REDUCE_LIMIT / 2;
        let dot = LazyDot::with_term_bound(BarrettReducer::new(q), bound);
        assert_eq!(dot.block_len(), 2);
        let terms: Vec<(u64, u64)> = (0..7).map(|j| (p - 1 - j, q - 1 - j)).collect();
        let want = terms.iter().fold(0, |s, &(x, w)| (s + x * w) % q);
        assert_eq!(dot.scaled_sum(terms.into_iter()), want);
    }
}
