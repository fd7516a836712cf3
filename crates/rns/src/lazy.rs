//! Lazily reduced inner products of residue rows.

use he_math::BarrettReducer;

/// Coefficients per pass of [`LazyDot::dot_pair`] and digits summed in
/// registers within one. A pass walks a digit group's three row streams
/// (digit, `b`, `a`) side by side in 2 KB runs — 24 streams are what the L1
/// ways and the L2 streamer of the reference host follow — and a longer
/// chain carries its sums between passes in two stack blocks (8 KB, resident
/// in L1). Fixed from a three-shape sweep (EXPERIMENTS.md §6);
/// not knobs. The vector kernel (`crate::ifma`) walks the same blocks and
/// groups.
pub(crate) const COEFF_BLOCK: usize = 256;
pub(crate) const DIGIT_GROUP: usize = 8;

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
    /// On a CPU with AVX-512 IFMA and a prime below 2^52 the sums are taken
    /// eight coefficients at a time in 52-bit halves (`crate::ifma`); every
    /// other call, and one whose operands the vector kernel cannot sum
    /// exactly, runs the scalar kernel. Both give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the row counts or any row length disagree, or if a
    /// permutation index is not below the row length.
    pub fn dot_pair(
        &self,
        xs: &[&[u64]],
        perm: Option<&[usize]>,
        keys: &[(&[u64], &[u64])],
        out_b: &mut [u64],
        out_a: &mut [u64],
    ) {
        self.dot_pair_on_ifma(xs, perm, keys, out_b, out_a);
    }

    /// [`dot_pair`](Self::dot_pair), returning whether the IFMA kernel
    /// produced the outputs.
    fn dot_pair_on_ifma(
        &self,
        xs: &[&[u64]],
        perm: Option<&[usize]>,
        keys: &[(&[u64], &[u64])],
        out_b: &mut [u64],
        out_a: &mut [u64],
    ) -> bool {
        let n = out_b.len();
        assert_eq!(xs.len(), keys.len(), "one key pair per digit");
        let rows = xs.iter().zip(keys);
        let rows_match = rows.fold(true, |ok, (x, (b, a))| {
            ok && [x.len(), b.len(), a.len()] == [n; 3]
        });
        let ends_match = out_a.len() == n && perm.is_none_or(|p| p.len() == n);
        assert!(rows_match && ends_match, "row length must match");
        let vector = crate::ifma::dot_pair(self.red, xs, perm, keys, out_b, out_a);
        if !vector {
            self.scalar_pair(xs, perm, keys, out_b, out_a);
        }
        vector
    }

    /// The portable kernel of [`dot_pair`](Self::dot_pair), on rows whose
    /// lengths it has checked; the oracle the vector kernel is tested
    /// against.
    fn scalar_pair(
        &self,
        xs: &[&[u64]],
        perm: Option<&[usize]>,
        keys: &[(&[u64], &[u64])],
        out_b: &mut [u64],
        out_a: &mut [u64],
    ) {
        let n = out_b.len();
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
    use crate::ifma;
    use rand::{Rng, SeedableRng};

    type KeyRows<'a> = Vec<(&'a [u64], &'a [u64])>;

    /// Digit and key rows of one `dot_pair` call over `n` coefficients.
    struct Rows {
        n: usize,
        xs: Vec<Vec<u64>>,
        bs: Vec<Vec<u64>>,
        az: Vec<Vec<u64>>,
    }

    impl Rows {
        /// `digits` triples of `n ≥ 1` residues below `q`, the first of each
        /// row at `q − 1`.
        fn random(rng: &mut impl Rng, q: u64, digits: usize, n: usize) -> Self {
            let mut rows = || -> Vec<Vec<u64>> {
                let mut row = || -> Vec<u64> {
                    let mut row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                    row[0] = q - 1;
                    row
                };
                (0..digits).map(|_| row()).collect()
            };
            let (xs, bs, az) = (rows(), rows(), rows());
            Self { n, xs, bs, az }
        }

        /// `dot_pair`'s row arguments.
        fn args(&self) -> (Vec<&[u64]>, KeyRows<'_>) {
            let xs = self.xs.iter().map(Vec::as_slice).collect();
            let keys = self.bs.iter().zip(&self.az);
            (
                xs,
                keys.map(|(b, a)| (b.as_slice(), a.as_slice())).collect(),
            )
        }
    }

    fn shuffled(rng: &mut impl Rng, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
        p
    }

    /// The vector kernel, called directly, against the scalar kernel: it
    /// must run (on an IFMA host, for a prime below 2^52) and agree bit for
    /// bit, or decline; `dot_pair` must give the scalar kernel's bits either
    /// way. Returns whether the vector kernel ran.
    fn kernels_agree(dot: &LazyDot, rows: &Rows, perm: Option<&[usize]>, at: &str) -> bool {
        let (n, (xs, keys)) = (rows.n, rows.args());
        let (mut want_b, mut want_a) = (vec![0; n], vec![0; n]);
        dot.scalar_pair(&xs, perm, &keys, &mut want_b, &mut want_a);
        let (mut got_b, mut got_a) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        let ran = ifma::dot_pair(dot.red, &xs, perm, &keys, &mut got_b, &mut got_a);
        if ran {
            assert_eq!((&got_b, &got_a), (&want_b, &want_a), "vector kernel, {at}");
        }
        dot.dot_pair(&xs, perm, &keys, &mut got_b, &mut got_a);
        assert_eq!((got_b, got_a), (want_b, want_a), "dot_pair, {at}");
        ran
    }

    #[test]
    fn the_vector_kernel_sums_as_the_scalar_kernel_does() {
        // Primes of 31 to 51 bits take the vector kernel, 56 and 60 bits the
        // scalar one; 70 digits cross the digit group and, under the 60-bit
        // prime (64 products a block), the scalar fold; lengths that are not
        // multiples of 8 end in a partial vector.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1F3A);
        for bits in [31, 40, 45, 50, 51, 56, 60] {
            let q = he_math::prime::ntt_prime_chain(bits, 32, 1)[0];
            let dot = LazyDot::new(BarrettReducer::new(q));
            let vector = bits < 52 && he_ntt::ifma::detected();
            for digits in [0, 1, 7, 8, 9, 17, 70] {
                for n in [1, 5, 8, 13, 256, 263, 700] {
                    let rows = Rows::random(&mut rng, q, digits, n);
                    let perm = shuffled(&mut rng, n);
                    for perm in [None, Some(&perm[..])] {
                        let permuted = perm.is_some();
                        let at = format!("{bits} bits, {digits} digits, n = {n}, {permuted}");
                        assert_eq!(kernels_agree(&dot, &rows, perm, &at), vector, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn operands_past_52_bits_fall_back_to_the_scalar_kernel() {
        // A 40-bit prime: one operand with a bit at or above 52 — a digit
        // read in place or through the permutation, or a key residue — sends
        // the call to the scalar kernel, whose sum is exact modulo `q` for
        // any residue. An unreduced operand below 2^52 stays on the vector
        // kernel and sums exactly there too.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB17);
        let q = he_math::prime::ntt_prime_chain(40, 32, 1)[0];
        let dot = LazyDot::new(BarrettReducer::new(q));
        let (digits, n) = (9, 37);
        let perm = shuffled(&mut rng, n);
        type Tamper = fn(&mut Rows);
        let tampers: [(&str, Tamper, bool); 5] = [
            ("digit bit 52", |r| r.xs[3][5] |= 1 << 52, false),
            ("digit bit 63", |r| r.xs[8][36] |= 1 << 63, false),
            ("b bit 55", |r| r.bs[0][0] ^= 1 << 55, false),
            ("a bit 60", |r| r.az[5][20] |= 1 << 60, false),
            (
                "unreduced, below 2^52",
                |r| r.bs[2][9] = (1 << 52) - 1,
                true,
            ),
        ];
        for (what, tamper, stays) in tampers {
            for perm in [None, Some(&perm[..])] {
                let mut rows = Rows::random(&mut rng, q, digits, n);
                tamper(&mut rows);
                let at = format!("{what}, permuted: {}", perm.is_some());
                assert_eq!(
                    kernels_agree(&dot, &rows, perm, &at),
                    stays && he_ntt::ifma::detected(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn a_permutation_index_past_the_row_panics_as_the_scalar_kernel_does() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0B0E);
        let q = he_math::prime::ntt_prime_chain(50, 32, 1)[0];
        let dot = LazyDot::new(BarrettReducer::new(q));
        let n = 19;
        let mut perm = shuffled(&mut rng, n);
        perm[11] = n;
        for digits in [0, 3] {
            let rows = Rows::random(&mut rng, q, digits, n);
            let (xs, keys) = rows.args();
            let (mut b, mut a) = (vec![0; n], vec![0; n]);
            assert!(!ifma::dot_pair(
                dot.red,
                &xs,
                Some(&perm),
                &keys,
                &mut b,
                &mut a
            ));
            let message = |run: &dyn Fn(&mut [u64], &mut [u64])| {
                let (mut b, mut a) = (vec![0; n], vec![0; n]);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&mut b, &mut a);
                }));
                outcome.map(|()| (b, a)).map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                })
            };
            let got = message(&|b, a| dot.dot_pair(&xs, Some(&perm), &keys, b, a));
            let want = message(&|b, a| dot.scalar_pair(&xs, Some(&perm), &keys, b, a));
            assert_eq!(got, want, "{digits} digits");
            assert_eq!(got.is_err(), digits > 0, "{digits} digits: {got:?}");
        }
    }

    #[test]
    fn an_ifma_host_sums_on_the_vector_kernel() {
        // The selection hook: on a CPU with AVX-512 IFMA a call under a
        // prime below 2^52 must not silently stay scalar.
        let ifma = he_ntt::ifma::detected();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1F3A);
        for (bits, vector) in [(50, ifma), (51, ifma), (56, false)] {
            let q = he_math::prime::ntt_prime_chain(bits, 32, 1)[0];
            assert_eq!(ifma::selected(q, 8), vector, "{bits} bits");
            assert_eq!(ifma::selected(q, 4096), vector, "{bits} bits, 4096 digits");
            assert!(!ifma::selected(q, 4097), "{bits} bits, 4097 digits");
            let dot = LazyDot::new(BarrettReducer::new(q));
            let rows = Rows::random(&mut rng, q, 8, 64);
            let (xs, keys) = rows.args();
            let (mut b, mut a) = (vec![0; 64], vec![0; 64]);
            let ran = dot.dot_pair_on_ifma(&xs, None, &keys, &mut b, &mut a);
            assert_eq!(ran, vector, "{bits} bits");
        }
    }

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
