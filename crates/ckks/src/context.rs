//! The CKKS context: validated parameters plus every precomputed object the
//! scheme operations share (modulus chain, special basis, encoder tables).

use std::ops::Range;
use std::sync::Arc;

use he_math::prime::is_prime;
use he_rns::conv::GroupLift;
use he_rns::RnsBasis;

use crate::encoding::Encoder;
use crate::error::EvalError;
use crate::params::CkksParams;

/// Precomputed CKKS context.
///
/// Construction generates the NTT prime chain (first prime, scale primes,
/// special keyswitching primes — all distinct, all `≡ 1 mod 2N`), builds the
/// RNS bases and the exact lift of every key-switch digit group, and
/// prepares the canonical-embedding encoder.
///
/// The context is a shared handle: it is built once, and a clone is a
/// reference-count bump, so every evaluator, key and bootstrapper built
/// from it reads the one copy of its tables.
///
/// # Examples
///
/// ```
/// use he_ckks::prelude::*;
/// let ctx = CkksContext::new(CkksParams::toy());
/// assert_eq!(ctx.chain_basis().len(), 4);
/// assert_eq!(ctx.special_basis().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CkksContext {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    params: CkksParams,
    chain_basis: RnsBasis,
    special_basis: RnsBasis,
    full_basis: RnsBasis,
    /// One exact lift per key-switch digit group of the full chain.
    digit_lifts: Vec<GroupLift>,
    encoder: Encoder,
}

impl CkksContext {
    /// Builds a context for validated parameters.
    ///
    /// Thin wrapper over [`try_new`](Self::try_new) for callers that treat
    /// bad parameters as a programming error.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`CkksParams::validate`] or not enough
    /// NTT primes of the requested sizes exist.
    pub fn new(params: CkksParams) -> Self {
        Self::try_new(params).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a context, propagating parameter-validation failure as
    /// [`EvalError::InvalidParams`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidParams`] when the parameters fail
    /// [`CkksParams::validate`].
    ///
    /// # Panics
    ///
    /// Still panics if not enough NTT primes of the requested sizes exist —
    /// that depends on the prime landscape, not on user input shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_ckks::prelude::*;
    /// let mut p = CkksParams::toy();
    /// p.n = 12; // not a power of two
    /// assert!(matches!(
    ///     CkksContext::try_new(p),
    ///     Err(EvalError::InvalidParams(_))
    /// ));
    /// ```
    pub fn try_new(params: CkksParams) -> Result<Self, EvalError> {
        params
            .validate()
            .map_err(|e| EvalError::InvalidParams(e.to_string()))?;
        let n = params.n;
        let step = 2 * n as u64;

        let mut taken: Vec<u64> = Vec::new();
        let gen = |bits: u32, count: usize, taken: &mut Vec<u64>| -> Vec<u64> {
            let mut out = Vec::with_capacity(count);
            let mut cand = (((1u64 << bits) - 2) / step) * step + 1;
            while out.len() < count {
                assert!(cand > step, "not enough {bits}-bit NTT primes for N={n}");
                if is_prime(cand) && !taken.contains(&cand) {
                    out.push(cand);
                    taken.push(cand);
                }
                cand -= step;
            }
            out
        };

        // Special primes first (the largest NTT primes of their width, so a
        // chain prime of the same width takes the next ones), then q0, then
        // the scale chain.
        let special = gen(params.special_prime_bits, params.special_len, &mut taken);
        let mut chain = gen(params.first_prime_bits, 1, &mut taken);
        chain.extend(gen(
            params.scale_prime_bits,
            params.chain_len - 1,
            &mut taken,
        ));

        let chain_basis = RnsBasis::new(n, chain);
        let special_basis = RnsBasis::new(n, special);
        let full_basis = chain_basis.concat(&special_basis);
        let digit_lifts = chain_basis
            .primes()
            .chunks(params.special_len)
            .map(GroupLift::new)
            .collect();
        let encoder = Encoder::new(n);
        Ok(Self {
            shared: Arc::new(Shared {
                params,
                chain_basis,
                special_basis,
                full_basis,
                digit_lifts,
                encoder,
            }),
        })
    }

    /// The validated parameters.
    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.shared.params
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.shared.params.n
    }

    /// The ciphertext modulus chain `q_0 … q_L`.
    #[inline]
    pub fn chain_basis(&self) -> &RnsBasis {
        &self.shared.chain_basis
    }

    /// The keyswitching special basis `P`.
    #[inline]
    pub fn special_basis(&self) -> &RnsBasis {
        &self.shared.special_basis
    }

    /// The extended basis `Q ∪ P` keys live in.
    #[inline]
    pub fn full_basis(&self) -> &RnsBasis {
        &self.shared.full_basis
    }

    /// The canonical-embedding encoder.
    #[inline]
    pub fn encoder(&self) -> &Encoder {
        &self.shared.encoder
    }

    /// The default encoding scale Δ.
    #[inline]
    pub fn default_scale(&self) -> f64 {
        self.shared.params.scale
    }

    /// Basis for a ciphertext at `level` (level L = full chain, level 0 =
    /// just `q_0`): the first `level + 1` chain primes.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the chain.
    pub fn level_basis(&self, level: usize) -> RnsBasis {
        self.shared.chain_basis.prefix(level + 1)
    }

    /// The chain limbs of key-switch digit `g` at `level`: α = `special_len`
    /// consecutive primes, fewer in the last group where α does not divide
    /// `level + 1`. `g` runs below `params().dnum(level + 1)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_ckks::prelude::*;
    /// let ctx = CkksContext::new(CkksParams::small()); // α = 2
    /// assert_eq!(ctx.digit_group(6, 0), 0..2);
    /// assert_eq!(ctx.digit_group(6, 3), 6..7);
    /// ```
    #[inline]
    pub fn digit_group(&self, level: usize, g: usize) -> Range<usize> {
        let alpha = self.shared.params.special_len;
        g * alpha..((g + 1) * alpha).min(level + 1)
    }

    /// The exact lift of key-switch digit group `g`'s residues (see
    /// [`GroupLift`]); a level's partial last group uses a prefix of it.
    #[inline]
    pub fn digit_lift(&self, g: usize) -> &GroupLift {
        &self.shared.digit_lifts[g]
    }

    /// Maximum level (chain length − 1).
    #[inline]
    pub fn max_level(&self) -> usize {
        self.shared.params.chain_len - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_are_distinct_and_ntt_friendly() {
        let ctx = CkksContext::new(CkksParams::toy());
        let mut all = ctx.full_basis().primes().to_vec();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "primes must be distinct");
        for &q in ctx.full_basis().primes() {
            assert_eq!((q - 1) % (2 * ctx.n() as u64), 0);
        }
    }

    #[test]
    fn special_primes_dominate_scale_primes() {
        // Keyswitching noise control requires P ≥ each scale prime.
        let ctx = CkksContext::new(CkksParams::small());
        let max_chain = ctx.chain_basis().primes()[1..]
            .iter()
            .max()
            .copied()
            .unwrap();
        let min_special = ctx.special_basis().primes().iter().min().copied().unwrap();
        assert!(min_special > max_chain);
    }

    /// Every limb of the presets with α = 2 — chain and special, at
    /// `N = 2^11` and at the `N = 2^13` the planned programs run — is a
    /// prime the vector kernels take: the transforms below 2^50, the
    /// key-switch inner product below 2^52 over `dnum` digits. On an IFMA
    /// host both selectors must say so, so a preset edit that sends a limb
    /// back to the scalar kernels fails here; elsewhere the bounds hold.
    #[test]
    fn every_limb_of_the_grouped_presets_takes_the_vector_kernels() {
        let ifma = he_ntt::ifma::detected();
        let wide = he_rns::LazyDot::new;
        for params in [
            CkksParams::small(),
            CkksParams {
                n: 1 << 13,
                ..CkksParams::small()
            },
            CkksParams::bootstrap_demo(),
        ] {
            let ctx = CkksContext::new(params);
            let dnum = ctx.params().dnum(ctx.chain_basis().len());
            let basis = ctx.full_basis();
            for (&q, &red) in basis.primes().iter().zip(basis.reducers()) {
                let at = format!("N = {}, q = {q:#x}", ctx.n());
                assert!(q < 1 << 50, "{at}: past the vector transforms' bound");
                assert_eq!(he_ntt::ifma::selected(ctx.n(), q), ifma, "{at}");
                assert_eq!(wide(red).vector_selected(dnum), ifma, "{at}");
            }
        }
    }

    /// The special primes cover every key-switch digit group: `P` exceeds
    /// the product of each group's primes, on every preset.
    #[test]
    fn special_primes_cover_every_digit_group() {
        for params in [
            CkksParams::toy(),
            CkksParams::small(),
            CkksParams::paper_32bit(1 << 12, 4),
            CkksParams::bootstrap_demo(),
        ] {
            let ctx = CkksContext::new(params);
            let log2 = |primes: &[u64]| primes.iter().map(|&q| (q as f64).log2()).sum::<f64>();
            let p_bits = log2(ctx.special_basis().primes());
            let level = ctx.max_level();
            for g in 0..ctx.params().dnum(level + 1) {
                let group = &ctx.chain_basis().primes()[ctx.digit_group(level, g)];
                assert!(log2(group) < p_bits, "{:?}: group {g}", ctx.params());
            }
        }
    }

    #[test]
    fn level_basis_is_prefix() {
        let ctx = CkksContext::new(CkksParams::toy());
        let b1 = ctx.level_basis(1);
        assert_eq!(b1.primes(), &ctx.chain_basis().primes()[..2]);
        assert_eq!(ctx.max_level(), 3);
    }

    /// One context, shared: a clone and every holder built from it read the
    /// same encoder and bases, not copies of them.
    #[test]
    fn a_clone_and_every_holder_share_the_tables() {
        use rand::SeedableRng;

        let ctx = CkksContext::new(CkksParams::toy());
        let shares = |other: &CkksContext| {
            std::ptr::eq(ctx.encoder(), other.encoder())
                && std::ptr::eq(ctx.chain_basis(), other.chain_basis())
                && std::ptr::eq(ctx.full_basis(), other.full_basis())
        };
        assert!(shares(&ctx.clone()));
        assert!(shares(crate::eval::Evaluator::new(&ctx).context()));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        assert!(shares(
            crate::keys::KeySet::generate(&ctx, &mut rng).context()
        ));
        assert!(
            !shares(&CkksContext::new(CkksParams::toy())),
            "a second build is its own copy"
        );
    }

    #[test]
    #[should_panic(expected = "invalid CKKS parameters")]
    fn rejects_invalid_params() {
        let mut p = CkksParams::toy();
        p.n = 12;
        let _ = CkksContext::new(p);
    }
}
