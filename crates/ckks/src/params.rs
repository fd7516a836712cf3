//! CKKS parameter sets.
//!
//! A parameter set fixes the ring degree `N`, the modulus-chain layout
//! (first-prime bits, scale-prime bits, chain length `L`), the special
//! keyswitching primes, and the default encoding scale Δ.
//!
//! The special primes also fix the key-switch digits: each digit groups
//! α = `special_len` consecutive chain primes, so a level-`l` key switch
//! has `dnum = ⌈(l+1)/α⌉` digits ([`CkksParams::dnum`]). A digit is lifted
//! exactly, so `P` must be at least as wide as the widest group for the
//! switch's noise to stay small; [`CkksParams::validate`] refuses a set
//! where it is not.
//!
//! The presets mirror the two regimes the reproduction needs:
//!
//! * [`CkksParams::toy`] / [`CkksParams::small`] — fast functional tests.
//! * [`CkksParams::paper_32bit`] — 32-bit primes matching Poseidon's
//!   datapath width (§IV-A), used by the CPU-baseline benchmarks.
//! * [`CkksParams::bootstrap_demo`] — wider primes (precision headroom for
//!   the software library) and a deep chain for the bootstrapping pipeline.

/// Parameters for an RNS-CKKS instantiation.
///
/// # Examples
///
/// ```
/// let p = he_ckks::params::CkksParams::toy();
/// assert!(p.n.is_power_of_two());
/// assert!(p.chain_len >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    /// Ring degree `N` (power of two).
    pub n: usize,
    /// Bit size of the first chain prime `q_0` (the decryption modulus
    /// floor for bootstrapping).
    pub first_prime_bits: u32,
    /// Bit size of the scale primes `q_1 … q_L` (≈ log2 Δ).
    pub scale_prime_bits: u32,
    /// Number of chain primes (`L + 1` in paper notation; multiplicative
    /// depth is `chain_len − 1`).
    pub chain_len: usize,
    /// Number of special primes `P` for keyswitching. It is also α, the
    /// chain primes per key-switch digit: `dnum = ⌈(level + 1)/α⌉`.
    pub special_len: usize,
    /// Bit size of the special primes.
    pub special_prime_bits: u32,
    /// Default encoding scale Δ.
    pub scale: f64,
    /// Standard deviation of the discrete-Gaussian error sampler.
    pub error_std: f64,
}

impl CkksParams {
    /// Minimal parameters for unit tests: `N = 2^10`, 4 chain primes.
    pub fn toy() -> Self {
        Self {
            n: 1 << 10,
            first_prime_bits: 50,
            scale_prime_bits: 40,
            chain_len: 4,
            special_len: 1,
            special_prime_bits: 51,
            scale: (1u64 << 40) as f64,
            error_std: 3.2,
        }
    }

    /// Small-but-deeper parameters (`N = 2^11`, 8 chain primes) for
    /// multi-operation pipelines in tests.
    pub fn small() -> Self {
        Self {
            n: 1 << 11,
            first_prime_bits: 50,
            scale_prime_bits: 40,
            chain_len: 8,
            // α = 2: P ≈ 2^100 covers the widest digit group, q_0·q_1 < 2^90,
            // and a 50-bit prime keeps its limbs on the vector kernels.
            special_len: 2,
            special_prime_bits: 50,
            scale: (1u64 << 40) as f64,
            error_std: 3.2,
        }
    }

    /// Paper-matched datapath parameters: 32-bit primes (§IV-A: "we use the
    /// RNS-based FHE scheme to limit the data width to 32 bits"),
    /// `N = 2^13` by default — the working set of the CPU-baseline
    /// measurements in Table IV.
    pub fn paper_32bit(n: usize, chain_len: usize) -> Self {
        Self {
            n,
            first_prime_bits: 31,
            scale_prime_bits: 28,
            chain_len,
            special_len: 1,
            special_prime_bits: 32,
            scale: (1u64 << 28) as f64,
            error_std: 3.2,
        }
    }

    /// Deep chain for the packed-bootstrapping pipeline. Uses wider primes
    /// than the hardware datapath for precision headroom in the software
    /// library (the simulator still models 32-bit words).
    pub fn bootstrap_demo() -> Self {
        Self {
            n: 1 << 11,
            // q0/Δ = 2^3 keeps the EvalMod back-multiplication (which
            // amplifies the sine-approximation error) close to 1 while
            // still leaving 8Δ of headroom for the message coefficients.
            first_prime_bits: 48,
            scale_prime_bits: 45,
            chain_len: 24,
            // α = 2: P ≈ 2^100 covers the widest digit group, q_0·q_1 < 2^93.
            special_len: 2,
            special_prime_bits: 50,
            scale: (1u64 << 45) as f64,
            error_std: 3.2,
        }
    }

    /// Number of slots (`N / 2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Key-switch digits over the first `q_len` chain primes: `⌈q_len/α⌉`
    /// with α = `special_len` chain primes per digit, the last group
    /// partial when α does not divide `q_len`.
    /// A key switch at level `l` has `dnum(l + 1)`, and a key stores
    /// `dnum(chain_len)` pairs.
    #[inline]
    pub fn dnum(&self, q_len: usize) -> usize {
        q_len.div_ceil(self.special_len)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !self.n.is_power_of_two() || self.n < 8 {
            return Err(ParamsError::RingDegree(self.n));
        }
        if self.chain_len < 1 {
            return Err(ParamsError::EmptyChain);
        }
        if self.special_len < 1 {
            return Err(ParamsError::NoSpecialPrime);
        }
        for bits in [
            self.first_prime_bits,
            self.scale_prime_bits,
            self.special_prime_bits,
        ] {
            if !(20..=60).contains(&bits) {
                return Err(ParamsError::PrimeBits(bits));
            }
        }
        if self.scale <= 1.0 {
            return Err(ParamsError::Scale);
        }
        // The α widest chain primes: the first and α − 1 scale primes,
        // unless the scale primes are the wider and the chain has α of them.
        // Counted, not listed: a forged chain length allocates nothing.
        let alpha = self.special_len.min(self.chain_len) as u64;
        let (first, scale) = (
            u64::from(self.first_prime_bits),
            u64::from(self.scale_prime_bits),
        );
        let group_bits = if scale > first && alpha < self.chain_len as u64 {
            alpha.saturating_mul(scale)
        } else {
            first + (alpha - 1).saturating_mul(scale)
        };
        let special_bits = (self.special_len as u64).saturating_mul(self.special_prime_bits.into());
        if special_bits < group_bits {
            return Err(ParamsError::DigitGroupUncovered {
                group_bits,
                special_bits,
            });
        }
        if group_bits > 128 {
            return Err(ParamsError::DigitGroupTooWide { group_bits });
        }
        Ok(())
    }
}

/// Why a parameter set failed [`CkksParams::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// `N` is not a power of two, or is below 8.
    RingDegree(usize),
    /// The chain has no prime.
    EmptyChain,
    /// Keyswitching needs at least one special prime.
    NoSpecialPrime,
    /// A prime size outside the supported 20..=60 bits.
    PrimeBits(u32),
    /// The scale does not exceed 1.
    Scale,
    /// The special primes are narrower than the widest key-switch digit
    /// group (the α widest chain primes), so a switch's noise
    /// `dnum·Q_g·N·σ/P` would not stay small.
    DigitGroupUncovered {
        /// Summed bit widths of the α widest chain primes.
        group_bits: u64,
        /// `special_len · special_prime_bits`.
        special_bits: u64,
    },
    /// A digit group wider than 128 bits: its exact lift is summed in one
    /// `u128`.
    DigitGroupTooWide {
        /// Summed bit widths of the α widest chain primes.
        group_bits: u64,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::RingDegree(n) => write!(f, "N = {n} must be a power of two ≥ 8"),
            ParamsError::EmptyChain => write!(f, "chain must contain at least one prime"),
            ParamsError::NoSpecialPrime => {
                write!(f, "keyswitching needs at least one special prime")
            }
            ParamsError::PrimeBits(bits) => {
                write!(f, "prime size {bits} outside supported 20..=60 bits")
            }
            ParamsError::Scale => write!(f, "scale must exceed 1"),
            ParamsError::DigitGroupUncovered {
                group_bits,
                special_bits,
            } => write!(
                f,
                "special primes of {special_bits} bits cannot cover a key-switch digit \
                 group of {group_bits} bits"
            ),
            ParamsError::DigitGroupTooWide { group_bits } => write!(
                f,
                "a key-switch digit group of {group_bits} bits exceeds the 128-bit lift"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            CkksParams::toy(),
            CkksParams::small(),
            CkksParams::paper_32bit(1 << 13, 6),
            CkksParams::bootstrap_demo(),
        ] {
            assert_eq!(p.validate(), Ok(()), "{p:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut p = CkksParams::toy();
        p.n = 100;
        assert!(p.validate().is_err());

        let mut p = CkksParams::toy();
        p.special_len = 0;
        assert!(p.validate().is_err());

        let mut p = CkksParams::toy();
        p.scale_prime_bits = 63;
        assert!(p.validate().is_err());
    }

    /// α = `special_len` groups the chain; the digits at every level are
    /// `⌈(l+1)/α⌉`, the last one partial at an odd prime count.
    #[test]
    fn digits_group_special_len_chain_primes() {
        let small = CkksParams::small();
        assert_eq!(small.dnum(8), 4);
        assert_eq!(small.dnum(7), 4);
        assert_eq!(small.dnum(1), 1);
        assert_eq!(CkksParams::toy().dnum(4), 4);
        assert_eq!(CkksParams::bootstrap_demo().dnum(24), 12);
    }

    /// Special primes narrower than the widest digit group are refused:
    /// two 44-bit special primes cannot cover `small()`'s 50 + 40-bit first
    /// group, and one 45-bit prime cannot cover `toy()`'s 50-bit first
    /// prime. A group wider than the 128-bit lift is refused too.
    #[test]
    fn special_primes_must_cover_a_digit_group() {
        let mut p = CkksParams::small();
        p.special_prime_bits = 44;
        assert_eq!(
            p.validate(),
            Err(ParamsError::DigitGroupUncovered {
                group_bits: 90,
                special_bits: 88,
            })
        );
        let mut p = CkksParams::toy();
        p.special_prime_bits = 45;
        assert_eq!(
            p.validate(),
            Err(ParamsError::DigitGroupUncovered {
                group_bits: 50,
                special_bits: 45,
            })
        );
        // α larger than the chain: the one group is the whole chain.
        let mut p = CkksParams::toy();
        p.chain_len = 1;
        p.special_len = 3;
        p.special_prime_bits = 20;
        assert_eq!(p.validate(), Ok(()));
        let mut p = CkksParams::small();
        p.special_len = 3;
        p.first_prime_bits = 60;
        p.scale_prime_bits = 60;
        p.special_prime_bits = 60;
        assert_eq!(
            p.validate(),
            Err(ParamsError::DigitGroupTooWide { group_bits: 180 })
        );
        // Scale primes wider than the first: α of them when the chain has
        // them, else the first with the rest.
        let mut p = CkksParams::small();
        p.first_prime_bits = 30;
        p.scale_prime_bits = 50;
        p.special_prime_bits = 49;
        assert_eq!(
            p.validate(),
            Err(ParamsError::DigitGroupUncovered {
                group_bits: 100,
                special_bits: 98,
            })
        );
        p.chain_len = 2;
        assert_eq!(p.validate(), Ok(()), "a 30 + 50-bit group");
        // A forged chain length is refused by arithmetic, not allocation.
        p.chain_len = usize::MAX;
        assert!(p.validate().is_err());
    }
}
