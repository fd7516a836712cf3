//! CKKS parameter sets.
//!
//! A parameter set fixes the ring degree `N`, the modulus-chain layout
//! (first-prime bits, scale-prime bits, chain length `L`), the special
//! keyswitching primes, and the default encoding scale Δ.
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
    /// Number of special primes `P` for keyswitching (α = 1, dnum = level + 1).
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
            special_len: 2,
            special_prime_bits: 51,
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
            special_len: 2,
            special_prime_bits: 56,
            scale: (1u64 << 45) as f64,
            error_std: 3.2,
        }
    }

    /// Number of slots (`N / 2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.n.is_power_of_two() || self.n < 8 {
            return Err("N must be a power of two ≥ 8".into());
        }
        if self.chain_len < 1 {
            return Err("chain must contain at least one prime".into());
        }
        if self.special_len < 1 {
            return Err("keyswitching needs at least one special prime".into());
        }
        for bits in [
            self.first_prime_bits,
            self.scale_prime_bits,
            self.special_prime_bits,
        ] {
            if !(20..=60).contains(&bits) {
                return Err(format!("prime size {bits} outside supported 20..=60 bits"));
            }
        }
        if self.scale <= 1.0 {
            return Err("scale must exceed 1".into());
        }
        Ok(())
    }
}

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
}
