//! Residue Number System (RNS) layer for RNS-CKKS.
//!
//! Large ciphertext moduli `Q = q_0 · q_1 · … · q_L` are never materialised;
//! every polynomial is stored as one residue vector per prime (the *RNS
//! components* of the paper's §II-A.3). This crate provides:
//!
//! * [`basis::RnsBasis`] — an ordered set of NTT primes with per-prime
//!   transform tables and the precomputed constants (`q̂_j`, `q̂_j⁻¹ mod
//!   q_j`, cross-basis `q̂_j mod p_i`) that fast basis conversion needs.
//! * [`poly::RnsPoly`] — a polynomial in `Z_Q[X]/(X^N+1)` held residue-wise,
//!   in either coefficient or evaluation (NTT) form.
//! * [`conv`] — `RNSconv` (paper Eq. 1, the HPS fast basis conversion),
//!   `Modup` (Eq. 3), `Moddown` (Eq. 2), and the RNS `Rescale` step — the
//!   arithmetic backbone of Keyswitch and Rescale.
//! * [`lazy::LazyDot`] — sums of residue products with one shared reduction
//!   per coefficient: the key-switch inner-product kernel, the accumulate
//!   stage of Moddown's conversion, and the weighted row of a rotation sum.
//!   On a CPU with AVX-512 IFMA and a prime below 2^52 the key-switch kernel
//!   sums eight coefficients at a time in 52-bit halves (the private
//!   `ifma` module, the crate's one `unsafe` module); its outputs are the
//!   scalar kernel's bits.
//! * [`integrity`] — the one FNV-1a hash: residue digests for checked
//!   execution, the wire checksum's word hash, shard affinity.
//!
//! # Examples
//!
//! ```
//! use he_rns::basis::RnsBasis;
//! use he_rns::poly::RnsPoly;
//!
//! let basis = RnsBasis::generate(64, 30, 3);
//! let a = RnsPoly::from_i64_coeffs(&basis, &[2i64; 64]);
//! let sq = a.clone().into_eval().mul(&a.clone().into_eval()).into_coeff();
//! // (2·(1+X+…))² has constant coefficient 4 - cross terms wrap, but the
//! // residues stay consistent across all primes:
//! assert_eq!(sq.basis().len(), 3);
//! ```

#![deny(unsafe_code)]

pub mod basis;
pub mod conv;
#[allow(unsafe_code)]
mod ifma;
pub mod integrity;
pub mod lazy;
pub mod poly;

/// Telemetry scopes for the RNS kernels.
pub(crate) mod tel {
    use poseidon_telemetry::Metric;
    use std::sync::Arc;

    poseidon_telemetry::scope_fn! {
        /// Element-wise limb loops: add/sub/neg/mul/scalar-mul (items =
        /// limbs·N).
        pub pointwise = "rns.pointwise";
        /// Fast basis conversion, paper Eq. 1 (items = source limbs·N).
        /// Inside Moddown it covers the source-limb scaling; the
        /// accumulation is fused into the `rns.moddown` pass.
        pub convert = "rns.convert";
        /// Moddown, paper Eq. 2 (items = full-basis limbs·N): the `Q`-limb
        /// passes, one event per polynomial (see [`LimbShare`]).
        pub moddown = "rns.moddown";
        /// RNS rescale kernel (items = limbs·N).
        pub rescale = "rescale";
    }

    /// One limb's share of an operation that runs as per-limb calls, possibly
    /// on different workers: limb 0 records the event and its `items`, every
    /// limb adds its own busy time — so `count` stays one per polynomial and
    /// `nanos` is the work summed over limbs.
    pub struct LimbShare {
        metric: &'static Metric,
        items: Option<u64>,
        start: std::time::Instant,
    }

    impl LimbShare {
        pub fn new(metric: &'static Arc<Metric>, limb: usize, items: usize) -> Self {
            Self {
                metric,
                items: (limb == 0).then_some(items as u64),
                start: std::time::Instant::now(),
            }
        }
    }

    impl Drop for LimbShare {
        fn drop(&mut self) {
            let nanos = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            match self.items {
                Some(items) => self.metric.record_nanos(items, nanos),
                None => self.metric.add_busy(nanos),
            }
        }
    }
}

pub use basis::RnsBasis;
pub use lazy::{LazyDot, LazyRow};
pub use poly::{Form, RnsPoly, ShoupOperand};
