//! Negacyclic Number Theoretic Transform with Poseidon's *NTT-fusion*.
//!
//! The ring underlying RNS-CKKS is `Z_q[X]/(X^N + 1)`; multiplying two
//! polynomials there costs O(N²) schoolbook but O(N log N) through the
//! negacyclic ("ψ-twisted") NTT when `q ≡ 1 (mod 2N)`.
//!
//! This crate provides:
//!
//! * [`table::NttTable`] — per-(N, q) precomputed twiddle tables (ψ powers in
//!   bit-reversed order, Shoup constants, N⁻¹).
//! * [`kernel`] — the portable transform behind
//!   [`NttTable::forward`]/[`NttTable::inverse`]: Harvey butterflies in
//!   redundant `[0, 4q)` representation, fused into radix-8 stage groups
//!   (the software form of the paper's k = 3 fused TAM), carried lazily
//!   across group boundaries and reduced once per output.
//! * [`ifma`] — the same schedule on AVX-512 IFMA registers, which the CPU
//!   (`avx512f` + `avx512ifma`) and a prime below 2^50 select, bit-identical
//!   to [`kernel`]; and [`ifma::detected`], the workspace's one CPU check.
//! * [`negacyclic`] — the classic iterative radix-2 forward (Cooley–Tukey,
//!   decimation-in-time) and inverse (Gentleman–Sande) transforms, kept
//!   only as the bit-exact oracle tests reach through
//!   [`NttTable::forward_oracle`]/[`NttTable::inverse_oracle`].
//! * [`fusion`] — the radix-2^k *fused* NTT of the paper's §III-A: k
//!   butterfly stages are collapsed into one "fused TAM" kernel that applies
//!   a precomputed 2^k × 2^k coefficient matrix with a **single** modular
//!   reduction per output, trading extra multiplies for fewer reductions
//!   (paper Table II). [`FusedNtt`] and [`FusionAnalysis`] are the Table II
//!   *model* — bit-exact with the radix-2 transform, never on the hot path.
//! * [`access`] — the BRAM data-access-pattern model of §IV-B (paper Table
//!   III and Fig. 5): per-iteration index offsets for conventional vs fused
//!   NTT, and the diagonal BRAM-bank assignment that avoids port conflicts.
//! * [`naive`] — an O(N²) reference DFT used as the testing oracle.
//!
//! # Examples
//!
//! ```
//! use he_ntt::table::NttTable;
//!
//! let q = he_math::prime::ntt_prime(30, 1 << 11).unwrap();
//! let table = NttTable::new(1 << 10, q);
//! let mut a = vec![0u64; 1 << 10];
//! a[1] = 1; // X
//! let mut b = a.clone();
//! table.forward(&mut a);
//! table.forward(&mut b);
//! // pointwise product = X² in evaluation form
//! let mut c: Vec<u64> = a.iter().zip(&b)
//!     .map(|(&x, &y)| he_math::modops::mul_mod(x, y, q))
//!     .collect();
//! table.inverse(&mut c);
//! assert_eq!(c[2], 1);
//! assert!(c.iter().enumerate().all(|(i, &v)| v == 0 || i == 2));
//! ```

#![deny(unsafe_code)]

pub mod access;
pub mod fusion;
#[allow(unsafe_code)]
pub mod ifma;
pub mod kernel;
pub mod naive;
pub mod negacyclic;
pub mod table;

pub use fusion::{FusedNtt, FusionAnalysis};
pub use table::{galois_permutation, NttTable};
