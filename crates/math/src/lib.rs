//! Modular-arithmetic substrate for the Poseidon FHE stack.
//!
//! This crate provides the scalar building blocks every layer above it
//! (NTT, RNS, CKKS, and the accelerator operator models) relies on:
//!
//! * [`modops`] — plain modular add/sub/mul/pow/inverse on `u64` residues,
//!   using `u128` intermediates.
//! * [`barrett`] — precomputed Barrett reducers, the scalar equivalent of the
//!   paper's *Shared Barrett Reduction (SBT)* operator core.
//! * [`shoup`] — Shoup multiplication for hot loops with a fixed multiplicand
//!   (twiddle factors inside NTT butterflies).
//! * [`prime`] — deterministic Miller–Rabin primality testing, NTT-friendly
//!   prime generation (`p ≡ 1 mod 2N`), and primitive-root search.
//! * [`bigint`] — a deliberately small arbitrary-precision unsigned integer,
//!   sufficient for CRT reconstruction and exactness oracles in tests.
//!
//! # Examples
//!
//! ```
//! use he_math::barrett::BarrettReducer;
//! use he_math::prime::ntt_prime;
//!
//! // A 30-bit prime usable for a negacyclic NTT of length 2^12.
//! let q = ntt_prime(30, 1 << 13).expect("prime exists");
//! let r = BarrettReducer::new(q);
//! assert_eq!(r.mul(q - 1, q - 1), 1); // (-1)·(-1) = 1 (mod q)
//! ```

#![forbid(unsafe_code)]

pub mod barrett;
pub mod bigint;
pub mod modops;
pub mod montgomery;
pub mod prime;
pub mod shoup;

pub use barrett::BarrettReducer;
pub use bigint::BigUint;
pub use shoup::ShoupMul;
