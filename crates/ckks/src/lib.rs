//! A complete RNS-CKKS implementation — the FHE scheme Poseidon accelerates.
//!
//! The crate provides every *basic operation* the paper decomposes into
//! operators (§II-A): homomorphic addition, plaintext and ciphertext
//! multiplication with relinearisation, rescale, keyswitch (Modup /
//! RNSconv / Moddown), rotation via Galois automorphisms, conjugation, and
//! packed bootstrapping.
//!
//! Quick tour:
//!
//! * [`params::CkksParams`] / [`context::CkksContext`] — parameter presets
//!   and the precomputed context (bases, encoder tables).
//! * [`encoding::Encoder`] — canonical-embedding encoder mapping complex
//!   slot vectors to ring plaintexts and back.
//! * [`keys`] — secret/public/relinearisation/Galois key generation.
//! * [`cipher::Ciphertext`] and [`eval::Evaluator`] — the homomorphic ops.
//!   Every operation and pipeline that can fail on caller input has one
//!   form, `try_*`, returning [`error::EvalError`].
//! * [`polyeval`] — polynomial evaluation on ciphertexts (the EvalMod
//!   engine of bootstrapping).
//! * [`bootstrap`] — packed bootstrapping: ModRaise → CoeffToSlot → EvalMod
//!   → SlotToCoeff (the paper's most complex benchmark workload).
//!
//! # Examples
//!
//! ```
//! use he_ckks::prelude::*;
//! use he_ckks::encoding::Complex;
//!
//! let ctx = CkksContext::new(CkksParams::toy());
//! let mut rng = rand::thread_rng();
//! let keys = KeySet::generate(&ctx, &mut rng);
//! let eval = Evaluator::new(&ctx);
//!
//! let z: Vec<Complex> = [1.5, -2.0, 3.25, 0.0].iter().map(|&r| Complex::new(r, 0.0)).collect();
//! let pt = Plaintext::new(
//!     ctx.encoder().encode_rns(ctx.chain_basis(), &z, ctx.default_scale()),
//!     ctx.default_scale(),
//! );
//! let ct = keys.public().encrypt(&pt, &mut rng);
//! let ct2 = eval.try_add(&ct, &ct)?;
//! let dec = keys.secret().decrypt(&ct2);
//! let out = ctx.encoder().decode_rns(dec.poly(), dec.scale(), z.len());
//! assert!((out[0].re - 3.0).abs() < 1e-3);
//! # Ok::<(), EvalError>(())
//! ```

#![forbid(unsafe_code)]

pub mod apps;
pub mod bootstrap;
pub mod cipher;
pub mod context;
pub mod encoding;
pub mod error;
pub mod eval;
pub mod integrity;
pub mod keys;
pub mod linear;
pub mod noise;
pub mod params;
pub mod polyeval;
pub mod sampling;

/// Convenient re-exports for typical usage.
pub mod prelude {
    pub use crate::cipher::{Ciphertext, Plaintext};
    pub use crate::context::CkksContext;
    pub use crate::encoding::Encoder;
    pub use crate::error::EvalError;
    pub use crate::eval::Evaluator;
    pub use crate::keys::{KeySet, PublicKey, SecretKey};
    pub use crate::params::CkksParams;
}
