//! Facade crate re-exporting the Poseidon reproduction stack.

#![forbid(unsafe_code)]

pub use he_ckks as ckks;
pub use he_math as math;
pub use he_ntt as ntt;
pub use he_rns as rns;
pub use poseidon_core as core;
pub use poseidon_faults as faults;
pub use poseidon_par as par;
pub use poseidon_serve as serve;
pub use poseidon_sim as sim;
pub use poseidon_telemetry as telemetry;
pub use poseidon_wire as wire;
