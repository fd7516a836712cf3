//! Typed errors for the fallible evaluation and construction paths.
//!
//! Every homomorphic operation and pipeline returns these errors, so
//! library users embedding the scheme in a service can handle missing keys,
//! mismatched operands or bad parameters without unwinding.

use std::fmt;

/// Why a homomorphic operation (or context construction) could not proceed.
///
/// (`Eq` is not derived: [`ScaleMismatch`](EvalError::ScaleMismatch)
/// carries the offending `f64` scales.)
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// No rotation key was generated for this step count
    /// (see [`KeySet::add_rotation_key`]).
    ///
    /// [`KeySet::add_rotation_key`]: crate::keys::KeySet::add_rotation_key
    MissingRotationKey {
        /// The requested left-rotation step count.
        steps: i64,
    },
    /// No conjugation key was generated
    /// (see [`KeySet::add_conjugation_key`]).
    ///
    /// [`KeySet::add_conjugation_key`]: crate::keys::KeySet::add_conjugation_key
    MissingConjugationKey,
    /// Parameter validation failed ([`CkksParams::validate`]), or an
    /// argument lies outside what the operation accepts (a fold width that
    /// is not a power of two, a reference longer than the slot count).
    ///
    /// [`CkksParams::validate`]: crate::params::CkksParams::validate
    InvalidParams(String),
    /// An operand sits below the level the operation needs (e.g. a prepared
    /// plaintext weight under its ciphertext's level), or a level would have
    /// to be *raised* by truncation (`try_drop_to_level`).
    LevelMismatch {
        /// Level of the first operand (or the current level).
        a: usize,
        /// Level of the second operand (or the requested level).
        b: usize,
    },
    /// Operand scales differ by more than the floating slack (0.01 %).
    ScaleMismatch {
        /// Scale of the first operand.
        a: f64,
        /// Scale of the second operand.
        b: f64,
    },
    /// An operand list was empty (a rotation sum with no terms, a
    /// polynomial with no coefficients, the power `x^0`, a noise reference
    /// with no slots), or a linear transform's diagonals were all
    /// numerically zero.
    EmptyOperands,
    /// Rescale requested at level 0 — no chain prime left to drop.
    RescaleAtLevelZero,
    /// A check detected datapath corruption that survived the retry
    /// (duplicate-execution digest divergence, or a failed retire
    /// invariant on the machine's MA core). Only
    /// [`retry_once`](crate::integrity::retry_once) returns it.
    IntegrityFault {
        /// The checked boundary that caught the fault (e.g. `"mul"`,
        /// `"keyswitch"`, `"pool.retire"`).
        site: &'static str,
    },
    /// A plan (or caller) requested bootstrapping but the executing
    /// backend has no [`Bootstrapper`](crate::bootstrap::Bootstrapper)
    /// available — either none was supplied to `plan::execute_with` or
    /// the backend does not support the operation.
    BootstrapUnavailable,
}

impl EvalError {
    /// The operand-scale check every backend's additions share: `Ok` when
    /// the scales agree to within the floating slack (0.01 %).
    ///
    /// # Errors
    ///
    /// [`EvalError::ScaleMismatch`] carrying both scales otherwise.
    pub fn check_scales(a: f64, b: f64) -> Result<(), EvalError> {
        if (a - b).abs() <= 1e-4 * a.abs().max(b.abs()) {
            Ok(())
        } else {
            Err(EvalError::ScaleMismatch { a, b })
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingRotationKey { steps } => {
                write!(f, "missing rotation key for {steps} steps")
            }
            EvalError::MissingConjugationKey => write!(f, "missing conjugation key"),
            EvalError::InvalidParams(msg) => write!(f, "invalid CKKS parameters: {msg}"),
            EvalError::LevelMismatch { a, b } => {
                write!(f, "level mismatch: {a} vs {b}")
            }
            EvalError::ScaleMismatch { a, b } => write!(f, "scale mismatch: {a} vs {b}"),
            EvalError::EmptyOperands => write!(f, "need at least one ciphertext"),
            EvalError::RescaleAtLevelZero => write!(f, "cannot rescale at level 0"),
            EvalError::IntegrityFault { site } => {
                write!(
                    f,
                    "integrity fault detected at {site} (persisted across retry)"
                )
            }
            EvalError::BootstrapUnavailable => {
                write!(f, "no bootstrapper available on this backend")
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_texts_are_pinned() {
        assert_eq!(
            EvalError::MissingRotationKey { steps: -3 }.to_string(),
            "missing rotation key for -3 steps"
        );
        assert_eq!(
            EvalError::MissingConjugationKey.to_string(),
            "missing conjugation key"
        );
        assert!(EvalError::InvalidParams("n must be a power of two".into())
            .to_string()
            .starts_with("invalid CKKS parameters"));
        assert_eq!(
            EvalError::ScaleMismatch { a: 2.0, b: 6.0 }.to_string(),
            "scale mismatch: 2 vs 6"
        );
        assert_eq!(
            EvalError::RescaleAtLevelZero.to_string(),
            "cannot rescale at level 0"
        );
        assert_eq!(
            EvalError::EmptyOperands.to_string(),
            "need at least one ciphertext"
        );
        assert!(EvalError::IntegrityFault { site: "keyswitch" }
            .to_string()
            .contains("integrity fault"));
    }
}
