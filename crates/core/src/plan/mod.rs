//! The evaluation planner — the software analogue of Poseidon's HFAuto
//! operator decomposer.
//!
//! HFAuto turns high-level HE operators into basic-op schedules that
//! maximise keyswitch-digit reuse and on-chip residency. This module does
//! the same over recorded (or compiled) evaluation graphs:
//!
//! 1. **Capture** — a [`Recorder`] over either backend records the SSA
//!    dataflow of a real run ([`graph::EvalGraph`]), or [`compile_trace`]
//!    lowers a `.pos` op trace into one.
//! 2. **Optimize** — [`plan`] runs every pass: rescale fusion,
//!    cross-graph rotation hoisting into `rotate_many`, rotation-sum fusion,
//!    dead-value elimination, and live-range-aware scheduling ([`passes`]);
//!    with [`PlanOptions::bootstrap`] set it also runs the
//!    bootstrap-insertion pass (chains that exhaust the modulus get a
//!    [`GraphOp::Bootstrap`] refresh, or a typed [`PlanError`]).
//!    [`Plan::passthrough`] is the unplanned baseline: creation order, no
//!    rewrites.
//! 3. **Execute** — [`execute`] replays the optimized schedule on any
//!    [`HomomorphicOps`] backend: the software evaluator or the
//!    accelerator-shaped [`PoseidonMachine`], recorded or not.
//!    [`execute_with`] supplies a `Bootstrapper` for plans that refresh.
//!
//! Bit-preserving rewrites (hoist + DVE + reorder) reproduce the unplanned
//! outputs digest-identically on the evaluator; rescale fusion,
//! rotation-sum fusion and bootstrap insertion preserve decrypted values
//! and are flagged via [`Plan::value_preserving`].
//!
//! [`Recorder`]: crate::recorder::Recorder
//! [`HomomorphicOps`]: crate::ops::HomomorphicOps
//! [`PoseidonMachine`]: crate::machine::PoseidonMachine

use std::fmt;

pub mod compile;
pub mod exec;
pub mod graph;
pub mod passes;

pub use compile::{compile_trace, plan_trace, CompileOptions, CompiledProgram, SCALE_MARGIN_BITS};
pub use exec::{execute, execute_with, ExecOutcome};
pub use graph::{EvalGraph, GraphOp, Node, NodeId, ValueId, ValueInfo};
pub use passes::{plan, BootstrapOptions, NoiseBudget, Plan, PlanOptions, PlanStats};

/// Why a program could not be planned. Unlike runtime
/// [`EvalError`](he_ckks::error::EvalError)s these are *static* verdicts:
/// the planner proved from level/scale metadata alone that the
/// computation cannot fit the modulus chain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// A value's tracked scale meets or exceeds the live modulus bits at
    /// its level — the ciphertext would no longer decrypt. Raised by the
    /// `.pos` lowering when even a fresh top-level input cannot fund the
    /// requested operation, and by the bootstrap-insertion pass when
    /// refreshing cannot help either.
    ScaleOverflow {
        /// Level at which the overflow occurs.
        level: usize,
        /// The tracked scale (log2) that does not fit.
        scale_bits: f64,
        /// The live modulus bits at that level.
        total_bits: f64,
    },
    /// A chain exhausted the modulus and bootstrap insertion was not
    /// possible: no bootstrap key is registered, or the exhausted value
    /// has no ciphertext operand to refresh.
    BudgetExhausted {
        /// Index of the first exhausted SSA value.
        value: usize,
        /// Its level.
        level: usize,
        /// Its tracked scale (log2).
        scale_bits: f64,
        /// Why insertion was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ScaleOverflow {
                level,
                scale_bits,
                total_bits,
            } => write!(
                f,
                "scale overflow: {scale_bits:.1} bits at level {level} exceeds \
                 the {total_bits:.1}-bit modulus"
            ),
            PlanError::BudgetExhausted {
                value,
                level,
                scale_bits,
                reason,
            } => write!(
                f,
                "noise budget exhausted at value {value} (level {level}, \
                 {scale_bits:.1} scale bits): {reason}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}
