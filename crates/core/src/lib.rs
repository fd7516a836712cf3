//! Poseidon's operator layer — the paper's primary contribution.
//!
//! Poseidon's key idea (§II–§IV) is that every CKKS basic operation can be
//! decomposed into five reusable *operators* — Modular Addition (MA),
//! Modular Multiplication (MM), NTT/INTT, Automorphism, and Shared Barrett
//! Reduction (SBT) — and that instantiating one hardware core per operator
//! and time-multiplexing them beats instantiating per-operation datapaths.
//!
//! This crate models that layer functionally:
//!
//! * [`operator`] — the operator vocabulary and element-level count algebra.
//! * [`decompose`] — the operation → operator decomposition for every basic
//!   operation (paper Table I / Fig. 7), parameterised by `(N, L, k)`, plus
//!   the expansion of Bootstrapping into its basic-operation sequence.
//! * [`auto`] — **HFAuto**, the hardware-friendly automorphism (§III-B):
//!   the index mapping on an N-element vector decomposed into two row
//!   mappings, a dimension switch, and a column mapping over `R = N/C`
//!   sub-vectors of lane width `C`. Bit-exact against the reference Galois
//!   automorphism (the paper's lemma, machine-checked).
//! * [`pool`] — the operator pool: one functional core per operator with
//!   reuse counters, executing real arithmetic through the substrate crates
//!   (the software analogue of Fig. 2's shared cores).
//! * [`ops`] — [`HomomorphicOps`], the basic-operation surface shared by
//!   the evaluator, the trace recorder, and the machine, so one workload
//!   definition drives any backend.
//! * [`plan`] — the evaluation planner (software HFAuto): SSA dataflow
//!   capture, cross-graph rotation hoisting, noise-aware rescale
//!   placement, rotation-sum fusion, dead-value elimination, bootstrap
//!   insertion on exhausted chains, live-range-aware scheduling, and a
//!   backend-generic plan executor, plus the `.pos` compile pipeline.

#![forbid(unsafe_code)]

pub mod auto;
pub mod decompose;
pub mod machine;
pub mod operator;
pub mod ops;
pub mod plan;
pub mod pool;
pub mod recorder;

pub use auto::HfAuto;
pub use decompose::{BasicOp, OpParams};
pub use machine::PoseidonMachine;
pub use operator::{Operator, OperatorCounts};
pub use ops::HomomorphicOps;
pub use plan::{EvalGraph, Plan, PlanError, PlanOptions};
pub use pool::OperatorPool;
