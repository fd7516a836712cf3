//! Plan executor: replays an optimized schedule on any
//! [`HomomorphicOps`] backend.
//!
//! The executor owns a slot table (one `Option<Ciphertext>` per SSA
//! value), binds the caller's input ciphertexts to the graph's `Input`
//! nodes positionally, walks the schedule, and frees each value's slot
//! at its last use (the plan's `release` sets) — so peak ciphertext
//! residency matches the scheduler's `max_live` accounting.
//!
//! A `RotateSum` node's plaintexts are prepared for the key-switch engine on
//! the plan's first execution and kept in the [`Plan`]; later executions
//! find them there.
//!
//! Plans containing `Bootstrap` nodes (from the bootstrap-insertion
//! pass) need [`execute_with`] and a [`Bootstrapper`]: the executor
//! drops the operand to level 0, runs the refresh through
//! `HomomorphicOps::try_bootstrap`, and conforms the result to the
//! node's target level.

use he_ckks::bootstrap::Bootstrapper;
use he_ckks::cipher::Ciphertext;
use he_ckks::error::EvalError;
use he_ckks::keys::KeySet;

use crate::ops::{HomomorphicOps, Weight};
use crate::plan::graph::{GraphOp, ValueId};
use crate::plan::passes::Plan;

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One ciphertext per graph output, in output-marking order.
    pub outputs: Vec<Ciphertext>,
    /// Schedule steps replayed.
    pub steps: usize,
    /// Peak number of simultaneously live ciphertext slots.
    pub max_live: usize,
}

fn slot(slots: &[Option<Ciphertext>], v: ValueId) -> Result<&Ciphertext, EvalError> {
    slots[v.index()].as_ref().ok_or_else(|| {
        EvalError::InvalidParams(format!("value {} used before production", v.index()))
    })
}

/// Replays `plan` on `backend` with the given graph inputs.
///
/// # Errors
///
/// `EvalError::InvalidParams` when the input count doesn't match the
/// graph, `EvalError::BootstrapUnavailable` when the plan contains a
/// `Bootstrap` node (use [`execute_with`]), otherwise whatever the
/// backend operation returns (missing rotation keys, rescale at level 0,
/// …).
pub fn execute<B: HomomorphicOps>(
    plan: &Plan,
    backend: &mut B,
    inputs: &[Ciphertext],
    keys: &KeySet,
) -> Result<ExecOutcome, EvalError> {
    execute_with(plan, backend, inputs, keys, None)
}

/// [`execute`] with an optional [`Bootstrapper`] for plans that refresh
/// ciphertexts. A `Bootstrap { target_level }` node drops its operand to
/// level 0, runs the backend's bootstrap pipeline, and drops the
/// refreshed ciphertext to `target_level`.
///
/// # Errors
///
/// As [`execute`]; additionally `EvalError::LevelMismatch` when the
/// bootstrapper delivers a refreshed ciphertext *below* a node's target
/// level.
pub fn execute_with<B: HomomorphicOps>(
    plan: &Plan,
    backend: &mut B,
    inputs: &[Ciphertext],
    keys: &KeySet,
    bootstrapper: Option<&Bootstrapper>,
) -> Result<ExecOutcome, EvalError> {
    let g = &plan.graph;
    if inputs.len() != g.inputs().len() {
        return Err(EvalError::InvalidParams(format!(
            "plan expects {} input ciphertexts, got {}",
            g.inputs().len(),
            inputs.len()
        )));
    }
    let mut slots: Vec<Option<Ciphertext>> = vec![None; g.values().len()];
    let mut live = 0usize;
    let mut max_live = 0usize;

    for (step, &nid) in plan.schedule.iter().enumerate() {
        let node = g.node(nid);
        match &node.op {
            GraphOp::RotateMany { steps } => {
                let outs = backend.try_rotate_many(slot(&slots, node.inputs[0])?, steps, keys)?;
                debug_assert_eq!(outs.len(), node.outputs.len());
                for (o, ct) in node.outputs.iter().zip(outs) {
                    slots[o.index()] = Some(ct);
                    live += 1;
                }
            }
            GraphOp::RotateSum { steps, weights } => {
                let mut terms = Vec::with_capacity(steps.len());
                for (&s, weight) in steps.iter().zip(weights) {
                    let weight = match *weight {
                        Some(pt) => Some(Weight {
                            plain: &g.plaintexts()[pt],
                            prepared: plan.operand(pt, keys.context())?,
                        }),
                        None => None,
                    };
                    terms.push((s, weight));
                }
                let sum = backend.try_rotate_sum(slot(&slots, node.inputs[0])?, &terms, keys)?;
                slots[node.outputs[0].index()] = Some(sum);
                live += 1;
            }
            op => {
                let out = match op {
                    GraphOp::Input { slot } => inputs[*slot].clone(),
                    GraphOp::Add => backend
                        .try_add(slot(&slots, node.inputs[0])?, slot(&slots, node.inputs[1])?)?,
                    GraphOp::Sub => backend
                        .try_sub(slot(&slots, node.inputs[0])?, slot(&slots, node.inputs[1])?)?,
                    GraphOp::AddPlain { pt } => backend
                        .try_add_plain(slot(&slots, node.inputs[0])?, &g.plaintexts()[*pt])?,
                    GraphOp::MulPlain { pt } => backend
                        .try_mul_plain(slot(&slots, node.inputs[0])?, &g.plaintexts()[*pt])?,
                    GraphOp::Mul => backend.try_mul(
                        slot(&slots, node.inputs[0])?,
                        slot(&slots, node.inputs[1])?,
                        keys,
                    )?,
                    GraphOp::Square => backend.try_square(slot(&slots, node.inputs[0])?, keys)?,
                    GraphOp::Rescale => backend.try_rescale(slot(&slots, node.inputs[0])?)?,
                    GraphOp::DropToLevel { level } => {
                        backend.try_drop_to_level(slot(&slots, node.inputs[0])?, *level)?
                    }
                    GraphOp::Rotate { steps } => {
                        backend.try_rotate(slot(&slots, node.inputs[0])?, *steps, keys)?
                    }
                    GraphOp::Conjugate => {
                        backend.try_conjugate(slot(&slots, node.inputs[0])?, keys)?
                    }
                    GraphOp::Bootstrap { target_level } => {
                        let bs = bootstrapper.ok_or(EvalError::BootstrapUnavailable)?;
                        let a = slot(&slots, node.inputs[0])?;
                        // ModRaise needs a level-0 operand.
                        let floored = if a.level() > 0 {
                            backend.try_drop_to_level(a, 0)?
                        } else {
                            a.clone()
                        };
                        let refreshed = backend.try_bootstrap(&floored, bs, keys)?;
                        if refreshed.level() < *target_level {
                            return Err(EvalError::LevelMismatch {
                                a: refreshed.level(),
                                b: *target_level,
                            });
                        }
                        if refreshed.level() > *target_level {
                            backend.try_drop_to_level(&refreshed, *target_level)?
                        } else {
                            refreshed
                        }
                    }
                    GraphOp::RotateMany { .. } | GraphOp::RotateSum { .. } => unreachable!(),
                };
                slots[node.outputs[0].index()] = Some(out);
                live += 1;
            }
        }
        max_live = max_live.max(live);
        for v in &plan.release[step] {
            if slots[v.index()].take().is_some() {
                live -= 1;
            }
        }
    }

    let mut outputs = Vec::with_capacity(g.outputs().len());
    for &o in g.outputs() {
        let ct = slots[o.index()].clone().ok_or_else(|| {
            EvalError::InvalidParams(format!("graph output {} never produced", o.index()))
        })?;
        outputs.push(ct);
    }
    Ok(ExecOutcome {
        outputs,
        steps: plan.schedule.len(),
        max_live,
    })
}
