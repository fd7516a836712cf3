//! Accelerator-timed cost model for the evaluation planner.
//!
//! The planner's default [`TableCostModel`](poseidon_core::plan::TableCostModel)
//! ranks graph ops with hand-set relative weights. [`SimCostModel`] replaces
//! the table with this crate's timing model: each graph op is mapped onto its
//! basic operation, timed by [`timing::time_op`] under an
//! [`AcceleratorConfig`], and charged its wall-clock occupancy in cycles —
//! `max(compute, traffic/bandwidth)`, the same overlap rule the simulator
//! uses. Streaming ops therefore price in their HBM traffic (a plain `HAdd`
//! is bandwidth-bound), which a compute-only table cannot express.
//!
//! The model plugs into [`plan::plan_with`](poseidon_core::plan) for the
//! bootstrap-insertion pass's refresh-vs-reencrypt comparison.

use poseidon_core::decompose::{BasicOp, OpParams};
use poseidon_core::plan::{CostModel, GraphOp};

use crate::config::AcceleratorConfig;
use crate::timing;

/// [`CostModel`] backed by the accelerator timing model.
#[derive(Debug, Clone)]
pub struct SimCostModel {
    cfg: AcceleratorConfig,
    n: usize,
    special: usize,
}

impl SimCostModel {
    /// Creates a model for ring degree `n` and special-basis size
    /// `special` on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a power of two `>= 8` (the [`OpParams`]
    /// contract).
    pub fn new(cfg: AcceleratorConfig, n: usize, special: usize) -> Self {
        // Validate eagerly so a bad ring degree fails at construction,
        // not mid-schedule.
        let _ = OpParams::new(n, 1, special.max(1));
        Self {
            cfg,
            n,
            special: special.max(1),
        }
    }

    /// The paper's U280 build at ring degree `n` (2 special primes).
    pub fn u280(n: usize) -> Self {
        Self::new(AcceleratorConfig::poseidon_u280(), n, 2)
    }

    fn params(&self, level: usize) -> OpParams {
        OpParams::new(self.n, level + 1, self.special)
    }

    /// Wall-clock occupancy of `count` instances of `op`, in cycles.
    fn cycles(&self, op: BasicOp, level: usize, count: u64) -> u64 {
        let t = timing::time_op(op, &self.params(level), count, &self.cfg);
        (t.seconds * self.cfg.clock_hz).ceil() as u64
    }
}

impl CostModel for SimCostModel {
    fn op_cost(&self, op: &GraphOp, level: usize) -> u64 {
        match op {
            // Pure wiring: no arithmetic, no HBM round trip of its own.
            GraphOp::Input { .. } | GraphOp::DropToLevel { .. } => 0,
            GraphOp::Add | GraphOp::Sub | GraphOp::AddPlain { .. } => {
                self.cycles(BasicOp::HAdd, level, 1)
            }
            GraphOp::MulPlain { .. } => self.cycles(BasicOp::PMult, level, 1),
            GraphOp::Mul | GraphOp::Square => self.cycles(BasicOp::CMult, level, 1),
            GraphOp::Rescale => self.cycles(BasicOp::Rescale, level, 1),
            GraphOp::Rotate { .. } | GraphOp::Conjugate => self.cycles(BasicOp::Rotation, level, 1),
            GraphOp::RotateMany { steps } => {
                // Hoisting shares one RNS decomposition across the batch:
                // k rotations minus the k-1 redundant Modup passes.
                let k = steps.len().max(1) as u64;
                let full = self.cycles(BasicOp::Rotation, level, k);
                let saved = self.cycles(BasicOp::Modup, level, k - 1);
                full.saturating_sub(saved).max(1)
            }
            GraphOp::Bootstrap { target_level } => self.bootstrap_cost(*target_level),
        }
    }

    fn bootstrap_cost(&self, target_level: usize) -> u64 {
        // Compressed packed-bootstrap pipeline (workloads.rs's Table V
        // shape, scaled to short chains): three BSGS matrix levels for
        // CoeffToSlot, a Chebyshev EvalMod segment, three more matrix
        // levels for SlotToCoeff. Component counts decline from the
        // raised chain top down to the refreshed level.
        let top = target_level + 7;
        let mut total = 0u64;
        for d in 0..3 {
            let lvl = top - d;
            total += self.cycles(BasicOp::Rotation, lvl, 8);
            total += self.cycles(BasicOp::PMult, lvl, 16);
            total += self.cycles(BasicOp::HAdd, lvl, 16);
            total += self.cycles(BasicOp::Rescale, lvl, 1);
        }
        for d in 3..4 {
            let lvl = top - d;
            total += self.cycles(BasicOp::CMult, lvl, 11);
            total += self.cycles(BasicOp::PMult, lvl, 22);
            total += self.cycles(BasicOp::HAdd, lvl, 33);
            total += self.cycles(BasicOp::Rescale, lvl, 11);
        }
        for d in 0..3 {
            let lvl = target_level + 3 - d;
            total += self.cycles(BasicOp::Rotation, lvl, 8);
            total += self.cycles(BasicOp::PMult, lvl, 16);
            total += self.cycles(BasicOp::HAdd, lvl, 16);
            total += self.cycles(BasicOp::Rescale, lvl, 1);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon_core::plan::TableCostModel;

    fn model() -> SimCostModel {
        SimCostModel::u280(1 << 12)
    }

    #[test]
    fn keyswitch_ops_dominate_streaming_ops() {
        let m = model();
        let add = m.op_cost(&GraphOp::Add, 6);
        let mul = m.op_cost(&GraphOp::Mul, 6);
        let rot = m.op_cost(&GraphOp::Rotate { steps: 1 }, 6);
        assert!(mul > add, "{mul} vs {add}");
        assert!(rot > add, "{rot} vs {add}");
    }

    #[test]
    fn hoisted_batch_beats_individual_rotations() {
        let m = model();
        let single = m.op_cost(&GraphOp::Rotate { steps: 1 }, 6);
        let batch = m.op_cost(
            &GraphOp::RotateMany {
                steps: vec![1, 2, 3, 4],
            },
            6,
        );
        assert!(batch < 4 * single, "{batch} vs 4x{single}");
        assert!(batch > single, "{batch} vs {single}");
    }

    #[test]
    fn cost_grows_with_level() {
        let m = model();
        assert!(m.op_cost(&GraphOp::Mul, 10) > m.op_cost(&GraphOp::Mul, 2));
        assert!(m.op_cost(&GraphOp::Add, 10) > m.op_cost(&GraphOp::Add, 2));
    }

    #[test]
    fn ordering_agrees_with_the_table_model_on_keyswitch_dominance() {
        // The models disagree on HAdd vs PMult (the sim knows PMult moves
        // *less* HBM traffic and both are bandwidth-bound), but the
        // decision that actually steers tie-breaking — keyswitch-bearing
        // ops cost more than elementwise ops — must hold in both.
        let sim = model();
        let table = TableCostModel::default();
        for cheap in [GraphOp::Add, GraphOp::MulPlain { pt: 0 }] {
            for dear in [GraphOp::Mul, GraphOp::Rotate { steps: 1 }] {
                assert!(
                    sim.op_cost(&cheap, 6) < sim.op_cost(&dear, 6),
                    "sim: {cheap:?} !< {dear:?}"
                );
                assert!(
                    table.op_cost(&cheap, 6) < table.op_cost(&dear, 6),
                    "table: {cheap:?} !< {dear:?}"
                );
            }
        }
    }

    #[test]
    fn bootstrap_is_far_costlier_than_one_multiplication() {
        let m = model();
        let bs = m.bootstrap_cost(4);
        let mul = m.op_cost(&GraphOp::Mul, 4);
        assert!(bs > 20 * mul, "{bs} vs {mul}");
    }
}
