//! Per-operation compute-cycle and HBM-traffic model.
//!
//! Compute: every operator core retires `lanes` element operations per
//! cycle when fed; an operation's compute cycles are the sum over
//! operators of `ceil(elements / lanes)`, with NTT phase counts scaled by
//! the fusion degree and the automorphism cost depending on the core
//! flavour (HFAuto: 4 C-wide stages per vector; naive: 1 element/cycle).
//!
//! Traffic: compulsory HBM words per operation (operand reads, key reads,
//! result writes), discounted when the working set fits the scratchpad
//! (temporal reuse) and inflated when it spills.
//!
//! Wall time = `max(compute_time, traffic / effective_bandwidth)` — the
//! overlap assumption of a double-buffered streaming design.

use poseidon_core::decompose::{BasicOp, OpParams};
use poseidon_core::operator::OperatorCounts;

use crate::config::{AcceleratorConfig, AutoMode};

/// Timing/traffic outcome for one (possibly repeated) basic operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Compute cycles (all repetitions).
    pub compute_cycles: u64,
    /// HBM bytes moved (all repetitions).
    pub hbm_bytes: u64,
    /// Wall-clock seconds under the overlap model.
    pub seconds: f64,
    /// Fraction of the op's wall time the HBM was busy (bandwidth
    /// utilisation, Table VII's quantity).
    pub bandwidth_utilisation: f64,
    /// Per-operator cycle breakdown (for Fig. 9).
    pub cycles_by_operator: OperatorCounts,
}

/// Computes cycles spent per operator for `counts` element operations.
pub fn cycles_by_operator(
    counts: &OperatorCounts,
    p: &OpParams,
    cfg: &AcceleratorConfig,
) -> OperatorCounts {
    let lanes = cfg.lanes as u64;
    let div = |x: u64| x.div_ceil(lanes);
    // NTT counts are element-phases for the *radix-2* formulation
    // (N·log2 N); fusion executes k radix-2 stages per pass, so the
    // fused machine needs elements·phases(k)/log2(N) per-element work.
    let log_n = p.n.trailing_zeros() as u64;
    let k = cfg.ntt_fusion_k as u64;
    let fused_phases = log_n.div_ceil(k);
    let ntt_fused_elems = counts.ntt * fused_phases / log_n.max(1);
    // Automorphism: HFAuto moves C elements per step through 4 stages
    // (4·N/C steps per length-N vector ⇒ 4 cycles per C elements);
    // the naive core maps one element per cycle.
    let auto_cycles = match cfg.auto_mode {
        AutoMode::HfAuto => 4 * counts.auto.div_ceil(lanes),
        AutoMode::Naive => counts.auto,
    };
    OperatorCounts {
        ma: div(counts.ma),
        mm: div(counts.mm),
        ntt: div(ntt_fused_elems),
        auto: auto_cycles,
        // SBT is fused into the MM/NTT/sign pipelines — no extra cycles,
        // recorded as zero so totals do not double-count.
        sbt: 0,
    }
}

/// Compulsory HBM words for one instance of `op` (reads + writes),
/// including keyswitching key streams, before scratchpad adjustment.
pub(crate) fn hbm_words(op: BasicOp, p: &OpParams) -> u64 {
    let n = p.n as u64;
    let l = p.components as u64;
    let k = p.special as u64;
    let ct = 2 * l * n; // one ciphertext at this level
    let key_stream = 2 * p.dnum as u64 * (l + k) * n; // per-digit key pairs
    match op {
        BasicOp::HAdd => 2 * ct + ct,               // read 2 cts, write 1
        BasicOp::PMult => ct + l * n + ct,          // ct + plaintext + out
        BasicOp::CMult => 2 * ct + key_stream + ct, // cts + relin keys + out
        BasicOp::Rescale => ct + 2 * (l.saturating_sub(1).max(1)) * n,
        BasicOp::Keyswitch => l * n + key_stream + ct, // poly + keys + out pair
        BasicOp::Rotation => ct + key_stream + ct,     // ct + galois keys + out
        BasicOp::Modup => l * n + (l + k) * n,
        BasicOp::Moddown => (l + k) * n + l * n,
    }
}

/// Scratchpad adjustment: operations whose working set fits enjoy reuse
/// (keys stream regardless); spilling working sets re-fetch a fraction.
fn scratchpad_factor(op: BasicOp, p: &OpParams, cfg: &AcceleratorConfig) -> f64 {
    let working_set = 2 * p.components as u64 * p.n as u64 * cfg.word_bytes;
    if working_set <= cfg.scratchpad_bytes {
        // Rescale and the conversions iterate over resident data (the
        // paper's "frequent reuse of the small-scale data" for Rescale).
        match op {
            BasicOp::Rescale | BasicOp::Modup | BasicOp::Moddown => 0.6,
            _ => 1.0,
        }
    } else {
        let over = working_set as f64 / cfg.scratchpad_bytes as f64;
        1.0 + 0.5 * (over - 1.0).min(2.0)
    }
}

/// Times `count` instances of `op` under `p` on `cfg`.
pub fn time_op(op: BasicOp, p: &OpParams, count: u64, cfg: &AcceleratorConfig) -> OpTiming {
    let counts = op.operator_counts(p);
    let per_op_cycles = cycles_by_operator(&counts, p, cfg);
    let compute_cycles_one =
        per_op_cycles.ma + per_op_cycles.mm + per_op_cycles.ntt + per_op_cycles.auto;
    let words = (hbm_words(op, p) as f64 * scratchpad_factor(op, p, cfg)) as u64;
    let bytes_one = words * cfg.word_bytes;

    let compute_cycles = compute_cycles_one * count;
    let hbm_bytes = bytes_one * count;
    let compute_secs = compute_cycles as f64 / cfg.clock_hz;
    let traffic_secs = hbm_bytes as f64 / cfg.effective_bandwidth();
    let seconds = compute_secs.max(traffic_secs);
    let bandwidth_utilisation = if seconds > 0.0 {
        (traffic_secs / seconds).min(1.0)
    } else {
        0.0
    };
    OpTiming {
        compute_cycles,
        hbm_bytes,
        seconds,
        bandwidth_utilisation,
        cycles_by_operator: per_op_cycles * count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> OpParams {
        OpParams::new(1 << 16, 44, 2)
    }

    #[test]
    fn streaming_ops_are_bandwidth_bound() {
        // Paper Table VII: HAdd/PMult utilisation near 100 %.
        let cfg = AcceleratorConfig::poseidon_u280();
        let hadd = time_op(BasicOp::HAdd, &p(), 1, &cfg);
        assert!(hadd.bandwidth_utilisation > 0.9, "{hadd:?}");
        let pm = time_op(BasicOp::PMult, &p(), 1, &cfg);
        assert!(pm.bandwidth_utilisation > 0.9, "{pm:?}");
    }

    #[test]
    fn rescale_is_compute_bound() {
        // Paper Table VII: Rescale has the lowest utilisation.
        let cfg = AcceleratorConfig::poseidon_u280();
        let rs = time_op(BasicOp::Rescale, &p(), 1, &cfg);
        let hadd = time_op(BasicOp::HAdd, &p(), 1, &cfg);
        assert!(
            rs.bandwidth_utilisation < hadd.bandwidth_utilisation,
            "{} vs {}",
            rs.bandwidth_utilisation,
            hadd.bandwidth_utilisation
        );
    }

    #[test]
    fn naive_auto_slows_rotation() {
        // Paper Table IX: an order of magnitude on auto-heavy paths.
        let cfg_hf = AcceleratorConfig::poseidon_u280();
        let cfg_naive = AcceleratorConfig::poseidon_naive_auto();
        let hf = time_op(BasicOp::Rotation, &p(), 1, &cfg_hf);
        let naive = time_op(BasicOp::Rotation, &p(), 1, &cfg_naive);
        assert!(naive.seconds > hf.seconds);
        assert!(naive.cycles_by_operator.auto > 64 * hf.cycles_by_operator.auto);
    }

    #[test]
    fn time_scales_linearly_with_count() {
        let cfg = AcceleratorConfig::poseidon_u280();
        let one = time_op(BasicOp::CMult, &p(), 1, &cfg);
        let ten = time_op(BasicOp::CMult, &p(), 10, &cfg);
        assert!((ten.seconds / one.seconds - 10.0).abs() < 1e-9);
        assert_eq!(ten.hbm_bytes, 10 * one.hbm_bytes);
    }

    #[test]
    fn more_lanes_reduce_compute_until_bandwidth_bound() {
        // Fig. 11's saturation behaviour.
        let p = p();
        let mut prev = f64::INFINITY;
        let mut times = Vec::new();
        for lanes in [64usize, 128, 256, 512] {
            let cfg = AcceleratorConfig {
                lanes,
                ..AcceleratorConfig::poseidon_u280()
            };
            let t = time_op(BasicOp::CMult, &p, 1, &cfg).seconds;
            assert!(t <= prev * 1.0001, "lanes={lanes}");
            prev = t;
            times.push(t);
        }
        // Speedup from 64→128 must exceed speedup from 256→512 (diminishing
        // returns as the op becomes bandwidth-bound).
        let gain_lo = times[0] / times[1];
        let gain_hi = times[2] / times[3];
        assert!(gain_lo >= gain_hi, "{gain_lo} vs {gain_hi}");
    }

    #[test]
    fn fused_ntt_reduces_cycles() {
        let p = p();
        let cfg_k1 = AcceleratorConfig {
            ntt_fusion_k: 1,
            ..AcceleratorConfig::poseidon_u280()
        };
        let cfg_k3 = AcceleratorConfig::poseidon_u280();
        let ks1 = time_op(BasicOp::Keyswitch, &p, 1, &cfg_k1);
        let ks3 = time_op(BasicOp::Keyswitch, &p, 1, &cfg_k3);
        assert!(ks3.compute_cycles < ks1.compute_cycles);
    }
}
