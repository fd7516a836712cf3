//! The simulator driver: executes an operation trace against the timing,
//! energy, and resource models and assembles the per-benchmark report
//! every table/figure regenerator reads from.

use poseidon_core::decompose::{BasicOp, OpTrace};
use poseidon_core::operator::{Operator, OperatorCounts};

use crate::config::AcceleratorConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::timing::{time_op, OpTiming};

/// The modelled outcome of running one trace.
#[derive(Debug, Clone)]
pub struct Report {
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Total HBM bytes moved.
    pub hbm_bytes: u64,
    /// Average bandwidth utilisation over the run (time-weighted).
    pub bandwidth_utilisation: f64,
    /// Per-basic-operation share of wall time (Fig. 8).
    pub time_by_op: Vec<(BasicOp, f64)>,
    /// Per-basic-operation bandwidth utilisation (Table VII).
    pub utilisation_by_op: Vec<(BasicOp, f64)>,
    /// Per-operator cycle totals (Fig. 9).
    pub cycles_by_operator: OperatorCounts,
    /// Total element-operation counts.
    pub operator_counts: OperatorCounts,
    /// Energy breakdown (Fig. 12) and EDP (Table X).
    pub energy: EnergyBreakdown,
}

impl Report {
    /// Total milliseconds (the Table VI metric).
    pub fn millis(&self) -> f64 {
        self.seconds * 1e3
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self) -> f64 {
        self.energy.edp(self.seconds)
    }

    /// Percentage of wall time spent in `op` (0 when unused).
    pub fn time_share_percent(&self, op: BasicOp) -> f64 {
        let t: f64 = self.time_by_op.iter().map(|(_, s)| s).sum();
        if t == 0.0 {
            return 0.0;
        }
        self.time_by_op
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| 100.0 * s / t)
            .unwrap_or(0.0)
    }

    /// Percentage of operator cycles spent in `operator` (Fig. 9).
    pub fn operator_share_percent(&self, operator: Operator) -> f64 {
        let c = self.cycles_by_operator;
        let total = (c.ma + c.mm + c.ntt + c.auto) as f64;
        if total == 0.0 {
            return 0.0;
        }
        100.0 * c.get(operator) as f64 / total
    }
}

/// The analytical simulator: a configuration plus an energy model.
///
/// # Examples
///
/// ```
/// use poseidon_sim::{AcceleratorConfig, Benchmark, Simulator};
/// let sim = Simulator::new(AcceleratorConfig::poseidon_u280());
/// let report = sim.run(&Benchmark::PackedBootstrapping.trace());
/// assert!(report.millis() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: AcceleratorConfig,
    energy: EnergyModel,
}

impl Simulator {
    /// Creates a simulator with the default energy model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        cfg.validate().expect("invalid accelerator configuration");
        Self {
            cfg,
            energy: EnergyModel::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Times a single basic operation (Table IV's per-operation metric).
    pub fn time_single(&self, op: BasicOp, p: &poseidon_core::OpParams) -> OpTiming {
        time_op(op, p, 1, &self.cfg)
    }

    /// Ops/second throughput of a basic operation (Table IV's unit).
    pub fn ops_per_second(&self, op: BasicOp, p: &poseidon_core::OpParams) -> f64 {
        1.0 / self.time_single(op, p).seconds
    }

    /// Runs a trace and assembles the report.
    pub fn run(&self, trace: &OpTrace) -> Report {
        let mut seconds = 0.0f64;
        let mut hbm_bytes = 0u64;
        let mut busy_weighted = 0.0f64;
        let mut time_by_op: Vec<(BasicOp, f64)> = Vec::new();
        let mut util_acc: Vec<(BasicOp, f64, f64)> = Vec::new(); // op, time, busy
        let mut cycles = OperatorCounts::ZERO;
        let mut counts = OperatorCounts::ZERO;

        for (op, params, count) in trace.entries() {
            let t = time_op(*op, params, *count, &self.cfg);
            seconds += t.seconds;
            hbm_bytes += t.hbm_bytes;
            busy_weighted += t.bandwidth_utilisation * t.seconds;
            cycles += t.cycles_by_operator;
            counts += op.operator_counts(params) * *count;
            match time_by_op.iter_mut().find(|(o, _)| o == op) {
                Some((_, acc)) => *acc += t.seconds,
                None => time_by_op.push((*op, t.seconds)),
            }
            match util_acc.iter_mut().find(|(o, _, _)| o == op) {
                Some((_, ts, bs)) => {
                    *ts += t.seconds;
                    *bs += t.bandwidth_utilisation * t.seconds;
                }
                None => util_acc.push((*op, t.seconds, t.bandwidth_utilisation * t.seconds)),
            }
        }

        let utilisation_by_op = util_acc
            .into_iter()
            .map(|(op, ts, bs)| (op, if ts > 0.0 { bs / ts } else { 0.0 }))
            .collect();
        let energy = self.energy.energy(&counts, hbm_bytes, seconds);
        Report {
            seconds,
            hbm_bytes,
            bandwidth_utilisation: if seconds > 0.0 {
                busy_weighted / seconds
            } else {
                0.0
            },
            time_by_op,
            utilisation_by_op,
            cycles_by_operator: cycles,
            operator_counts: counts,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Benchmark;

    fn sim() -> Simulator {
        Simulator::new(AcceleratorConfig::poseidon_u280())
    }

    #[test]
    fn all_benchmarks_complete_with_positive_time() {
        let sim = sim();
        for b in Benchmark::ALL {
            let r = sim.run(&b.trace());
            assert!(r.seconds > 0.0, "{}", b.name());
            assert!(r.hbm_bytes > 0);
            assert!(r.bandwidth_utilisation > 0.0 && r.bandwidth_utilisation <= 1.0);
        }
    }

    #[test]
    fn hfauto_beats_naive_on_every_benchmark() {
        // Table IX's shape: Poseidon-Auto degrades substantially.
        let hf = Simulator::new(AcceleratorConfig::poseidon_u280());
        let naive = Simulator::new(AcceleratorConfig::poseidon_naive_auto());
        for b in Benchmark::ALL {
            let t = b.trace();
            let r_hf = hf.run(&t).seconds;
            let r_naive = naive.run(&t).seconds;
            assert!(r_naive > r_hf, "{}", b.name());
        }
    }

    #[test]
    fn mm_and_ntt_dominate_operator_time() {
        // Fig. 9: MM and NTT take the largest proportion.
        let r = sim().run(&Benchmark::PackedBootstrapping.trace());
        let mm = r.operator_share_percent(poseidon_core::Operator::Mm);
        let ntt = r.operator_share_percent(poseidon_core::Operator::Ntt);
        let ma = r.operator_share_percent(poseidon_core::Operator::Ma);
        let auto = r.operator_share_percent(poseidon_core::Operator::Automorphism);
        assert!(
            mm + ntt > ma + auto,
            "mm={mm} ntt={ntt} ma={ma} auto={auto}"
        );
    }

    #[test]
    fn time_shares_sum_to_hundred() {
        let r = sim().run(&Benchmark::Lstm.trace());
        let sum: f64 = poseidon_core::BasicOp::ALL
            .iter()
            .map(|&op| r.time_share_percent(op))
            .sum();
        assert!((sum - 100.0).abs() < 1e-6, "{sum}");
    }

    #[test]
    fn lane_sweep_shows_saturation_in_edp() {
        // Fig. 11: execution time and EDP improve with lanes, with
        // diminishing returns.
        let t = Benchmark::ResNet20.trace();
        let mut secs = Vec::new();
        for lanes in [64usize, 128, 256, 512] {
            let cfg = AcceleratorConfig {
                lanes,
                ..AcceleratorConfig::poseidon_u280()
            };
            secs.push(Simulator::new(cfg).run(&t).seconds);
        }
        assert!(secs.windows(2).all(|w| w[1] <= w[0] * 1.0001), "{secs:?}");
        let gain_lo = secs[0] / secs[1];
        let gain_hi = secs[2] / secs[3];
        assert!(gain_lo >= gain_hi, "{gain_lo} vs {gain_hi}");
    }

    #[test]
    fn per_op_utilisation_is_bounded() {
        let r = sim().run(&Benchmark::LogisticRegression.trace());
        for (op, u) in &r.utilisation_by_op {
            assert!(*u >= 0.0 && *u <= 1.0, "{}: {u}", op.name());
        }
    }
}
