//! Operation → operator decomposition (paper §II-A, Table I, Fig. 7).
//!
//! Each CKKS basic operation is expressed as element-level counts of the
//! five operators, parameterised by the ring degree `N`, the number of
//! live RNS components `L+1`, and the special-basis size `k`. The counting
//! conventions follow the hardware dataflow (Fig. 2):
//!
//! * Ciphertexts are resident in **evaluation (NTT) form**, so HAdd is pure
//!   MA and PMult is pure MM (exactly Fig. 7's composition).
//! * Keyswitch pays the NTT/INTT traffic: INTT of the switched polynomial,
//!   per-digit lifts re-transformed into the extended basis, the key
//!   products, and the Moddown conversions (Eq. 1–3).
//! * One SBT is issued per MM and per NTT butterfly stage-element — the
//!   shared-reduction accounting that motivates the SBT core.

use crate::operator::{Operator, OperatorCounts};

/// Ring/chain parameters an operation executes under.
///
/// # Examples
///
/// ```
/// use poseidon_core::{BasicOp, OpParams};
/// let p = OpParams::new(1 << 13, 6, 1);
/// let c = BasicOp::HAdd.operator_counts(&p);
/// assert!(c.ma > 0 && c.mm == 0); // HAdd is pure MA (Fig. 7)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpParams {
    /// Ring degree `N`.
    pub n: usize,
    /// Live RNS components (`level + 1`).
    pub components: usize,
    /// Special-basis size `k` (keyswitching).
    pub special: usize,
    /// Keyswitching digit count. The paper's classic procedure (Eq. 1–3)
    /// extends the whole polynomial at once — `dnum = 1`; the software
    /// library's decomposition, α = `special_len` chain primes per digit,
    /// corresponds to `dnum = ⌈components/α⌉`.
    pub dnum: usize,
}

impl OpParams {
    /// Creates parameters with the paper's single-digit keyswitching.
    ///
    /// # Panics
    ///
    /// Panics on a zero field or non-power-of-two `n`.
    pub fn new(n: usize, components: usize, special: usize) -> Self {
        Self::with_dnum(n, components, special, 1)
    }

    /// Creates parameters with an explicit keyswitching digit count.
    ///
    /// # Panics
    ///
    /// Panics on a zero field, non-power-of-two `n`, or `dnum` exceeding
    /// `components`.
    pub fn with_dnum(n: usize, components: usize, special: usize, dnum: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 8,
            "n must be a power of two ≥ 8"
        );
        assert!(components >= 1, "at least one RNS component");
        assert!(special >= 1, "at least one special prime");
        assert!(
            dnum >= 1 && dnum <= components,
            "dnum must be in 1..=components"
        );
        Self {
            n,
            components,
            special,
            dnum,
        }
    }

    fn n64(&self) -> u64 {
        self.n as u64
    }

    fn l(&self) -> u64 {
        self.components as u64
    }

    fn k(&self) -> u64 {
        self.special as u64
    }

    /// Element count of one full NTT at this degree: `N·log2(N)` butterfly
    /// element-phases.
    fn ntt_elems(&self) -> u64 {
        self.n64() * self.n.trailing_zeros() as u64
    }
}

/// A CKKS basic operation (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasicOp {
    /// Homomorphic addition (ciphertext + ciphertext).
    HAdd,
    /// Plaintext multiplication.
    PMult,
    /// Ciphertext multiplication with relinearisation.
    CMult,
    /// Rescale by the last chain prime.
    Rescale,
    /// Keyswitch of one polynomial (the primitive inside CMult/Rotation).
    Keyswitch,
    /// Slot rotation: automorphism + keyswitch.
    Rotation,
    /// Modup: basis extension `Q → Q ∪ P` (Eq. 3).
    Modup,
    /// Moddown: scaled reduction `Q ∪ P → Q` (Eq. 2).
    Moddown,
}

impl BasicOp {
    /// Operations in the order the paper's tables list them.
    pub const ALL: [BasicOp; 8] = [
        BasicOp::Modup,
        BasicOp::Moddown,
        BasicOp::HAdd,
        BasicOp::PMult,
        BasicOp::CMult,
        BasicOp::Rotation,
        BasicOp::Keyswitch,
        BasicOp::Rescale,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            BasicOp::HAdd => "HAdd",
            BasicOp::PMult => "PMult",
            BasicOp::CMult => "CMult",
            BasicOp::Rescale => "Rescale",
            BasicOp::Keyswitch => "Keyswitch",
            BasicOp::Rotation => "Rotation",
            BasicOp::Modup => "Modup",
            BasicOp::Moddown => "Moddown",
        }
    }

    /// Element-level operator counts for this operation under `p`.
    pub fn operator_counts(&self, p: &OpParams) -> OperatorCounts {
        let n = p.n64();
        let l = p.l();
        let k = p.k();
        let ntt1 = p.ntt_elems(); // one transform
        match self {
            // Two components, element-wise adds across all live primes.
            BasicOp::HAdd => OperatorCounts {
                ma: 2 * l * n,
                ..OperatorCounts::ZERO
            },
            // Two components, element-wise multiplies (eval-resident).
            BasicOp::PMult => with_sbt(OperatorCounts {
                mm: 2 * l * n,
                ..OperatorCounts::ZERO
            }),
            // d0,d1,d2 tensor (4 MM + 1 MA vectors) + relinearise d2 +
            // folding the switched pair back in (2 MA vectors).
            BasicOp::CMult => {
                let tensor = OperatorCounts {
                    mm: 4 * l * n,
                    ma: l * n,
                    ..OperatorCounts::ZERO
                };
                let fold = OperatorCounts {
                    ma: 2 * l * n,
                    ..OperatorCounts::ZERO
                };
                with_sbt(tensor) + BasicOp::Keyswitch.operator_counts(p) + fold
            }
            // INTT both components, subtract + scale on l−1 primes, NTT
            // back (counted even at l = 1 as the boundary transform pair).
            BasicOp::Rescale => {
                let lm1 = l.saturating_sub(1).max(1);
                with_sbt(OperatorCounts {
                    ntt: 2 * ntt1 * l + 2 * ntt1 * lm1,
                    ma: 2 * lm1 * n,
                    mm: 2 * lm1 * n,
                    ..OperatorCounts::ZERO
                })
            }
            // INTT the switched poly (l primes); per digit: basis-extend +
            // NTT in the extended basis (l+k primes), two key MM vectors;
            // accumulate MA; then Moddown for both output components.
            BasicOp::Keyswitch => {
                let d = p.dnum as u64;
                let per_digit = OperatorCounts {
                    ntt: (l + k) * ntt1,
                    mm: 2 * (l + k) * n,
                    ma: 2 * (l + k) * n,
                    ..OperatorCounts::ZERO
                };
                let intt_in = OperatorCounts {
                    ntt: l * ntt1,
                    ..OperatorCounts::ZERO
                };
                with_sbt(intt_in + per_digit * d) + BasicOp::Moddown.operator_counts(p) * 2
            }
            // Automorphism on both components + the keyswitch.
            BasicOp::Rotation => {
                let auto = OperatorCounts {
                    auto: 2 * l * n,
                    // One sign comparison/reduction per mapped element.
                    sbt: 2 * l * n,
                    ..OperatorCounts::ZERO
                };
                auto + BasicOp::Keyswitch.operator_counts(p)
            }
            // RNSconv Q → P (Eq. 1): per source prime one scalar MM vector,
            // per target prime an accumulate (MM+MA); plus the transforms.
            BasicOp::Modup => with_sbt(OperatorCounts {
                ntt: k * ntt1 + l * ntt1,
                mm: l * n + l * k * n,
                ma: l * k * n,
                ..OperatorCounts::ZERO
            }),
            // Eq. 2: RNSconv P → Q, subtract, scale by P⁻¹, retransform.
            BasicOp::Moddown => with_sbt(OperatorCounts {
                ntt: (l + k) * ntt1,
                mm: k * n + k * l * n + l * n,
                ma: k * l * n + l * n,
                ..OperatorCounts::ZERO
            }),
        }
    }

    /// The Table I row: which operators this operation exercises.
    pub fn uses(&self, p: &OpParams) -> Vec<(Operator, bool)> {
        let c = self.operator_counts(p);
        Operator::ALL.iter().map(|&op| (op, c.uses(op))).collect()
    }
}

/// Adds the SBT issue count: one shared Barrett reduction per MM and per
/// NTT element-phase (the sharing the paper's SBT core exploits).
fn with_sbt(mut c: OperatorCounts) -> OperatorCounts {
    c.sbt += c.mm + c.ntt;
    c
}

/// A benchmark-level operation stream: basic operations with multiplicity,
/// each tagged with the component count it executes at.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpTrace {
    entries: Vec<(BasicOp, OpParams, u64)>,
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `count` instances of `op` under `params`.
    pub fn push(&mut self, op: BasicOp, params: OpParams, count: u64) {
        if count > 0 {
            self.entries.push((op, params, count));
        }
    }

    /// The raw entries.
    pub fn entries(&self) -> &[(BasicOp, OpParams, u64)] {
        &self.entries
    }

    /// Total operator counts over the whole trace.
    pub fn operator_counts(&self) -> OperatorCounts {
        self.entries
            .iter()
            .fold(OperatorCounts::ZERO, |acc, (op, p, c)| {
                acc + op.operator_counts(p) * *c
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> OpParams {
        OpParams::new(1 << 13, 6, 1)
    }

    #[test]
    fn table1_checkmark_pattern() {
        // Fig. 7 / Table I: HAdd is MA-only; PMult is MM-only (plus its
        // shared reductions); Rotation uses all operators.
        let p = p();
        let hadd = BasicOp::HAdd.operator_counts(&p);
        assert!(hadd.uses(Operator::Ma));
        assert!(
            !hadd.uses(Operator::Mm)
                && !hadd.uses(Operator::Ntt)
                && !hadd.uses(Operator::Automorphism)
        );

        let pmult = BasicOp::PMult.operator_counts(&p);
        assert!(pmult.uses(Operator::Mm) && pmult.uses(Operator::Sbt));
        assert!(!pmult.uses(Operator::Ma) && !pmult.uses(Operator::Automorphism));

        let rot = BasicOp::Rotation.operator_counts(&p);
        for op in Operator::ALL {
            assert!(rot.uses(op), "Rotation must use {op}");
        }

        let ks = BasicOp::Keyswitch.operator_counts(&p);
        assert!(ks.uses(Operator::Ntt) && ks.uses(Operator::Mm) && ks.uses(Operator::Ma));
        assert!(!ks.uses(Operator::Automorphism));
    }

    #[test]
    fn keyswitch_is_ntt_dominated() {
        // Fig. 9: NTT takes the largest share of Keyswitch time.
        let c = BasicOp::Keyswitch.operator_counts(&p());
        assert!(c.ntt > c.mm && c.ntt > c.ma, "{c:?}");
    }

    #[test]
    fn cmult_contains_keyswitch() {
        let p = p();
        let cm = BasicOp::CMult.operator_counts(&p);
        let ks = BasicOp::Keyswitch.operator_counts(&p);
        for op in Operator::ALL {
            assert!(cm.get(op) >= ks.get(op), "{op}");
        }
    }

    #[test]
    fn counts_scale_linearly_with_components() {
        let p2 = OpParams::new(1 << 13, 2, 1);
        let p4 = OpParams::new(1 << 13, 4, 1);
        let h2 = BasicOp::HAdd.operator_counts(&p2);
        let h4 = BasicOp::HAdd.operator_counts(&p4);
        assert_eq!(h4.ma, 2 * h2.ma);
    }

    #[test]
    fn trace_aggregates() {
        let p = p();
        let mut t = OpTrace::new();
        t.push(BasicOp::HAdd, p, 3);
        t.push(BasicOp::PMult, p, 2);
        t.push(BasicOp::HAdd, p, 1);
        let total = t.operator_counts();
        assert_eq!(total.ma, BasicOp::HAdd.operator_counts(&p).ma * 4);
    }

    #[test]
    fn sbt_matches_mm_plus_ntt_for_pmult() {
        let c = BasicOp::PMult.operator_counts(&p());
        assert_eq!(c.sbt, c.mm + c.ntt);
    }
}
