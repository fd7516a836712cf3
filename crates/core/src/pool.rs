//! The operator pool: one functional core per operator, shared and
//! time-multiplexed — the software analogue of Fig. 2's datapath.
//!
//! Each core performs real arithmetic through the substrate crates and
//! counts how many element operations it has retired. Higher layers (the
//! simulator's functional mode, the examples) execute CKKS dataflows
//! through the pool, so the "operator reuse" claim is observable: the same
//! five cores serve every basic operation.

use he_math::BarrettReducer;
use he_ntt::{FusedNtt, NttTable};
use poseidon_telemetry::{Metric, Snapshot, Span};
use std::collections::HashMap;

use crate::auto::HfAuto;
use crate::operator::{Operator, OperatorCounts};

/// Instance-local metric bundle backing the usage counters. The metrics
/// are *unregistered* so concurrent pools (the default test harness runs
/// pools in parallel) keep exact per-instance counts;
/// [`OperatorPool::snapshot`] exports them under the `pool.*` scope names.
#[derive(Debug, Default)]
struct PoolMetrics {
    ma: Metric,
    mm: Metric,
    ntt: Metric,
    auto: Metric,
    sbt: Metric,
}

impl PoolMetrics {
    fn metric(&self, op: Operator) -> &Metric {
        match op {
            Operator::Ma => &self.ma,
            Operator::Mm => &self.mm,
            Operator::Ntt => &self.ntt,
            Operator::Automorphism => &self.auto,
            Operator::Sbt => &self.sbt,
        }
    }
}

/// A pool of the five operator cores for one `(N, lanes, fusion-k)`
/// configuration, serving any modulus (tables are cached per prime).
///
/// # Examples
///
/// ```
/// use poseidon_core::OperatorPool;
/// let q = he_math::prime::ntt_prime(28, 64).unwrap();
/// let mut pool = OperatorPool::new(32, 8, 3);
/// let a = vec![1u64; 32];
/// let b = vec![5u64; 32];
/// let s = pool.ma(&a, &b, q);
/// assert_eq!(s[0], 6);
/// assert!(pool.usage().ma >= 32);
/// ```
#[derive(Debug)]
pub struct OperatorPool {
    n: usize,
    lanes: usize,
    fusion_k: u32,
    /// Cached per-prime NTT machinery (the twiddle BRAM contents).
    tables: HashMap<u64, (NttTable, FusedNtt)>,
    reducers: HashMap<u64, BarrettReducer>,
    auto: HfAuto,
    metrics: PoolMetrics,
}

impl OperatorPool {
    /// Creates a pool for degree `n`, `lanes` vector lanes, and NTT fusion
    /// degree `fusion_k`.
    ///
    /// # Panics
    ///
    /// Panics if `n`/`lanes` are not powers of two or `fusion_k` is out of
    /// range for `n`.
    pub fn new(n: usize, lanes: usize, fusion_k: u32) -> Self {
        assert!(
            fusion_k >= 1 && fusion_k <= n.trailing_zeros(),
            "bad fusion degree"
        );
        Self {
            n,
            lanes: lanes.min(n),
            fusion_k,
            tables: HashMap::new(),
            reducers: HashMap::new(),
            auto: HfAuto::new(n, lanes.min(n)),
            metrics: PoolMetrics::default(),
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Vector lane width `C`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cumulative element operations retired per operator core: a view
    /// over the pool's instance-local metrics — the same counters
    /// [`snapshot`](Self::snapshot) exports — so the two can never disagree.
    pub fn usage(&self) -> OperatorCounts {
        OperatorCounts {
            ma: self.metrics.ma.items(),
            mm: self.metrics.mm.items(),
            ntt: self.metrics.ntt.items(),
            auto: self.metrics.auto.items(),
            sbt: self.metrics.sbt.items(),
        }
    }

    /// Resets the usage counters.
    pub fn reset_usage(&mut self) {
        for op in Operator::ALL {
            self.metrics.metric(op).reset();
        }
    }

    /// Exports this pool's counters as a snapshot under the `pool.*` scope
    /// names (`pool.ma`, `pool.mm`, `pool.ntt`, `pool.auto`, `pool.sbt`),
    /// with per-core busy time.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_metrics([
            ("pool.ma", &self.metrics.ma),
            ("pool.mm", &self.metrics.mm),
            ("pool.ntt", &self.metrics.ntt),
            ("pool.auto", &self.metrics.auto),
            ("pool.sbt", &self.metrics.sbt),
        ])
    }

    /// Counts `elems` element ops on `op`'s core, untimed.
    fn bump(&self, op: Operator, elems: u64) {
        self.metrics.metric(op).add(elems);
    }

    /// Counts `elems` element ops on `op`'s core; the returned guard times
    /// the enclosing region into the core's metric.
    fn retire(&self, op: Operator, elems: u64) -> Span<'_> {
        self.metrics.metric(op).span(elems)
    }

    fn reducer(&mut self, q: u64) -> BarrettReducer {
        *self
            .reducers
            .entry(q)
            .or_insert_with(|| BarrettReducer::new(q))
    }

    fn ensure_tables(&mut self, q: u64) {
        if !self.tables.contains_key(&q) {
            let table = NttTable::new(self.n, q);
            let fused = FusedNtt::new(&table, self.fusion_k);
            self.tables.insert(q, (table, fused));
        }
    }

    /// MA core: element-wise modular addition.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn ma(&mut self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        let _op = self.retire(Operator::Ma, a.len() as u64);
        a.iter()
            .zip(b)
            .map(|(&x, &y)| he_math::modops::add_mod(x, y, q))
            .collect()
    }

    /// MM core: element-wise modular multiplication through the shared
    /// Barrett reducer (each product issues one SBT).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mm(&mut self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        let red = self.reducer(q);
        let _op = self.retire(Operator::Mm, a.len() as u64);
        self.bump(Operator::Sbt, a.len() as u64);
        a.iter().zip(b).map(|(&x, &y)| red.mul(x, y)).collect()
    }

    /// NTT core: forward transform through the fused radix-2^k kernels.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N` or `q` is not an NTT prime for `N`.
    pub fn ntt(&mut self, data: &mut [u64], q: u64) {
        self.ensure_tables(q);
        let (_, fused) = &self.tables[&q];
        let phases = fused.phases() as u64;
        let _op = self.retire(Operator::Ntt, data.len() as u64 * phases);
        // One shared reduction per element per fused phase.
        self.bump(Operator::Sbt, data.len() as u64 * phases);
        fused.forward(data);
    }

    /// INTT core (inverse transform; same counting as forward).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N` or `q` is not an NTT prime for `N`.
    pub fn intt(&mut self, data: &mut [u64], q: u64) {
        self.ensure_tables(q);
        let (table, fused) = &self.tables[&q];
        let phases = fused.phases() as u64;
        let _op = self.retire(Operator::Ntt, data.len() as u64 * phases);
        self.bump(Operator::Sbt, data.len() as u64 * phases);
        table.inverse(data);
    }

    /// Automorphism core (HFAuto schedule).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != N` or `g` is even.
    pub fn automorphism(&mut self, data: &[u64], g: u64, q: u64) -> Vec<u64> {
        let _op = self.retire(Operator::Automorphism, data.len() as u64);
        self.bump(Operator::Sbt, data.len() as u64); // sign comparisons
        self.auto.apply(data, g, q)
    }

    /// Automorphism core in evaluation-domain mode: the Galois map on an
    /// NTT-form residue vector is a pure index permutation (see
    /// [`he_ntt::galois_permutation`]), so the core retires the same
    /// element count as the coefficient-domain path but issues **no** SBT
    /// traffic — there is no sign logic to evaluate. This is the datapath
    /// the hoisted rotation engine drives.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != perm.len()`.
    pub fn automorphism_eval(&mut self, data: &[u64], perm: &[usize]) -> Vec<u64> {
        assert_eq!(data.len(), perm.len(), "permutation length mismatch");
        let _op = self.retire(Operator::Automorphism, data.len() as u64);
        perm.iter().map(|&k| data[k]).collect()
    }

    /// Negacyclic polynomial product through the pooled cores: NTT both
    /// inputs, MM pointwise, INTT back — the PMult datapath.
    ///
    /// # Panics
    ///
    /// Panics if operand lengths differ from `N`.
    pub fn poly_mul(&mut self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.ntt(&mut fa, q);
        self.ntt(&mut fb, q);
        let mut prod = self.mm(&fa, &fb, q);
        self.intt(&mut prod, q);
        prod
    }

    /// MA core with an ABFT sum-invariant verified at the retire boundary.
    ///
    /// While the adder computes `c_i = a_i + b_i − w_i·q` it also counts
    /// the wraps `w = Σ w_i`; at retire the exact (u128) identity
    /// `Σ c_i + w·q = Σ a_i + Σ b_i` is re-checked against the output
    /// buffer as written back. Any single-word corruption of the result —
    /// a flipped bit `2^j` with `j` below the prime's width is never a
    /// multiple of `q` — breaks the identity, so single-residue faults at
    /// this boundary are detected with certainty, at the cost of two
    /// u128 accumulations per element instead of a duplicate execution.
    ///
    /// With an armed `RnsResidue` plan, the
    /// output buffer is tampered between compute and retire — the model
    /// of a writeback-path upset.
    ///
    /// Returns `None` when the retire invariant fails; the caller answers
    /// that through [`he_ckks::integrity::retry_once`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn ma_checked(&mut self, a: &[u64], b: &[u64], q: u64) -> Option<Vec<u64>> {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        let _op = self.retire(Operator::Ma, a.len() as u64);
        let mut wraps: u128 = 0;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let s = x as u128 + y as u128;
            if s >= q as u128 {
                wraps += 1;
                out.push((s - q as u128) as u64);
            } else {
                out.push(s as u64);
            }
        }
        poseidon_faults::tamper(poseidon_faults::FaultSite::RnsResidue, &mut out);
        let sum_in: u128 = a.iter().zip(b).map(|(&x, &y)| x as u128 + y as u128).sum();
        let sum_out: u128 = out.iter().map(|&v| v as u128).sum();
        (sum_out + wraps * q as u128 == sum_in).then_some(out)
    }

    /// MA core in subtract mode with the retire-boundary sum invariant:
    /// `Σ c_i = Σ a_i − Σ b_i + w·q` with `w` the borrow count. See
    /// [`ma_checked`](Self::ma_checked).
    ///
    /// Returns `None` when the invariant fails.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn sub_checked(&mut self, a: &[u64], b: &[u64], q: u64) -> Option<Vec<u64>> {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        let _op = self.retire(Operator::Ma, a.len() as u64);
        let mut borrows: i128 = 0;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            if x >= y {
                out.push(x - y);
            } else {
                borrows += 1;
                out.push(x + q - y);
            }
        }
        poseidon_faults::tamper(poseidon_faults::FaultSite::RnsResidue, &mut out);
        let sum_a: i128 = a.iter().map(|&v| v as i128).sum();
        let sum_b: i128 = b.iter().map(|&v| v as i128).sum();
        let sum_out: i128 = out.iter().map(|&v| v as i128).sum();
        (sum_out == sum_a - sum_b + borrows * q as i128).then_some(out)
    }

    /// MA core in subtract mode (hardware MA handles add and subtract via
    /// operand negation on the same datapath).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn sub(&mut self, a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "operand length mismatch");
        let _op = self.retire(Operator::Ma, a.len() as u64);
        a.iter()
            .zip(b)
            .map(|(&x, &y)| he_math::modops::sub_mod(x, y, q))
            .collect()
    }

    /// MM core in vector-scalar mode (the RNSconv cascade of Fig. 4 feeds
    /// one scalar operand per prime).
    pub fn mm_scalar(&mut self, a: &[u64], s: u64, q: u64) -> Vec<u64> {
        let red = self.reducer(q);
        let s = s % q;
        let _op = self.retire(Operator::Mm, a.len() as u64);
        self.bump(Operator::Sbt, a.len() as u64);
        a.iter().map(|&x| red.mul(x, s)).collect()
    }

    /// MA core in accumulate mode: `acc += a (mod q)`, in place.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn ma_acc(&mut self, acc: &mut [u64], a: &[u64], q: u64) {
        assert_eq!(acc.len(), a.len(), "operand length mismatch");
        let _op = self.retire(Operator::Ma, a.len() as u64);
        for (x, &y) in acc.iter_mut().zip(a) {
            *x = he_math::modops::add_mod(*x, y, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: usize) -> u64 {
        he_math::prime::ntt_prime(28, 2 * n as u64).unwrap()
    }

    #[test]
    fn cores_compute_correct_arithmetic() {
        let n = 32;
        let q = q(n);
        let mut pool = OperatorPool::new(n, 8, 3);
        let a: Vec<u64> = (0..n as u64).map(|i| i % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 3) % q).collect();
        let s = pool.ma(&a, &b, q);
        for i in 0..n {
            assert_eq!(s[i], he_math::modops::add_mod(a[i], b[i], q));
        }
        let m = pool.mm(&a, &b, q);
        for i in 0..n {
            assert_eq!(m[i], he_math::modops::mul_mod(a[i], b[i], q));
        }
    }

    #[test]
    fn poly_mul_matches_schoolbook() {
        let n = 32;
        let q = q(n);
        let mut pool = OperatorPool::new(n, 8, 3);
        let a: Vec<u64> = (0..n as u64).map(|i| (i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * i + 2) % q).collect();
        assert_eq!(
            pool.poly_mul(&a, &b, q),
            he_ntt::naive::negacyclic_mul_schoolbook(&a, &b, q)
        );
    }

    #[test]
    fn usage_counters_accumulate_across_operations() {
        let n = 64;
        let q = q(n);
        let mut pool = OperatorPool::new(n, 8, 3);
        let a = vec![1u64; n];
        let _ = pool.ma(&a, &a, q);
        let _ = pool.mm(&a, &a, q);
        let _ = pool.automorphism(&a, 3, q);
        let u = pool.usage();
        assert_eq!(u.ma, 64);
        assert_eq!(u.mm, 64);
        assert_eq!(u.auto, 64);
        // SBT serves both MM and automorphism sign logic.
        assert_eq!(u.sbt, 128);
        pool.reset_usage();
        assert_eq!(pool.usage(), OperatorCounts::ZERO);
    }

    #[test]
    fn ntt_usage_counts_fused_phases() {
        let n = 64; // log2 = 6, k = 3 → 2 fused phases
        let q = q(n);
        let mut pool = OperatorPool::new(n, 8, 3);
        let mut d = vec![1u64; n];
        pool.ntt(&mut d, q);
        assert_eq!(pool.usage().ntt, 64 * 2);
    }

    #[test]
    fn tables_are_cached_per_prime() {
        let n = 32;
        let mut pool = OperatorPool::new(n, 8, 3);
        let primes = he_math::prime::ntt_prime_chain(28, 2 * n as u64, 2);
        let mut d = vec![1u64; n];
        pool.ntt(&mut d, primes[0]);
        pool.ntt(&mut d, primes[1]);
        pool.ntt(&mut d, primes[0]);
        assert_eq!(pool.tables.len(), 2);
    }
}
