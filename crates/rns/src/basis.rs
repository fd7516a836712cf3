//! RNS bases: ordered prime sets with transform tables and conversion
//! constants.

use std::ops::Range;
use std::sync::Arc;

use he_math::modops::inv_mod_prime;
use he_math::prime::ntt_prime_chain;
use he_math::{BarrettReducer, BigUint};
use he_ntt::NttTable;

/// An ordered RNS basis `{q_0, …, q_{L}}` of NTT primes for ring degree `N`.
///
/// Bases are cheap to clone (`Arc` shared tables) and sliceable: a basis
/// holding the full modulus chain yields level-truncated sub-bases via
/// [`prefix`], keyswitching builds the extended basis `Q ∪ P` via
/// [`concat`], and Moddown takes `P` back out of it via [`range`].
///
/// [`prefix`]: Self::prefix
/// [`concat`]: Self::concat
/// [`range`]: Self::range
///
/// # Examples
///
/// ```
/// use he_rns::RnsBasis;
/// let basis = RnsBasis::generate(64, 30, 4);
/// assert_eq!(basis.len(), 4);
/// let lower = basis.prefix(2);
/// assert_eq!(lower.primes(), &basis.primes()[..2]);
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    n: usize,
    primes: Vec<u64>,
    tables: Vec<Arc<NttTable>>,
    reducers: Vec<BarrettReducer>,
}

impl RnsBasis {
    /// Builds a basis from explicit primes (each must satisfy
    /// `q ≡ 1 mod 2N` and be distinct).
    ///
    /// # Panics
    ///
    /// Panics on duplicate primes or primes unfit for the negacyclic NTT at
    /// degree `n`.
    pub fn new(n: usize, primes: Vec<u64>) -> Self {
        let mut seen = primes.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), primes.len(), "primes must be distinct");
        let tables: Vec<Arc<NttTable>> = primes
            .iter()
            .map(|&q| Arc::new(NttTable::new(n, q)))
            .collect();
        let reducers = primes.iter().map(|&q| BarrettReducer::new(q)).collect();
        Self {
            n,
            primes,
            tables,
            reducers,
        }
    }

    /// Generates a basis of `count` primes of the given bit size suitable
    /// for degree `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// let b = he_rns::RnsBasis::generate(32, 28, 2);
    /// assert!(b.primes().iter().all(|&q| q < (1 << 28)));
    /// ```
    pub fn generate(n: usize, bits: u32, count: usize) -> Self {
        Self::new(n, ntt_prime_chain(bits, 2 * n as u64, count))
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of primes in the basis.
    #[inline]
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// Whether the basis is empty (never true for constructed bases).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// The primes, in order.
    #[inline]
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Per-prime NTT tables.
    #[inline]
    pub fn tables(&self) -> &[Arc<NttTable>] {
        &self.tables
    }

    /// Per-prime Barrett reducers (the software SBT).
    #[inline]
    pub fn reducers(&self) -> &[BarrettReducer] {
        &self.reducers
    }

    /// The product `Q` of all primes, as a big integer.
    pub fn modulus_product(&self) -> BigUint {
        let mut q = BigUint::one();
        for &p in &self.primes {
            q.mul_u64_assign(p);
        }
        q
    }

    /// The sub-basis of the first `count` primes (sharing tables).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the basis length.
    pub fn prefix(&self, count: usize) -> RnsBasis {
        assert!(count >= 1 && count <= self.len(), "invalid prefix length");
        self.range(0..count)
    }

    /// The sub-basis of the primes at `range` (sharing tables) — what
    /// Moddown uses to address the `P` half of an extended basis `Q ∪ P`
    /// without building a table.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or reaches past the basis length.
    pub fn range(&self, range: Range<usize>) -> RnsBasis {
        assert!(
            range.start < range.end && range.end <= self.len(),
            "invalid sub-basis range"
        );
        Self {
            n: self.n,
            primes: self.primes[range.clone()].to_vec(),
            tables: self.tables[range.clone()].to_vec(),
            reducers: self.reducers[range].to_vec(),
        }
    }

    /// Concatenation `self ∪ other` (sharing tables) — the extended basis
    /// used by Modup.
    ///
    /// # Panics
    ///
    /// Panics if ring degrees differ or a prime appears in both bases.
    pub fn concat(&self, other: &RnsBasis) -> RnsBasis {
        assert_eq!(self.n, other.n, "ring degrees must match");
        let mut primes = self.primes.clone();
        for &p in &other.primes {
            assert!(!primes.contains(&p), "bases must be disjoint");
            primes.push(p);
        }
        let mut tables = self.tables.clone();
        tables.extend(other.tables.iter().cloned());
        let mut reducers = self.reducers.clone();
        reducers.extend(other.reducers.iter().copied());
        Self {
            n: self.n,
            primes,
            tables,
            reducers,
        }
    }

    /// `q̂_j = Q / q_j mod q_j` for each `j` — the CRT "hat" residues.
    fn qhat_mod_self(&self) -> Vec<u64> {
        (0..self.len())
            .map(|j| {
                let qj = self.primes[j];
                let mut acc = 1u64;
                for (i, &qi) in self.primes.iter().enumerate() {
                    if i != j {
                        acc = self.reducers[j].mul(acc, qi % qj);
                    }
                }
                acc
            })
            .collect()
    }

    /// `q̂_j⁻¹ mod q_j` for each `j` — the first multiplier of RNSconv.
    pub fn qhat_inv_mod_self(&self) -> Vec<u64> {
        self.qhat_mod_self()
            .iter()
            .zip(&self.primes)
            .map(|(&h, &q)| inv_mod_prime(h, q).expect("hat residues are units"))
            .collect()
    }

    /// `q̂_j mod p_i` for each `(i, j)` of a *target* basis — row-major
    /// `target.len() × self.len()` — the second multiplier of RNSconv.
    pub fn qhat_mod_other(&self, target: &RnsBasis) -> Vec<Vec<u64>> {
        target
            .primes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let red = &target.reducers[i];
                (0..self.len())
                    .map(|j| {
                        let mut acc = 1u64;
                        for (jj, &qj) in self.primes.iter().enumerate() {
                            if jj != j {
                                acc = red.mul(acc, qj % p);
                            }
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }

    /// `Q mod p_i` for each prime of a target basis.
    pub fn product_mod_other(&self, target: &RnsBasis) -> Vec<u64> {
        target
            .primes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let red = &target.reducers[i];
                self.primes.iter().fold(1u64, |acc, &q| red.mul(acc, q % p))
            })
            .collect()
    }

    /// `Q⁻¹ mod p_i` for each prime of a target basis (needed by Moddown).
    pub fn product_inv_mod_other(&self, target: &RnsBasis) -> Vec<u64> {
        self.product_mod_other(target)
            .iter()
            .zip(target.primes())
            .map(|(&v, &p)| inv_mod_prime(v, p).expect("disjoint bases give units"))
            .collect()
    }
}

impl PartialEq for RnsBasis {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.primes == other.primes
    }
}

impl Eq for RnsBasis {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_ntt_primes() {
        let b = RnsBasis::generate(128, 30, 3);
        for &q in b.primes() {
            assert_eq!((q - 1) % 256, 0);
            assert!(he_math::prime::is_prime(q));
        }
    }

    #[test]
    fn qhat_identity_crt() {
        // Σ_j q̂_j · (q̂_j⁻¹ mod q_j) ≡ 1 (mod Q)
        let b = RnsBasis::generate(32, 28, 3);
        let hat_inv = b.qhat_inv_mod_self();
        let q = b.modulus_product();
        let mut acc = BigUint::zero();
        for (j, &hi) in hat_inv.iter().enumerate() {
            let mut qhat = BigUint::one();
            for (i, &p) in b.primes().iter().enumerate() {
                if i != j {
                    qhat.mul_u64_assign(p);
                }
            }
            qhat.mul_u64_assign(hi);
            acc.add_assign(&qhat);
        }
        // acc mod Q must be 1.
        let r = {
            // Compute acc mod Q by repeated subtraction of Q·(acc/Q) using
            // limb division by each prime (Q fits in 3 u64 primes here, so
            // check residue-wise instead):
            b.primes().iter().all(|&p| acc.rem_u64(p) == 1)
        };
        assert!(r, "CRT identity must hold modulo every prime; Q={q}");
    }

    #[test]
    fn concat_and_prefix_are_consistent() {
        let q_basis = RnsBasis::generate(32, 28, 3);
        let p_basis = RnsBasis::new(32, he_math::prime::ntt_prime_chain(30, 64, 1));
        let full = q_basis.concat(&p_basis);
        assert_eq!(full.len(), 4);
        assert_eq!(full.prefix(3), q_basis);
    }

    #[test]
    fn range_shares_tables_with_its_parent() {
        let q_basis = RnsBasis::generate(32, 28, 3);
        let p_basis = RnsBasis::new(32, he_math::prime::ntt_prime_chain(30, 64, 2));
        let full = q_basis.concat(&p_basis);
        let p_again = full.range(3..5);
        assert_eq!(p_again, p_basis);
        assert_eq!(p_again.reducers(), p_basis.reducers());
        for (mine, theirs) in p_again.tables().iter().zip(p_basis.tables()) {
            assert!(
                Arc::ptr_eq(mine, theirs),
                "sub-range must not rebuild tables"
            );
        }
        assert_eq!(full.range(0..3), full.prefix(3));
        assert_eq!(full.range(1..2).primes(), &q_basis.primes()[1..2]);
    }

    #[test]
    #[should_panic(expected = "invalid sub-basis range")]
    fn range_rejects_empty_and_overlong() {
        let b = RnsBasis::generate(32, 28, 2);
        let _ = b.range(1..3);
    }

    #[test]
    #[should_panic(expected = "bases must be disjoint")]
    fn concat_rejects_overlap() {
        let b = RnsBasis::generate(32, 28, 2);
        let _ = b.concat(&b.prefix(1));
    }

    #[test]
    fn product_inv_inverts_product() {
        let q_basis = RnsBasis::generate(32, 28, 2);
        let p_basis = RnsBasis::new(32, he_math::prime::ntt_prime_chain(30, 64, 2));
        let prod = q_basis.product_mod_other(&p_basis);
        let inv = q_basis.product_inv_mod_other(&p_basis);
        for i in 0..p_basis.len() {
            assert_eq!(p_basis.reducers()[i].mul(prod[i], inv[i]), 1);
        }
    }
}
