//! Iterative radix-2 negacyclic NTT (Longa–Naehrig formulation) — the seed
//! transform, kept as the bit-exact oracle for [`crate::kernel`].
//!
//! The forward transform is decimation-in-time Cooley–Tukey with ψ powers in
//! bit-reversed order; the inverse is Gentleman–Sande. Both are in place,
//! fully reduce after every stage, and avoid the separate pre/post-twisting
//! passes by folding ψ into the twiddle tables.

use he_math::modops::{add_mod, sub_mod};
use he_math::ShoupMul;

/// Forward negacyclic NTT over `a`, in place.
///
/// `psi_rev[i]` must hold ψ^brv(i) as a Shoup multiplier; `a.len()` must be
/// a power of two matching the table. Tests reach this through
/// [`crate::NttTable::forward_oracle`], which enforces both.
pub fn forward_in_place(a: &mut [u64], psi_rev: &[ShoupMul], q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && psi_rev.len() == n);
    let mut t = n;
    let mut m = 1;
    while m < n {
        t /= 2;
        for i in 0..m {
            let j1 = 2 * i * t;
            let w = &psi_rev[m + i];
            for j in j1..j1 + t {
                let u = a[j];
                let v = w.mul(a[j + t]);
                a[j] = add_mod(u, v, q);
                a[j + t] = sub_mod(u, v, q);
            }
        }
        m *= 2;
    }
}

/// Inverse negacyclic NTT over `a`, in place, including the final `N⁻¹`
/// scaling.
///
/// `inv_psi_rev[i]` must hold ψ^{-brv(i)} as a Shoup multiplier. Tests
/// reach this through [`crate::NttTable::inverse_oracle`].
pub fn inverse_in_place(a: &mut [u64], inv_psi_rev: &[ShoupMul], n_inv: &ShoupMul, q: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two() && inv_psi_rev.len() == n);
    let mut t = 1;
    let mut m = n;
    while m > 1 {
        let h = m / 2;
        let mut j1 = 0;
        for i in 0..h {
            let w = &inv_psi_rev[h + i];
            for j in j1..j1 + t {
                let u = a[j];
                let v = a[j + t];
                a[j] = add_mod(u, v, q);
                a[j + t] = w.mul(sub_mod(u, v, q));
            }
            j1 += 2 * t;
        }
        t *= 2;
        m = h;
    }
    for x in a.iter_mut() {
        *x = n_inv.mul(*x);
    }
}

#[cfg(test)]
mod tests {
    use crate::naive;
    use crate::NttTable;

    #[test]
    fn forward_matches_naive_dft() {
        for log_n in [2u32, 3, 4, 6] {
            let n = 1usize << log_n;
            let q = he_math::prime::ntt_prime(30, 2 * n as u64).unwrap();
            let t = NttTable::new(n, q);
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 13) % q).collect();
            let mut fast = a.clone();
            t.forward(&mut fast);
            let slow = naive::negacyclic_ntt(&a, q);
            assert_eq!(fast, slow, "n={n}");
        }
    }

    #[test]
    fn multiply_matches_schoolbook() {
        let n = 32usize;
        let q = he_math::prime::ntt_prime(30, 2 * n as u64).unwrap();
        let t = NttTable::new(n, q);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q).collect();
        assert_eq!(
            t.multiply(&a, &b),
            naive::negacyclic_mul_schoolbook(&a, &b, q)
        );
    }
}
