//! Canonical-embedding encoder: complex slot vectors ↔ ring plaintexts.
//!
//! CKKS packs `n = N/2` complex numbers into one real polynomial through the
//! canonical embedding σ. Writing ζ = e^{iπ/N} (a primitive 2N-th root of
//! unity), the slot values of `m(X)` are its evaluations at ζ^{5^j},
//! `j = 0 … n−1`; the remaining N − n odd-power evaluation points are the
//! complex conjugates, which forces real coefficients.
//!
//! Implementation: the full odd-power evaluation `(m(ζ^{2t+1}))_t` equals a
//! ψ-twisted length-N complex DFT of the coefficients, so both directions
//! run in O(N log N) through one radix-2 complex FFT:
//!
//! * **decode**: twist `g_k = m_k ζ^k`, forward DFT, read slots at
//!   `t_j = (5^j − 1)/2`.
//! * **encode**: scatter `z_j·Δ` to `t_j` and `conj(z_j)·Δ` to `N−1−t_j`,
//!   inverse DFT, untwist, round to integers.

use std::fmt;

/// A complex number with `f64` components (minimal, crate-local — no
//  external dependency needed for the encoder).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + i·im`.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Modulus (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}{:+.6}i", self.re, self.im)
    }
}

/// The canonical-embedding encoder for ring degree `N`.
///
/// # Examples
///
/// ```
/// use he_ckks::encoding::{Complex, Encoder};
/// let enc = Encoder::new(64);
/// let z: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64 / 7.0, -(i as f64))).collect();
/// let coeffs = enc.encode_to_coeffs(&z, 1u64 as f64 * (1u64 << 30) as f64);
/// let back = enc.decode_from_coeffs(&coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(), (1u64 << 30) as f64, 32);
/// for (a, b) in z.iter().zip(&back) {
///     assert!((a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    /// Slot positions: `t_j = (5^j mod 2N − 1)/2` for `j < N/2`.
    slot_index: Vec<usize>,
    /// Twist factors ζ^k, k < N.
    twist: Vec<Complex>,
}

impl Encoder {
    /// Builds encoder tables for degree `n` (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 8.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 8,
            "n must be a power of two ≥ 8"
        );
        let two_n = 2 * n as u64;
        let slots = n / 2;
        let mut slot_index = Vec::with_capacity(slots);
        let mut g: u64 = 1;
        for _ in 0..slots {
            slot_index.push(((g - 1) / 2) as usize);
            g = (g * 5) % two_n;
        }
        let twist = (0..n)
            .map(|k| Complex::from_angle(std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self {
            n,
            slot_index,
            twist,
        }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum slot count (`N/2`).
    #[inline]
    pub fn max_slots(&self) -> usize {
        self.n / 2
    }

    /// Encodes `z` (length dividing `N/2`; shorter vectors are replicated —
    /// CKKS sparse packing) into rounded integer coefficients at scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` is zero or does not divide `N/2`.
    pub fn encode_to_coeffs(&self, z: &[Complex], scale: f64) -> Vec<i64> {
        let slots = self.max_slots();
        assert!(
            !z.is_empty() && slots.is_multiple_of(z.len()),
            "slot count must divide N/2"
        );
        // Sparse packing: replicate the vector to fill all slots.
        let full: Vec<Complex> = (0..slots).map(|j| z[j % z.len()]).collect();

        // Scatter slots and their conjugates into the odd-power value
        // vector V (length N).
        let mut v = vec![Complex::default(); self.n];
        for (j, &t) in self.slot_index.iter().enumerate() {
            v[t] = full[j] * scale;
            v[self.n - 1 - t] = (full[j] * scale).conj();
        }
        // Inverse DFT: g_k = (1/N) Σ_t V_t e^{−2πi tk/N}; untwist by ζ^{−k}.
        let g = dft(&v, true);
        g.iter()
            .enumerate()
            .map(|(k, &gk)| {
                let m = gk * self.twist[k].conj();
                // Imaginary part is numerically ~0 by conjugate symmetry.
                m.re.round() as i64
            })
            .collect()
    }

    /// Decodes centred real coefficients (already divided by nothing) into
    /// the first `slots` slot values at scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N` or `slots` does not divide `N/2`.
    pub fn decode_from_coeffs(&self, coeffs: &[f64], scale: f64, slots: usize) -> Vec<Complex> {
        assert_eq!(coeffs.len(), self.n, "coefficient count must equal N");
        assert!(
            slots >= 1 && self.max_slots().is_multiple_of(slots),
            "slot count must divide N/2"
        );
        let g: Vec<Complex> = coeffs
            .iter()
            .enumerate()
            .map(|(k, &m)| self.twist[k] * m)
            .collect();
        let v = dft(&g, false);
        (0..slots)
            .map(|j| v[self.slot_index[j]] * (1.0 / scale))
            .collect()
    }

    /// Encodes into a [`Plaintext`](crate::cipher::Plaintext)-ready residue layout for `basis`.
    ///
    /// This is a convenience used by [`crate::context::CkksContext`]
    /// wrappers; see [`crate::encoding`] module docs for the math.
    pub fn encode_rns(
        &self,
        basis: &he_rns::RnsBasis,
        z: &[Complex],
        scale: f64,
    ) -> he_rns::RnsPoly {
        let coeffs = self.encode_to_coeffs(z, scale);
        he_rns::RnsPoly::from_i64_coeffs(basis, &coeffs)
    }

    /// Decodes an [`he_rns::RnsPoly`] (coefficient form) at scale Δ.
    pub fn decode_rns(&self, poly: &he_rns::RnsPoly, scale: f64, slots: usize) -> Vec<Complex> {
        let coeffs = poly.to_centered_f64();
        self.decode_from_coeffs(&coeffs, scale, slots)
    }
}

/// Iterative radix-2 complex DFT. `inverse` applies the 1/N factor and the
/// conjugated kernel. Input length must be a power of two.
pub fn dft(input: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = input.len();
    assert!(n.is_power_of_two(), "DFT length must be a power of two");
    let mut a = input.to_vec();
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits);
        let j = j as usize;
        if i < j {
            a.swap(i, j);
        }
    }
    let sign = if inverse { -1.0 } else { 1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wl = Complex::from_angle(ang);
        for i in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = a[i + j];
                let v = a[i + j + len / 2] * w;
                a[i + j] = u + v;
                a[i + j + len / 2] = u - v;
                w = w * wl;
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for x in &mut a {
            *x = *x * inv_n;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn dft_inverts() {
        let v: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f64, (i * i) as f64 / 10.0))
            .collect();
        let f = dft(&v, false);
        let back = dft(&f, true);
        for (x, y) in v.iter().zip(&back) {
            assert!(close(*x, *y, 1e-9));
        }
    }

    #[test]
    fn dft_of_delta_is_flat() {
        let mut v = vec![Complex::default(); 8];
        v[0] = Complex::new(1.0, 0.0);
        let f = dft(&v, false);
        for x in f {
            assert!(close(x, Complex::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn encode_decode_round_trip_full_slots() {
        let enc = Encoder::new(64);
        let z: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin() * 3.0, (i as f64).cos() * 2.0))
            .collect();
        let scale = (1u64 << 34) as f64;
        let coeffs = enc.encode_to_coeffs(&z, scale);
        let back = enc.decode_from_coeffs(
            &coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(),
            scale,
            32,
        );
        for (a, b) in z.iter().zip(&back) {
            assert!(close(*a, *b, 1e-5), "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_packing_replicates() {
        let enc = Encoder::new(64);
        let z = vec![
            Complex::new(1.0, 0.0),
            Complex::new(2.0, 0.0),
            Complex::new(3.0, 0.0),
            Complex::new(4.0, 0.0),
        ];
        let scale = (1u64 << 34) as f64;
        let coeffs = enc.encode_to_coeffs(&z, scale);
        // Decoding all 32 slots shows the 4-vector repeated 8 times.
        let all = enc.decode_from_coeffs(
            &coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(),
            scale,
            32,
        );
        for (j, v) in all.iter().enumerate() {
            assert!(close(*v, z[j % 4], 1e-5), "slot {j}");
        }
    }

    #[test]
    fn encoding_produces_real_coefficients() {
        // The rounding path drops imaginary parts; verify they were
        // negligible by checking a round trip loses < 1/Δ accuracy.
        let enc = Encoder::new(32);
        let z: Vec<Complex> = (0..16)
            .map(|i| Complex::new(0.1 * i as f64, -0.05 * i as f64))
            .collect();
        let scale = (1u64 << 40) as f64;
        let coeffs = enc.encode_to_coeffs(&z, scale);
        let back = enc.decode_from_coeffs(
            &coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>(),
            scale,
            16,
        );
        for (a, b) in z.iter().zip(&back) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn slot_indices_are_a_permutation_half() {
        let enc = Encoder::new(128);
        let mut idx = enc.slot_index.clone();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 64);
        // Together with their mirrors they tile 0..N−1 exactly once.
        let mut all: Vec<usize> = enc
            .slot_index
            .iter()
            .flat_map(|&t| [t, 128 - 1 - t])
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..128).collect::<Vec<_>>());
    }
}
