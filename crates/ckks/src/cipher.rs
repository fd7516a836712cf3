//! Plaintext and ciphertext containers.

use he_rns::{Form, RnsPoly};

use crate::error::EvalError;

/// An encoded message: a ring polynomial together with its scale Δ.
///
/// Stored in coefficient form; the evaluator converts on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Plaintext {
    poly: RnsPoly,
    scale: f64,
}

impl Plaintext {
    /// Wraps a coefficient-form polynomial at scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in evaluation form.
    pub fn new(poly: RnsPoly, scale: f64) -> Self {
        assert_eq!(poly.form(), Form::Coeff, "plaintexts store coefficients");
        Self { poly, scale }
    }

    /// The underlying polynomial.
    #[inline]
    pub fn poly(&self) -> &RnsPoly {
        &self.poly
    }

    /// The encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Level (chain index of the highest prime present).
    #[inline]
    pub fn level(&self) -> usize {
        self.poly.level_count() - 1
    }

    /// The plaintext's residues on the basis of `level`: what a ct·pt or
    /// ct±pt at that level consumes. Plaintexts arrive with a level of
    /// their own (wire frames carry it), so one below the ciphertext's is an
    /// operand error, not an internal bug.
    ///
    /// # Errors
    ///
    /// [`EvalError::LevelMismatch`] if the plaintext sits below `level`.
    pub fn poly_at_level(&self, level: usize) -> Result<RnsPoly, EvalError> {
        if self.level() < level {
            return Err(EvalError::LevelMismatch {
                a: level,
                b: self.level(),
            });
        }
        Ok(self.poly.truncate_basis(level + 1))
    }
}

/// A CKKS ciphertext `(c_0, c_1)` with `c_0 + c_1·s ≈ Δ·m (mod Q_level)`.
///
/// Both components are kept in coefficient form between operations; the
/// evaluator performs the explicit NTT/INTT conversions — matching the
/// operator-level dataflow the Poseidon trace layer instruments.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    scale: f64,
}

impl Ciphertext {
    /// Assembles a ciphertext from components at scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if the components disagree in basis or form, or are in
    /// evaluation form.
    pub fn new(c0: RnsPoly, c1: RnsPoly, scale: f64) -> Self {
        assert_eq!(c0.basis(), c1.basis(), "components must share a basis");
        assert_eq!(c0.form(), Form::Coeff, "ciphertexts store coefficients");
        assert_eq!(c1.form(), Form::Coeff, "ciphertexts store coefficients");
        Self { c0, c1, scale }
    }

    /// The `c_0` component.
    #[inline]
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// The `c_1` component.
    #[inline]
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// The current scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Overrides the tracked scale (used by rescale / constant folding).
    #[inline]
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// Level: number of remaining scale primes (0 = only `q_0` left).
    #[inline]
    pub fn level(&self) -> usize {
        self.c0.level_count() - 1
    }

    /// Component-wise in-place addition; the caller (the evaluator) has
    /// already aligned levels and checked scales.
    #[inline]
    pub(crate) fn add_assign_raw(&mut self, other: &Ciphertext) {
        self.c0.add_assign(&other.c0);
        self.c1.add_assign(&other.c1);
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.c0.n()
    }

    /// Decomposes into `(c0, c1, scale)`, surrendering ownership of both
    /// component polynomials — the hook a serving layer uses to recycle
    /// residue buffers of consumed operands back into a decode pool.
    #[inline]
    pub fn into_parts(self) -> (RnsPoly, RnsPoly, f64) {
        (self.c0, self.c1, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_rns::RnsBasis;

    #[test]
    fn level_tracks_basis_length() {
        let b = RnsBasis::generate(16, 28, 3);
        let z = RnsPoly::from_i64_coeffs(&b, &[0i64; 16]);
        let ct = Ciphertext::new(z.clone(), z, 2.0_f64.powi(28));
        assert_eq!(ct.level(), 2);
        assert_eq!(ct.n(), 16);
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn rejects_eval_form_components() {
        let b = RnsBasis::generate(16, 28, 2);
        let z = RnsPoly::from_i64_coeffs(&b, &[0i64; 16]);
        let e = z.clone().into_eval();
        let _ = Ciphertext::new(e.clone(), e, 1.0);
    }
}
