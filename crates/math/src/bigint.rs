//! A small arbitrary-precision unsigned integer.
//!
//! CKKS decoding and the RNS exactness oracles need to reconstruct integers
//! modulo the full modulus product `Q = q_0 · … · q_L`, which exceeds 64
//! bits. Rather than pull in an external bignum crate, this module provides
//! the minimal little-endian limb arithmetic those paths require: addition,
//! subtraction, multiplication/division by `u64`, full multiplication,
//! comparison, and modular remainder by `u64`.

use std::cmp::Ordering;
use std::fmt;

/// Arbitrary-precision unsigned integer stored as little-endian 64-bit limbs
/// with no trailing zero limbs (zero is the empty limb vector).
///
/// # Examples
///
/// ```
/// use he_math::BigUint;
/// let a = BigUint::from(u64::MAX);
/// let b = &a * &a;
/// assert_eq!(b.rem_u64(97), ((u64::MAX % 97) as u128).pow(2) as u64 % 97);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Whether this value is zero.
    fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Builds a value from little-endian limbs (trailing zeros permitted).
    fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut v = Self { limbs };
        v.normalize();
        v
    }

    /// The little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds `other` into `self`.
    pub fn add_assign(&mut self, other: &BigUint) {
        let mut carry = 0u128;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let o = *other.limbs.get(i).unwrap_or(&0);
            let s = self.limbs[i] as u128 + o as u128 + carry;
            self.limbs[i] = s as u64;
            carry = s >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &BigUint) {
        assert!(*self >= *other, "BigUint subtraction would underflow");
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let o = *other.limbs.get(i).unwrap_or(&0);
            let d = self.limbs[i] as i128 - o as i128 - borrow;
            if d < 0 {
                self.limbs[i] = (d + (1i128 << 64)) as u64;
                borrow = 1;
            } else {
                self.limbs[i] = d as u64;
                borrow = 0;
            }
        }
        self.normalize();
    }

    /// Multiplies `self` by a `u64` scalar in place.
    pub fn mul_u64_assign(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let p = *limb as u128 * m as u128 + carry;
            *limb = p as u64;
            carry = p >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Adds a `u64` scalar in place.
    pub fn add_u64_assign(&mut self, a: u64) {
        let mut carry = a as u128;
        let mut i = 0;
        while carry > 0 {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let s = self.limbs[i] as u128 + carry;
            self.limbs[i] = s as u64;
            carry = s >> 64;
            i += 1;
        }
    }

    /// Divides by a `u64` in place, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_u64_assign(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | *limb as u128;
            *limb = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        self.normalize();
        rem as u64
    }

    /// Remainder modulo a `u64` without modifying `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use he_math::BigUint;
    /// let v = BigUint::from(1u64 << 40) * &BigUint::from(1u64 << 40);
    /// assert_eq!(v.rem_u64(1_000_003), {
    ///     let m = 1_000_003u64;
    ///     he_math::modops::pow_mod(1 << 40 % m, 2, m)
    /// });
    /// ```
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | *limb as u128) % d as u128;
        }
        rem as u64
    }

    /// Converts to `f64` (loses precision beyond 53 bits, as expected).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for limb in self.limbs.iter().rev() {
            acc = acc * 18_446_744_073_709_551_616.0 + *limb as f64;
        }
        acc
    }

    /// Halves the value, rounding down.
    pub fn half(&self) -> BigUint {
        let mut out = self.clone();
        let mut carry = 0u64;
        for limb in out.limbs.iter_mut().rev() {
            let new_carry = *limb & 1;
            *limb = (*limb >> 1) | (carry << 63);
            carry = new_carry;
        }
        out.normalize();
        out
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl std::ops::Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: &BigUint) -> BigUint {
        self.add_assign(rhs);
        self
    }
}

impl std::ops::Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(mut self, rhs: &BigUint) -> BigUint {
        self.sub_assign(rhs);
        self
    }
}

impl std::ops::Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }
}

impl std::ops::Mul<&BigUint> for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        &self * rhs
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut v = self.clone();
        while !v.is_zero() {
            digits.push(v.div_u64_assign(10) as u8);
        }
        for d in digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_round_trip_via_limbs() {
        let v: u128 = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210;
        let b = BigUint::from(v);
        assert_eq!(b.limbs(), &[v as u64, (v >> 64) as u64]);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = BigUint::from(u128::MAX);
        let b = BigUint::from(12345u64);
        let sum = a.clone() + &b;
        assert_eq!(sum.clone() - &a, b);
        assert_eq!(sum - &b, a);
    }

    #[test]
    fn mul_matches_u128_oracle() {
        let pairs: [(u64, u64); 4] = [
            (u64::MAX, u64::MAX),
            (0, 123),
            (1 << 63, 2),
            (0xDEAD_BEEF, 0xCAFE_BABE),
        ];
        for (x, y) in pairs {
            let p = &BigUint::from(x) * &BigUint::from(y);
            assert_eq!(p, BigUint::from(x as u128 * y as u128));
        }
    }

    #[test]
    fn div_rem_u64_matches_oracle() {
        let v: u128 = 0xFFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFE;
        let mut b = BigUint::from(v);
        let r = b.div_u64_assign(1_000_000_007);
        assert_eq!(r as u128, v % 1_000_000_007);
        assert_eq!(b, BigUint::from(v / 1_000_000_007));
        assert_eq!(BigUint::from(v).rem_u64(97), (v % 97) as u64);
    }

    #[test]
    fn display_renders_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(
            BigUint::from(1234567890123456789u64).to_string(),
            "1234567890123456789"
        );
        let big = &BigUint::from(u64::MAX) * &BigUint::from(u64::MAX);
        assert_eq!(big.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn ordering_and_bits() {
        assert!(BigUint::from(2u64) > BigUint::from(1u64));
        assert!(BigUint::from(1u128 << 64) > BigUint::from(u64::MAX));
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from(1u64).bits(), 1);
        assert_eq!(BigUint::from(1u128 << 64).bits(), 65);
    }

    #[test]
    fn half_rounds_down() {
        assert_eq!(BigUint::from(7u64).half(), BigUint::from(3u64));
        let v = BigUint::from(1u128 << 65);
        assert_eq!(v.half(), BigUint::from(1u128 << 64));
    }
}
