//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! this workspace ships the small API subset it actually uses as a local
//! path dependency under the same crate name: the [`Rng`] / [`RngCore`] /
//! [`SeedableRng`] traits, [`rngs::StdRng`], and [`thread_rng`].
//!
//! The generator is xoshiro256** seeded through SplitMix64 — deterministic
//! for a given seed, statistically solid for key-generation and test-vector
//! purposes, and explicitly **not** a cryptographically secure RNG. That
//! caveat already applied to the reproduction's sampling layer (see
//! `he-ckks::sampling`); a production deployment would swap in a CSPRNG.
//!
//! Seed streams differ from upstream `rand 0.8` (which uses ChaCha12 for
//! `StdRng`), so seeded outputs are reproducible within this workspace but
//! not bit-compatible with the real crate.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// The next uniform 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly over their whole domain (`rand`'s `Standard`
/// distribution, collapsed into a trait).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for i128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Uniform sampling below an exclusive bound, bias-free: Lemire's
/// nearly-divisionless rejection over the widening-multiply zone. A draw is
/// rejected when the low word of `v·bound` falls below `2^64 mod bound`;
/// since that remainder is below `bound`, a low word at or above `bound`
/// accepts without computing it, so the division runs only on the rare
/// draws that land in `[0, bound)`.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut zone = None;
    loop {
        let wide = rng.next_u64() as u128 * bound as u128;
        let (hi, lo) = ((wide >> 64) as u64, wide as u64);
        if lo >= bound || lo >= *zone.get_or_insert_with(|| bound.wrapping_neg() % bound) {
            return hi;
        }
    }
}

fn uniform_below_u128<R: RngCore + ?Sized>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    // Rejection sampling: accept draws below the largest multiple of
    // `bound` that fits, then reduce.
    let reject_from = u128::MAX - (u128::MAX % bound);
    loop {
        let v = u128::sample(rng);
        if v < reject_from || reject_from == 0 {
            return v % bound;
        }
    }
}

/// Ranges a value can be drawn from (`rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}
range_uint!(u8, u16, u32, u64, usize);

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
range_int!(i8, i16, i32, i64, isize);

impl SampleRange<u128> for Range<u128> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + uniform_below_u128(rng, self.end - self.start)
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f64::sample(rng); // [0, 1)
        let v = self.start + (self.end - self.start) * unit;
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f32::sample(rng);
        let v = self.start + (self.end - self.start) * unit;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// High-level sampling interface, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Draws a value of any [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Draws `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }

    /// Fills a byte slice with uniform bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic stream).
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds a generator from OS-provided entropy (here: clock-derived).
    fn from_entropy() -> Self {
        Self::seed_from_u64(entropy_seed())
    }
}

fn entropy_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{SystemTime, UNIX_EPOCH};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let salt = COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    nanos ^ salt.rotate_left(17) ^ (std::process::id() as u64) << 32
}

/// Concrete generator types.
pub mod rngs {
    use super::{entropy_seed, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_state(mut seed: u64) -> Self {
            let mut split = || {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [split(), split(), split(), split()];
            Self { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self::from_state(seed)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    /// A per-call generator seeded from clock entropy — the stand-in for
    /// `rand`'s thread-local handle.
    #[derive(Debug, Clone)]
    pub struct ThreadRng(StdRng);

    impl ThreadRng {
        pub(crate) fn new() -> Self {
            Self(StdRng::seed_from_u64(entropy_seed()))
        }
    }

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// Returns a fresh entropy-seeded generator (the `rand::thread_rng` entry
/// point; ours is per-call rather than thread-local, which is fine for the
/// non-reproducible call sites that use it).
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng::new()
}

/// Draws one [`Standard`] value from a fresh entropy-seeded generator.
pub fn random<T: Standard>() -> T {
    T::sample(&mut thread_rng())
}

/// Re-exports mirroring `rand`'s prelude.
pub mod prelude {
    pub use super::rngs::{StdRng, ThreadRng};
    pub use super::{thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i64 = rng.gen_range(-1i64..=1);
            assert!((-1..=1).contains(&w));
            let f: f64 = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
            let u: usize = rng.gen_range(0..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[(rng.gen_range(-1i64..=1) + 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn standard_bool_is_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_000..6_000).contains(&trues), "{trues}");
    }

    #[test]
    fn uniform_below_draws_what_the_dividing_formula_draws() {
        // The formula that computes `2^64 mod bound` before every draw. The
        // nearly-divisionless form must make every accept/reject decision
        // the same way, so seeded streams do not move.
        fn dividing<R: RngCore>(rng: &mut R, bound: u64) -> u64 {
            let zone = bound.wrapping_neg() % bound;
            loop {
                let wide = rng.next_u64() as u128 * bound as u128;
                if wide as u64 >= zone {
                    return (wide >> 64) as u64;
                }
            }
        }
        // The largest 40-bit prime ≡ 1 (mod 2^14): an NTT prime for N = 2^13.
        let ntt_prime_40_bit = 1_099_511_480_321;
        for bound in [3, ntt_prime_40_bit, (1 << 63) + 1, u64::MAX - 1] {
            let mut a = StdRng::seed_from_u64(bound);
            let mut b = StdRng::seed_from_u64(bound);
            for _ in 0..100_000 {
                assert_eq!(
                    uniform_below(&mut a, bound),
                    dividing(&mut b, bound),
                    "bound {bound}"
                );
            }
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "bound {bound}: same draws consumed"
            );
        }
    }

    #[test]
    fn generic_rng_bound_accepts_unsized() {
        fn take<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0..100u64)
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(take(&mut rng) < 100);
    }
}
