//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use — [`Strategy`] with `prop_map`/`prop_filter`, [`any`], range
//! strategies, [`collection::vec`], [`ProptestConfig`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros — over a
//! deterministic per-test RNG.
//!
//! Differences from the real crate, by design: values are drawn uniformly
//! (no edge-case biasing) and failing cases are reported without input
//! shrinking. Each test's stream is seeded from the hash of its name, so
//! failures reproduce exactly on re-run.

#![forbid(unsafe_code)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A failed property check (the `Err` side of a test-case body).
pub type TestCaseError = String;

/// Per-test configuration (only `cases` is honoured by the shim).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The value source driving one property test.
#[derive(Debug)]
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// A runner whose stream is derived from the test's name.
    pub fn for_test(name: &str) -> Self {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        Self {
            rng: StdRng::seed_from_u64(h.finish() ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn new_value(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (bounded retry; panics if the
    /// predicate rejects 1000 draws in a row).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            pred,
        }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, runner: &mut TestRunner) -> U {
        (self.f)(self.inner.new_value(runner))
    }
}

/// Output of [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn new_value(&self, runner: &mut TestRunner) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(runner);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter `{}` rejected 1000 consecutive draws",
            self.whence
        );
    }
}

/// Strategy for the full domain of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Uniform over the whole domain of `T`.
pub fn any<T: rand::Standard>() -> Any<T> {
    Any(PhantomData)
}

impl<T: rand::Standard> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, runner: &mut TestRunner) -> T {
        runner.rng().gen::<T>()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, runner: &mut TestRunner) -> $t {
                runner.rng().gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, runner: &mut TestRunner) -> f64 {
        runner.rng().gen_range(self.clone())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn new_value(&self, runner: &mut TestRunner) -> f32 {
        runner.rng().gen_range(self.clone())
    }
}

/// A fixed value as a (degenerate) strategy.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident/$i:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$i.new_value(runner),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A/0, B/1);
    (A/0, B/1, C/2);
    (A/0, B/1, C/2, D/3);
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRunner};

    /// Strategy producing `len`-element vectors drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    /// Fixed-length vector of values drawn from `element`.
    ///
    /// (The real crate also accepts length *ranges*; the workspace only
    /// uses fixed lengths, so that is all the shim supports.)
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
            (0..self.len)
                .map(|_| self.element.new_value(runner))
                .collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
        TestCaseError, TestRunner,
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` block
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut runner = $crate::TestRunner::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::new_value(&($strat), &mut runner);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let Err(msg) = outcome {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            msg
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property case unless the operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(lhs == rhs) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                rhs
            ));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(lhs == rhs) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Fails the enclosing property case unless the operands differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if lhs == rhs {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                lhs
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::Rng as _;

    #[test]
    fn ranges_and_filters_generate_in_bounds() {
        let mut runner = TestRunner::for_test("shim::bounds");
        let s = (2u64..100).prop_filter("even", |v| v % 2 == 0);
        for _ in 0..200 {
            let v = s.new_value(&mut runner);
            assert!((2..100).contains(&v) && v % 2 == 0);
        }
        let m = (0u32..10).prop_map(|v| v * 3);
        for _ in 0..200 {
            assert_eq!(m.new_value(&mut runner) % 3, 0);
        }
    }

    #[test]
    fn vec_strategy_has_fixed_len() {
        let mut runner = TestRunner::for_test("shim::vec");
        let s = crate::collection::vec(-4.0f64..4.0, 7);
        let v = s.new_value(&mut runner);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|x| (-4.0..4.0).contains(x)));
    }

    #[test]
    fn streams_are_reproducible_per_name() {
        let a = TestRunner::for_test("same").rng().gen::<u64>();
        let b = TestRunner::for_test("same").rng().gen::<u64>();
        let c = TestRunner::for_test("other").rng().gen::<u64>();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_roundtrip(x in 0u64..1000, y in any::<u64>()) {
            prop_assert!(x < 1000);
            prop_assert_eq!(x + (y % 7), (y % 7) + x);
            prop_assert_ne!(x + 1, x);
        }
    }
}
