//! Offline drop-in stand-in for `proptest`.
//!
//! Provides the macro surface this workspace uses (`proptest!`,
//! `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`) and the strategy
//! combinators behind it (`Just`, ranges, tuples, `prop_map`,
//! `collection::vec`, `option::of`). Inputs are drawn from a generator
//! seeded deterministically per test (hash of the test's module path and
//! name), so runs are reproducible. Failing cases are reported with
//! their case number; there is no shrinking.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use rand::prelude::*;
use std::ops::Range;

/// Per-test configuration, mirroring `proptest::test_runner::TestRunner`
/// knobs the workspace touches.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-test random source.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Seeds from a stable hash of the test's full name.
    pub fn for_test(test_name: &str) -> Self {
        // FNV-1a, stable across runs and platforms.
        let mut hash = 0xcbf29ce484222325u64;
        for byte in test_name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(hash),
        }
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// A strategy trait object.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

/// Boxes a strategy (used by `prop_oneof!`).
pub fn boxed<S>(strategy: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(strategy)
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T> Strategy for Range<T>
where
    T: rand::UniformSample + Copy,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::sample_uniform(self.start, self.end, rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Weighted choice among boxed strategies (backs `prop_oneof!`).
pub struct Union<V> {
    options: Vec<(u32, BoxedStrategy<V>)>,
}

impl<V> Union<V> {
    /// Builds a union; weights must not all be zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(
            options.iter().any(|(w, _)| *w > 0),
            "prop_oneof! requires a positive total weight"
        );
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u64 = self.options.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.gen_range(0..total);
        for (weight, strategy) in &self.options {
            let weight = u64::from(*weight);
            if pick < weight {
                return strategy.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weighted pick within total")
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max_exclusive: exact + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(range: std::ops::Range<usize>) -> Self {
            SizeRange {
                min: range.start,
                max_exclusive: range.end,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.min + 1 >= self.size.max_exclusive {
                self.size.min
            } else {
                rng.gen_range(self.size.min..self.size.max_exclusive)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies, mirroring `proptest::option`.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing `Option`s of `inner` values.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Runs a block of property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]`
/// running `body` against `ProptestConfig::cases` random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( @cfg($cfg:expr) ) => {};
    ( @cfg($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl!{ @cfg($cfg) $($rest)* }
    };
}

/// Weighted (`w => strategy`) or uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( (($weight) as u32, $crate::boxed($strategy)) ),+ ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( (1u32, $crate::boxed($strategy)) ),+ ])
    };
}

/// `assert!` under a property-test name.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` under a property-test name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` under a property-test name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Kind {
        A,
        B(u8),
    }

    fn kind_strategy() -> impl Strategy<Value = Kind> {
        prop_oneof![
            2 => Just(Kind::A),
            1 => (0u8..10).prop_map(Kind::B),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -5i32..5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_bounds(
            v in crate::collection::vec(0u8..255, 2..6),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn oneof_produces_both_shapes(ks in crate::collection::vec(kind_strategy(), 64..65)) {
            prop_assert!(ks.contains(&Kind::A));
            prop_assert!(ks.iter().any(|k| matches!(k, Kind::B(_))));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        use rand::RngCore;
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
