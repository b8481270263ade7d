//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This shim implements the subset of its API the
//! workspace's property tests use: the [`proptest!`] macro, the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map`, [`Just`](strategy::Just), [`any`](arbitrary::any),
//! [`prop_oneof!`], [`collection::vec`], and
//! [`ProptestConfig::with_cases`](test_runner::Config::with_cases).
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs (via
//!   `Debug`) and the case number, then re-raises the panic.
//! * **Deterministic seeding.** Each test function derives its RNG seed
//!   from its own name, so runs are reproducible without a
//!   `proptest-regressions` persistence file (existing regression files
//!   are ignored).
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` are plain
//!   assertions.

#![forbid(unsafe_code)]

/// Test-runner configuration and the shim's RNG.
pub mod test_runner {
    /// Number of random cases per property (the real default is 256; the
    /// shim uses a smaller count to keep offline CI fast — properties
    /// here are exercised by several suites, and any failure reproduces
    /// deterministically).
    pub const DEFAULT_CASES: u32 = 96;

    /// Configuration for a `proptest!` block (mirrors
    /// `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: DEFAULT_CASES,
            }
        }
    }

    /// The RNG handed to strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded with `seed`.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// A generator seeded from a test name (FNV-1a), so every test
        /// function explores a distinct, reproducible stream.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng::from_seed(h)
        }

        /// The next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values (mirrors `proptest::strategy::Strategy`,
    /// minus shrinking).
    pub trait Strategy {
        /// The type of value produced.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values satisfying `pred` (retrying a bounded number
        /// of times, then panicking — the shim has no rejection reporting).
        fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                pred,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe view of a strategy, for [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn dyn_new_value(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_new_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.dyn_new_value(rng)
        }
    }

    /// Always produces a clone of its payload.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.new_value(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates: {}", self.whence);
        }
    }

    /// Uniform choice between type-erased alternatives (behind
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.arms.len() as u64) as usize;
            self.arms[idx].new_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                    if span > u64::MAX as u128 {
                        return lo.wrapping_add(rng.next_u64() as $t);
                    }
                    lo.wrapping_add(rng.below(span as u64) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws a uniform value from the whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy behind [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T` (mirrors `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive length range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `size.into()` elements drawn from
    /// `element` (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob-import surface (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use test_runner::Config as ProptestConfig;

/// A test-case failure or early exit (mirrors
/// `proptest::test_runner::TestCaseError` just enough for property
/// bodies that `return Ok(())` or `Err(...)` explicitly).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case could not be run (treated as a skip).
    Reject(String),
    /// The case failed.
    Fail(String),
}

/// Runs one property: draws `cases` random inputs from `strategies`
/// (a tuple of strategies) and invokes `body` on each tuple of values.
/// On panic or `Err`, reports the case number and inputs, then fails.
///
/// This is the engine behind [`proptest!`]; it is public so the macro
/// can reach it, not intended for direct use.
pub fn run_property<S, V>(
    test_name: &str,
    config: &test_runner::Config,
    strategies: S,
    body: impl Fn(V) -> Result<(), TestCaseError>,
) where
    S: strategy::Strategy<Value = V>,
    V: core::fmt::Debug,
{
    let mut rng = test_runner::TestRng::for_test(test_name);
    for case in 0..config.cases {
        let value = strategies.new_value(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match body(value) {
            Ok(()) | Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => panic!("property failed: {msg}"),
        }));
        if let Err(panic) = result {
            // Re-draw the same case for the report: the stream is
            // deterministic per test, so rebuild from a fresh RNG.
            let mut replay = test_runner::TestRng::for_test(test_name);
            let mut last = None;
            for _ in 0..=case {
                last = Some(strategies.new_value(&mut replay));
            }
            eprintln!(
                "proptest: property `{test_name}` failed at case {case}/{} with inputs: {:?}",
                config.cases,
                last.expect("replayed at least one case"),
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` running the body over random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::test_runner::Config as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $config;
                let strategies = ($($strat,)+);
                $crate::run_property(
                    stringify!($name),
                    &config,
                    strategies,
                    |($($arg,)+)| -> ::core::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Boolean property assertion (plain `assert!` in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality property assertion (plain `assert_eq!` in this shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality property assertion (plain `assert_ne!` in this shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_vec_compose() {
        let mut rng = TestRng::from_seed(3);
        let strat = crate::collection::vec((0u8..4, 10u64..=20), 2..5);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 4);
                assert!((10..=20).contains(&b));
            }
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::from_seed(5);
        let strat = prop_oneof![Just(0usize), Just(1usize), 2usize..4];
        let mut seen = [false; 4];
        for _ in 0..300 {
            seen[strat.new_value(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flat_map_sees_outer_value() {
        let mut rng = TestRng::from_seed(8);
        let strat = (1u64..10).prop_flat_map(|lo| (lo..lo + 5).prop_map(move |hi| (lo, hi)));
        for _ in 0..200 {
            let (lo, hi) = strat.new_value(&mut rng);
            assert!(lo <= hi && hi < lo + 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The macro wires arguments, config and assertions together.
        #[test]
        fn macro_end_to_end(x in 0u64..50, ys in crate::collection::vec(0u8..10, 0..4)) {
            prop_assert!(x < 50);
            prop_assert_eq!(ys.iter().filter(|&&y| y >= 10).count(), 0);
            prop_assert_ne!(x, 50);
        }
    }
}
