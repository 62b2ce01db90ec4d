//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no registry access, so this crate vendors
//! the slice of proptest this workspace's property tests use:
//!
//! * the [`proptest!`] macro (including `#![proptest_config(..)]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//! * range / tuple / [`prelude::any`] / [`prop::collection::vec`] /
//!   [`prop::sample::select`] / `prop_map` / [`prelude::Just`] /
//!   [`prop_oneof!`] strategies.
//!
//! Semantics differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs via the assert
//!   message and panics immediately.
//! * **Deterministic seeding.** Case `i` of test `name` derives its RNG
//!   from `hash(name) ⊕ i`, so failures reproduce exactly across runs
//!   and machines — a property the fault-injection test suite relies on.
//! * Default case count is 64 (upstream: 256) to keep debug-build test
//!   time reasonable; override per-block with `proptest_config`.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies (generation only, no shrink trees).

    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases this strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy { inner: Box::new(move |rng: &mut TestRng| self.generate(rng)) }
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T> {
        #[allow(clippy::type_complexity)]
        inner: Box<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.inner)(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics when `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $S:ident),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }

    /// Types with a canonical "any value" strategy ([`crate::prelude::any`]).
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of this type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            (rng.next_u64() >> 32) as u32
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            (rng.next_u64() >> 56) as u8
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// Strategy for [`Arbitrary`] types.
    pub struct Any<T> {
        _marker: std::marker::PhantomData<fn() -> T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any { _marker: std::marker::PhantomData }
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Anything usable as a collection size: a fixed count or a range.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.range(self.clone())
        }
    }

    /// Strategy generating `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.draw_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies (`prop::sample`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly selects one element of `options` per generated value.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "cannot select from an empty vector");
        Select { options }
    }

    /// Strategy returned by [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }
}

pub mod test_runner {
    //! Deterministic case execution.

    use rand::rngs::SmallRng;
    use rand::{Rng as _, SeedableRng as _};
    use std::ops::Range;

    /// Per-block configuration (subset of upstream's fields).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
        /// Accepted for source compatibility; unused (no shrinking).
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64, max_shrink_iters: 0 }
        }
    }

    /// A failed property-test case.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The deterministic RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// RNG for case `case` of the property named `name`.
        pub fn for_case(name: &str, case: u64) -> TestRng {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { inner: SmallRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
        }

        /// Raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.gen()
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            self.inner.gen()
        }

        /// Uniform index below `bound`.
        pub fn below(&mut self, bound: usize) -> usize {
            self.inner.gen_range(0..bound)
        }

        /// Uniform draw from a half-open range.
        pub fn range<T: rand::SampleUniform>(&mut self, range: Range<T>) -> T {
            self.inner.gen_range(range)
        }
    }

    /// Drives the cases of one property.
    #[derive(Debug)]
    pub struct TestRunner {
        name: &'static str,
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Creates a runner for the property `name`.
        pub fn new(name: &'static str, config: ProptestConfig) -> TestRunner {
            TestRunner { name, config }
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u64 {
            u64::from(self.config.cases)
        }

        /// The RNG for one case.
        pub fn rng_for(&self, case: u64) -> TestRng {
            TestRng::for_case(self.name, case)
        }
    }
}

pub mod prelude {
    //! The customary `use proptest::prelude::*` surface.

    pub use crate::strategy::{Any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng, TestRunner};
    pub use crate::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The canonical strategy for "any value of `T`".
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::default()
    }
}

/// The `prop::` module namespace (`prop::collection::vec`, …).
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Defines property tests over strategies.
///
/// Supports the common upstream grammar: an optional leading
/// `#![proptest_config(expr)]`, then any number of
/// `#[test] fn name(binding in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            #[allow(clippy::redundant_clone)]
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let runner = $crate::test_runner::TestRunner::new(stringify!($name), config);
            for __case in 0..runner.cases() {
                let mut __rng = runner.rng_for(__case);
                $(let $arg =
                    $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "property {} failed at case {}: {}",
                        stringify!($name), __case, e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {} == {} ({:?} vs {:?})",
                    stringify!($left), stringify!($right), l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {} == {} ({:?} vs {:?}): {}",
                    stringify!($left), stringify!($right), l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// `assert_ne!` that reports through the proptest failure path.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
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

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1_000 {
            let x = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let y = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&y));
        }
    }

    #[test]
    fn tuples_and_maps_compose() {
        let strat = (0usize..4, any::<bool>()).prop_map(|(a, b)| if b { a } else { a + 10 });
        let mut rng = TestRng::for_case("compose", 1);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v < 4 || (10..14).contains(&v));
        }
    }

    #[test]
    fn vec_sizes_follow_the_request() {
        let mut rng = TestRng::for_case("vecs", 0);
        let fixed = crate::collection::vec(0u64..5, 7usize);
        assert_eq!(fixed.generate(&mut rng).len(), 7);
        let ranged = crate::collection::vec(0u64..5, 1usize..4);
        for _ in 0..100 {
            let l = ranged.generate(&mut rng).len();
            assert!((1..4).contains(&l));
        }
    }

    #[test]
    fn select_and_oneof_cover_options() {
        let mut rng = TestRng::for_case("select", 0);
        let sel = crate::sample::select(vec![1, 2, 3]);
        let uni = prop_oneof![Just(10), Just(20)];
        let mut seen = [false; 3];
        let mut seen_uni = [false; 2];
        for _ in 0..500 {
            seen[sel.generate(&mut rng) - 1] = true;
            seen_uni[(uni.generate(&mut rng) / 10) - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(seen_uni.iter().all(|&s| s));
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let a: Vec<u64> = {
            let mut rng = TestRng::for_case("det", 3);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::for_case("det", 3);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = TestRng::for_case("other", 3).next_u64();
        assert_ne!(a[0], c);
    }

    // The macro itself, exercised end-to-end.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_asserts(x in 0u64..100, flag in any::<bool>(), v in crate::collection::vec(0usize..3, 1usize..5)) {
            prop_assert!(x < 100);
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(v.len(), 0);
        }
    }
}
