//! Offline shim for `proptest`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! deterministic mini property-testing engine exposing exactly the proptest
//! API surface the test suites use: the [`proptest!`] macro, range / tuple /
//! [`collection::vec`] / [`arbitrary::any`] / [`strategy::Just`] strategies,
//! `prop_map`, [`prop_oneof!`], `prop_assert*!`, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking** — a failing case reports its generated inputs (all
//!   strategies yield `Debug` values here) but is not minimized;
//! * **Derived seeding** — each test's RNG is seeded from a hash of its
//!   module path + name, so runs are bit-reproducible across invocations
//!   and machines (real proptest defaults to OS entropy + a regressions
//!   file); the `proptest-regressions` files in the tree are ignored;
//! * **Fixed default cases** — 64 per test (real default 256) to keep the
//!   heavier whole-system properties fast.

pub mod rng {
    //! The shim's deterministic RNG (xoshiro256** with SplitMix64 seeding —
    //! the same construction as `elmem_util::DetRng`, embedded here so the
    //! shim has no dependencies).

    /// Deterministic RNG driving all strategy sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Seeds from a 64-bit value.
        pub fn seed(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Seeds deterministically from a test's fully-qualified name.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng::seed(h)
        }

        /// Next 64 random bits.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
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

        /// Uniform integer in `[0, bound)`.
        #[inline]
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "bound must be positive");
            loop {
                let x = self.next_u64();
                let m = (x as u128) * (bound as u128);
                let l = m as u64;
                if l >= bound || l >= l.wrapping_neg() % bound {
                    return (m >> 64) as u64;
                }
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        #[inline]
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod test_runner {
    //! Run configuration.

    /// Per-test configuration (only `cases` is honoured by the shim).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use std::ops::{Range, RangeInclusive};

    use crate::rng::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe (`sample` only), so heterogeneous strategies with the
    /// same value type can be unified via [`BoxedStrategy`].
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64).wrapping_sub(start as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }
}

pub mod collection {
    //! Collection strategies.

    use std::ops::{Range, RangeInclusive};

    use crate::rng::TestRng;
    use crate::strategy::Strategy;

    /// Accepted length specifications for [`vec()`].
    pub trait IntoSizeRange {
        /// Lower and *inclusive* upper bound on the length.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Strategy for `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Generates vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` support for primitives.

    use std::marker::PhantomData;

    use crate::rng::TestRng;
    use crate::strategy::Strategy;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Draws one value uniformly over the domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Namespace mirror so call sites can write `prop::collection::vec(...)`.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    //! Everything test files import via `use proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a property condition (no shrinking: forwards to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (forwards to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (forwards to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when its inputs are uninteresting. The shim has
/// no case budget accounting, so a failed assumption just ends the case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test running `config.cases` deterministic cases. Failing
/// cases print their generated inputs before propagating the panic.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::rng::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest {} failed at case {}/{} with inputs: {}",
                        stringify!($name),
                        case,
                        config.cases,
                        inputs
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::rng::TestRng::seed(1);
        for _ in 0..1000 {
            let x = (5u64..10).sample(&mut rng);
            assert!((5..10).contains(&x));
            let y = (3u32..=3).sample(&mut rng);
            assert_eq!(y, 3);
        }
    }

    #[test]
    fn vec_strategy_honours_length() {
        let mut rng = crate::rng::TestRng::seed(2);
        for _ in 0..200 {
            let v = prop::collection::vec(0u64..5, 2..6).sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let s = prop_oneof![(0u64..1).prop_map(|_| 'a'), (0u64..1).prop_map(|_| 'b'),];
        let mut rng = crate::rng::TestRng::seed(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.sample(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::rng::TestRng::for_test("x::y");
        let mut b = crate::rng::TestRng::for_test("x::y");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn the_macro_itself_works(x in 0u64..100, v in prop::collection::vec(0u32..10, 0..5)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 5);
        }
    }
}
