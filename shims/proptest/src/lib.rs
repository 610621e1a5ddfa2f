//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no registry access, so this shim supplies
//! the slice of proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range and tuple strategies,
//! [`collection::vec`], [`any`], weighted [`prop_oneof!`], and the
//! [`proptest!`] test macro. Cases are generated from a deterministic
//! per-test seed (FNV-1a of the test name), so failures reproduce on
//! every run. There is **no shrinking**: a failing case panics with the
//! generated inputs printed via `Debug`, which is enough to pin down a
//! regression in a deterministic codebase.

use rand::rngs::StdRng;

pub mod strategy {
    //! Value-generation strategies.

    use super::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice among boxed strategies (backs [`prop_oneof!`](crate::prop_oneof!)).
    pub struct Union<T> {
        variants: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u32,
    }

    impl<T> Union<T> {
        /// An empty union; populate with [`Union::or`].
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Union {
                variants: Vec::new(),
                total: 0,
            }
        }

        /// Adds a weighted variant. Taking `impl Strategy` here (rather
        /// than a pre-boxed trait object) lets inference unify `T` with
        /// each variant's value type, which a coercion cast cannot.
        pub fn or<S>(mut self, weight: u32, strat: S) -> Self
        where
            S: Strategy<Value = T> + 'static,
        {
            assert!(weight > 0, "prop_oneof!: zero weight");
            self.total += weight;
            self.variants.push((weight, Box::new(strat)));
            self
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(self.total > 0, "prop_oneof!: empty union");
            let mut pick = rng.gen_u32_below(self.total);
            for (w, s) in &self.variants {
                if pick < *w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weight accounting")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty => $sample:ident),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.$sample(self.start, self.end, false)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.$sample(*self.start(), *self.end(), true)
                }
            }
        )*};
    }

    impl_range_strategy!(
        u8 => sample_u8,
        u16 => sample_u16,
        u32 => sample_u32,
        u64 => sample_u64,
        usize => sample_usize,
        i32 => sample_i32,
        i64 => sample_i64
    );

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

/// Deterministic generator driving the strategies.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Creates the generator for one test from its name-derived seed.
    pub fn from_seed(seed: u64) -> TestRng {
        use rand::SeedableRng;
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.inner.next_u64()
    }

    /// Uniform draw below `bound` (used for union weights).
    pub fn gen_u32_below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }
}

macro_rules! testrng_samplers {
    ($($f:ident => $t:ty),*) => {
        impl TestRng {
            $(
                #[doc = "Uniform draw from the given bounds."]
                pub fn $f(&mut self, low: $t, high: $t, inclusive: bool) -> $t {
                    let span = if inclusive {
                        (high as i128) - (low as i128) + 1
                    } else {
                        (high as i128) - (low as i128)
                    };
                    assert!(span > 0, "empty strategy range");
                    (low as i128 + (self.next_u64() as i128).rem_euclid(span)) as $t
                }
            )*
        }
    };
}

testrng_samplers!(
    sample_u8 => u8,
    sample_u16 => u16,
    sample_u32 => u32,
    sample_u64 => u64,
    sample_usize => usize,
    sample_i32 => i32,
    sample_i64 => i64
);

/// Per-run configuration (subset: `cases`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty => $f:ident),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.$f(<$t>::MIN, <$t>::MAX, true)
            }
        }
    )*};
}

impl_arbitrary_uint!(u8 => sample_u8, u16 => sample_u16, u32 => sample_u32);

/// Strategy for [`Arbitrary`] types (backs [`any`]).
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> strategy::Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy generating `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// Generates vectors of `elem`-generated values with a length in
    /// `len` (half-open, matching proptest's `1..25` idiom).
    pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "collection::vec: empty length range");
        VecStrategy {
            elem,
            min: len.start,
            max: len.end,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.sample_usize(self.min, self.max, false);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// FNV-1a of the test path: the deterministic per-test seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub mod prelude {
    //! One-stop imports for property tests.

    pub use crate::strategy::Strategy;
    pub use crate::{any, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn` runs its body over generated
/// inputs for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_seed($crate::seed_for(concat!(
                module_path!(),
                "::",
                stringify!($name)
            )));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $(let $arg = $arg.clone();)+
                    $body
                }));
                if let Err(panic) = result {
                    eprintln!(
                        "proptest case {} of {} failed for {}:",
                        case + 1,
                        config.cases,
                        stringify!($name)
                    );
                    $(eprintln!("  {} = {:?}", stringify!($arg), $arg);)+
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

/// Weighted (`w => strategy`) or uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($weight as u32, $strat))+
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or(1u32, $strat))+
    };
}

/// Asserts a condition inside a property (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Pick {
        Small(u8),
        Big(u64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u64..9, y in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn tuples_and_maps(pair in (0u32..5, 10u32..20).prop_map(|(a, b)| a + b)) {
            prop_assert!((10..25).contains(&pair));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u8..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_is_weighted(p in prop_oneof![
            3 => (0u8..10).prop_map(Pick::Small),
            1 => (0u64..10).prop_map(Pick::Big),
        ]) {
            match p {
                Pick::Small(x) => prop_assert!(x < 10),
                Pick::Big(x) => prop_assert!(x < 10),
            }
        }

        #[test]
        fn any_u8_works(b in any::<u8>()) {
            let _ = b;
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = crate::TestRng::from_seed(crate::seed_for("x"));
        let mut b = crate::TestRng::from_seed(crate::seed_for("x"));
        let s = 0u64..1_000;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
