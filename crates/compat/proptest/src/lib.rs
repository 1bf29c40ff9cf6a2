//! Offline stand-in for `proptest`.
//!
//! Provides the `proptest!` macro, `prop_assert*` macros, range/tuple/vec
//! strategies and `any::<T>()` — the surface this workspace's property tests
//! use. Tests run a fixed number of deterministic random cases (default 64,
//! override with `PROPTEST_CASES`); the per-test RNG seed is derived from the
//! test name, so failures reproduce exactly. No shrinking: a failing case
//! panics with the standard assert message, which is enough to debug at this
//! scale.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a hash of a test name, used as its deterministic seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Number of cases per property (env `PROPTEST_CASES`, default 64).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A generator of random values for one property-test argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span.saturating_add(1)) as i128) as $t
            }
        }
    )*};
}
impl_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let v = self.start + rng.unit_f64() as $t * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + rng.unit_f64() as $t * (hi - lo)
            }
        }
    )*};
}
impl_strategy_float!(f32, f64);

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_strategy_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Full-range strategy for a primitive, as in `any::<u8>()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Builds the full-range strategy for `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vector strategy with the given element strategy and length range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_inclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Optional-value strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option`s whose `Some` values come from `inner`.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Option` strategy: `None` roughly half the time, `Some(inner)`
    /// otherwise (upstream defaults to a 50% `Some` probability too).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy};
}

/// Declares deterministic property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]` running
/// [`cases`] random cases with a seed derived from the test name.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name)));
            for _case in 0..$crate::cases() {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                $body
            }
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, f in -1.0f32..1.0, k in 0u64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
            prop_assert!(k <= 5);
        }

        #[test]
        fn vec_lengths_respect_size_range(v in crate::collection::vec(0u8..=255, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn tuples_compose(pair in (0.0f32..1.0, 10usize..20)) {
            prop_assert!(pair.0 < 1.0 && pair.1 >= 10);
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::seed_for("a"), crate::seed_for("b"));
    }

    #[test]
    fn generation_is_deterministic() {
        let s = crate::collection::vec(any::<u64>(), 4..8);
        let a = s.generate(&mut TestRng::new(9));
        let b = s.generate(&mut TestRng::new(9));
        assert_eq!(a, b);
    }
}
