//! Offline shim of the `proptest` API surface used by this workspace.
//!
//! Provides deterministic randomized property testing with proptest's
//! macro and combinator shapes: [`Strategy`], `prop_map`, `prop_oneof!`,
//! `prop_compose!`, `proptest!`, `any::<T>()`, ranges, collections, and
//! `sample::{Index, select}`. Differences from the real crate, accepted
//! for offline builds:
//!
//! * **No shrinking** — a failing case panics with the generated inputs
//!   left to the assertion message; seeds are deterministic per test
//!   name, so failures reproduce exactly.
//! * **String strategies** understand only the `".{a,b}"` shape (any
//!   chars, length range) and literal strings; that covers the fuzz
//!   tests in-tree.
//! * `prop_assert!`/`prop_assert_eq!` panic immediately instead of
//!   returning `Err(TestCaseError)`.

#![forbid(unsafe_code)]

pub use rand::rngs::SmallRng as TestRng;
pub use rand::{Rng, RngCore, SeedableRng};

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // The real default is 256; 64 keeps the single-core offline CI
        // budget sane while still exercising the properties broadly.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-test seed (djb2 over the test name).
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 5381;
    for b in name.bytes() {
        h = h.wrapping_mul(33) ^ b as u64;
    }
    h
}

/// A generator of values of one type (no shrinking in the shim).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn pick(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { base: self, f }
    }

    /// Keeps only values passing `f` (rejection sampling, bounded).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> strategy::Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        strategy::Filter {
            base: self,
            f,
            whence,
        }
    }
}

/// Strategy combinators and primitive strategies.
pub mod strategy {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn pick(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.pick(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
        pub(crate) whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn pick(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.base.pick(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter: no value satisfied {} in 1000 draws",
                self.whence
            );
        }
    }

    /// A constant strategy.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn pick(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Type-erases a strategy for heterogeneous arm lists.
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            (**self).pick(rng)
        }
    }

    /// Weighted union of strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u64,
    }

    impl<T> OneOf<T> {
        /// Builds from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> OneOf<T> {
            assert!(!arms.is_empty(), "prop_oneof: no arms");
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof: zero total weight");
            OneOf { arms, total }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            let mut draw = rng.gen_range(0..self.total);
            for (w, s) in &self.arms {
                if draw < *w as u64 {
                    return s.pick(rng);
                }
                draw -= *w as u64;
            }
            unreachable!("weights accounted above")
        }
    }

    /// A closure-backed strategy (`prop_compose!` desugars to this).
    pub struct FnStrategy<F>(F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Wraps a closure as a strategy.
    pub fn fn_strategy<T, F: Fn(&mut TestRng) -> T>(f: F) -> FnStrategy<F> {
        FnStrategy(f)
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
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
                fn pick(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.pick(rng),)+)
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
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

    /// `&str` patterns as strategies: `".{a,b}"` (length-ranged
    /// arbitrary text) or a literal string.
    impl Strategy for &'static str {
        type Value = String;
        fn pick(&self, rng: &mut TestRng) -> String {
            if let Some((min, max)) = parse_dot_repeat(self) {
                let len = rng.gen_range(min..=max);
                (0..len)
                    .map(|_| {
                        // Mostly printable ASCII, some exotic chars, to
                        // probe parsers without drowning in invalid
                        // UTF-8 handling (Strings are always valid).
                        match rng.gen_range(0u8..10) {
                            0 => {
                                char::from_u32(rng.gen_range(0x80u32..0x2FFF)).unwrap_or('\u{FFFD}')
                            }
                            1 => ['\t', '\n', '=', '/', '.', '{', '}'][rng.gen_range(0usize..7)],
                            _ => rng.gen_range(0x20u8..0x7F) as char,
                        }
                    })
                    .collect()
            } else {
                (*self).to_string()
            }
        }
    }

    /// Parses the `".{min,max}"` regex shape.
    fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
        let rest = pat.strip_prefix(".{")?;
        let rest = rest.strip_suffix('}')?;
        let (a, b) = rest.split_once(',')?;
        Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
    }
}

/// Types with a canonical "arbitrary value" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
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

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Marker for [`any`], implementing [`Strategy`].
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn pick(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max_inclusive);
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use super::{Arbitrary, Strategy, TestRng};
    use rand::{Rng, RngCore};

    /// A deferred index into a not-yet-known-length collection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a concrete length (`len > 0`).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone + 'static>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select: empty list");
        Select { items }
    }

    /// See [`select`].
    pub struct Select<T> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn pick(&self, rng: &mut TestRng) -> T {
            self.items[rng.gen_range(0..self.items.len())].clone()
        }
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::Just;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
        Arbitrary, ProptestConfig, Strategy,
    };
}

/// Asserts inside a property (panics with context in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted (or unweighted) union of strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

/// Composes named sub-strategies into a derived strategy function.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident()(
            $($arg:pat in $strat:expr),+ $(,)?
        ) -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name() -> impl $crate::Strategy<Value = $ret> {
            $crate::strategy::fn_strategy(move |rng: &mut $crate::TestRng| {
                $(let $arg = $crate::Strategy::pick(&($strat), rng);)+
                $body
            })
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = <$crate::TestRng as $crate::SeedableRng>::seed_from_u64(
                    $crate::seed_for(stringify!($name)),
                );
                for _case in 0..cfg.cases {
                    $(let $arg = $crate::Strategy::pick(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

/// Declares property tests over strategies (shim: no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(a in 1u8..10, (b, c) in (0u16..=3, 5i64..6)) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b <= 3);
            prop_assert_eq!(c, 5);
        }

        #[test]
        fn maps_and_vecs(v in prop::collection::vec((0u8..4).prop_map(|x| x * 2), 1..=5)) {
            prop_assert!(!v.is_empty() && v.len() <= 5);
            prop_assert!(v.iter().all(|x| x % 2 == 0 && *x < 8));
        }

        #[test]
        fn oneof_select_index(
            p in prop_oneof![Just(0u8), 1u8..3],
            s in prop::sample::select(vec!["a", "b"]),
            idx in any::<prop::sample::Index>(),
            raw in any::<[u8; 4]>(),
        ) {
            prop_assert!(p < 3);
            prop_assert!(s == "a" || s == "b");
            prop_assert!(idx.index(7) < 7);
            prop_assert_eq!(raw.len(), 4);
        }

        #[test]
        fn string_pattern(input in ".{0,16}") {
            prop_assert!(input.chars().count() <= 16);
        }
    }

    prop_compose! {
        fn arb_pair()(a in 0u8..4, b in 10u16..20) -> (u8, u16) {
            (a, b)
        }
    }

    proptest! {
        #[test]
        fn composed(pair in arb_pair()) {
            prop_assert!(pair.0 < 4 && (10..20).contains(&pair.1));
        }
    }

    #[test]
    fn weighted_oneof_respects_weights() {
        use crate::{seed_for, SeedableRng, Strategy, TestRng};
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = TestRng::seed_from_u64(seed_for("weights"));
        let trues = (0..1_000).filter(|_| s.pick(&mut rng)).count();
        assert!(trues > 800, "trues={trues}");
    }
}
