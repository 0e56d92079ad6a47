//! Offline stand-in for the `proptest` crate.
//!
//! The evaluation container has no registry access, so the workspace
//! vendors the property-testing API surface it actually uses as a small
//! local crate with the same package name. It keeps proptest's shape —
//! [`strategy::Strategy`] with `prop_map`, `any`, ranges, tuples,
//! string patterns, `prop::collection::{vec, btree_set}`, the
//! [`proptest!`] / [`prop_oneof!`] / [`prop_assert_eq!`] macros — but
//! the engine is a plain deterministic case runner (seeded per test
//! name) with no shrinking. Failures report the test name, case index,
//! and seed so a failing case replays exactly.

#![forbid(unsafe_code)]

/// Deterministic case runner plumbing: RNG, config, and failure type.
pub mod test_runner {
    use std::fmt;

    /// Per-test configuration. Only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Matches crates.io proptest's default case count.
            ProptestConfig { cases: 256 }
        }
    }

    /// A failed property. Only the `fail` constructor exists; rejection
    /// (`prop_assume`) is not part of the vendored surface.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failure carrying `message`.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Stable 64-bit FNV-1a hash of the test path, used as the per-test
    /// base seed so runs are reproducible across processes.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// SplitMix64 generator driving all strategies. One instance per
    /// case, derived from (test seed, case index).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of a test with base seed `seed`.
        pub fn new(seed: u64, case: u64) -> Self {
            TestRng {
                state: seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A recipe for generating values of `Self::Value` from an RNG.
    /// Unlike crates.io proptest there is no value tree / shrinking:
    /// `generate` returns the final value directly.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { source: self, f }
        }
    }

    /// A boxed, type-erased strategy (what [`prop_oneof!`](crate::prop_oneof) stores).
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Boxes a strategy; used by the `prop_oneof!` expansion so the
    /// branch types can differ.
    pub fn boxed<S>(s: S) -> BoxedStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always generates clones of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical whole-domain strategy (see [`any`]).
    pub trait Arbitrary {
        /// Generates a uniform value.
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

    /// The whole-domain strategy for `T` (`any::<u64>()` etc.).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// See [`any`].
    #[derive(Clone, Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `prop_map` adapter.
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        parts: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// A union over `parts`; weights must not all be zero.
        pub fn new(parts: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = parts.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs a nonzero total weight");
            Union { parts, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, part) in &self.parts {
                let w = u64::from(*w);
                if pick < w {
                    return part.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights summed to total")
        }
    }

    macro_rules! impl_strategy_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    let off = if span == u64::MAX {
                        rng.next_u64()
                    } else {
                        rng.below(span + 1)
                    };
                    (lo + off as i128) as $t
                }
            }
        )*};
    }
    impl_strategy_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_strategy_tuple {
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
    impl_strategy_tuple!(A);
    impl_strategy_tuple!(A, B);
    impl_strategy_tuple!(A, B, C);
    impl_strategy_tuple!(A, B, C, D);

    // ---- string patterns -------------------------------------------------

    /// `&'static str` regex-like patterns. Only the forms this workspace
    /// uses are supported: `<atom>{min,max}` where `<atom>` is `.` (any
    /// char except newline) or `\PC` (any printable char). Anything else
    /// panics loudly rather than silently generating the wrong thing.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (atom, min, max) = parse_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            let mut out = String::with_capacity(len);
            for _ in 0..len {
                out.push(match atom {
                    Atom::Dot => dot_char(rng),
                    Atom::Printable => printable_char(rng),
                });
            }
            out
        }
    }

    #[derive(Clone, Copy)]
    enum Atom {
        Dot,
        Printable,
    }

    fn parse_pattern(pat: &str) -> (Atom, usize, usize) {
        let unsupported = || {
            panic!("unsupported string pattern {pat:?}: the offline proptest shim only handles \".{{a,b}}\" and \"\\\\PC{{a,b}}\"")
        };
        let Some(body) = pat.strip_suffix('}') else {
            unsupported()
        };
        let Some((atom, counts)) = body.rsplit_once('{') else {
            unsupported()
        };
        let Some((min, max)) = counts.split_once(',') else {
            unsupported()
        };
        let (Ok(min), Ok(max)) = (min.parse::<usize>(), max.parse::<usize>()) else {
            unsupported()
        };
        assert!(min <= max, "bad repetition in pattern {pat:?}");
        let atom = match atom {
            "." => Atom::Dot,
            "\\PC" => Atom::Printable,
            _ => unsupported(),
        };
        (atom, min, max)
    }

    /// Characters outside ASCII worth exercising: multi-byte UTF-8,
    /// astral-plane, and combining-adjacent forms.
    const EXOTIC: &[char] = &[
        'é',
        'ß',
        'λ',
        'Ω',
        'ж',
        '中',
        '文',
        'あ',
        '한',
        '\u{2603}',
        '\u{1F600}',
        '\u{1F980}',
    ];

    /// Escape-relevant ASCII that `{:?}` formatting must round-trip.
    const ESCAPY: &[char] = &['"', '\\', '\'', '/', '%', '#', '{', '}'];

    fn printable_char(rng: &mut TestRng) -> char {
        match rng.below(8) {
            0..=4 => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
            5 => EXOTIC[rng.below(EXOTIC.len() as u64) as usize],
            _ => ESCAPY[rng.below(ESCAPY.len() as u64) as usize],
        }
    }

    fn dot_char(rng: &mut TestRng) -> char {
        // `.` also matches tab (anything but newline).
        if rng.below(16) == 0 {
            '\t'
        } else {
            printable_char(rng)
        }
    }
}

/// Namespaced strategy modules (mirrors proptest's `prop::` hierarchy).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::collections::BTreeSet;
        use std::ops::Range;

        /// `Vec`s of `element` with length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + rng.below(span.max(1)) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `BTreeSet`s of `element` with *target* size drawn from `size`
        /// (duplicates may land short, same as upstream's best effort).
        pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy { element, size }
        }

        /// See [`btree_set`].
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S> Strategy for BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let target = self.size.start + rng.below(span.max(1)) as usize;
                let mut out = BTreeSet::new();
                // A few retries per slot to approach the target size.
                for _ in 0..target.saturating_mul(2) {
                    if out.len() >= target {
                        break;
                    }
                    out.insert(self.element.generate(rng));
                }
                out
            }
        }
    }
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases; the
/// body may use `?` and the `prop_assert*` macros (it runs inside a
/// closure returning `Result<(), TestCaseError>`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);
     $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let __seed = $crate::test_runner::seed_for(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..u64::from(__config.cases) {
                    let mut __rng = $crate::test_runner::TestRng::new(__seed, __case);
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    let __run = move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    };
                    if let ::core::result::Result::Err(__e) = __run() {
                        panic!(
                            "proptest {} failed at case {}/{} (seed {:#x}): {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            __seed,
                            __e
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "prop_assert_eq!({}, {}) failed: `{:?}` != `{:?}`",
                    stringify!($left), stringify!($right), __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "prop_assert_eq! failed: `{:?}` != `{:?}`: {}",
                    __l, __r, format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "prop_assert_ne!({}, {}) failed: both `{:?}`",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Weighted (or unweighted) choice between strategies producing the
/// same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((($weight) as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_any_are_deterministic_per_case() {
        let s = 0u8..5;
        let mut a = TestRng::new(1, 7);
        let mut b = TestRng::new(1, 7);
        for _ in 0..32 {
            assert_eq!(
                Strategy::generate(&s, &mut a),
                Strategy::generate(&s, &mut b)
            );
        }
    }

    #[test]
    fn patterns_respect_length_and_charset() {
        let mut rng = TestRng::new(9, 0);
        for _ in 0..200 {
            let s = Strategy::generate(&".{0,40}", &mut rng);
            assert!(s.chars().count() <= 40);
            assert!(!s.contains('\n'));
            let p = Strategy::generate(&"\\PC{1,30}", &mut rng);
            let n = p.chars().count();
            assert!((1..=30).contains(&n));
            assert!(p.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn oneof_honors_weights_roughly() {
        let u = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = TestRng::new(3, 0);
        let hits = (0..1000).filter(|_| u.generate(&mut rng)).count();
        assert!(hits > 800, "expected ~900 true, got {hits}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn macro_plumbing_works(v in prop::collection::vec(any::<u16>(), 0..8), x in 1u8..=4) {
            prop_assert!(v.len() < 8);
            prop_assert!((1..=4).contains(&x));
            let doubled: Vec<u32> = v.iter().map(|&e| u32::from(e) * 2).collect();
            prop_assert_eq!(doubled.len(), v.len());
        }
    }
}
