//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to a crates registry, so this
//! workspace-local shim implements the subset of the proptest API the
//! workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * integer-range, tuple, [`any`], simple-regex string, `prop_map`,
//!   [`prop_oneof!`], `prop::collection::vec` and `prop::sample::select`
//!   strategies.
//!
//! Cases are generated from a deterministic per-test RNG (seeded from
//! the test name), so failures are reproducible run-to-run. Shrinking is
//! not implemented: a failing case reports its case index and values are
//! printed by the assertion message instead.
//!
//! String "regex" strategies support exactly the `[class]{m,n}` shape
//! the tests use (character sets with ranges, fixed repetition bounds).

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic RNG driving case generation (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name (FNV-1a hash).
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A failed test case (returned by the `prop_assert*` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (for heterogeneous [`prop_oneof!`] arms).
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

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice between boxed strategies ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
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

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Full-range values of primitive types ([`any`]).
pub struct Any<T>(PhantomData<T>);

/// Any value of `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Primitive types [`any`] can generate.
pub trait ArbitraryValue {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Tuple strategies (sampled element-wise).
impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// `&str` patterns of the form `[class]{m,n}` as string strategies.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_pattern(self);
        let len = min + rng.below((max - min + 1) as u64) as usize;
        let mut s = String::with_capacity(len);
        for _ in 0..len {
            s.push(chars[rng.below(chars.len() as u64) as usize]);
        }
        s
    }
}

/// Parses `[class]{m,n}` into (alphabet, m, n).
///
/// # Panics
///
/// Panics on any other pattern shape — this shim supports exactly what
/// the workspace's tests use.
fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
    let inner = pat
        .strip_prefix('[')
        .and_then(|r| r.split_once(']'))
        .unwrap_or_else(|| panic!("unsupported pattern {pat:?}: expected [class]{{m,n}}"));
    let (class, rest) = inner;
    let bounds = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported pattern {pat:?}: expected {{m,n}} bounds"));
    let (m, n) = bounds
        .split_once(',')
        .unwrap_or_else(|| panic!("unsupported bounds in {pat:?}"));
    let min: usize = m.trim().parse().expect("lower bound");
    let max: usize = n.trim().parse().expect("upper bound");
    assert!(min <= max, "bad bounds in {pat:?}");

    let mut chars = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let (lo, hi) = (cs[i], cs[i + 2]);
            assert!(lo <= hi, "bad range {lo}-{hi} in {pat:?}");
            for c in lo..=hi {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    assert!(!chars.is_empty(), "empty character class in {pat:?}");
    (chars, min, max)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vectors of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = Strategy::sample(&self.size, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// Output of [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

/// The usual `use proptest::prelude::*;` imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// The `prop::` module alias proptest's prelude provides.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Asserts a condition inside a property, failing the case (not
/// panicking) so the runner can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {:?} != {:?}: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Defines property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$attr:meta])*
        fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("property failed at case {case}: {e}");
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_parser_handles_classes_and_bounds() {
        let (chars, min, max) = super::parse_pattern("[a-z0-9\n]{0,12}");
        assert_eq!(chars.len(), 26 + 10 + 1);
        assert_eq!((min, max), (0, 12));
    }

    #[test]
    fn string_strategy_respects_pattern() {
        let mut rng = super::TestRng::for_test("strings");
        for _ in 0..100 {
            let s = Strategy::sample(&"[a-c]{2,5}", &mut rng);
            assert!((2..=5).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in 0u8..4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_and_oneof_compose(
            v in prop::collection::vec(prop_oneof![0i64..10, 100i64..110], 1..8),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for x in v {
                prop_assert!((0..10).contains(&x) || (100..110).contains(&x));
            }
        }

        #[test]
        fn tuples_and_select(
            (s, n) in ("[a-z]{1,4}", any::<i64>()),
            pick in prop::sample::select(vec![0.5f64, 1.0, 4.0]),
        ) {
            prop_assert!(!s.is_empty());
            let _ = n;
            prop_assert!([0.5, 1.0, 4.0].contains(&pick));
        }
    }
}
