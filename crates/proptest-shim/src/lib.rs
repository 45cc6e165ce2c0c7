//! # proptest (in-tree shim)
//!
//! A minimal, dependency-free stand-in for the real
//! [`proptest`](https://crates.io/crates/proptest) crate, so the workspace's
//! property-based suites compile and run **with no registry access** (this
//! repo must build fully offline — see `act-rng`). It implements exactly the
//! surface those suites use:
//!
//! - the [`proptest!`] macro (multiple `#[test]` fns per invocation, an
//!   optional leading `#![proptest_config(..)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`],
//! - [`test_runner::TestRunner`], for a property whose test sets something
//!   up once for all its cases and tears it down after them,
//! - strategies: [`any`], integer and float ranges, tuples (arity 2–4),
//!   [`prop::collection::vec`], and [`Strategy::prop_map`],
//! - [`ProptestConfig::with_cases`].
//!
//! Semantics differ from real proptest in one deliberate way: failing cases
//! are **not shrunk** — the panic message reports the case number and the
//! failed assertion instead. Generation is deterministic per (test name,
//! case index), so failures reproduce exactly on re-run. If the registry is
//! available and shrinking is wanted, point the `proptest` dev-dependency
//! back at crates.io; the test sources need no change.

use act_rng::rngs::StdRng;
use act_rng::{Rng as _, SeedableRng as _};

/// Run-time knobs, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest's default.
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases (the only knob the repo uses).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed `prop_assert*` inside a property body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// The generator handed to strategies: a seeded [`StdRng`].
pub type TestRng = StdRng;

/// The generator for one case of one property: seeded from an FNV-1a hash
/// of the test name mixed with the case index, so each property explores
/// its own stream and failures reproduce run-to-run.
pub fn rng_for(test_name: &str, case: u64) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value generator, mirroring the used subset of `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`, as in real proptest.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
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

/// Marker for types with a full-domain strategy (`any::<T>()`).
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full-domain strategy for `T`, mirroring `proptest::arbitrary::any`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),+) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )+};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Collection strategies, mirroring `proptest::collection` (re-exported as
/// `prop::collection` by the prelude, which is how the suites name it).
pub mod collection {
    use super::{Strategy, TestRng};
    use act_rng::Rng as _;

    /// Length specification for [`vec`]: an exact length or a range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec`s of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the suites import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

    /// The `prop::` namespace (`prop::collection::vec(..)`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Running a property outside [`proptest!`], mirroring the used subset of
/// `proptest::test_runner`.
pub mod test_runner {
    use crate::{rng_for, Strategy, TestCaseError, TestRng};

    pub use crate::ProptestConfig as Config;

    /// Runs one property over values drawn from a strategy. A test that
    /// boots something for the property (a daemon, a scratch directory)
    /// holds it across every case and drops it after the run.
    #[derive(Debug)]
    pub struct TestRunner {
        config: Config,
    }

    impl TestRunner {
        /// A runner for `config.cases` cases.
        pub fn new(config: Config) -> TestRunner {
            TestRunner { config }
        }

        /// Run `test` on `config.cases` values of `strategy`, drawn from
        /// one fixed stream; the first failing case ends the run.
        ///
        /// # Errors
        ///
        /// The failing case, with its number and assertion.
        pub fn run<S: Strategy>(
            &mut self,
            strategy: &S,
            test: impl Fn(S::Value) -> Result<(), TestCaseError>,
        ) -> Result<(), TestCaseError> {
            run_cases("TestRunner", self.config.cases, |rng| test(strategy.generate(rng)))
        }
    }

    /// Run `cases` cases of the property `name`, each on its own
    /// [`rng_for`] stream, stopping at the first that fails.
    #[doc(hidden)]
    pub fn run_cases(
        name: &str,
        cases: u32,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        for i in 0..cases as u64 {
            if let Err(TestCaseError(msg)) = case(&mut rng_for(name, i)) {
                let msg = format!("proptest case {}/{cases} failed for `{name}`: {msg}", i + 1);
                return Err(TestCaseError(msg));
            }
        }
        Ok(())
    }
}

/// Assert a condition inside a property, with an optional message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` random cases of the body.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(stringify!($name), cfg.cases, |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                    Ok(())
                })
                .unwrap_or_else(|$crate::TestCaseError(msg)| panic!("{}", msg));
            }
        )+
    };
    (
        $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body )+
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y), "y = {} escaped", y);
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0u8..4, any::<bool>()), 1..20)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, _) in &v {
                prop_assert!(*a < 4);
            }
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0usize..10) {
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn prop_map_transforms() {
        let s = (0u32..10).prop_map(|x| x * 2);
        let mut rng = crate::rng_for("prop_map_transforms", 0);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn test_runner_runs_every_case_and_reports_the_first_failure() {
        use crate::test_runner::TestRunner;
        let ran = std::cell::Cell::new(0);
        let mut runner = TestRunner::new(ProptestConfig::with_cases(16));
        let ok = runner.run(&(0u32..10, any::<bool>()), |(x, _)| {
            ran.set(ran.get() + 1);
            prop_assert!(x < 10);
            Ok(())
        });
        assert!(ok.is_ok() && ran.get() == 16);
        let failed = runner.run(&(0u32..10), |x| {
            prop_assert!(x > 1000);
            Ok(())
        });
        assert!(failed.unwrap_err().0.starts_with("proptest case 1/16 failed"));
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_reports_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 1000);
            }
        }
        always_fails();
    }
}
