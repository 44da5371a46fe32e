//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy/macro surface this workspace's property tests
//! use: the [`strategy::Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_flat_map` / `prop_recursive` / `boxed`, [`arbitrary::any`],
//! integer-range / tuple / regex-string strategies, `collection::vec`,
//! `option::of`, `bool::ANY`, and the `proptest!` / `prop_oneof!` /
//! `prop_assert*!` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics with the assertion message
//!   and the generated inputs are not minimised.
//! * **Deterministic seeding.** Each test's RNG is seeded from the test's
//!   module path and name, so failures reproduce across runs. Set
//!   `PROPTEST_SEED=<u64>` to perturb the whole suite.
//! * Regex string strategies support the subset `.`, `[class]`,
//!   literals, and `{m}` / `{m,n}` / `*` / `+` / `?` quantifiers.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod bool;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `fn name(arg in strategy, ...) { body }` items carrying `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for _case in 0..config.cases {
                // The closure gives `return Err(TestCaseError::...)` and
                // the implicit trailing `Ok(())` somewhere to land, as in
                // the real crate.
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) | Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
    )*};
}

/// `assert!` under proptest's name (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under proptest's name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under proptest's name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when an assumption fails (the case counts as
/// rejected, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Choose uniformly (or by weight, with `weight => strategy` arms) among
/// strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
