//! Offline vendored subset of `proptest`.
//!
//! The build environment has no registry access, so this workspace vendors
//! the proptest surface its tests use: the `proptest!` macro, range and
//! `collection::vec` strategies, `num::*::ANY`, `ProptestConfig { cases }`
//! and the `prop_assert*` macros. Cases are generated from a deterministic
//! xorshift stream (override the seed with `PROPTEST_SEED`); there is no
//! shrinking — on failure the macro reports the case number and seed so
//! the exact inputs can be replayed.

use std::ops::Range;

/// Test-runner configuration (`cases` is the number of random cases).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
    /// Accepted for API compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic xorshift64* generator driving case generation.
pub struct TestRng(u64);

impl TestRng {
    /// Seeded from `PROPTEST_SEED` when set, else a fixed default.
    pub fn from_env() -> Self {
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        Self::seeded(seed)
    }

    /// Seeded with `seed`, each seed its own stream. Xorshift never
    /// leaves state 0, so seed 0 starts from `u64::MAX` instead.
    pub fn seeded(seed: u64) -> Self {
        TestRng(if seed == 0 { u64::MAX } else { seed })
    }

    /// Next raw u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The current seed (for failure reports).
    pub fn state(&self) -> u64 {
        self.0
    }
}

/// A generator of random values (no shrinking).
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Produce one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => { $(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
    )* };
}
impl_int_range_strategy!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

/// Length specification for [`collection::vec`]: a fixed size or a range.
#[derive(Debug, Clone)]
pub struct SizeRange(Range<usize>);

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange(r)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy producing a `Vec` of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a fixed length or a length range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let r = &self.size.0;
            let len = if r.end - r.start <= 1 {
                r.start
            } else {
                r.start + (rng.next_u64() as usize) % (r.end - r.start)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Whole-domain strategies for numeric types (`proptest::num::i64::ANY`).
pub mod num {
    macro_rules! impl_any_mod {
        ($($m:ident / $t:ty),*) => { $(
            /// Strategies for this numeric type.
            pub mod $m {
                /// Strategy generating any value of the type.
                pub struct Any;
                /// Any value of the type.
                pub const ANY: Any = Any;
                impl crate::Strategy for Any {
                    type Value = $t;
                    fn generate(&self, rng: &mut crate::TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            }
        )* };
    }
    impl_any_mod!(
        u8 / u8,
        i8 / i8,
        u16 / u16,
        i16 / i16,
        u32 / u32,
        i32 / i32,
        u64 / u64,
        i64 / i64,
        usize / usize,
        isize / isize
    );

    /// Strategies for f64.
    pub mod f64 {
        /// Strategy generating finite f64 values across a wide range.
        pub struct Any;
        /// Any finite f64.
        pub const ANY: Any = Any;
        impl crate::Strategy for Any {
            type Value = f64;
            fn generate(&self, rng: &mut crate::TestRng) -> f64 {
                (rng.next_f64() - 0.5) * 2e12
            }
        }
    }
}

/// Assert a condition inside a property (panics with case context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Define property tests: each `#[test] fn name(pat in strategy, ...)` runs
/// `cases` times over deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        #[test]
        fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_env();
                for case in 0..config.cases {
                    let seed = rng.state();
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let run = || { $body };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                    if let Err(e) = result {
                        eprintln!(
                            "proptest case {case} failed (PROPTEST_SEED to replay from start; \
                             case rng state {seed:#x})"
                        );
                        std::panic::resume_unwind(e);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_env();
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(-5i32..9), &mut rng);
            assert!((-5..9).contains(&w));
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn neighbouring_seeds_draw_different_streams() {
        let first = |seed| TestRng::seeded(seed).next_u64();
        assert_ne!(first(2), first(3));
        assert_ne!(first(0), 0, "seed 0 is a live stream");
        // The default seed is odd, so default runs draw what they did.
        assert_eq!(
            TestRng::seeded(0x9E37_79B9_7F4A_7C15).state(),
            0x9E37_79B9_7F4A_7C15
        );
    }

    #[test]
    fn vec_sizes_fixed_and_ranged() {
        let mut rng = TestRng::from_env();
        let fixed = collection::vec(0u32..10, 7).generate(&mut rng);
        assert_eq!(fixed.len(), 7);
        for _ in 0..100 {
            let ranged = collection::vec(0u32..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&ranged.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
        #[test]
        fn macro_parses_and_runs(x in 0u64..100, mut v in collection::vec(0i32..5, 0..4)) {
            v.push(x as i32 % 5);
            prop_assert!(v.iter().all(|&e| e < 5));
            prop_assert_eq!(v.last().copied().unwrap(), (x % 5) as i32);
        }
    }

    proptest! {
        #[test]
        fn default_config_arm_works(a in num::i64::ANY) {
            prop_assert_eq!(a, a);
        }
    }
}
