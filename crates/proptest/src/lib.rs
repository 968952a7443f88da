//! Offline drop-in subset of the `proptest` API.
//!
//! The workspace pins its property tests to the public proptest surface
//! (`proptest!`, `Strategy`, `any`, `collection`, `sample`, string-class
//! strategies), but the build environment has no network access to the
//! crates.io registry. This crate re-implements exactly the subset those
//! tests use so the suite runs hermetically. Differences from upstream:
//!
//! * Cases are sampled from a deterministic per-property seed; there is
//!   no failure persistence file and **no shrinking** — on failure the
//!   case index and seed are printed so the case can be replayed.
//! * String strategies support the tiny regex dialect the tests use
//!   (`[class]{m,n}` and `\PC{m,n}`), not full regex syntax.
//! * `PROPTEST_CASES` is honoured; the default is 64 cases per property.

pub mod test_runner {
    //! Deterministic case driver and the RNG handed to strategies.

    /// SplitMix64 generator; small, fast, and deterministic across
    /// platforms, which is all a sampling-only shim needs.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Create a generator from a 64-bit seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }

        /// Uniform draw in the inclusive range `[lo, hi]`.
        pub fn usize_between(&mut self, lo: usize, hi: usize) -> usize {
            debug_assert!(lo <= hi);
            lo + self.below((hi - lo) as u64 + 1) as usize
        }

        /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    fn property_seed(name: &str, case: u64) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        h ^ (case + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Run `case` for each sampled input; on panic, report which case and
    /// seed failed (for replay) and re-raise so the test harness sees it.
    pub fn run_cases(name: &str, mut case: impl FnMut(&mut TestRng)) {
        let cases: u64 = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        for i in 0..cases {
            let seed = property_seed(name, i);
            let mut rng = TestRng::new(seed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
            if let Err(payload) = outcome {
                eprintln!(
                    "proptest(shim): property `{name}` failed at case {i}/{cases} (seed {seed:#018x})"
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait plus the combinators the workspace tests use.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for sampling values of `Self::Value`.
    ///
    /// Upstream proptest separates strategies from value trees to support
    /// shrinking; this shim collapses both into direct sampling.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Sample one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform every sampled value with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Derive a second strategy from each sampled value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    ((self.start as u128) + (rng.next_u64() as u128) % span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty integer range strategy");
                    let span = (*self.end() as u128) - (*self.start() as u128) + 1;
                    ((*self.start() as u128) + (rng.next_u64() as u128) % span) as $t
                }
            }
        )+};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start() <= self.end(), "empty f64 range strategy");
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($idx:tt $name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy! {
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
    }

    // ---- string-class strategies -------------------------------------
    //
    // `&str` strategies interpret the tiny regex dialect the tests use:
    // a sequence of atoms, each either `[class]` or `\PC` (any printable
    // char), optionally followed by a `{m,n}` repeat count.

    enum Atom {
        /// Character classes as inclusive ranges; literals are 1-ranges.
        Class(Vec<(char, char)>),
        /// `\PC`: any non-control character.
        Printable,
    }

    impl Atom {
        fn emit(&self, rng: &mut TestRng, out: &mut String) {
            match self {
                Atom::Class(ranges) => {
                    let (lo, hi) = ranges[rng.below(ranges.len() as u64) as usize];
                    let span = (hi as u32) - (lo as u32) + 1;
                    let c = char::from_u32(lo as u32 + rng.below(u64::from(span)) as u32)
                        .expect("class range spans a surrogate gap");
                    out.push(c);
                }
                Atom::Printable => {
                    // Mostly printable ASCII, with occasional multi-byte
                    // characters to exercise non-ASCII handling.
                    const WIDE: &[char] = &['£', 'é', 'λ', '→', '中', '☃'];
                    if rng.below(16) == 0 {
                        out.push(WIDE[rng.below(WIDE.len() as u64) as usize]);
                    } else {
                        out.push((0x20 + rng.below(0x7F - 0x20) as u8) as char);
                    }
                }
            }
        }
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Atom {
        let mut ranges = Vec::new();
        loop {
            let c = chars
                .next()
                .expect("unterminated [class] in strategy pattern");
            if c == ']' {
                break;
            }
            if chars.peek() == Some(&'-') {
                let mut ahead = chars.clone();
                ahead.next();
                if ahead.peek().is_some_and(|&n| n != ']') {
                    chars.next();
                    let end = chars.next().expect("dangling range in [class]");
                    ranges.push((c, end));
                    continue;
                }
            }
            ranges.push((c, c));
        }
        assert!(!ranges.is_empty(), "empty [class] in strategy pattern");
        Atom::Class(ranges)
    }

    fn parse_repeat(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut body = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            body.push(c);
        }
        let (lo, hi) = match body.split_once(',') {
            Some((lo, hi)) => (lo, hi),
            None => (body.as_str(), body.as_str()),
        };
        (
            lo.trim().parse().expect("bad {m,n} lower bound"),
            hi.trim().parse().expect("bad {m,n} upper bound"),
        )
    }

    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            let mut chars = self.chars().peekable();
            while let Some(c) = chars.next() {
                let atom = match c {
                    '[' => parse_class(&mut chars),
                    '\\' => match chars.next() {
                        Some('P') => {
                            assert_eq!(
                                chars.next(),
                                Some('C'),
                                "only \\PC is supported after a backslash"
                            );
                            Atom::Printable
                        }
                        Some(lit) => Atom::Class(vec![(lit, lit)]),
                        None => panic!("dangling backslash in strategy pattern"),
                    },
                    lit => Atom::Class(vec![(lit, lit)]),
                };
                let (lo, hi) = parse_repeat(&mut chars);
                let count = rng.usize_between(lo, hi);
                for _ in 0..count {
                    atom.emit(rng, &mut out);
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    //! The `Arbitrary` trait and the `any::<T>()` entry point.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Sample an unconstrained value of `Self`.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy covering the full domain of `T` (see [`any`]).
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }

    int_arbitrary!(u8, u16, u32, u64, usize);

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in out.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds accepted by collection strategies.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rng.usize_between(self.min, self.max)
        }
    }

    /// Strategy producing `Vec`s of values from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy producing `BTreeSet`s of values from `elem`.
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `BTreeSet` strategy targeting a size drawn from `size`. If the
    /// element domain is too small to reach the target, the set is
    /// returned at whatever size a bounded number of draws achieved.
    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 20 + 100 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod option {
    //! The `option::of` strategy.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Option`s of values from `inner`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some(value)` three times in four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod sample {
    //! `sample::Index` and `sample::select`.

    use crate::arbitrary::Arbitrary;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A position into a collection whose length is only known at use
    /// time; `index(len)` maps it uniformly into `[0, len)`.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Map this sample into `[0, len)`. Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }

    /// Strategy choosing uniformly among fixed options (see [`select`]).
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Choose uniformly from `options`; must be non-empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over an empty option list");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Shorthand module mirroring upstream's `prop::` path alias.
pub mod prop {
    pub use crate::{collection, option, sample};
}

/// Everything a property-test file needs, mirroring upstream's prelude.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body across sampled cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$attr])*
            fn $name() {
                $crate::test_runner::run_cases(stringify!($name), |__ptshim_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __ptshim_rng);)+
                    $body
                });
            }
        )+
    };
}

/// Assert inside a property body (no shrinking, so plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when its sampled inputs don't satisfy a
/// precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return;
        }
    };
}
