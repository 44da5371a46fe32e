//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// An inclusive-exclusive size window for generated collections.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_excl: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_excl: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi_excl: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        let (lo, hi) = r.into_inner();
        assert!(lo <= hi, "empty size range");
        Self {
            lo,
            hi_excl: hi + 1,
        }
    }
}

/// `Vec` strategy: `size` elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.lo + rng.below(self.size.hi_excl - self.size.lo);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_respected() {
        let mut rng = TestRng::from_seed(7);
        let s = vec(0u64..10, 2..5);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let exact = vec(0u64..10, 3);
        assert_eq!(exact.generate(&mut rng).len(), 3);
    }
}
