//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// A length specification accepted by [`vec()`].
pub trait SizeRange {
    /// Draws a length.
    fn sample_len(&self, rng: &mut StdRng) -> usize;
}

impl SizeRange for usize {
    fn sample_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.len.sample_len(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

/// A strategy producing vectors whose elements come from `element` and
/// whose length is drawn from `len`.
pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_lengths_follow_the_spec() {
        let mut rng = StdRng::seed_from_u64(0);
        let fixed = vec(0u64..5, 4usize);
        assert_eq!(fixed.sample(&mut rng).len(), 4);
        let ranged = vec(0u64..5, 2usize..6);
        for _ in 0..50 {
            let v = ranged.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }
}
