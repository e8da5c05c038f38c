//! Zipf-distributed popularity sampling.
//!
//! Web object popularity is famously Zipf-like, and the Sydney Olympics
//! trace the paper's datasets were derived from is no exception. This
//! sampler draws ranks from `P(rank = r) ∝ 1 / r^s` exactly, by
//! inverting a precomputed CDF — no externally sourced distribution
//! crate needed.
//!
//! ## Guide table
//!
//! Inversion means: draw `u` in `[0, 1)`, return the first rank whose
//! CDF value is `>= u`. A binary search finds it in `log2(n)` dependent,
//! unpredictable steps (11 at n = 1 500, each a branch miss on a uniform
//! `u`). The sampler instead cuts `[0, 1)` into `4·n` equal **cells**
//! and stores, per cell, the first rank whose CDF value falls in that
//! cell or a later one. `sample` is then one multiply (`u → cell`), one
//! table read, and a forward scan over the CDF from the stored rank —
//! `1 + n / cells = 1.25` CDF reads on average, whatever the exponent,
//! because the cells are uniform in the same measure `u` is.
//!
//! **Exactness.** `u → cell` is computed in floating point, but it is
//! monotone non-decreasing in `u` (a product with a positive constant,
//! a truncation and a clamp all are), and the table is built by pushing
//! the CDF values through the *same* function. So if `cell(cdf[r]) <
//! cell(u)` then `cdf[r] < u`: every rank before the stored one is below
//! `u`, the scan starts at or before the answer, and it stops at the
//! first rank with `cdf >= u` — the rank the binary search returns, for
//! every `u`, with no rounding argument needed. (Where the CDF has a
//! plateau — a rank of probability below one ulp — and `u` equals the
//! plateau value exactly, a binary search may report any rank of the
//! plateau; the scan reports the first, the only one with mass.)
//!
//! **Sizing.** A draw reads `1 + n / cells` CDF entries on average:
//! 2 with `n` cells, 1.25 with `4·n`, 1.125 with `8·n`. `4·n` `u32`
//! cells cost `16·n` bytes, twice the CDF itself; doubling the table
//! again would buy a tenth of a read.

use rand::Rng;

/// An exact Zipf sampler over ranks `0..n` (rank 0 is most popular).
///
/// # Examples
///
/// ```
/// use ecg_workload::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(1000, 0.9);
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    /// Per cell of `[0, 1)`: the first rank whose CDF value maps to that
    /// cell or a later one (see the module docs).
    guide: Vec<u32>,
    exponent: f64,
}

/// Guide cells per rank.
const CELLS_PER_RANK: usize = 4;

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; web workloads
    /// typically sit between `0.6` and `1.2`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `n` exceeds `u32::MAX`, or if `s` is
    /// negative or not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in u32");
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point round-off at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let cells = n
            .checked_mul(CELLS_PER_RANK)
            .expect("guide table size overflows usize");
        let mut guide = Vec::with_capacity(cells);
        for (rank, &c) in cdf.iter().enumerate() {
            // Ranks ascend and so do their cells: every cell up to this
            // rank's that no earlier rank reached starts its scan here.
            // The last CDF value is 1.0, which maps to the last cell, so
            // the table always fills.
            let reached = cell_of(c, cells) + 1;
            if guide.len() < reached {
                guide.resize(reached, rank as u32);
            }
        }
        ZipfSampler {
            cdf,
            guide,
            exponent: s,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler covers no ranks (never happens for a
    /// constructed sampler; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The exponent `s` the sampler was built with.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of drawing `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn probability(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }

    /// Draws a rank in `0..len()`; rank 0 is the most popular. Consumes
    /// exactly one `f64` from `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF value is `>= u`, for `u` in `[0, 1)`.
    fn rank_of(&self, u: f64) -> usize {
        let mut rank = self.guide[cell_of(u, self.guide.len())] as usize;
        // Ends at the last rank at the latest: its CDF value is 1.0 > u.
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

/// The guide cell a value in `[0, 1]` falls in. Monotone non-decreasing
/// in `v` — the property the sampler's exactness rests on.
#[inline]
fn cell_of(v: f64, cells: usize) -> usize {
    ((v * cells as f64) as usize).min(cells - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ZipfSampler {
        /// The binary search `sample` used before the guide table, kept
        /// as the oracle the table is checked against.
        fn rank_of_by_binary_search(&self, u: f64) -> usize {
            match self
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("cdf has no NaN"))
            {
                Ok(i) => i,
                Err(i) => i.min(self.cdf.len() - 1),
            }
        }
    }

    /// The neighbours of `v` one ulp either side, kept inside `[0, 1)`.
    fn with_ulp_neighbours(v: f64) -> impl Iterator<Item = f64> {
        let below = f64::from_bits(v.to_bits().saturating_sub(1));
        let above = f64::from_bits(v.to_bits() + 1);
        [below, v, above].into_iter().filter(|u| *u < 1.0)
    }

    #[test]
    fn guide_table_returns_the_binary_search_rank_for_every_u() {
        let largest_below_one = f64::from_bits(1.0f64.to_bits() - 1);
        for n in [1usize, 2, 7, 1_500, 100_000] {
            for s in [0.0, 0.6, 0.9, 1.2] {
                let z = ZipfSampler::new(n, s);
                assert_eq!(z.guide.len(), 4 * n);
                // These CDFs have no plateau, so the binary search is
                // unambiguous on an exact hit.
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n {n} s {s}");
                let probes = [0.0, largest_below_one]
                    .into_iter()
                    .chain(z.cdf.iter().copied().flat_map(with_ulp_neighbours));
                for u in probes {
                    assert_eq!(
                        z.rank_of(u),
                        z.rank_of_by_binary_search(u),
                        "n {n} s {s} u {u:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn guide_table_agrees_with_binary_search_on_the_cell_edges() {
        // The other place rounding could bite: `u` on, and one ulp
        // around, every cell boundary `c / cells`.
        for (n, s) in [(7usize, 0.9), (1_500, 0.9), (1_500, 0.0)] {
            let z = ZipfSampler::new(n, s);
            let cells = z.guide.len();
            for c in 0..cells {
                for u in with_ulp_neighbours(c as f64 / cells as f64) {
                    assert_eq!(z.rank_of(u), z.rank_of_by_binary_search(u), "cell {c}");
                }
            }
        }
    }

    #[test]
    fn a_plateau_resolves_to_its_first_rank() {
        // Exponent 20 leaves every rank past the first few below one ulp
        // of mass: the CDF is flat at 1.0 from there on, where a binary
        // search is free to answer with any rank of the plateau. The
        // definition — first rank with `cdf >= u` — is the oracle here.
        let z = ZipfSampler::new(50, 20.0);
        let first_at_one = z.cdf.iter().position(|&c| c == 1.0).expect("ends at 1");
        assert!(
            (1..49).contains(&first_at_one),
            "fixture must have a plateau"
        );
        let largest_below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let probes = [0.0, largest_below_one]
            .into_iter()
            .chain(z.cdf.iter().copied().flat_map(with_ulp_neighbours));
        for u in probes {
            let first = z.cdf.iter().position(|&c| c >= u).expect("cdf ends at 1");
            assert_eq!(z.rank_of(u), first, "u {u:e}");
        }
        assert_eq!(z.rank_of(largest_below_one), first_at_one);
    }

    #[test]
    fn sample_draws_exactly_one_f64() {
        let z = ZipfSampler::new(1_500, 0.9);
        let mut drawn = StdRng::seed_from_u64(17);
        let mut reference = drawn.clone();
        for _ in 0..1_000 {
            let rank = z.sample(&mut drawn);
            let u: f64 = reference.gen();
            assert_eq!(rank, z.rank_of_by_binary_search(u));
            assert_eq!(drawn, reference, "rng state diverged");
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfSampler::new(100, 0.8);
        let total: f64 = (0..100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = ZipfSampler::new(50, 1.0);
        for r in 1..50 {
            assert!(z.probability(0) >= z.probability(r));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let z = ZipfSampler::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 100_000;
        let mut counts = [0usize; 20];
        for _ in 0..trials {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let expected = z.probability(r);
            let observed = count as f64 / trials as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {r}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let flat = ZipfSampler::new(100, 0.5);
        let steep = ZipfSampler::new(100, 1.5);
        assert!(steep.probability(0) > flat.probability(0));
        assert!(steep.probability(99) < flat.probability(99));
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(7, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_panics() {
        let _ = ZipfSampler::new(5, -1.0);
    }
}
