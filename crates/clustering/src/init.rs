//! K-means initialization strategies.
//!
//! The SL and SDSL schemes differ only here: SL draws the `K` initial
//! cluster centers uniformly ("any cache may be selected to an initial
//! cluster center with equal probability", §4), while SDSL biases the
//! draw so "the probability that an edge cache is chosen as an initial
//! cluster center is made inversely proportional to its distance from
//! the origin server". [`Initializer::Weighted`] implements that biased
//! draw for arbitrary weights; k-means++ is included as an extension
//! baseline for the ablation benches.
//!
//! # The weighted draw: cost and why it is exact
//!
//! The draw the goldens pin is a loop of `K` rounds, each summing all
//! `N` remaining weights, scaling the sum by one `gen::<f64>()` and
//! subtracting weights in index order until the target reaches zero —
//! O(N·K), ≈ 100 ms at N = 100k, K = 1 000. `weighted_draws` returns
//! the same indices from the same stream in **O(N + K·√N)**: it keeps
//! the left-fold sum of each block of `B = ⌈√N⌉` weights, and per draw
//! folds the `⌈N/B⌉` block sums into a total, walks them to the block
//! holding the target, walks at most `B` weights inside it, and re-sums
//! the one block the pick zeroed (≈ 1.5 ms at that size).
//!
//! Those sums round differently from the reference loop's, so a located
//! pick is *accepted only when rounding provably cannot matter*, and the
//! reference draw runs on the same `u` otherwise. With `W` the exact sum
//! of the remaining weights, `S_i` the exact prefix through weight `i`,
//! `T = u·W` and `ε = f64::EPSILON` (twice the unit roundoff):
//!
//! * **Reference.** Its total is a left fold of `N` terms, `u * total`
//!   rounds once, and each of its fewer than `N` subtractions rounds a
//!   value no larger than the total — so every `target` it tests is
//!   within `N·ε·W` of `T − S_i`, and the *sign* of a rounded difference
//!   is the exact sign. Hence `S_{i−1} + N·ε·W < T < S_i − N·ε·W` forces
//!   it to pick `i`.
//! * **Fast path.** Its target carries the `B`-term block folds, the
//!   `⌈N/B⌉`-term fold over them and one product; its prefix adds at
//!   most `⌈N/B⌉` block sums and `B` weights. The two gaps it tests,
//!   `target − below` and `above − target`, are each within
//!   `(⌈N/B⌉ + 1.5·B + 1)·ε·W` of `T − S_{i−1}` and `S_i − T`.
//! * **Margin.** It accepts only if both gaps exceed `8·N·ε·total`.
//!   Since `7·N ≥ ⌈N/B⌉ + 1.5·B + 1` for every `N ≥ 1` (the right side is
//!   at most `2.5·√N + 3.5`), an accepted gap leaves the true gap above
//!   `N·ε·W`, with a factor ≈ 7 to spare for the second-order terms
//!   (`N·ε ≪ 1` for any `N` that fits in memory).
//!
//! The bound assumes no underflow or overflow, so the fast path also
//! stands down when the margin is not a normal float (a zero, subnormal
//! or non-finite total) or the total is within a factor two of
//! `f64::MAX`; the "last positive weight" slack case sits at the top
//! edge of the last interval and is never accepted. Each of the `N`
//! interval edges is guarded by a window of two margins, so a draw falls
//! back with probability ≈ `16·N²·ε` — once in ≈ 30 000 draws at
//! N = 100k; the reference's own worst-case rounding sets that scale.

use crate::kmeans::{sq_l2, KmeansError};
use ecg_coords::FeatureMatrix;
use rand::Rng;

/// Strategy for choosing the `k` initial cluster centers.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// Uniform random distinct points — the SL scheme's initialization.
    RandomRepresentative,
    /// Distinct points drawn without replacement with probability
    /// proportional to the given per-point weights — the SDSL scheme's
    /// initialization with `w_j = 1 / Dist(Ec_j, Os)^θ`.
    ///
    /// Weights must be non-negative and finite with at least `k` strictly
    /// positive entries.
    Weighted(Vec<f64>),
    /// k-means++ seeding (Arthur & Vassilvitskii '07): each subsequent
    /// seed is drawn with probability proportional to its squared
    /// distance from the nearest already-chosen seed. Not in the paper;
    /// used by the ablation benches as a stronger-initialization
    /// reference point.
    KmeansPlusPlus,
    /// Explicit seed point indices, for tests and deterministic replays.
    Provided(Vec<usize>),
}

impl Initializer {
    /// Selects `k` distinct seed indices out of `points`.
    ///
    /// # Errors
    ///
    /// Returns [`KmeansError::BadInitializer`] if the strategy cannot
    /// produce `k` distinct valid seeds (bad weights, out-of-range or
    /// duplicate provided indices).
    pub fn select<R: Rng + ?Sized>(
        &self,
        points: &FeatureMatrix,
        k: usize,
        rng: &mut R,
    ) -> Result<Vec<usize>, KmeansError> {
        let n = points.len();
        debug_assert!(n >= k);
        match self {
            Initializer::RandomRepresentative => {
                let mut indices: Vec<usize> = (0..n).collect();
                // Partial Fisher-Yates: first k slots become the sample.
                for i in 0..k {
                    let j = rng.gen_range(i..n);
                    indices.swap(i, j);
                }
                indices.truncate(k);
                Ok(indices)
            }
            Initializer::Weighted(weights) => {
                if weights.len() != n {
                    return Err(KmeansError::BadInitializer(format!(
                        "got {} weights for {n} points",
                        weights.len()
                    )));
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                    return Err(KmeansError::BadInitializer(
                        "weights must be finite and non-negative".into(),
                    ));
                }
                if weights.iter().filter(|w| **w > 0.0).count() < k {
                    return Err(KmeansError::BadInitializer(format!(
                        "need at least {k} positive weights"
                    )));
                }
                Ok(weighted_draws(weights, k, rng))
            }
            Initializer::KmeansPlusPlus => {
                let mut chosen = Vec::with_capacity(k);
                chosen.push(rng.gen_range(0..n));
                let mut dist2: Vec<f64> = points
                    .iter_rows()
                    .map(|p| sq_l2(p, points.row(chosen[0])))
                    .collect();
                while chosen.len() < k {
                    let total: f64 = dist2.iter().sum();
                    let next = if total <= f64::EPSILON {
                        // All remaining points coincide with chosen seeds:
                        // fall back to any unchosen index.
                        (0..n)
                            .find(|i| !chosen.contains(i))
                            .expect("n >= k so an unchosen point exists")
                    } else {
                        let mut target = rng.gen::<f64>() * total;
                        let mut pick = n - 1;
                        for (i, &d) in dist2.iter().enumerate() {
                            target -= d;
                            if target <= 0.0 {
                                pick = i;
                                break;
                            }
                        }
                        pick
                    };
                    chosen.push(next);
                    let next_row = points.row(next);
                    for (i, p) in points.iter_rows().enumerate() {
                        dist2[i] = dist2[i].min(sq_l2(p, next_row));
                    }
                }
                Ok(chosen)
            }
            Initializer::Provided(indices) => {
                if indices.len() != k {
                    return Err(KmeansError::BadInitializer(format!(
                        "provided {} seeds for k = {k}",
                        indices.len()
                    )));
                }
                let mut sorted = indices.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != k {
                    return Err(KmeansError::BadInitializer("duplicate seeds".into()));
                }
                if sorted.last().is_some_and(|&m| m >= n) {
                    return Err(KmeansError::BadInitializer("seed out of range".into()));
                }
                Ok(indices.clone())
            }
        }
    }
}

/// `k` weighted draws without replacement: after each pick the weight is
/// zeroed and the next draw sees the rest. Every draw consumes exactly
/// one `gen::<f64>()` and returns what [`reference_draw`] returns for it
/// — [`certified_draw`] answers when it can prove that, the reference
/// scan otherwise (module docs).
fn weighted_draws<R: Rng + ?Sized>(weights: &[f64], k: usize, rng: &mut R) -> Vec<usize> {
    let n = weights.len();
    let mut remaining = weights.to_vec();
    let width = ((n as f64).sqrt().ceil() as usize).max(1);
    let mut blocks: Vec<f64> = remaining.chunks(width).map(|b| b.iter().sum()).collect();
    let mut chosen = Vec::with_capacity(k);
    for _ in 0..k {
        let u = rng.gen::<f64>();
        let pick = certified_draw(&remaining, &blocks, width, u)
            .unwrap_or_else(|| reference_draw(&remaining, u));
        chosen.push(pick);
        remaining[pick] = 0.0;
        let block = pick / width;
        blocks[block] = remaining[block * width..n.min((block + 1) * width)]
            .iter()
            .sum();
    }
    chosen
}

/// One draw of the O(N) reference: the first positive weight at which
/// `u · Σw` minus the running prefix reaches zero. The fallback of
/// [`weighted_draws`] and the oracle its tests compare against.
fn reference_draw(remaining: &[f64], u: f64) -> usize {
    let total: f64 = remaining.iter().sum();
    let mut target = u * total;
    for (i, &w) in remaining.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    // Floating-point slack: fall back to the last positive.
    remaining
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive weights remain")
}

/// The same draw located on the block sums (`blocks[b]` is the left-fold
/// sum of `remaining[b·width ..][.. width]`), or `None` when `u · Σw`
/// lies too close to an edge of the located weight's interval — or the
/// total is too small or too large — for the module-docs bound to prove
/// the reference picks the same index.
fn certified_draw(remaining: &[f64], blocks: &[f64], width: usize, u: f64) -> Option<usize> {
    #[cfg(test)]
    if tests::FORCE_REFERENCE.with(std::cell::Cell::get) {
        return None;
    }
    let total: f64 = blocks.iter().sum();
    let margin = 8.0 * remaining.len() as f64 * f64::EPSILON * total;
    // A normal margin also rules out a zero, non-finite or underflowing
    // total; half the range keeps the reference's own sums finite.
    if !margin.is_normal() || total >= f64::MAX / 2.0 {
        return None;
    }
    let target = u * total;
    let mut below = 0.0;
    let mut block = 0;
    for &sum in blocks {
        if below + sum >= target {
            break;
        }
        below += sum;
        block += 1;
    }
    let start = block * width;
    for (i, &w) in remaining.iter().enumerate().skip(start).take(width) {
        if w <= 0.0 {
            continue;
        }
        let above = below + w;
        if above >= target {
            return (target - below > margin && above - target > margin).then_some(i);
        }
        below = above;
    }
    None
}

/// Builds the SDSL initialization weights `w_j = 1 / d_j^θ` from
/// per-point server distances.
///
/// `theta` controls server-distance sensitivity: `0` degenerates to the
/// uniform SL draw, larger values concentrate the seeds ever closer to
/// the origin. Distances of zero are clamped to the smallest positive
/// distance (a cache co-located with the origin is simply "very close").
///
/// # Panics
///
/// Panics if `theta` is negative/not finite or any distance is
/// negative/not finite.
pub fn server_distance_weights(server_distances: &[f64], theta: f64) -> Vec<f64> {
    assert!(
        theta.is_finite() && theta >= 0.0,
        "theta must be finite and non-negative"
    );
    for &d in server_distances {
        assert!(
            d.is_finite() && d >= 0.0,
            "server distances must be finite and non-negative"
        );
    }
    let min_positive = server_distances
        .iter()
        .copied()
        .filter(|&d| d > 0.0)
        .fold(f64::INFINITY, f64::min);
    let floor = if min_positive.is_finite() {
        min_positive
    } else {
        1.0
    };
    server_distances
        .iter()
        .map(|&d| 1.0 / d.max(floor).powf(theta))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// While set, `certified_draw` declines every draw on this
        /// thread, so `weighted_draws` runs on its fallback alone.
        pub(super) static FORCE_REFERENCE: Cell<bool> = const { Cell::new(false) };
    }

    fn points(n: usize) -> FeatureMatrix {
        FeatureMatrix::from_rows(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    /// The O(N·K) loop `weighted_draws` replaced: the oracle.
    fn weighted_reference<R: Rng + ?Sized>(weights: &[f64], k: usize, rng: &mut R) -> Vec<usize> {
        let mut remaining = weights.to_vec();
        let mut chosen = Vec::with_capacity(k);
        for _ in 0..k {
            let u = rng.gen::<f64>();
            let pick = reference_draw(&remaining, u);
            chosen.push(pick);
            remaining[pick] = 0.0;
        }
        chosen
    }

    /// Plays back chosen `gen::<f64>()` values (as 53-bit numerators),
    /// then continues on a seeded stream.
    struct Scripted {
        numerators: Vec<u64>,
        played: usize,
        tail: StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let scripted = self.numerators.get(self.played).map(|&x| x << 11);
            self.played += 1;
            scripted.unwrap_or_else(|| self.tail.next_u64())
        }
    }

    /// Same indices and the same next output as the oracle, on the fast
    /// path and with every draw forced down the fallback.
    fn assert_same_draws(weights: &[f64], k: usize, numerators: &[u64], seed: u64) {
        let rng = || Scripted {
            numerators: numerators.to_vec(),
            played: 0,
            tail: StdRng::seed_from_u64(seed),
        };
        let mut oracle_rng = rng();
        let expected = weighted_reference(weights, k, &mut oracle_rng);
        let after = oracle_rng.next_u64();
        for force in [false, true] {
            FORCE_REFERENCE.with(|f| f.set(force));
            let mut fast_rng = rng();
            let got = weighted_draws(weights, k, &mut fast_rng);
            FORCE_REFERENCE.with(|f| f.set(false));
            assert_eq!(got, expected, "forced fallback: {force}");
            assert_eq!(fast_rng.next_u64(), after, "stream position");
        }
    }

    fn positive(weights: &[f64]) -> usize {
        weights.iter().filter(|w| **w > 0.0).count()
    }

    /// Weight vectors that stress the certificate: equal weights (every
    /// interval edge a short float), zeros, 600 decades of magnitude,
    /// and totals past `f64::MAX`.
    fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
        let weight = prop_oneof![
            Just(1.0f64),
            Just(0.0f64),
            0.0f64..10.0,
            (-300i32..300).prop_map(|e| 10f64.powi(e)),
            Just(1.0e308f64),
        ];
        let uniform = (
            1usize..700,
            prop_oneof![Just(1.0f64), Just(0.1f64), Just(3.0e-310f64)],
        )
            .prop_map(|(n, w)| vec![w; n]);
        prop_oneof![
            proptest::collection::vec(weight, 1..700),
            proptest::collection::vec(prop_oneof![0.5f64..2.0, Just(0.0f64)], 1..700),
            uniform,
        ]
    }

    proptest! {
        #[test]
        fn weighted_draws_match_the_reference_loop(
            weights in arb_weights(),
            k_frac in 0.0f64..1.0,
            all in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let drawable = positive(&weights);
            // Half the cases draw every positive weight: the tail of such
            // a run has one candidate left and sits on the slack case.
            let k = if all { drawable } else { (k_frac * drawable as f64) as usize };
            assert_same_draws(&weights, k, &[], seed);
        }

        #[test]
        fn draws_on_interval_edges_match_the_reference_loop(
            log_n in 0u32..10,
            hits in proptest::collection::vec(0u64..1024, 1..40),
            seed in any::<u64>(),
        ) {
            // n equal weights and u = j/n exactly: `u · total` lands on an
            // interval edge in the first draw and within a few ulps of one
            // after, where only the reference's own rounding decides.
            let n = 1usize << log_n;
            let numerators: Vec<u64> = hits.iter().map(|j| (j % n as u64) << (53 - log_n)).collect();
            let k = numerators.len().min(n);
            for w in [1.0, 0.1, 1.0 / 3.0] {
                assert_same_draws(&vec![w; n], k, &numerators, seed);
            }
        }
    }

    #[test]
    fn weighted_draws_handle_the_smallest_and_largest_inputs() {
        assert_same_draws(&[2.5], 1, &[], 0);
        assert_same_draws(&[0.0, 4.0, 0.0], 1, &[0], 0);
        // u = 0 and the largest u, on one block and on several.
        let top = (1u64 << 53) - 1;
        for n in [1usize, 2, 3, 17, 300] {
            assert_same_draws(&vec![1.0; n], n, &[0, top, 0, top], 1);
        }
        // A total that overflows: every target is infinite and the
        // reference takes the last positive weight each time.
        assert_same_draws(&[1.0e308; 40], 40, &[], 2);
        // Subnormal weights: the margin underflows.
        assert_same_draws(&[5.0e-324; 33], 33, &[], 3);
    }

    #[test]
    fn certificate_answers_nearly_every_draw_on_sdsl_weights() {
        // SDSL weights over 10 000 server distances: the fast path must
        // carry the load (a certificate that always declines would pass
        // every equality test above), and whatever it answers is the
        // reference's pick.
        let mut gen = StdRng::seed_from_u64(0x5D51);
        let distances: Vec<f64> = (0..10_000).map(|_| gen.gen_range(1.0..400.0)).collect();
        let mut remaining = server_distance_weights(&distances, 1.0);
        let width = 100;
        let mut answered = 0usize;
        for round in 0..2_000 {
            let blocks: Vec<f64> = remaining.chunks(width).map(|b| b.iter().sum()).collect();
            let u = gen.gen::<f64>();
            let expected = reference_draw(&remaining, u);
            if let Some(pick) = certified_draw(&remaining, &blocks, width, u) {
                assert_eq!(pick, expected, "round {round}");
                answered += 1;
            }
            remaining[expected] = 0.0;
        }
        assert!(answered >= 1_990, "certified only {answered} of 2000 draws");
    }

    #[test]
    fn random_representative_is_distinct_and_in_range() {
        let pts = points(10);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let s = Initializer::RandomRepresentative
                .select(&pts, 4, &mut rng)
                .unwrap();
            assert_eq!(s.len(), 4);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4);
            assert!(sorted.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn random_representative_is_uniform_ish() {
        // Each of 5 points should be chosen ~ k/n = 2/5 of the time.
        let pts = points(5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 5];
        let trials = 5_000;
        for _ in 0..trials {
            for i in Initializer::RandomRepresentative
                .select(&pts, 2, &mut rng)
                .unwrap()
            {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.4).abs() < 0.05, "point {i} frequency {frac}");
        }
    }

    #[test]
    fn weighted_prefers_heavy_points() {
        let pts = points(4);
        let weights = vec![100.0, 1.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut first_count = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            let s = Initializer::Weighted(weights.clone())
                .select(&pts, 1, &mut rng)
                .unwrap();
            if s[0] == 0 {
                first_count += 1;
            }
        }
        let frac = first_count as f64 / trials as f64;
        assert!(frac > 0.9, "heavy point chosen only {frac} of the time");
    }

    #[test]
    fn weighted_draws_without_replacement() {
        let pts = points(3);
        let weights = vec![1.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Initializer::Weighted(weights)
            .select(&pts, 3, &mut rng)
            .unwrap();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn weighted_ignores_zero_weight_points() {
        let pts = points(4);
        let weights = vec![0.0, 1.0, 1.0, 0.0];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let s = Initializer::Weighted(weights.clone())
                .select(&pts, 2, &mut rng)
                .unwrap();
            assert!(!s.contains(&0));
            assert!(!s.contains(&3));
        }
    }

    #[test]
    fn weighted_errors_on_bad_input() {
        let pts = points(3);
        let mut rng = StdRng::seed_from_u64(5);
        for bad in [
            vec![1.0, 1.0],           // wrong arity
            vec![1.0, -1.0, 1.0],     // negative
            vec![f64::NAN, 1.0, 1.0], // NaN
            vec![1.0, 0.0, 0.0],      // too few positive for k = 2
        ] {
            assert!(
                Initializer::Weighted(bad.clone())
                    .select(&pts, 2, &mut rng)
                    .is_err(),
                "weights {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn kmeanspp_spreads_seeds() {
        // Two far blobs: with k = 2 the seeds should almost always land
        // in different blobs.
        let mut pts = FeatureMatrix::new(1);
        for i in 0..10 {
            pts.push_row(&[i as f64 * 0.01]);
        }
        for i in 0..10 {
            pts.push_row(&[1_000.0 + i as f64 * 0.01]);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut split = 0usize;
        for _ in 0..200 {
            let s = Initializer::KmeansPlusPlus
                .select(&pts, 2, &mut rng)
                .unwrap();
            let blob = |i: usize| usize::from(i >= 10);
            if blob(s[0]) != blob(s[1]) {
                split += 1;
            }
        }
        assert!(split > 190, "seeds split blobs only {split}/200 times");
    }

    #[test]
    fn kmeanspp_handles_duplicate_points() {
        let pts = FeatureMatrix::from_rows(&vec![vec![5.0]; 6]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = Initializer::KmeansPlusPlus
            .select(&pts, 3, &mut rng)
            .unwrap();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn provided_validates() {
        let pts = points(5);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(Initializer::Provided(vec![0, 2])
            .select(&pts, 2, &mut rng)
            .is_ok());
        for bad in [vec![0usize], vec![0, 0], vec![0, 9]] {
            assert!(Initializer::Provided(bad)
                .select(&pts, 2, &mut rng)
                .is_err());
        }
    }

    #[test]
    fn server_distance_weights_invert_distance() {
        let w = server_distance_weights(&[1.0, 2.0, 4.0], 1.0);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((w[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn theta_zero_is_uniform() {
        let w = server_distance_weights(&[1.0, 5.0, 100.0], 0.0);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn higher_theta_sharpens_bias() {
        let d = [1.0, 10.0];
        let ratio = |theta: f64| {
            let w = server_distance_weights(&d, theta);
            w[0] / w[1]
        };
        assert!(ratio(2.0) > ratio(1.0));
        assert!((ratio(1.0) - 10.0).abs() < 1e-9);
        assert!((ratio(2.0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn zero_distance_is_clamped() {
        let w = server_distance_weights(&[0.0, 2.0], 1.0);
        assert!(w[0].is_finite());
        assert!(w[0] >= w[1]);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn negative_theta_panics() {
        let _ = server_distance_weights(&[1.0], -1.0);
    }
}
