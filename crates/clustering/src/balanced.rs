//! Size-capped K-means.
//!
//! Cooperative groups carry per-member management overhead (membership
//! state, freshness multicast fan-out), so operators often need a hard
//! ceiling on group size. This module provides a capacity-constrained
//! K-means: it runs the crate's one Lloyd loop, and only its assignment
//! step differs — points that lose the most by missing their nearest
//! center (*regret*) choose first, and each takes the nearest center
//! with room, so no cluster exceeds the cap. Distances, center updates
//! and the empty-cluster repair read the feature mask, like
//! [`crate::kmeans_masked`]'s. An extension beyond the paper.

use crate::init::Initializer;
use crate::kmeans::{seed_centers, Clustering, KmeansConfig, KmeansError};
use crate::lloyd::{lloyd, nearest, Assign, Cells};
use crate::masked::check_mask;
use ecg_coords::{FeatureMask, FeatureMatrix};
use ecg_obs::Obs;
use rand::Rng;

/// Error from [`kmeans_capped`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapError {
    /// `k × max_size` cannot hold all points.
    InsufficientCapacity {
        /// Points to place.
        points: usize,
        /// Clusters available.
        k: usize,
        /// Per-cluster cap.
        max_size: usize,
    },
    /// The underlying K-means machinery failed.
    Kmeans(KmeansError),
}

impl std::fmt::Display for CapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapError::InsufficientCapacity {
                points,
                k,
                max_size,
            } => write!(
                f,
                "{k} clusters capped at {max_size} cannot hold {points} points"
            ),
            CapError::Kmeans(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CapError {}

impl From<KmeansError> for CapError {
    fn from(e: KmeansError) -> Self {
        CapError::Kmeans(e)
    }
}

/// Runs K-means with a hard per-cluster size cap over the observed
/// cells of `points` per `mask`.
///
/// Identical to [`crate::kmeans_masked`] except for the assignment
/// step: points are processed in descending *regret* (the cost gap
/// between their nearest and second-nearest centers) and each takes its
/// nearest center that still has room. A cluster that step leaves empty
/// is the loop's repair's to fill, and the repair only moves a point
/// into an empty cluster, so every cluster ends up non-empty and at
/// most `max_size` large. With a cap of at least the point count no
/// center is ever full, and the result is [`crate::kmeans_masked`]'s.
///
/// # Errors
///
/// Returns [`CapError::InsufficientCapacity`] if `k × max_size <
/// points`, or a wrapped [`KmeansError`] for the usual input problems.
///
/// # Panics
///
/// As [`crate::kmeans_masked`]: if `mask` does not match `points` in
/// shape, or a row has zero observed components.
///
/// # Examples
///
/// ```
/// use ecg_clustering::balanced::kmeans_capped;
/// use ecg_clustering::{FeatureMatrix, Initializer, KmeansConfig};
/// use ecg_coords::FeatureMask;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Six co-located points, 2 clusters, cap 3: forced 3/3 split.
/// let points = FeatureMatrix::from_rows(&vec![vec![0.0]; 6]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let r = kmeans_capped(
///     &points,
///     &FeatureMask::all_observed(6, 1),
///     KmeansConfig::new(2),
///     &Initializer::RandomRepresentative,
///     3,
///     &mut rng,
/// )?;
/// let mut sizes = r.cluster_sizes();
/// sizes.sort_unstable();
/// assert_eq!(sizes, vec![3, 3]);
/// # Ok::<(), ecg_clustering::balanced::CapError>(())
/// ```
pub fn kmeans_capped<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    mask: &FeatureMask,
    config: KmeansConfig,
    initializer: &Initializer,
    max_size: usize,
    rng: &mut R,
) -> Result<Clustering, CapError> {
    check_mask(points, mask);
    let n = points.len();
    let k = config.k();
    if k.saturating_mul(max_size) < n {
        return Err(CapError::InsufficientCapacity {
            points: n,
            k,
            max_size,
        });
    }
    let centers = seed_centers(points, k, initializer, rng)?;
    let mut step = CappedFill { max_size };
    Ok(lloyd(points, mask, centers, config, &mut step, None))
}

/// The capacity-respecting assignment step: regret-ordered greedy fill.
struct CappedFill {
    max_size: usize,
}

impl<C: Cells> Assign<C> for CappedFill {
    fn reassign(
        &mut self,
        points: &FeatureMatrix,
        cells: &C,
        centers: &FeatureMatrix,
        assignments: &mut [usize],
        _: &[usize],
        _: Option<&mut Obs>,
    ) -> usize {
        // Points by descending regret, ties by index (with one center
        // every regret is infinite: index order).
        let mut order: Vec<(f64, usize)> = (0..points.len())
            .map(|i| {
                let (_, best, second) = nearest(cells, i, points.row(i), centers);
                (second - best, i)
            })
            .collect();
        order.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("regrets are not NaN")
                .then(a.1.cmp(&b.1))
        });

        let mut counts = vec![0usize; centers.len()];
        let mut reassigned = 0;
        for &(_, i) in &order {
            // Nearest center with room.
            let p = points.row(i);
            let mut best: Option<(usize, f64)> = None;
            for (c, center) in centers.iter_rows().enumerate() {
                if counts[c] >= self.max_size {
                    continue;
                }
                let d = cells.sq_dist(i, p, center);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
            let (c, _) = best.expect("capacity was pre-checked");
            counts[c] += 1;
            if assignments[i] != c {
                assignments[i] = c;
                reassigned += 1;
            }
        }
        reassigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn full(pts: &FeatureMatrix) -> FeatureMask {
        FeatureMask::all_observed(pts.len(), pts.dim())
    }

    fn blobs() -> FeatureMatrix {
        // 8 points near 0, 2 points near 100: uncapped K-means would
        // split 8/2.
        let mut pts = FeatureMatrix::new(1);
        for i in 0..8 {
            pts.push_row(&[i as f64 * 0.1]);
        }
        pts.push_row(&[100.0]);
        pts.push_row(&[100.1]);
        pts
    }

    #[test]
    fn cap_is_respected() {
        let pts = blobs();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = kmeans_capped(
                &pts,
                &full(&pts),
                KmeansConfig::new(2),
                &Initializer::RandomRepresentative,
                6,
                &mut rng,
            )
            .unwrap();
            let sizes = r.cluster_sizes();
            assert!(sizes.iter().all(|&s| s <= 6 && s > 0), "{sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), 10);
        }
    }

    #[test]
    fn loose_cap_matches_natural_split() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(3);
        let r = kmeans_capped(
            &pts,
            &full(&pts),
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            10,
            &mut rng,
        )
        .unwrap();
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 8]);
    }

    #[test]
    fn a_cap_of_at_least_n_is_plain_kmeans_bit_for_bit() {
        // Separated blobs: with no center ever full, the capped step
        // assigns like the exact scan, and the rest is the same loop.
        let mut pts = FeatureMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)] {
            for d in 0..6 {
                pts.push_row(&[cx + d as f64 * 0.3, cy + (d % 4) as f64 * 0.2]);
            }
        }
        for k in [3, 5] {
            for (seed, cap) in (0..10).zip([18, 19, 100].into_iter().cycle()) {
                let config = KmeansConfig::new(k);
                let init = Initializer::RandomRepresentative;
                let plain =
                    crate::kmeans(&pts, config, &init, &mut StdRng::seed_from_u64(seed), None)
                        .unwrap();
                let capped = kmeans_capped(
                    &pts,
                    &full(&pts),
                    config,
                    &init,
                    cap,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
                assert_eq!(capped, plain, "k {k}, seed {seed}, cap {cap}");
                let bits = |c: &Clustering| -> Vec<u64> {
                    c.centers().as_flat().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&capped), bits(&plain));
            }
        }
    }

    #[test]
    fn tight_cap_forces_overflow_to_other_cluster() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(4);
        let r = kmeans_capped(
            &pts,
            &full(&pts),
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            5,
            &mut rng,
        )
        .unwrap();
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 5]);
    }

    #[test]
    fn insufficient_capacity_is_an_error() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(5);
        let err = kmeans_capped(
            &pts,
            &full(&pts),
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            4,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, CapError::InsufficientCapacity { .. }));
        assert!(err.to_string().contains("10 points"));
    }

    #[test]
    fn every_cluster_non_empty_under_duplicates() {
        let pts = FeatureMatrix::from_rows(&vec![vec![1.0]; 9]);
        let mut rng = StdRng::seed_from_u64(6);
        let r = kmeans_capped(
            &pts,
            &full(&pts),
            KmeansConfig::new(3),
            &Initializer::RandomRepresentative,
            3,
            &mut rng,
        )
        .unwrap();
        let sizes = r.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 3), "{sizes:?}");
    }

    #[test]
    fn wraps_kmeans_errors() {
        let pts = FeatureMatrix::from_rows(&[vec![1.0]]);
        let mut rng = StdRng::seed_from_u64(7);
        let err = kmeans_capped(
            &pts,
            &full(&pts),
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            5,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CapError::Kmeans(KmeansError::TooFewPoints { .. })
        ));
    }
}
