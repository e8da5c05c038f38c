//! Size-capped K-means.
//!
//! Cooperative groups carry per-member management overhead (membership
//! state, freshness multicast fan-out), so operators often need a hard
//! ceiling on group size. This module provides a capacity-constrained
//! K-means: the iteration loop is the standard one, but each assignment
//! phase fills clusters greedily in *regret* order — points that lose
//! the most by missing their nearest center choose first — so no
//! cluster exceeds the cap. An extension beyond the paper.

use crate::init::Initializer;
use crate::kmeans::{sq_l2, Clustering, KmeansConfig, KmeansError};
use ecg_coords::FeatureMatrix;
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

/// Runs K-means with a hard per-cluster size cap.
///
/// Identical to [`crate::kmeans()`] except for the assignment phase:
/// points are processed in descending *regret* (the cost gap between
/// their nearest and second-nearest centers) and each takes its nearest
/// center that still has room. Every cluster ends up non-empty and at
/// most `max_size` large.
///
/// # Errors
///
/// Returns [`CapError::InsufficientCapacity`] if `k × max_size <
/// points`, or a wrapped [`KmeansError`] for the usual input problems.
///
/// # Examples
///
/// ```
/// use ecg_clustering::balanced::kmeans_capped;
/// use ecg_clustering::{FeatureMatrix, Initializer, KmeansConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Six co-located points, 2 clusters, cap 3: forced 3/3 split.
/// let points = FeatureMatrix::from_rows(&vec![vec![0.0]; 6]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let r = kmeans_capped(
///     &points,
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
    config: KmeansConfig,
    initializer: &Initializer,
    max_size: usize,
    rng: &mut R,
) -> Result<Clustering, CapError> {
    let n = points.len();
    let k = config.k();
    if k.saturating_mul(max_size) < n {
        return Err(CapError::InsufficientCapacity {
            points: n,
            k,
            max_size,
        });
    }
    if n < k {
        return Err(KmeansError::TooFewPoints { points: n, k }.into());
    }

    let seeds = initializer.select(points, k, rng)?;
    let mut centers = FeatureMatrix::with_capacity(k, points.dim());
    for &i in &seeds {
        centers.push_row(points.row(i));
    }
    let mut assignments = capped_assignment(points, &centers, max_size);

    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.iteration_cap() {
        iterations += 1;
        update_centers(points, &assignments, &mut centers);
        let next = capped_assignment(points, &centers, max_size);
        let reassigned = next
            .iter()
            .zip(&assignments)
            .filter(|(a, b)| a != b)
            .count();
        assignments = next;
        if reassigned == 0 {
            converged = true;
            break;
        }
    }
    update_centers(points, &assignments, &mut centers);

    Ok(Clustering::from_parts(
        assignments,
        centers,
        iterations,
        converged,
    ))
}

/// Capacity-respecting assignment: regret-ordered greedy fill.
///
/// Guarantees every cluster gets at least one point when `n >= k` by
/// reserving: after the greedy pass, empty clusters steal the point
/// (from an over-1 cluster) nearest to their center.
fn capped_assignment(
    points: &FeatureMatrix,
    centers: &FeatureMatrix,
    max_size: usize,
) -> Vec<usize> {
    let n = points.len();
    let k = centers.len();
    // Order points by descending regret.
    let mut order: Vec<usize> = (0..n).collect();
    let regret = |p: &[f64]| -> f64 {
        let mut best = f64::INFINITY;
        let mut second = f64::INFINITY;
        for c in centers.iter_rows() {
            let d = sq_l2(p, c);
            if d < best {
                second = best;
                best = d;
            } else if d < second {
                second = d;
            }
        }
        if second.is_finite() {
            second - best
        } else {
            0.0
        }
    };
    let regrets: Vec<f64> = points.iter_rows().map(regret).collect();
    order.sort_by(|&a, &b| {
        regrets[b]
            .partial_cmp(&regrets[a])
            .expect("regrets are not NaN")
            .then(a.cmp(&b))
    });

    let mut counts = vec![0usize; k];
    let mut assignments = vec![usize::MAX; n];
    for &i in &order {
        // Nearest center with room.
        let mut best: Option<(usize, f64)> = None;
        for (c, center) in centers.iter_rows().enumerate() {
            if counts[c] >= max_size {
                continue;
            }
            let d = sq_l2(points.row(i), center);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        let (c, _) = best.expect("capacity was pre-checked");
        assignments[i] = c;
        counts[c] += 1;
    }

    // Repair empties: give each empty cluster the nearest point from a
    // donor with more than one member.
    while let Some(empty) = counts.iter().position(|&c| c == 0) {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in points.iter_rows().enumerate() {
            if counts[assignments[i]] <= 1 {
                continue;
            }
            let d = sq_l2(p, centers.row(empty));
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        let (i, _) = best.expect("n >= k guarantees a donor");
        counts[assignments[i]] -= 1;
        assignments[i] = empty;
        counts[empty] += 1;
    }
    assignments
}

/// Flat-storage center update, accumulating in point-index order.
fn update_centers(points: &FeatureMatrix, assignments: &[usize], centers: &mut FeatureMatrix) {
    let dim = points.dim();
    let k = centers.len();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.iter_rows().zip(assignments) {
        counts[c] += 1;
        for (s, v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += v;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            for (cv, sv) in centers
                .row_mut(c)
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *cv = sv / counts[c] as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn tight_cap_forces_overflow_to_other_cluster() {
        let pts = blobs();
        let mut rng = StdRng::seed_from_u64(4);
        let r = kmeans_capped(
            &pts,
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
