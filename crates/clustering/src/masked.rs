//! Masked K-means: Lloyd's algorithm over partially-observed feature
//! vectors.
//!
//! The resilient formation pipeline builds feature matrices whose cells
//! can be *missing* (a probe timed out after retries, or a landmark was
//! unreachable); the accompanying [`FeatureMask`] marks which cells
//! hold real measurements. [`kmeans_masked`] clusters such points
//! without letting the `0.0` placeholders distort geometry:
//!
//! * **Distance** — the squared L2 distance between a point and a
//!   center is computed over the point's *observed* components only and
//!   rescaled by `dim / observed` so partially-observed points remain
//!   comparable to fully-observed ones (the standard expected-distance
//!   estimate under missing-completely-at-random components).
//! * **Center update** — each center component is the mean of the
//!   component over the cluster members that *observed* it; a component
//!   no member observed keeps its previous value.
//! * **Empty-cluster repair** — identical policy to [`crate::kmeans()`]:
//!   re-seed on the point currently farthest (in masked distance) from
//!   its own center; the stolen point's unobserved components keep the
//!   center's previous values.
//!
//! With a fully-observed mask every one of those rules degenerates to
//! the plain algorithm, arithmetic operation for arithmetic operation —
//! [`kmeans_masked`] is then **bit-identical** to [`crate::kmeans()`] /
//! [`crate::kmeans_reference`] (see the property test). The RNG is
//! consumed by the initializer only, exactly like the plain variants.
//!
//! Rows with *zero* observed components carry no positional information
//! at all and must be quarantined by the caller before clustering (the
//! formation pipeline assigns them to a nearest-landmark fallback
//! group); passing one here panics.

use crate::init::Initializer;
use crate::kmeans::{Clustering, KmeansConfig, KmeansError};
use ecg_coords::{FeatureMask, FeatureMatrix};
use ecg_obs::Obs;
use rand::Rng;

/// Squared L2 distance over the observed components of `p`, rescaled by
/// `dim / observed`. With a fully-observed row this is exactly the
/// plain squared L2 distance (no rescaling multiply is performed).
///
/// # Panics
///
/// Panics if no component is observed.
pub fn masked_sq_l2(p: &[f64], observed: &[bool], center: &[f64]) -> f64 {
    let dim = p.len();
    let mut sum = 0.0;
    let mut seen = 0usize;
    for j in 0..dim {
        if observed[j] {
            let d = p[j] - center[j];
            sum += d * d;
            seen += 1;
        }
    }
    assert!(
        seen > 0,
        "masked distance needs at least one observed component"
    );
    if seen == dim {
        sum
    } else {
        sum * (dim as f64 / seen as f64)
    }
}

/// Runs K-means over partially-observed `points`, clustering on the
/// observed components per `mask` (see the module docs for the masked
/// distance, center-update, and repair rules).
///
/// With a fully-observed mask the result is bit-identical to
/// [`crate::kmeans()`] for the same inputs and RNG state. With a bundle
/// it records `kmeans.*` counters (iterations, reassignments,
/// masked-cell count); instrumentation never draws from the RNG, so the
/// clustering is identical either way.
///
/// # Errors
///
/// Exactly as [`crate::kmeans()`].
///
/// # Panics
///
/// Panics if `mask` does not match `points` in shape, or any row has
/// zero observed components (quarantine such rows before clustering).
pub fn kmeans_masked<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    mask: &FeatureMask,
    config: KmeansConfig,
    initializer: &Initializer,
    rng: &mut R,
    mut obs: Option<&mut Obs>,
) -> Result<Clustering, KmeansError> {
    let n = points.len();
    let dim = points.dim();
    assert_eq!(mask.len(), n, "mask rows must match points");
    assert_eq!(mask.dim(), dim, "mask dimension must match points");
    for i in 0..n {
        assert!(
            mask.observed_count(i) > 0,
            "row {i} has no observed components; quarantine it before clustering"
        );
    }
    let k = config.k();
    if n < k {
        return Err(KmeansError::TooFewPoints { points: n, k });
    }

    // Initialization: the only RNG consumer, stream-aligned with the
    // plain variants. Note the initializer sees the raw rows
    // (placeholders included); only RandomRepresentative and Weighted
    // are placeholder-blind — k-means++ reads point values and is
    // therefore not recommended on degraded masks.
    let seeds = initializer.select(points, k, rng)?;
    let mut centers = FeatureMatrix::with_capacity(k, dim);
    for &i in &seeds {
        centers.push_row(points.row(i));
    }

    let mut assignments = vec![0usize; n];
    for (i, slot) in assignments.iter_mut().enumerate() {
        *slot = nearest_center_masked(points.row(i), mask.row(i), &centers);
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut scratch = MaskedUpdateScratch::new(k, dim);
    while iterations < config.iteration_cap() {
        iterations += 1;
        scratch.update_centers(points, mask, &assignments, &mut centers);
        repair_empty_clusters_masked(points, mask, &mut assignments, &mut centers);

        let mut reassigned = 0usize;
        for (i, slot) in assignments.iter_mut().enumerate() {
            let best = nearest_center_masked(points.row(i), mask.row(i), &centers);
            if best != *slot {
                *slot = best;
                reassigned += 1;
            }
        }
        if let Some(o) = obs.as_deref_mut() {
            o.metrics.inc("kmeans.iterations");
            o.metrics.add("kmeans.reassigned", reassigned as u64);
        }
        if reassigned == 0 {
            converged = true;
            break;
        }
    }

    scratch.update_centers(points, mask, &assignments, &mut centers);
    repair_empty_clusters_masked(points, mask, &mut assignments, &mut centers);

    if let Some(o) = obs {
        o.metrics.inc("kmeans.runs");
        o.metrics
            .add("kmeans.masked_cells", mask.masked_cells() as u64);
        if converged {
            o.metrics.inc("kmeans.converged");
        }
        let mut span = o.phases.span("kmeans");
        span.add_work(iterations as f64);
    }

    Ok(Clustering::from_parts(
        assignments,
        centers,
        iterations,
        converged,
    ))
}

/// Index of the center nearest to `p` under the masked distance (ties
/// break to the lower index, like the plain scans).
fn nearest_center_masked(p: &[f64], observed: &[bool], centers: &FeatureMatrix) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter_rows().enumerate() {
        let d = masked_sq_l2(p, observed, center);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Reusable per-component sum/count buffers for the masked center
/// update.
struct MaskedUpdateScratch {
    sums: Vec<f64>,
    counts: Vec<usize>,
    dim: usize,
}

impl MaskedUpdateScratch {
    fn new(k: usize, dim: usize) -> Self {
        MaskedUpdateScratch {
            sums: vec![0.0; k * dim],
            counts: vec![0; k * dim],
            dim,
        }
    }

    /// Each center component becomes the mean over the cluster members
    /// that observed it, accumulated in point-index order (bit-stable);
    /// components with no observing member keep their previous value.
    fn update_centers(
        &mut self,
        points: &FeatureMatrix,
        mask: &FeatureMask,
        assignments: &[usize],
        centers: &mut FeatureMatrix,
    ) {
        let dim = self.dim;
        self.sums.fill(0.0);
        self.counts.fill(0);
        for (i, (p, &c)) in points.iter_rows().zip(assignments).enumerate() {
            let observed = mask.row(i);
            let base = c * dim;
            for j in 0..dim {
                if observed[j] {
                    self.sums[base + j] += p[j];
                    self.counts[base + j] += 1;
                }
            }
        }
        for c in 0..centers.len() {
            let base = c * dim;
            let row = centers.row_mut(c);
            for (j, v) in row.iter_mut().enumerate() {
                if self.counts[base + j] > 0 {
                    *v = self.sums[base + j] / self.counts[base + j] as f64;
                }
            }
        }
    }
}

/// Masked-distance twin of the plain empty-cluster repair: re-seed each
/// empty cluster on the point farthest from its own center among
/// clusters with more than one member. The stolen point's unobserved
/// components keep the center's previous values.
fn repair_empty_clusters_masked(
    points: &FeatureMatrix,
    mask: &FeatureMask,
    assignments: &mut [usize],
    centers: &mut FeatureMatrix,
) {
    let k = centers.len();
    loop {
        let mut counts = vec![0usize; k];
        for &c in assignments.iter() {
            counts[c] += 1;
        }
        let Some(empty) = counts.iter().position(|&c| c == 0) else {
            return;
        };
        let mut donor: Option<(usize, f64)> = None;
        for (i, p) in points.iter_rows().enumerate() {
            let c = assignments[i];
            if counts[c] <= 1 {
                continue;
            }
            let d = masked_sq_l2(p, mask.row(i), centers.row(c));
            if donor.is_none_or(|(_, bd)| d > bd) {
                donor = Some((i, d));
            }
        }
        let Some((idx, _)) = donor else {
            return;
        };
        assignments[idx] = empty;
        let observed: Vec<bool> = mask.row(idx).to_vec();
        let row: Vec<f64> = points.row(idx).to_vec();
        let center = centers.row_mut(empty);
        for j in 0..row.len() {
            if observed[j] {
                center[j] = row[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> FeatureMatrix {
        FeatureMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.5],
            vec![0.5, 1.0],
            vec![50.0, 50.0],
            vec![51.0, 50.5],
            vec![50.5, 51.0],
        ])
    }

    #[test]
    fn full_mask_matches_plain_kmeans_bit_for_bit() {
        let points = two_blobs();
        let mask = FeatureMask::all_observed(points.len(), points.dim());
        let plain = kmeans(
            &points,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(3),
            None,
        )
        .unwrap();
        let masked = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(3),
            None,
        )
        .unwrap();
        assert_eq!(plain, masked);
    }

    #[test]
    fn masked_cells_do_not_distort_clusters() {
        // Point 1 lost its second component; the placeholder 0.0 would
        // (spuriously) keep it near the origin blob — which is where it
        // belongs anyway — and point 4 lost its first component, whose
        // placeholder would drag it to the origin blob. The mask must
        // keep it in the far blob.
        let mut points = two_blobs();
        let mut mask = FeatureMask::all_observed(points.len(), points.dim());
        points.row_mut(4)[0] = 0.0;
        mask.set(4, 0, false);
        let r = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(2),
            &Initializer::Provided(vec![0, 3]),
            &mut StdRng::seed_from_u64(0),
            None,
        )
        .unwrap();
        let a = r.assignments();
        assert_eq!(a[3], a[4], "masked point stays in its blob: {a:?}");
        assert_eq!(a[4], a[5]);
        assert_ne!(a[0], a[4]);
    }

    #[test]
    fn masked_center_components_average_observers_only() {
        // Two points in one cluster; the second never observed dim 1.
        let points = FeatureMatrix::from_rows(&[vec![2.0, 10.0], vec![4.0, 0.0]]);
        let mut mask = FeatureMask::all_observed(2, 2);
        mask.set(1, 1, false);
        let r = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(1),
            &Initializer::Provided(vec![0]),
            &mut StdRng::seed_from_u64(0),
            None,
        )
        .unwrap();
        // dim 0: mean(2, 4) = 3; dim 1: only point 0 observed it -> 10.
        assert_eq!(r.centers().row(0), &[3.0, 10.0]);
    }

    #[test]
    fn masked_distance_rescales_by_observed_fraction() {
        let p = [3.0, 0.0];
        let c = [0.0, 4.0];
        assert_eq!(masked_sq_l2(&p, &[true, true], &c), 25.0);
        // Only the first component observed: 9 scaled by 2/1.
        assert_eq!(masked_sq_l2(&p, &[true, false], &c), 18.0);
    }

    #[test]
    #[should_panic(expected = "no observed components")]
    fn fully_masked_row_panics() {
        let points = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let mut mask = FeatureMask::all_observed(2, 1);
        mask.set(0, 0, false);
        let _ = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(1),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(0),
            None,
        );
    }

    #[test]
    fn too_few_points_is_an_error() {
        let points = FeatureMatrix::from_rows(&[vec![1.0]]);
        let mask = FeatureMask::all_observed(1, 1);
        let err = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(0),
            None,
        )
        .unwrap_err();
        assert_eq!(err, KmeansError::TooFewPoints { points: 1, k: 2 });
    }

    #[test]
    fn observed_variant_matches_plain_and_records_counters() {
        let points = two_blobs();
        let mut mask = FeatureMask::all_observed(points.len(), points.dim());
        mask.set(2, 1, false);
        let plain = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(9),
            None,
        )
        .unwrap();
        let mut obs = Obs::new();
        let observed = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(9),
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(obs.metrics.counter("kmeans.runs"), 1);
        assert_eq!(obs.metrics.counter("kmeans.masked_cells"), 1);
        assert_eq!(
            obs.metrics.counter("kmeans.iterations"),
            observed.iterations() as u64
        );
    }

    #[test]
    fn empty_cluster_repair_under_masking_keeps_k_groups() {
        // Provided seeds that collapse: all points near each other, two
        // seeds in the same spot force a repair eventually.
        let points = FeatureMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.2, 0.0],
            vec![10.0, 0.0],
        ]);
        let mut mask = FeatureMask::all_observed(4, 2);
        mask.set(3, 1, false);
        let r = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(3),
            &Initializer::Provided(vec![0, 1, 2]),
            &mut StdRng::seed_from_u64(0),
            None,
        )
        .unwrap();
        let sizes = r.cluster_sizes();
        assert_eq!(sizes.len(), 3);
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    }
}
