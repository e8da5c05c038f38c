//! The one Lloyd loop behind every full-batch K-means in the crate.
//!
//! [`lloyd`] runs from given centers: an initial assignment, then
//! center update → empty-cluster repair → reassignment until an
//! iteration reassigns no point or the cap is hit, then a final update
//! and repair. Only the assignment step varies ([`Assign`]): the exact
//! scan of [`crate::kmeans()`], the naive masked scan of
//! [`crate::kmeans_masked`], the regret-ordered fill of
//! [`crate::kmeans_capped`]. The update and the repair are generic over
//! which cells are observed ([`Cells`]): [`AllObserved`] compiles the
//! mask bookkeeping away, and a fully observed [`FeatureMask`] gives the
//! same bits. Both run sequentially in point-index order, so the f64
//! results match [`crate::kmeans_reference`] at any thread count.

use crate::kmeans::{sq_l2, Clustering, KmeansConfig};
use crate::masked::masked_sq_l2;
use ecg_coords::{FeatureMask, FeatureMatrix};
use ecg_obs::Obs;

/// Which cells of the points hold measurements.
pub(crate) trait Cells {
    /// Observed flags of row `i`; `None` when every cell is observed.
    fn observed(&self, i: usize) -> Option<&[bool]>;

    /// Squared distance from point `i` (row `p`) to `center` over the
    /// point's observed cells.
    #[inline]
    fn sq_dist(&self, i: usize, p: &[f64], center: &[f64]) -> f64 {
        match self.observed(i) {
            None => sq_l2(p, center),
            Some(seen) => masked_sq_l2(p, seen, center),
        }
    }
}

/// Every cell observed: the plain K-means arithmetic.
pub(crate) struct AllObserved;

impl Cells for AllObserved {
    #[inline]
    fn observed(&self, _: usize) -> Option<&[bool]> {
        None
    }
}

impl Cells for FeatureMask {
    #[inline]
    fn observed(&self, i: usize) -> Option<&[bool]> {
        Some(self.row(i))
    }
}

/// How a Lloyd variant assigns points to centers.
pub(crate) trait Assign<C: Cells> {
    /// Reassigns every point to `centers` and returns how many changed
    /// cluster: first the initial assignment, then once after each
    /// update and repair (`stolen`: the points the repair moved).
    /// Step-specific telemetry goes to `obs`.
    fn reassign(
        &mut self,
        points: &FeatureMatrix,
        cells: &C,
        centers: &FeatureMatrix,
        assignments: &mut [usize],
        stolen: &[usize],
        obs: Option<&mut Obs>,
    ) -> usize;
}

/// Runs the Lloyd loop from `centers` (at least one; see the module
/// docs) for at most `config`'s iteration cap. With a bundle it
/// records the `kmeans.iterations` / `kmeans.reassigned` /
/// `kmeans.runs` / `kmeans.converged` counters and a `kmeans` phase
/// span whose work is the iteration count, plus whatever `step`
/// records.
pub(crate) fn lloyd<C: Cells, S: Assign<C>>(
    points: &FeatureMatrix,
    cells: &C,
    mut centers: FeatureMatrix,
    config: KmeansConfig,
    step: &mut S,
    mut obs: Option<&mut Obs>,
) -> Clustering {
    let mut assignments = vec![0usize; points.len()];
    step.reassign(points, cells, &centers, &mut assignments, &[], None);
    let mut update = CenterUpdate::new(centers.len(), points.dim());
    let mut stolen = Vec::new();
    let (mut iterations, mut converged) = (0, false);
    // Every turn opens with the update and the repair, so the last
    // turn's are the final ones: centers are the means of the groups
    // that come out, and none is empty.
    loop {
        update.update_centers(points, cells, &assignments, &mut centers);
        repair_empty_clusters(
            points,
            cells,
            &mut assignments,
            &mut centers,
            &mut update.counts,
            &mut stolen,
        );
        if converged || iterations == config.iteration_cap() {
            break;
        }
        iterations += 1;
        let reassigned = step.reassign(
            points,
            cells,
            &centers,
            &mut assignments,
            &stolen,
            obs.as_deref_mut(),
        );
        if let Some(o) = obs.as_deref_mut() {
            o.metrics.inc("kmeans.iterations");
            o.metrics.add("kmeans.reassigned", reassigned as u64);
        }
        converged = reassigned == 0;
    }

    if let Some(o) = obs {
        o.metrics.inc("kmeans.runs");
        if converged {
            o.metrics.inc("kmeans.converged");
        }
        o.phases.span("kmeans").add_work(iterations as f64);
    }
    Clustering {
        assignments,
        centers,
        iterations,
        converged,
    }
}

/// `(nearest center, its distance, the second-nearest distance)` for
/// point `i` (row `p`) under `cells`' distance; ties break to the lower
/// index.
pub(crate) fn nearest<C: Cells>(
    cells: &C,
    i: usize,
    p: &[f64],
    centers: &FeatureMatrix,
) -> (usize, f64, f64) {
    let (mut best, mut best_d, mut second_d) = (0usize, f64::INFINITY, f64::INFINITY);
    for (c, center) in centers.iter_rows().enumerate() {
        let d = cells.sq_dist(i, p, center);
        if d < best_d {
            second_d = best_d;
            (best, best_d) = (c, d);
        } else if d < second_d {
            second_d = d;
        }
    }
    (best, best_d, second_d)
}

/// Reusable buffers for the center update, so the loop allocates
/// nothing per iteration.
struct CenterUpdate {
    sums: Vec<f64>,
    /// Members per cluster, as of the last update; the repair keeps it
    /// current across steals.
    counts: Vec<usize>,
    /// Per (cluster, component): members that did not observe it.
    missing: Vec<usize>,
    dim: usize,
}

impl CenterUpdate {
    fn new(k: usize, dim: usize) -> Self {
        CenterUpdate {
            sums: vec![0.0; k * dim],
            counts: vec![0; k],
            missing: vec![0; k * dim],
            dim,
        }
    }

    /// Each center component becomes the mean of the component over the
    /// cluster members that observed it, accumulated in point-index
    /// order so the f64 results are bit-stable; a component no member
    /// observed (in particular every component of an empty cluster)
    /// keeps its value for the repair.
    fn update_centers<C: Cells>(
        &mut self,
        points: &FeatureMatrix,
        cells: &C,
        assignments: &[usize],
        centers: &mut FeatureMatrix,
    ) {
        let dim = self.dim;
        self.sums.fill(0.0);
        self.counts.fill(0);
        self.missing.fill(0);
        for (i, (p, &c)) in points.iter_rows().zip(assignments).enumerate() {
            self.counts[c] += 1;
            let sums = &mut self.sums[c * dim..(c + 1) * dim];
            match cells.observed(i) {
                None => {
                    for (s, v) in sums.iter_mut().zip(p) {
                        *s += v;
                    }
                }
                Some(seen) => {
                    let missing = &mut self.missing[c * dim..(c + 1) * dim];
                    for (((s, m), v), &seen) in sums.iter_mut().zip(missing).zip(p).zip(seen) {
                        if seen {
                            *s += v;
                        } else {
                            *m += 1;
                        }
                    }
                }
            }
        }
        for c in 0..centers.len() {
            let base = c * dim;
            for (j, v) in centers.row_mut(c).iter_mut().enumerate() {
                let observers = self.counts[c] - self.missing[base + j];
                if observers > 0 {
                    *v = self.sums[base + j] / observers as f64;
                }
            }
        }
    }
}

/// Re-seeds every empty cluster on the point farthest from its own
/// center, stealing it from its (necessarily non-empty) donor cluster;
/// the re-seeded center takes the stolen point's observed cells.
/// `counts` must hold the size of every cluster on entry — the center
/// update has just tallied them — and is kept current across steals, so
/// a call that finds nothing empty costs one pass over `k`, not `n`.
/// The indices of stolen points are collected into `stolen` (cleared
/// first) so the caller can invalidate their distance bounds. Shared
/// with the mini-batch variant ([`crate::minibatch`]), which has the
/// same no-empty-groups obligation.
pub(crate) fn repair_empty_clusters<C: Cells>(
    points: &FeatureMatrix,
    cells: &C,
    assignments: &mut [usize],
    centers: &mut FeatureMatrix,
    counts: &mut [usize],
    stolen: &mut Vec<usize>,
) {
    debug_assert_eq!(counts.len(), centers.len());
    stolen.clear();
    while let Some(empty) = counts.iter().position(|&c| c == 0) {
        // Farthest point from its own center, from a cluster with > 1
        // members so the donor does not become empty itself.
        let mut donor: Option<(usize, f64)> = None;
        for (i, p) in points.iter_rows().enumerate() {
            let c = assignments[i];
            if counts[c] <= 1 {
                continue;
            }
            let d = cells.sq_dist(i, p, centers.row(c));
            if donor.is_none_or(|(_, bd)| d > bd) {
                donor = Some((i, d));
            }
        }
        let Some((idx, _)) = donor else {
            // All clusters are singletons or empty and nothing can move;
            // only possible with fewer points than clusters, which the
            // entry points reject.
            return;
        };
        counts[assignments[idx]] -= 1;
        counts[empty] += 1;
        assignments[idx] = empty;
        let (p, center) = (points.row(idx), centers.row_mut(empty));
        match cells.observed(idx) {
            None => center.copy_from_slice(p),
            Some(seen) => {
                for ((c, &v), &seen) in center.iter_mut().zip(p).zip(seen) {
                    if seen {
                        *c = v;
                    }
                }
            }
        }
        stolen.push(idx);
    }
}
