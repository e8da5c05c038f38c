//! K-means clustering with pluggable initialization.
//!
//! Both the SL and SDSL schemes cluster caches with K-means over feature
//! vectors (§3.3). The two schemes differ *only* in how the initial
//! cluster centers are drawn — uniformly for SL, inversely proportional
//! to server distance for SDSL — so the initializer is a first-class
//! parameter here (see [`Initializer`]).
//!
//! Points live in a contiguous row-major [`FeatureMatrix`]; full k-way
//! scans run through the cache-blocked kernel in [`crate::blocked`]
//! (lane-transposed center tiles, bit-identical to a scalar scan) so
//! center rows stay in L1/L2 and the inner loop auto-vectorizes across
//! centers — or, at large k, through the KD-tree over centers in
//! [`crate::tree`], whose branch-and-bound query returns the identical
//! triple while visiting only a few tiles (from
//! [`crate::TREE_AUTO_MIN_K`] centers up). [`kmeans`]' step of the
//! crate's one Lloyd loop (`lloyd.rs`) uses Hamerly-style upper/lower
//! distance bounds ("Making k-means even
//! faster", SDM 2010) to skip the k-way scan for points whose assignment
//! provably cannot change; every surviving candidate is settled with
//! exact distances, so [`kmeans`] produces assignments, centers,
//! iteration counts, and convergence flags identical to the retained
//! naive implementation [`kmeans_reference`]. The two prunings compose:
//! the tree is consulted only for points whose Hamerly bound is
//! violated, which is where the large-K win lives — and, where the
//! centers are separated, most of those are settled from the 24
//! centers around the point's own without a traversal
//! ([`crate::tree::NeighbourTiles`]).
//!
//! The O(n·k·d) assignment scans (the initial pass and the
//! per-iteration re-scan) fan out across [`ecg_par`] workers in fixed
//! chunks. Each point's scan reads shared immutable centers and writes
//! only its own assignment/bound slots, and the per-chunk
//! prune/tighten/scan counters are integers reduced in chunk order, so
//! the clustering is **bit-identical at any thread count**. The
//! f64-order-sensitive steps — center mean accumulation and
//! empty-cluster repair — deliberately stay sequential in point-index
//! order to preserve exact equality with [`kmeans_reference`].

use crate::init::Initializer;
use crate::lloyd::{lloyd, AllObserved, Assign};
use crate::tree::{AssignMode, CenterScanner, TREE_AUTO_MIN_K};
use ecg_coords::FeatureMatrix;
use ecg_obs::Obs;
use rand::Rng;

/// Squared Euclidean distance between two points.
///
/// # Panics
///
/// Panics (in debug builds) if the dimensions differ.
#[inline]
pub(crate) fn sq_l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Configuration of a K-means run.
///
/// # Examples
///
/// ```
/// use ecg_clustering::KmeansConfig;
///
/// let cfg = KmeansConfig::new(3).max_iterations(50);
/// assert_eq!(cfg.k(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansConfig {
    k: usize,
    max_iterations: usize,
    forced_assign: Option<AssignMode>,
}

impl KmeansConfig {
    /// Creates a configuration for `k` clusters with the defaults the
    /// experiments use: at most 100 iterations. Every variant stops
    /// once an iteration reassigns no points (the paper's "number of
    /// caches reassigned becomes minimal" condition with minimal = 0).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k-means needs at least one cluster");
        KmeansConfig {
            k,
            max_iterations: 100,
            forced_assign: None,
        }
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Runs every assignment scan on `engine`, whatever k is: the
    /// hook the tree == blocked tests reach both engines through. The
    /// clustering is the same bits either way.
    #[doc(hidden)]
    pub fn force_assign(mut self, engine: AssignMode) -> Self {
        self.forced_assign = Some(engine);
        self
    }

    /// Number of clusters `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the assignment scans run on the KD-tree: from
    /// [`TREE_AUTO_MIN_K`] centers up unless an engine is forced.
    pub(crate) fn uses_tree(&self) -> bool {
        match self.forced_assign {
            None => self.k >= TREE_AUTO_MIN_K,
            Some(engine) => engine == AssignMode::Tree,
        }
    }

    /// The iteration cap.
    pub fn iteration_cap(&self) -> usize {
        self.max_iterations
    }
}

/// Result of a K-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    pub(crate) assignments: Vec<usize>,
    pub(crate) centers: FeatureMatrix,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
}

impl Clustering {
    /// Cluster index of each input point, in input order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Final cluster centers (mean vectors), one matrix row per cluster.
    pub fn centers(&self) -> &FeatureMatrix {
        &self.centers
    }

    /// Iterations of the assign/update loop that ran.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether an iteration reassigned no point before the iteration
    /// cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Groups the point indices by cluster: entry `c` lists the points
    /// assigned to cluster `c`, ascending.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (point, &cluster) in self.assignments.iter().enumerate() {
            groups[cluster].push(point);
        }
        groups
    }

    /// Number of points in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &c in &self.assignments {
            sizes[c] += 1;
        }
        sizes
    }
}

/// Error returned by [`kmeans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KmeansError {
    /// More clusters than points were requested.
    TooFewPoints {
        /// Points provided.
        points: usize,
        /// Clusters requested.
        k: usize,
    },
    /// The initializer returned the wrong number of (or duplicate)
    /// centers.
    BadInitializer(String),
}

impl std::fmt::Display for KmeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmeansError::TooFewPoints { points, k } => {
                write!(f, "cannot form {k} clusters from {points} points")
            }
            KmeansError::BadInitializer(msg) => write!(f, "initializer misbehaved: {msg}"),
        }
    }
}

impl std::error::Error for KmeansError {}

/// Runs K-means over `points`.
///
/// 1. **Initialization** — `initializer` picks `k` distinct seed points;
///    every point is assigned to its nearest seed.
/// 2. **Iteration** — recompute each cluster's mean vector, then
///    re-assign every point to its nearest center; repeat until an
///    iteration reassigns no point or the iteration cap is reached.
/// 3. **Empty-cluster repair** — a cluster left empty by re-assignment is
///    re-seeded on the point currently farthest from its own center, so
///    exactly `k` non-empty groups come out.
///
/// The re-assignment phase is accelerated with Hamerly-style distance
/// bounds; the pruning is strictly conservative (a point is skipped only
/// when its current center is the *unique* strict nearest), so the
/// result is identical to [`kmeans_reference`] in every field.
///
/// With a bundle it records per-iteration convergence stats:
/// `kmeans.*` counters (iterations, reassignments, Hamerly-pruned
/// points, bound-tightened points, exact scans), a `kmeans` phase span
/// whose work is the iteration count, and one `kmeans`/`iter` trace
/// event per iteration keyed by iteration number (never wall clock). An
/// iteration whose exact scans ran on neighbour tables ([`crate::tree`])
/// also records how many they settled and how many fell through to the
/// tree, as `kmeans.neighbour_hits` / `kmeans.neighbour_fallbacks` and
/// two more fields on its event; other iterations record neither.
/// Instrumentation never draws from the RNG, so the clustering is
/// identical either way.
///
/// # Errors
///
/// Returns [`KmeansError`] if there are fewer points than clusters or
/// the initializer returns a bad seed set.
///
/// # Examples
///
/// ```
/// use ecg_clustering::{kmeans, FeatureMatrix, Initializer, KmeansConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let points = FeatureMatrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.0], // cluster A
///     vec![9.0, 9.0], vec![9.1, 9.0], // cluster B
/// ]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let result = kmeans(
///     &points,
///     KmeansConfig::new(2),
///     &Initializer::RandomRepresentative,
///     &mut rng,
///     None,
/// )?;
/// let a = result.assignments();
/// assert_eq!(a[0], a[1]);
/// assert_eq!(a[2], a[3]);
/// assert_ne!(a[0], a[2]);
/// # Ok::<(), ecg_clustering::KmeansError>(())
/// ```
pub fn kmeans<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    config: KmeansConfig,
    initializer: &Initializer,
    rng: &mut R,
    obs: Option<&mut Obs>,
) -> Result<Clustering, KmeansError> {
    let centers = seed_centers(points, config.k, initializer, rng)?;
    Ok(exact_lloyd(points, centers, config, obs))
}

/// Runs the Lloyd loop of [`kmeans`] from `centers` instead of seeded
/// ones — a warm start, e.g. from the centers of groups being
/// re-formed. It draws nothing; started from the rows [`kmeans`]'
/// initializer picks, it returns what [`kmeans`] returns, bit for bit.
///
/// # Errors
///
/// [`KmeansError::TooFewPoints`] if there are fewer points than
/// centers, and [`KmeansError::BadInitializer`] if `centers` does not
/// hold `config.k()` rows of the points' dimension.
pub fn kmeans_warm(
    points: &FeatureMatrix,
    centers: FeatureMatrix,
    config: KmeansConfig,
) -> Result<Clustering, KmeansError> {
    let (k, dim) = (centers.len(), centers.dim());
    if k != config.k || dim != points.dim() {
        let want = (config.k, points.dim());
        let msg = format!("{k} starting centers of dimension {dim}, not {want:?}");
        return Err(KmeansError::BadInitializer(msg));
    }
    if points.len() < k {
        return Err(KmeansError::TooFewPoints {
            points: points.len(),
            k,
        });
    }
    Ok(exact_lloyd(points, centers, config, None))
}

/// The `k` starting centers `initializer` picks from `points`: the RNG
/// draws of every K-means variant but the mini-batch one.
pub(crate) fn seed_centers<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    k: usize,
    initializer: &Initializer,
    rng: &mut R,
) -> Result<FeatureMatrix, KmeansError> {
    if points.len() < k {
        return Err(KmeansError::TooFewPoints {
            points: points.len(),
            k,
        });
    }
    let seeds = initializer.select(points, k, rng)?;
    let mut centers = FeatureMatrix::with_capacity(k, points.dim());
    for &i in &seeds {
        centers.push_row(points.row(i));
    }
    Ok(centers)
}

/// The Lloyd loop over fully observed points with the exact scan step.
pub(crate) fn exact_lloyd(
    points: &FeatureMatrix,
    centers: FeatureMatrix,
    config: KmeansConfig,
    obs: Option<&mut Obs>,
) -> Clustering {
    let mut step = ExactScan {
        // The blocked kernel or the KD-tree: bit-identical (best, d²,
        // second d²) triples, so k's choice moves wall-clock only.
        scanner: CenterScanner::stage(&centers, config.uses_tree()),
        // No bound holds yet: the initial assignment scans every point.
        upper: vec![f64::INFINITY; points.len()],
        lower: vec![f64::NEG_INFINITY; points.len()],
        previous: centers.clone(),
        movement: vec![0.0; centers.len()],
        iteration: 0,
        last_exact_scans: 0,
        last_neighbour_hits: None,
    };
    lloyd(points, &AllObserved, centers, config, &mut step, obs)
}

/// The assignment step of [`kmeans`]: nearest-center scans pruned by
/// Hamerly bounds.
struct ExactScan {
    scanner: CenterScanner,
    /// Hamerly bounds, in the metric (sqrt) domain where the triangle
    /// inequality holds: `upper[i] >= d(i, center[assignments[i]])` and
    /// `lower[i] <= min over other centers of d(i, center)`.
    upper: Vec<f64>,
    lower: Vec<f64>,
    /// The centers of the last scan phase.
    previous: FeatureMatrix,
    movement: Vec<f64>,
    /// Scan phases run so far (the initial assignment is phase 0): the
    /// trace key.
    iteration: usize,
    /// What the last scan phase did, for `refresh_neighbours`.
    last_exact_scans: usize,
    last_neighbour_hits: Option<usize>,
}

impl Assign<AllObserved> for ExactScan {
    fn reassign(
        &mut self,
        points: &FeatureMatrix,
        _: &AllObserved,
        centers: &FeatureMatrix,
        assignments: &mut [usize],
        stolen: &[usize],
        obs: Option<&mut Obs>,
    ) -> usize {
        self.scanner.refill(centers);
        // Where the centers are separated, most exact scans below are
        // settled from the few centers around the point's own
        // ([`crate::tree::NeighbourTiles`]) — same triple, no traversal.
        let neighbours = self.scanner.refresh_neighbours(
            centers,
            self.last_exact_scans,
            self.last_neighbour_hits,
        );

        // How far each center travelled this iteration (including any
        // repair re-seeding); by the triangle inequality a point's
        // distance to center `c` changed by at most `movement[c]`. The
        // lower bound covers centers *other than* the point's own, so a
        // point assigned to the fastest-moving center only needs the
        // second-fastest movement subtracted — without this, one
        // fast-moving center (a blob being split) collapses every
        // point's lower bound and disables pruning globally.
        let (mut max_move, mut second_move, mut max_mover) = (0.0f64, 0.0f64, 0usize);
        for (c, m) in self.movement.iter_mut().enumerate() {
            *m = sq_l2(self.previous.row(c), centers.row(c)).sqrt();
            if *m > max_move {
                second_move = max_move;
                max_move = *m;
                max_mover = c;
            } else if *m > second_move {
                second_move = *m;
            }
        }
        self.previous.clone_from(centers);
        for (i, &a) in assignments.iter().enumerate() {
            self.upper[i] += self.movement[a];
            self.lower[i] -= if a == max_mover {
                second_move
            } else {
                max_move
            };
        }
        // Points the repair moved were re-assigned outside the scan;
        // their bounds no longer describe their cluster. Force an exact
        // re-scan this phase.
        for &i in stolen {
            self.upper[i] = f64::INFINITY;
            self.lower[i] = f64::NEG_INFINITY;
        }

        // Per-point scans are independent (shared immutable centers,
        // per-point bound slots) and the counters are integers, so the
        // chunked fan-out below reproduces the sequential loop exactly.
        let scanner = &self.scanner;
        let partials = ecg_par::par_map(
            scan_chunks(assignments, &mut self.upper, &mut self.lower),
            |(start, a_chunk, u_chunk, l_chunk)| {
                let mut counts = ScanCounts::default();
                let cells = a_chunk.iter_mut().zip(u_chunk.iter_mut().zip(l_chunk));
                for (off, (a, (u, l))) in cells.enumerate() {
                    // Prune: `upper < lower` makes the current center the
                    // unique strict nearest, so the naive scan would keep
                    // it. Ties never prune (the inequality is strict), so
                    // tie-breaking always falls through to the exact scan
                    // below.
                    if *u < *l {
                        counts.pruned += 1;
                        continue;
                    }
                    let p = points.row(start + off);
                    // Tighten the upper bound with one exact distance and
                    // retest before paying for the full k-way scan.
                    let d_a = sq_l2(p, centers.row(*a)).sqrt();
                    *u = d_a;
                    if d_a < *l {
                        counts.tightened += 1;
                        continue;
                    }
                    counts.exact_scans += 1;
                    let ((best, best_d2, second_d2), near) = scanner.rescan(p, *a, d_a);
                    counts.neighbour_hits += usize::from(near);
                    *u = best_d2.sqrt();
                    *l = second_d2.sqrt();
                    if best != *a {
                        *a = best;
                        counts.reassigned += 1;
                    }
                }
                counts
            },
        );
        // Chunk-order reduction of the per-chunk tallies.
        let ScanCounts {
            reassigned,
            pruned,
            tightened,
            exact_scans,
            neighbour_hits,
        } = partials
            .into_iter()
            .fold(ScanCounts::default(), |s, c| s + c);
        self.last_exact_scans = exact_scans;
        self.last_neighbour_hits = neighbours.then_some(neighbour_hits);
        if let Some(o) = obs {
            o.metrics.add("kmeans.pruned", pruned as u64);
            o.metrics.add("kmeans.tightened", tightened as u64);
            o.metrics.add("kmeans.exact_scans", exact_scans as u64);
            let mut fields = vec![
                ("reassigned", reassigned.into()),
                ("pruned", pruned.into()),
                ("tightened", tightened.into()),
                ("exact_scans", exact_scans.into()),
                ("max_center_move", max_move.into()),
            ];
            if neighbours {
                // Only iterations that ran on neighbour tables report
                // how the exact scans split between them and the tree.
                let fallbacks = exact_scans - neighbour_hits;
                o.metrics
                    .add("kmeans.neighbour_hits", neighbour_hits as u64);
                o.metrics
                    .add("kmeans.neighbour_fallbacks", fallbacks as u64);
                fields.push(("neighbour_hits", neighbour_hits.into()));
                fields.push(("neighbour_fallbacks", fallbacks.into()));
            }
            o.trace
                .push(self.iteration as f64, "kmeans", "iter", fields);
        }
        self.iteration += 1;
        reassigned
    }
}

/// The pre-optimization naive K-means, retained verbatim as the
/// correctness oracle for [`kmeans`] and as the baseline the hot-path
/// benches compare against: ragged `Vec<Vec<f64>>` rows and a full k-way
/// distance scan for every point in every iteration.
///
/// Consumes the RNG identically to [`kmeans`] (only the initializer
/// draws), so for the same inputs and seed the two return equal
/// [`Clustering`] values — see the equivalence property test.
///
/// # Errors
///
/// Exactly as [`kmeans`].
pub fn kmeans_reference<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    config: KmeansConfig,
    initializer: &Initializer,
    rng: &mut R,
) -> Result<Clustering, KmeansError> {
    let n = points.len();
    let k = config.k;
    if n < k {
        return Err(KmeansError::TooFewPoints { points: n, k });
    }
    let seeds = initializer.select(points, k, rng)?;
    let rows = points.to_rows();

    let mut centers: Vec<Vec<f64>> = seeds.iter().map(|&i| rows[i].clone()).collect();
    let mut assignments = vec![0usize; n];
    for (i, p) in rows.iter().enumerate() {
        assignments[i] = nearest_center_rows(p, &centers);
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        update_centers_rows(&rows, &assignments, &mut centers);
        repair_empty_clusters_rows(&rows, &mut assignments, &mut centers);

        let mut reassigned = 0usize;
        for (i, p) in rows.iter().enumerate() {
            let best = nearest_center_rows(p, &centers);
            if best != assignments[i] {
                assignments[i] = best;
                reassigned += 1;
            }
        }
        if reassigned == 0 {
            converged = true;
            break;
        }
    }

    update_centers_rows(&rows, &assignments, &mut centers);
    repair_empty_clusters_rows(&rows, &mut assignments, &mut centers);

    Ok(Clustering {
        assignments,
        centers: FeatureMatrix::from_rows(&centers),
        iterations,
        converged,
    })
}

/// Per-chunk tallies of the Hamerly scan, reduced in chunk order.
#[derive(Debug, Clone, Copy, Default)]
struct ScanCounts {
    reassigned: usize,
    pruned: usize,
    tightened: usize,
    exact_scans: usize,
    /// Of `exact_scans`, those the neighbour tables settled.
    neighbour_hits: usize,
}

impl std::ops::Add for ScanCounts {
    type Output = ScanCounts;

    fn add(self, other: ScanCounts) -> ScanCounts {
        ScanCounts {
            reassigned: self.reassigned + other.reassigned,
            pruned: self.pruned + other.pruned,
            tightened: self.tightened + other.tightened,
            exact_scans: self.exact_scans + other.exact_scans,
            neighbour_hits: self.neighbour_hits + other.neighbour_hits,
        }
    }
}

/// One parallel-scan work item: `(start index, assignments, upper
/// bounds, lower bounds)` over one fixed chunk of points.
type ScanChunk<'s> = (usize, &'s mut [usize], &'s mut [f64], &'s mut [f64]);

/// Splits the assignment/bound arrays into matching fixed chunks
/// (`(start index, assignments, upper, lower)` work items) for the
/// parallel scans. Boundaries come from [`ecg_par::chunk_ranges`], so
/// they depend only on `n`.
fn scan_chunks<'s>(
    assignments: &'s mut [usize],
    upper: &'s mut [f64],
    lower: &'s mut [f64],
) -> Vec<ScanChunk<'s>> {
    let chunk = ecg_par::DEFAULT_CHUNK;
    let ranges = ecg_par::chunk_ranges(assignments.len());
    ranges
        .into_iter()
        .zip(assignments.chunks_mut(chunk))
        .zip(upper.chunks_mut(chunk).zip(lower.chunks_mut(chunk)))
        .map(|((r, a), (u, l))| (r.start, a, u, l))
        .collect()
}

/// Index of the center nearest to `p` (ties break to the lower index) —
/// reference-path scan over ragged rows.
fn nearest_center_rows(p: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = sq_l2(p, center);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn update_centers_rows(points: &[Vec<f64>], assignments: &[usize], centers: &mut [Vec<f64>]) {
    let dim = points[0].len();
    let k = centers.len();
    let mut sums = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.iter().zip(assignments) {
        counts[c] += 1;
        for (s, v) in sums[c].iter_mut().zip(p) {
            *s += v;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            for (center_v, sum_v) in centers[c].iter_mut().zip(&sums[c]) {
                *center_v = sum_v / counts[c] as f64;
            }
        }
    }
}

fn repair_empty_clusters_rows(
    points: &[Vec<f64>],
    assignments: &mut [usize],
    centers: &mut [Vec<f64>],
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
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            if counts[c] <= 1 {
                continue;
            }
            let d = sq_l2(p, &centers[c]);
            if donor.is_none_or(|(_, bd)| d > bd) {
                donor = Some((i, d));
            }
        }
        let Some((idx, _)) = donor else {
            return;
        };
        assignments[idx] = empty;
        centers[empty] = points[idx].clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_blobs() -> FeatureMatrix {
        let mut pts = FeatureMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)] {
            for d in 0..5 {
                pts.push_row(&[cx + d as f64 * 0.1, cy + d as f64 * 0.1]);
            }
        }
        pts
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let pts = three_blobs();
        let mut rng = StdRng::seed_from_u64(0);
        let r = kmeans(
            &pts,
            KmeansConfig::new(3),
            &Initializer::RandomRepresentative,
            &mut rng,
            None,
        )
        .unwrap();
        assert!(r.converged());
        // Each blob of five lands in one cluster.
        for blob in 0..3 {
            let first = r.assignments()[blob * 5];
            for i in 0..5 {
                assert_eq!(r.assignments()[blob * 5 + i], first);
            }
        }
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 5, 5]);
    }

    #[test]
    fn every_cluster_is_non_empty() {
        // Adversarial: many identical points plus one outlier, k = 4.
        let mut pts = FeatureMatrix::new(2);
        for _ in 0..20 {
            pts.push_row(&[0.0, 0.0]);
        }
        pts.push_row(&[100.0, 100.0]);
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = kmeans(
                &pts,
                KmeansConfig::new(4),
                &Initializer::RandomRepresentative,
                &mut rng,
                None,
            )
            .unwrap();
            assert!(
                r.cluster_sizes().iter().all(|&s| s > 0),
                "seed {seed}: {:?}",
                r.cluster_sizes()
            );
        }
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let pts =
            FeatureMatrix::from_rows(&(0..6).map(|i| vec![i as f64 * 10.0]).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(1);
        let r = kmeans(
            &pts,
            KmeansConfig::new(6),
            &Initializer::RandomRepresentative,
            &mut rng,
            None,
        )
        .unwrap();
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1; 6]);
    }

    #[test]
    fn k_one_groups_everything() {
        let pts = three_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let r = kmeans(
            &pts,
            KmeansConfig::new(1),
            &Initializer::RandomRepresentative,
            &mut rng,
            None,
        )
        .unwrap();
        assert_eq!(r.cluster_sizes(), vec![pts.len()]);
        // Center is the global mean.
        let mean_x = pts.iter_rows().map(|p| p[0]).sum::<f64>() / pts.len() as f64;
        assert!((r.centers()[0][0] - mean_x).abs() < 1e-9);
    }

    #[test]
    fn too_few_points_is_an_error() {
        let pts = FeatureMatrix::from_rows(&[vec![1.0]]);
        let mut rng = StdRng::seed_from_u64(1);
        let err = kmeans(
            &pts,
            KmeansConfig::new(2),
            &Initializer::RandomRepresentative,
            &mut rng,
            None,
        )
        .unwrap_err();
        assert_eq!(err, KmeansError::TooFewPoints { points: 1, k: 2 });
        assert!(err.to_string().contains("2 clusters"));
    }

    #[test]
    fn provided_initializer_is_deterministic() {
        let pts = three_blobs();
        let run = || {
            let mut rng = StdRng::seed_from_u64(0);
            kmeans(
                &pts,
                KmeansConfig::new(3),
                &Initializer::Provided(vec![0, 5, 10]),
                &mut rng,
                None,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clusters_partition_the_points() {
        let pts = three_blobs();
        let mut rng = StdRng::seed_from_u64(9);
        let r = kmeans(
            &pts,
            KmeansConfig::new(3),
            &Initializer::RandomRepresentative,
            &mut rng,
            None,
        )
        .unwrap();
        let mut all: Vec<usize> = r.clusters().into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..pts.len()).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn pruned_run_equals_reference_exactly() {
        // Same seeds, a spread of (n, k) shapes including duplicate
        // points (exact distance ties) and k = n: every field of the
        // result must match the naive path bit for bit.
        let mut gen = StdRng::seed_from_u64(0xBEEF);
        for &(n, k, dim) in &[
            (12usize, 3usize, 2usize),
            (40, 7, 5),
            (25, 25, 3),
            (30, 2, 1),
        ] {
            let mut pts = FeatureMatrix::new(dim);
            for i in 0..n {
                use rand::Rng;
                // Every fourth point duplicates the previous one to
                // exercise exact distance ties.
                if i % 4 == 3 {
                    let prev = pts.row(i - 1).to_vec();
                    pts.push_row(&prev);
                } else {
                    let row: Vec<f64> = (0..dim).map(|_| gen.gen_range(0.0..100.0)).collect();
                    pts.push_row(&row);
                }
            }
            for seed in 0..10u64 {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                let fast = kmeans(
                    &pts,
                    KmeansConfig::new(k),
                    &Initializer::RandomRepresentative,
                    &mut rng_a,
                    None,
                )
                .unwrap();
                let slow = kmeans_reference(
                    &pts,
                    KmeansConfig::new(k),
                    &Initializer::RandomRepresentative,
                    &mut rng_b,
                )
                .unwrap();
                assert_eq!(fast, slow, "n={n} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn pruned_run_equals_reference_with_duplicates_and_repair() {
        // Heavy duplication forces empty-cluster repair in most
        // iterations — the hardest case for bound bookkeeping.
        let mut pts = FeatureMatrix::new(2);
        for _ in 0..18 {
            pts.push_row(&[1.0, 1.0]);
        }
        pts.push_row(&[50.0, 0.0]);
        pts.push_row(&[0.0, 50.0]);
        for seed in 0..20u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fast = kmeans(
                &pts,
                KmeansConfig::new(5),
                &Initializer::RandomRepresentative,
                &mut rng_a,
                None,
            )
            .unwrap();
            let slow = kmeans_reference(
                &pts,
                KmeansConfig::new(5),
                &Initializer::RandomRepresentative,
                &mut rng_b,
            )
            .unwrap();
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_k_rejected() {
        let _ = KmeansConfig::new(0);
    }

    #[test]
    fn k_picks_the_engine_unless_one_is_forced() {
        assert!(!KmeansConfig::new(TREE_AUTO_MIN_K - 1).uses_tree());
        assert!(KmeansConfig::new(TREE_AUTO_MIN_K).uses_tree());
        let huge = KmeansConfig::new(1_000_000);
        assert!(!huge.force_assign(AssignMode::Blocked).uses_tree());
        assert!(KmeansConfig::new(1)
            .force_assign(AssignMode::Tree)
            .uses_tree());
    }

    #[test]
    fn observed_run_matches_plain_and_accounts_every_point() {
        let pts = three_blobs();
        let plain = {
            let mut rng = StdRng::seed_from_u64(3);
            kmeans(
                &pts,
                KmeansConfig::new(3),
                &Initializer::RandomRepresentative,
                &mut rng,
                None,
            )
            .unwrap()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut obs = Obs::new();
        let observed = kmeans(
            &pts,
            KmeansConfig::new(3),
            &Initializer::RandomRepresentative,
            &mut rng,
            Some(&mut obs),
        )
        .unwrap();
        // Identical RNG consumption: same clustering in every field.
        assert_eq!(plain, observed);
        let iters = obs.metrics.counter("kmeans.iterations");
        assert_eq!(iters, observed.iterations() as u64);
        assert_eq!(obs.metrics.counter("kmeans.runs"), 1);
        assert_eq!(obs.metrics.counter("kmeans.converged"), 1);
        // Every point is pruned, tightened, or scanned each iteration.
        let handled = obs.metrics.counter("kmeans.pruned")
            + obs.metrics.counter("kmeans.tightened")
            + obs.metrics.counter("kmeans.exact_scans");
        assert_eq!(handled, iters * pts.len() as u64);
        // One trace event per iteration, keyed by iteration number.
        assert_eq!(obs.trace.len(), iters as usize);
        assert_eq!(obs.phases.roots()[0].work(), iters as f64);
    }
}
