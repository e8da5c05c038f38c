//! Deterministic mini-batch K-means for the large-N formation path.
//!
//! Full-batch Lloyd iterations cost O(n·k·d) per iteration; past
//! N ≈ 50k caches that scan is the formation bottleneck even with the
//! blocked kernel. Mini-batch K-means (Sculley, WWW 2010) replaces the
//! full scan with a small sampled batch per iteration and a per-center
//! learning-rate update, trading a slightly noisier objective for an
//! iteration cost independent of `n`. It is strictly **opt-in** via
//! [`KmeansVariant::MiniBatch`] — the paper-exact path stays full-batch
//! Lloyd, and every historical experiment output is untouched.
//!
//! # Determinism scheme
//!
//! Naive parallel mini-batch is nondeterministic twice over: batch
//! sampling order and update order both depend on scheduling. Here
//! neither does:
//!
//! * **Batch sampling** draws from a per-iteration [`rand::rngs::StdRng`]
//!   seeded with `ecg_par::derive_seed(master, iteration)`, where
//!   `master` is drawn once from the caller's RNG. Batches depend only
//!   on the seed and the iteration number — never on thread count.
//! * **Assignment** of the batch fans out over fixed
//!   [`ecg_par::chunk_ranges`] chunks (shared immutable centers —
//!   blocked kernel or center tree by k, bit-identical either way —
//!   and per-slot
//!   writes) and is reassembled in input order.
//! * **The Sculley update** (`counts[c] += 1; η = 1/counts[c];
//!   c += η·(p − c)`) is inherently order-sensitive in f64, so it runs
//!   sequentially in batch order. It touches `batch_size · d` values per
//!   iteration — noise next to the assignment scan.
//!
//! The result is bit-identical for any `ECG_THREADS`, which the
//! determinism tests pin at 1, 2, and 8 threads.

use crate::init::Initializer;
use crate::kmeans::{repair_empty_clusters, Clustering, KmeansConfig, KmeansError};
use crate::tree::CenterScanner;
use ecg_coords::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch schedule for [`kmeans_minibatch`].
///
/// # Examples
///
/// ```
/// use ecg_clustering::MiniBatchConfig;
///
/// let mb = MiniBatchConfig::default().batch_size(1024).iterations(60);
/// assert_eq!(mb.batch(), 1024);
/// assert_eq!(mb.iters(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniBatchConfig {
    batch_size: usize,
    iterations: usize,
}

impl Default for MiniBatchConfig {
    /// 2048-point batches for 40 iterations — enough for the center
    /// estimates to settle at bench scale while each iteration stays
    /// O(batch·k·d).
    fn default() -> Self {
        MiniBatchConfig {
            batch_size: 2048,
            iterations: 40,
        }
    }
}

impl MiniBatchConfig {
    /// Sets the points sampled per iteration (with replacement).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "mini-batch needs a non-empty batch");
        self.batch_size = batch_size;
        self
    }

    /// Sets the number of mini-batch update iterations.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Points sampled per iteration.
    pub fn batch(&self) -> usize {
        self.batch_size
    }

    /// Update iterations run.
    pub fn iters(&self) -> usize {
        self.iterations
    }
}

/// Which K-means engine a formation run uses.
///
/// [`Lloyd`](KmeansVariant::Lloyd) is the paper-exact full-batch loop
/// ([`crate::kmeans()`]); [`MiniBatch`](KmeansVariant::MiniBatch) is the
/// sampled large-N variant. Dispatch through [`kmeans_variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KmeansVariant {
    /// Full-batch Lloyd iterations — the paper's algorithm, byte-exact
    /// with every historical experiment.
    #[default]
    Lloyd,
    /// Sampled mini-batch updates for large N (opt-in).
    MiniBatch(MiniBatchConfig),
}

/// Runs the K-means engine selected by `variant`.
///
/// `Lloyd` delegates to [`crate::kmeans()`] (identical RNG consumption,
/// identical result); `MiniBatch` runs [`kmeans_minibatch`]. Both honor
/// `config.k()`; the mini-batch schedule comes from its own
/// [`MiniBatchConfig`] rather than `config`'s iteration cap.
///
/// # Errors
///
/// Returns [`KmeansError`] if there are fewer points than clusters or
/// the initializer misbehaves.
pub fn kmeans_variant<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    config: KmeansConfig,
    variant: &KmeansVariant,
    initializer: &Initializer,
    rng: &mut R,
) -> Result<Clustering, KmeansError> {
    match variant {
        KmeansVariant::Lloyd => crate::kmeans(points, config, initializer, rng, None),
        KmeansVariant::MiniBatch(mb) => kmeans_minibatch(points, config, *mb, initializer, rng),
    }
}

/// Deterministic mini-batch K-means (see the module docs for the
/// determinism scheme).
///
/// Seeds come from `initializer` exactly as in [`crate::kmeans()`]; one
/// further `u64` master seed is drawn from `rng` for the batch streams.
/// After the update iterations, every point gets one final full
/// (parallel, blocked) assignment pass and empty clusters are repaired,
/// so exactly `config.k()` non-empty clusters come out.
///
/// # Errors
///
/// Returns [`KmeansError`] if there are fewer points than clusters or
/// the initializer misbehaves.
///
/// # Examples
///
/// ```
/// use ecg_clustering::{kmeans_minibatch, FeatureMatrix, Initializer};
/// use ecg_clustering::{KmeansConfig, MiniBatchConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let points = FeatureMatrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![9.0], vec![9.1],
/// ]);
/// let mut rng = StdRng::seed_from_u64(5);
/// let r = kmeans_minibatch(
///     &points,
///     KmeansConfig::new(2),
///     MiniBatchConfig::default().batch_size(4).iterations(10),
///     &Initializer::RandomRepresentative,
///     &mut rng,
/// )?;
/// assert_eq!(r.assignments()[0], r.assignments()[1]);
/// assert_ne!(r.assignments()[0], r.assignments()[2]);
/// # Ok::<(), ecg_clustering::KmeansError>(())
/// ```
pub fn kmeans_minibatch<R: Rng + ?Sized>(
    points: &FeatureMatrix,
    config: KmeansConfig,
    mb: MiniBatchConfig,
    initializer: &Initializer,
    rng: &mut R,
) -> Result<Clustering, KmeansError> {
    let n = points.len();
    let k = config.k();
    if n < k {
        return Err(KmeansError::TooFewPoints { points: n, k });
    }

    let seeds = initializer.select(points, k, rng)?;
    let mut centers = FeatureMatrix::with_capacity(k, points.dim());
    for &i in &seeds {
        centers.push_row(points.row(i));
    }
    // One master draw; each iteration's batch stream is derived from it,
    // so sampling is independent of thread count.
    let master: u64 = rng.gen();

    let mut scanner = CenterScanner::stage(&centers, config.uses_tree());
    let mut counts = vec![0usize; k];
    let mut batch = Vec::with_capacity(mb.batch_size);
    for iteration in 0..mb.iterations {
        let mut batch_rng = StdRng::seed_from_u64(ecg_par::derive_seed(master, iteration as u64));
        batch.clear();
        batch.extend((0..mb.batch_size).map(|_| batch_rng.gen_range(0..n)));

        // Parallel blocked assignment of the batch, fixed chunks,
        // reassembled in batch order.
        let nearest: Vec<usize> = ecg_par::par_chunk_map(batch.len(), |range| {
            batch[range]
                .iter()
                .map(|&i| scanner.scan(points.row(i)).0)
                .collect::<Vec<usize>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Sequential Sculley update in batch order (f64 order matters).
        for (&i, &c) in batch.iter().zip(&nearest) {
            counts[c] += 1;
            let eta = 1.0 / counts[c] as f64;
            for (cv, &pv) in centers.row_mut(c).iter_mut().zip(points.row(i)) {
                *cv += eta * (pv - *cv);
            }
        }
        scanner.refill(&centers);
    }

    // Final full assignment over all points, then the usual no-empty-
    // groups guarantee.
    let mut assignments: Vec<usize> = ecg_par::par_chunk_map(n, |range| {
        range
            .map(|i| scanner.scan(points.row(i)).0)
            .collect::<Vec<usize>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut sizes = vec![0usize; k];
    for &c in &assignments {
        sizes[c] += 1;
    }
    let mut stolen = Vec::new();
    repair_empty_clusters(
        points,
        &mut assignments,
        &mut centers,
        &mut sizes,
        &mut stolen,
    );

    Ok(Clustering::from_parts(
        assignments,
        centers,
        mb.iterations,
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per_blob: usize) -> FeatureMatrix {
        let mut pts = FeatureMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)] {
            for d in 0..per_blob {
                pts.push_row(&[cx + (d % 7) as f64 * 0.2, cy + (d % 5) as f64 * 0.2]);
            }
        }
        pts
    }

    #[test]
    fn same_seed_same_clustering() {
        let pts = blobs(40);
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            kmeans_minibatch(
                &pts,
                KmeansConfig::new(3),
                MiniBatchConfig::default().batch_size(32).iterations(25),
                &Initializer::RandomRepresentative,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recovers_separated_blobs_with_k_non_empty_clusters() {
        // Seed 0 places one initial seed per blob; mini-batch (like
        // Lloyd) cannot merge blobs a bad init split, so the test pins a
        // recovering seed rather than quantifying over all of them.
        let pts = blobs(50);
        let mut rng = StdRng::seed_from_u64(0);
        let r = kmeans_minibatch(
            &pts,
            KmeansConfig::new(3),
            MiniBatchConfig::default().batch_size(64).iterations(40),
            &Initializer::RandomRepresentative,
            &mut rng,
        )
        .unwrap();
        assert!(r.cluster_sizes().iter().all(|&s| s > 0));
        let mut sizes = r.cluster_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![50, 50, 50]);
    }

    #[test]
    fn variant_dispatch_lloyd_is_exactly_kmeans() {
        let pts = blobs(20);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let via_variant = kmeans_variant(
            &pts,
            KmeansConfig::new(3),
            &KmeansVariant::Lloyd,
            &Initializer::RandomRepresentative,
            &mut rng_a,
        )
        .unwrap();
        let direct = crate::kmeans(
            &pts,
            KmeansConfig::new(3),
            &Initializer::RandomRepresentative,
            &mut rng_b,
            None,
        )
        .unwrap();
        assert_eq!(via_variant, direct);
    }

    #[test]
    fn zero_iterations_still_yields_a_valid_partition() {
        let pts = blobs(10);
        let mut rng = StdRng::seed_from_u64(4);
        let r = kmeans_minibatch(
            &pts,
            KmeansConfig::new(4),
            MiniBatchConfig::default().batch_size(8).iterations(0),
            &Initializer::RandomRepresentative,
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.assignments().len(), pts.len());
        assert!(r.cluster_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn too_few_points_is_an_error() {
        let pts = FeatureMatrix::from_rows(&[vec![1.0]]);
        let mut rng = StdRng::seed_from_u64(0);
        let err = kmeans_minibatch(
            &pts,
            KmeansConfig::new(3),
            MiniBatchConfig::default(),
            &Initializer::RandomRepresentative,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, KmeansError::TooFewPoints { points: 1, k: 3 });
    }

    #[test]
    #[should_panic(expected = "non-empty batch")]
    fn zero_batch_rejected() {
        let _ = MiniBatchConfig::default().batch_size(0);
    }
}
