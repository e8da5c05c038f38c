//! Landmark feature vectors.
//!
//! The SL scheme represents each node's position as the vector of its
//! measured RTTs to the landmark set — "a simple feature vector
//! representation wherein the feature vector of a cache `Ec_j` contains
//! the network distance values between the cache and various landmark
//! points" (§3.2). Positional dissimilarity between two nodes is the L2
//! distance between their feature vectors, which K-means computes over
//! the rows of a [`FeatureMatrix`].

use crate::matrix::FeatureMatrix;
use crate::probe::{Draws, Prober};
use crate::resilience::{FeatureMask, RetryPolicy};
use rand::Rng;
use std::fmt;
use std::ops::Index;

/// A node's measured RTTs to each landmark, in landmark order.
///
/// # Examples
///
/// ```
/// use ecg_coords::FeatureVector;
///
/// let a = FeatureVector::new(vec![3.0, 4.0]);
/// assert_eq!(a.dim(), 2);
/// assert_eq!(a[1], 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// Wraps measured landmark RTTs as a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or not finite.
    pub fn new(values: Vec<f64>) -> Self {
        for &v in &values {
            assert!(
                v.is_finite() && v >= 0.0,
                "feature components must be finite and non-negative, got {v}"
            );
        }
        FeatureVector { values }
    }

    /// Number of landmarks the vector spans.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for the zero-dimensional vector.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw component slice, in landmark order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl Index<usize> for FeatureVector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

impl From<Vec<f64>> for FeatureVector {
    fn from(values: Vec<f64>) -> Self {
        FeatureVector::new(values)
    }
}

impl fmt::Display for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.1}")?;
        }
        write!(f, "]")
    }
}

/// Builds the feature matrix of `nodes` by probing each landmark
/// through `prober` (§3.2 of the paper, step 2 of both schemes) — the
/// one builder every other function here, and the formation pipeline,
/// reduces to.
///
/// Row `i` is node `nodes[i]`'s measured RTTs to each landmark, in
/// landmark order; a node that is itself a landmark measures distance
/// zero to itself, exactly as in Figure 2 of the paper. The returned
/// [`FeatureMask`] says which cells hold a real measurement: under
/// `policy = None` all of them (a failed measurement reports the
/// timeout sentinel, as [`Prober::measure`] does); under `Some`, cells
/// that still failed after the retries hold a `0.0` placeholder and
/// `false`, so masked K-means (`ecg_clustering::kmeans_masked`) can
/// cluster on the observed cells only instead of averaging sentinels
/// into the features. Retry policy and draw discipline are both
/// [`Prober::measure_batch`]'s; on a healthy network a `Some` policy
/// consumes the stream exactly like `None`.
///
/// # Panics
///
/// Panics if a measurement comes back negative or non-finite (the same
/// validation [`FeatureVector::new`] applies).
pub fn build_features<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    nodes: &[usize],
    landmarks: &[usize],
    policy: Option<&RetryPolicy>,
    draws: &mut Draws<'_>,
    rng: &mut R,
) -> (FeatureMatrix, FeatureMask) {
    let dim = landmarks.len();
    let pair = |r: usize, c: usize| (nodes[r], landmarks[c]);
    let (values, observed) = prober.measure_batch(nodes.len(), dim, pair, policy, draws, rng);
    for &v in &values {
        assert!(
            v.is_finite() && v >= 0.0,
            "feature components must be finite and non-negative, got {v}"
        );
    }
    // The batch is already the matrix, row-major; only landmark-less
    // rows have no flat form.
    let mut matrix = FeatureMatrix::from_flat(dim, values);
    if dim == 0 {
        nodes.iter().for_each(|_| matrix.push_row(&[]));
    }
    (matrix, FeatureMask::from_flat(dim, observed))
}

/// [`build_features`] without retries on one shared RNG stream consumed
/// in `nodes` × `landmarks` order.
pub fn build_feature_matrix<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    nodes: &[usize],
    landmarks: &[usize],
    rng: &mut R,
) -> FeatureMatrix {
    build_features(
        prober,
        nodes,
        landmarks,
        None,
        &mut Draws::Shared(None),
        rng,
    )
    .0
}

/// [`build_feature_matrix`] as one [`FeatureVector`] per node: the same
/// measurements in the same order.
pub fn build_feature_vectors<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    nodes: &[usize],
    landmarks: &[usize],
    rng: &mut R,
) -> Vec<FeatureVector> {
    let matrix = build_feature_matrix(prober, nodes, landmarks, rng);
    let rows = (0..matrix.len()).map(|i| matrix.row(i).to_vec());
    rows.map(FeatureVector::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeConfig;
    use ecg_obs::Obs;
    use ecg_topology::fixtures::paper_figure1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`build_features`] without retries under [`Draws::PerRow`].
    fn build_per_row(
        prober: &Prober<'_>,
        nodes: &[usize],
        landmarks: &[usize],
        rng: &mut StdRng,
    ) -> FeatureMatrix {
        build_features(prober, nodes, landmarks, None, &mut Draws::PerRow, rng).0
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_component() {
        let _ = FeatureVector::new(vec![f64::NAN]);
    }

    #[test]
    fn feature_vectors_match_paper_figure2() {
        // With noiseless probing and landmarks {Os, Ec0, Ec4} (matrix
        // indices 0, 1, 5), Ec1's feature vector is its RTT row to those
        // landmarks: (8.0, 4.0, 17.0).
        let m = paper_figure1();
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(0);
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let fvs = build_feature_vectors(&prober, &nodes, &landmarks, &mut rng);
        assert_eq!(fvs.len(), 6);
        // Ec0 (matrix index 1) is itself a landmark: zero in slot 1.
        assert_eq!(fvs[0].as_slice(), &[12.0, 0.0, 17.0]);
        // Ec1 (matrix index 2): 8.0 to Os, 4.0 to Ec0, 14.4 to Ec4.
        assert_eq!(fvs[1].as_slice(), &[8.0, 4.0, 14.4]);
        // Ec4 (matrix index 5) is a landmark too.
        assert_eq!(fvs[4].as_slice(), &[12.0, 17.0, 0.0]);
    }

    #[test]
    fn matrix_matches_vectors_measurement_for_measurement() {
        // Same seed, noisy probing: the flat builder must consume the
        // RNG identically, so the rows are bit-identical.
        let m = paper_figure1();
        let prober = Prober::new(&m, ProbeConfig::default());
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let mut rng_a = StdRng::seed_from_u64(31);
        let fvs = build_feature_vectors(&prober, &nodes, &landmarks, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(31);
        let fm = build_feature_matrix(&prober, &nodes, &landmarks, &mut rng_b);
        assert_eq!(fm.len(), fvs.len());
        assert_eq!(fm.dim(), 3);
        for (i, fv) in fvs.iter().enumerate() {
            assert_eq!(fm.row(i), fv.as_slice());
        }
    }

    #[test]
    fn par_matrix_noiseless_matches_truth() {
        // With noiseless probing the per-node RNG streams are never
        // consulted, so the parallel builder must reproduce the exact
        // truth rows of the sequential one.
        let m = paper_figure1();
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let seq = build_feature_matrix(&prober, &nodes, &landmarks, &mut StdRng::seed_from_u64(9));
        let par = build_per_row(&prober, &nodes, &landmarks, &mut StdRng::seed_from_u64(9));
        assert_eq!(par.len(), seq.len());
        for i in 0..seq.len() {
            assert_eq!(par.row(i), seq.row(i));
        }
    }

    #[test]
    fn par_matrix_is_thread_count_invariant() {
        // Noisy probing, forced thread counts: the rows must be
        // bit-identical because every node has its own derived stream
        // and chunk boundaries ignore the worker count.
        let m = paper_figure1();
        let prober = Prober::new(&m, ProbeConfig::default().noise_sigma(0.2));
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let build = |threads| {
            ecg_par::set_max_threads(Some(threads));
            let fm = build_per_row(&prober, &nodes, &landmarks, &mut StdRng::seed_from_u64(77));
            ecg_par::set_max_threads(None);
            fm
        };
        let one = build(1);
        let four = build(4);
        assert_eq!(one.len(), four.len());
        for i in 0..one.len() {
            let (a, b) = (one.row(i), four.row(i));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn retry_policy_changes_nothing_on_the_healthy_path() {
        // Noisy probing, zero loss, no faults: with or without a retry
        // policy the builder consumes the shared RNG identically, the
        // rows are bit-identical and nothing is masked.
        let m = paper_figure1();
        let prober = Prober::new(&m, ProbeConfig::default());
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let build = |policy: Option<&RetryPolicy>| {
            let mut rng = StdRng::seed_from_u64(13);
            let built = build_features(
                &prober,
                &nodes,
                &landmarks,
                policy,
                &mut Draws::Shared(None),
                &mut rng,
            );
            (built, rng.gen::<u64>())
        };
        let ((plain, plain_mask), plain_next) = build(None);
        let ((retried, retried_mask), retried_next) = build(Some(&RetryPolicy::default()));
        assert!(plain_mask.is_fully_observed());
        assert_eq!(retried_mask, plain_mask);
        assert_eq!(retried, plain);
        assert_eq!(retried_next, plain_next);
        assert_eq!(prober.retries(), 0);
    }

    #[test]
    fn retried_matrix_masks_dead_landmark_column() {
        use crate::resilience::ProbeFaults;
        // Landmark node 5 is crashed: its column must be masked for
        // every probing node, with 0.0 placeholders, and node 5's own
        // row (it cannot probe at all) must be fully masked except the
        // free self-measurement. Without a policy the same cells hold
        // the timeout sentinel and count as observed.
        let m = paper_figure1();
        let faults = ProbeFaults::new().node_down(5);
        let prober = Prober::with_faults(&m, ProbeConfig::noiseless(), faults);
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        let mut obs = Obs::new();
        let (fm, mask) = build_features(
            &prober,
            &nodes,
            &landmarks,
            Some(&RetryPolicy::default()),
            &mut Draws::Shared(Some(&mut obs)),
            &mut StdRng::seed_from_u64(0),
        );
        let timeout = prober.config().timeout();
        let sentinel =
            build_feature_matrix(&prober, &nodes, &landmarks, &mut StdRng::seed_from_u64(0));
        for (i, &node) in nodes.iter().enumerate() {
            if node == 5 {
                // Self-probe is free and observed even for a down node.
                assert_eq!(mask.row(i), &[false, false, true]);
                assert_eq!(fm.row(i), &[0.0, 0.0, 0.0]);
                assert_eq!(sentinel.row(i), &[timeout, timeout, 0.0]);
            } else {
                assert_eq!(mask.row(i), &[true, true, false], "node {node}");
                assert_eq!(fm.row(i)[2], 0.0);
                assert_eq!(fm.row(i)[0], m.get(node, 0));
                assert_eq!(sentinel.row(i)[2], timeout);
            }
        }
        // Per-probe telemetry rides on the retried arm of the shared
        // stream: the dead column of five rows plus node 5's two probes.
        assert_eq!(obs.metrics.counter("probe.unreachable"), 7);
    }

    #[test]
    fn display_renders_components() {
        let v = FeatureVector::new(vec![1.0, 2.5]);
        assert_eq!(v.to_string(), "[1.0, 2.5]");
    }

    #[test]
    fn indexing_works() {
        let v = FeatureVector::from(vec![7.0, 8.0]);
        assert_eq!(v[0], 7.0);
    }
}
