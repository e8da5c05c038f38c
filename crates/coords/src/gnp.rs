//! Global Network Positioning (GNP) Euclidean embedding.
//!
//! GNP (Ng & Zhang, INFOCOM '02) maps Internet hosts into a
//! `D`-dimensional Euclidean space so that coordinate distances
//! approximate network RTTs. The paper uses GNP as the comparison point
//! for its simple feature-vector representation (Figure 7): both are fed
//! to the same K-means clustering, and the paper's finding is that the
//! cheap feature vectors cluster as well as the expensive embedding.
//!
//! The algorithm has two phases:
//!
//! 1. **Landmark phase** — jointly fit coordinates for the `L` landmarks
//!    minimizing the sum of squared *relative* errors between coordinate
//!    distances and measured landmark–landmark RTTs.
//! 2. **Node phase** — each remaining node independently fits its own
//!    coordinates against the (now fixed) landmark coordinates using its
//!    measured RTTs to the landmarks.
//!
//! Both phases use the Nelder–Mead minimizer from [`crate::simplex`],
//! with multiple random restarts to escape poor local minima.

use crate::probe::Prober;
use crate::simplex::{minimize, SimplexOptions};
use rand::Rng;
use std::fmt;

/// A point in the GNP Euclidean space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GnpCoordinates {
    values: Vec<f64>,
}

impl GnpCoordinates {
    /// Wraps raw coordinates.
    pub fn new(values: Vec<f64>) -> Self {
        GnpCoordinates { values }
    }

    /// Dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Raw coordinate slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Euclidean distance to another coordinate — the RTT estimate
    /// between the two hosts.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn distance(&self, other: &GnpCoordinates) -> f64 {
        assert_eq!(self.dim(), other.dim(), "mixed GNP dimensions");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl fmt::Display for GnpCoordinates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.2}")?;
        }
        write!(f, ")")
    }
}

/// Configuration of the GNP embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnpConfig {
    dimensions: usize,
    restarts: usize,
    max_iterations: usize,
}

impl Default for GnpConfig {
    /// Seven dimensions (the setting the GNP paper found sufficient for
    /// Internet RTTs), three restarts per fit.
    fn default() -> Self {
        GnpConfig {
            dimensions: 7,
            restarts: 3,
            max_iterations: 2_000,
        }
    }
}

impl GnpConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dimensionality `D` of the embedding space.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn dimensions(mut self, d: usize) -> Self {
        assert!(d > 0, "embedding needs at least one dimension");
        self.dimensions = d;
        self
    }

    /// Sets the number of random restarts per minimization.
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0`.
    pub fn restarts(mut self, restarts: usize) -> Self {
        assert!(restarts > 0, "need at least one restart");
        self.restarts = restarts;
        self
    }

    /// Sets the simplex iteration cap per restart.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }
}

/// Squared relative error between a predicted and a measured distance.
///
/// GNP normalizes by the measured value so short links are not drowned
/// out by long ones. Zero measurements contribute absolute error instead.
fn sq_relative_error(predicted: f64, measured: f64) -> f64 {
    if measured > f64::EPSILON {
        let e = (predicted - measured) / measured;
        e * e
    } else {
        predicted * predicted
    }
}

/// A fitted GNP model: landmark coordinates plus the config used.
#[derive(Debug, Clone, PartialEq)]
pub struct GnpModel {
    config: GnpConfig,
    landmark_coords: Vec<GnpCoordinates>,
    landmark_fit_error: f64,
}

impl GnpModel {
    /// Phase 1: fits coordinates for the landmark set.
    ///
    /// `landmark_rtts[i][j]` must hold the measured RTT between landmarks
    /// `i` and `j` (diagonal ignored). Runs `restarts` simplex fits from
    /// random starts and keeps the best.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two landmarks are given or the RTT matrix is
    /// not square.
    pub fn fit_landmarks<R: Rng + ?Sized>(
        config: GnpConfig,
        landmark_rtts: &[Vec<f64>],
        rng: &mut R,
    ) -> Self {
        let l = landmark_rtts.len();
        assert!(l >= 2, "GNP needs at least two landmarks");
        for row in landmark_rtts {
            assert_eq!(row.len(), l, "landmark RTT matrix must be square");
        }
        let d = config.dimensions;
        let scale = landmark_rtts
            .iter()
            .flatten()
            .copied()
            .fold(1.0f64, f64::max);

        // Joint optimization over all L·D coordinates at once converges
        // poorly for realistic landmark counts (L = 25, D = 7 is a
        // 175-dimensional simplex), so each restart runs block
        // coordinate descent: sweep the landmarks, re-fitting each one's
        // D coordinates against the others held fixed.
        let total_error = |flat: &[Vec<f64>]| -> f64 {
            let mut err = 0.0;
            for i in 0..l {
                for j in (i + 1)..l {
                    let dist: f64 = flat[i]
                        .iter()
                        .zip(&flat[j])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    err += sq_relative_error(dist, landmark_rtts[i][j]);
                }
            }
            err
        };

        let sweeps = 8;
        let mut best: Option<(Vec<Vec<f64>>, f64)> = None;
        for _ in 0..config.restarts {
            let mut coords: Vec<Vec<f64>> = (0..l)
                .map(|_| (0..d).map(|_| rng.gen::<f64>() * scale).collect())
                .collect();
            for _ in 0..sweeps {
                for i in 0..l {
                    let others: Vec<(Vec<f64>, f64)> = (0..l)
                        .filter(|&j| j != i)
                        .map(|j| (coords[j].clone(), landmark_rtts[i][j]))
                        .collect();
                    let objective = |p: &[f64]| -> f64 {
                        others
                            .iter()
                            .map(|(other, rtt)| {
                                let dist: f64 = p
                                    .iter()
                                    .zip(other)
                                    .map(|(a, b)| (a - b) * (a - b))
                                    .sum::<f64>()
                                    .sqrt();
                                sq_relative_error(dist, *rtt)
                            })
                            .sum()
                    };
                    let r = minimize(
                        objective,
                        &coords[i],
                        SimplexOptions {
                            max_iterations: config.max_iterations,
                            tolerance: 1e-10,
                            initial_step: scale * 0.1,
                        },
                    );
                    coords[i] = r.point;
                }
            }
            let err = total_error(&coords);
            if best.as_ref().is_none_or(|(_, v)| err < *v) {
                best = Some((coords, err));
            }
        }
        let (coords, landmark_fit_error) = best.expect("at least one restart");
        GnpModel {
            config,
            landmark_coords: coords.into_iter().map(GnpCoordinates::new).collect(),
            landmark_fit_error,
        }
    }

    /// The fitted landmark coordinates, in input order.
    pub fn landmark_coords(&self) -> &[GnpCoordinates] {
        &self.landmark_coords
    }

    /// Sum of squared relative errors over landmark pairs after fitting.
    pub fn landmark_fit_error(&self) -> f64 {
        self.landmark_fit_error
    }

    /// Phase 2: fits coordinates for one node given its measured RTTs to
    /// each landmark (in landmark order).
    ///
    /// # Panics
    ///
    /// Panics if `rtts_to_landmarks` does not match the landmark count.
    pub fn embed_node<R: Rng + ?Sized>(
        &self,
        rtts_to_landmarks: &[f64],
        rng: &mut R,
    ) -> GnpCoordinates {
        let l = self.landmark_coords.len();
        assert_eq!(
            rtts_to_landmarks.len(),
            l,
            "need one RTT per landmark ({l})"
        );
        let d = self.config.dimensions;
        let scale = rtts_to_landmarks.iter().copied().fold(1.0f64, f64::max);

        let objective = |p: &[f64]| -> f64 {
            let cand = GnpCoordinates::new(p.to_vec());
            self.landmark_coords
                .iter()
                .zip(rtts_to_landmarks)
                .map(|(lm, &rtt)| sq_relative_error(cand.distance(lm), rtt))
                .sum()
        };

        let mut best: Option<(Vec<f64>, f64)> = None;
        for attempt in 0..self.config.restarts {
            // First attempt starts from the centroid of the landmarks — a
            // strong initial guess — later attempts start randomly.
            let start: Vec<f64> = if attempt == 0 {
                (0..d)
                    .map(|k| {
                        self.landmark_coords
                            .iter()
                            .map(|c| c.as_slice()[k])
                            .sum::<f64>()
                            / l as f64
                    })
                    .collect()
            } else {
                (0..d).map(|_| rng.gen::<f64>() * scale).collect()
            };
            let r = minimize(
                objective,
                &start,
                SimplexOptions {
                    max_iterations: self.config.max_iterations,
                    tolerance: 1e-10,
                    initial_step: scale * 0.1,
                },
            );
            if best.as_ref().is_none_or(|(_, v)| r.value < *v) {
                best = Some((r.point, r.value));
            }
        }
        GnpCoordinates::new(best.expect("at least one restart").0)
    }
}

/// Embeds every node in `nodes` into GNP space in one call: measures
/// landmark–landmark RTTs, fits the model, then embeds each node from its
/// landmark measurements.
///
/// This is the full pipeline the Euclidean-space clustering comparator of
/// Figure 7 needs. Returns coordinates in `nodes` order.
pub fn embed_network<R: Rng + ?Sized>(
    config: GnpConfig,
    prober: &Prober<'_>,
    nodes: &[usize],
    landmarks: &[usize],
    rng: &mut R,
) -> Vec<GnpCoordinates> {
    let l = landmarks.len();
    let mut landmark_rtts = vec![vec![0.0; l]; l];
    for i in 0..l {
        for j in (i + 1)..l {
            let rtt = prober.measure(landmarks[i], landmarks[j], rng, None);
            landmark_rtts[i][j] = rtt;
            landmark_rtts[j][i] = rtt;
        }
    }
    let model = GnpModel::fit_landmarks(config, &landmark_rtts, rng);
    let mut rtts = Vec::with_capacity(landmarks.len());
    nodes
        .iter()
        .map(|&node| {
            prober.measure_all(node, landmarks, rng, &mut rtts, None);
            model.embed_node(&rtts, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeConfig;
    use ecg_topology::RttMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// RTT matrix that is exactly embeddable in 2-D: nodes on a grid.
    fn planar_matrix(points: &[(f64, f64)]) -> RttMatrix {
        RttMatrix::from_fn(points.len(), |i, j| {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            (dx * dx + dy * dy).sqrt()
        })
    }

    #[test]
    fn landmark_fit_recovers_planar_geometry() {
        let pts = [(0.0, 0.0), (30.0, 0.0), (0.0, 40.0), (30.0, 40.0)];
        let m = planar_matrix(&pts);
        let rtts: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| m.get(i, j)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let model = GnpModel::fit_landmarks(
            GnpConfig::default().dimensions(2).restarts(5),
            &rtts,
            &mut rng,
        );
        // Pairwise coordinate distances should match the input RTTs.
        for i in 0..4 {
            for j in (i + 1)..4 {
                let d = model.landmark_coords()[i].distance(&model.landmark_coords()[j]);
                let rel = (d - m.get(i, j)).abs() / m.get(i, j);
                assert!(rel < 0.05, "pair ({i},{j}): {d} vs {}", m.get(i, j));
            }
        }
    }

    #[test]
    fn node_embedding_predicts_distances() {
        let pts = [
            (0.0, 0.0),
            (50.0, 0.0),
            (0.0, 50.0),
            (50.0, 50.0),
            (25.0, 25.0), // node to embed
            (10.0, 40.0), // node to embed
        ];
        let m = planar_matrix(&pts);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(9);
        let coords = embed_network(
            GnpConfig::default().dimensions(2).restarts(5),
            &prober,
            &[4, 5],
            &[0, 1, 2, 3],
            &mut rng,
        );
        // The two embedded nodes should be ~ the right distance apart.
        let truth = m.get(4, 5);
        let predicted = coords[0].distance(&coords[1]);
        assert!(
            (predicted - truth).abs() / truth < 0.15,
            "predicted {predicted} vs truth {truth}"
        );
    }

    #[test]
    fn fit_error_is_reported_and_small_for_embeddable_input() {
        let pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let m = planar_matrix(&pts);
        let rtts: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..3).map(|j| m.get(i, j)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let model = GnpModel::fit_landmarks(
            GnpConfig::default().dimensions(2).restarts(4),
            &rtts,
            &mut rng,
        );
        assert!(model.landmark_fit_error() < 1e-3);
    }

    #[test]
    fn coordinates_distance_is_symmetric() {
        let a = GnpCoordinates::new(vec![1.0, 2.0]);
        let b = GnpCoordinates::new(vec![4.0, 6.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn display_renders() {
        let c = GnpCoordinates::new(vec![1.0, -2.5]);
        assert_eq!(c.to_string(), "(1.00, -2.50)");
    }

    #[test]
    #[should_panic(expected = "two landmarks")]
    fn too_few_landmarks_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = GnpModel::fit_landmarks(GnpConfig::default(), &[vec![0.0]], &mut rng);
    }

    #[test]
    #[should_panic(expected = "one RTT per landmark")]
    fn embed_node_checks_arity() {
        let pts = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let m = planar_matrix(&pts);
        let rtts: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..3).map(|j| m.get(i, j)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let model = GnpModel::fit_landmarks(GnpConfig::default().dimensions(2), &rtts, &mut rng);
        let _ = model.embed_node(&[1.0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_rejected() {
        let _ = GnpConfig::default().dimensions(0);
    }
}
