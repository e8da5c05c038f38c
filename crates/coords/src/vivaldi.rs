//! Vivaldi decentralized network coordinates.
//!
//! Vivaldi (Dabek et al., SIGCOMM '04) is the decentralized alternative
//! to GNP that the paper cites in its related work: nodes iteratively
//! adjust spring-like coordinates from pairwise RTT samples, with no
//! designated landmarks. Included as an extension so the position
//! representations compared in Figure 7 can also be benchmarked against a
//! landmark-free embedding.

use crate::gnp::GnpCoordinates;
use crate::probe::Prober;
use rand::Rng;

/// Configuration of a Vivaldi simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VivaldiConfig {
    dimensions: usize,
    rounds: usize,
    cc: f64,
    ce: f64,
}

impl Default for VivaldiConfig {
    /// The constants from the Vivaldi paper: `cc = ce = 0.25`, 3-D
    /// coordinates, 100 all-node rounds.
    fn default() -> Self {
        VivaldiConfig {
            dimensions: 3,
            rounds: 100,
            cc: 0.25,
            ce: 0.25,
        }
    }
}

impl VivaldiConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the coordinate dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn dimensions(mut self, d: usize) -> Self {
        assert!(d > 0, "vivaldi needs at least one dimension");
        self.dimensions = d;
        self
    }

    /// Sets the number of update rounds (each round updates every node
    /// once against a random peer).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the coordinate adaptation constant `cc`.
    pub fn cc(mut self, cc: f64) -> Self {
        self.cc = cc;
        self
    }

    /// Sets the error adaptation constant `ce`.
    pub fn ce(mut self, ce: f64) -> Self {
        self.ce = ce;
        self
    }
}

/// State of one Vivaldi node: coordinates plus local error estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct VivaldiNode {
    coords: Vec<f64>,
    error: f64,
}

impl VivaldiNode {
    /// The node's current coordinates.
    pub fn coords(&self) -> GnpCoordinates {
        GnpCoordinates::new(self.coords.clone())
    }

    /// The node's current error estimate in `[0, 1]`-ish range (starts at
    /// 1, shrinks as the embedding stabilizes).
    pub fn error(&self) -> f64 {
        self.error
    }
}

/// Runs Vivaldi over `nodes`, sampling RTTs through `prober`.
///
/// Each round, every node picks a uniformly random peer, measures the
/// RTT, and applies the Vivaldi spring update. Returns the final node
/// states in `nodes` order.
///
/// # Panics
///
/// Panics if fewer than two nodes are given.
pub fn run_vivaldi<R: Rng + ?Sized>(
    config: VivaldiConfig,
    prober: &Prober<'_>,
    nodes: &[usize],
    rng: &mut R,
) -> Vec<VivaldiNode> {
    let n = nodes.len();
    assert!(n >= 2, "vivaldi needs at least two nodes");
    let d = config.dimensions;
    let mut states: Vec<VivaldiNode> = (0..n)
        .map(|_| VivaldiNode {
            // Small random start breaks the symmetry of the origin.
            coords: (0..d).map(|_| rng.gen::<f64>() * 1e-3).collect(),
            error: 1.0,
        })
        .collect();

    for _ in 0..config.rounds {
        for i in 0..n {
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let rtt = prober.measure(nodes[i], nodes[j], rng, None);
            update(&mut states, i, j, rtt, config, rng);
        }
    }
    states
}

/// One Vivaldi update of node `i` against node `j` with measured `rtt`.
fn update<R: Rng + ?Sized>(
    states: &mut [VivaldiNode],
    i: usize,
    j: usize,
    rtt: f64,
    config: VivaldiConfig,
    rng: &mut R,
) {
    let d = states[i].coords.len();
    let (xi, xj) = (states[i].coords.clone(), states[j].coords.clone());
    let dist: f64 = xi
        .iter()
        .zip(&xj)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();

    // Sample weight balances local and remote confidence.
    let (ei, ej) = (states[i].error, states[j].error);
    let w = if ei + ej > 0.0 { ei / (ei + ej) } else { 0.5 };

    // Relative error of this sample, then update the error estimate.
    let rel = if rtt > f64::EPSILON {
        (dist - rtt).abs() / rtt
    } else {
        0.0
    };
    states[i].error = (rel * config.ce * w + ei * (1.0 - config.ce * w)).clamp(0.0, 10.0);

    // Unit vector from j to i; random direction if the nodes coincide.
    let mut dir: Vec<f64> = if dist > f64::EPSILON {
        xi.iter().zip(&xj).map(|(a, b)| (a - b) / dist).collect()
    } else {
        let v: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() - 0.5).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        v.into_iter().map(|x| x / norm).collect()
    };
    let delta = config.cc * w * (rtt - dist);
    for (c, dval) in states[i].coords.iter_mut().zip(dir.iter_mut()) {
        *c += delta * *dval;
    }
}

/// Mean relative error of a coordinate set against ground truth, sampled
/// over all node pairs: the standard quality metric for embeddings.
pub fn mean_relative_error(coords: &[GnpCoordinates], truth: impl Fn(usize, usize) -> f64) -> f64 {
    let n = coords.len();
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let t = truth(i, j);
            if t > f64::EPSILON {
                sum += (coords[i].distance(&coords[j]) - t).abs() / t;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeConfig;
    use ecg_topology::RttMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planar_matrix(points: &[(f64, f64)]) -> RttMatrix {
        RttMatrix::from_fn(points.len(), |i, j| {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            (dx * dx + dy * dy).sqrt().max(0.01)
        })
    }

    fn grid(n_side: usize, spacing: f64) -> Vec<(f64, f64)> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push((i as f64 * spacing, j as f64 * spacing));
            }
        }
        pts
    }

    #[test]
    fn vivaldi_converges_on_planar_input() {
        let pts = grid(4, 20.0);
        let m = planar_matrix(&pts);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let nodes: Vec<usize> = (0..pts.len()).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let states = run_vivaldi(
            VivaldiConfig::default().dimensions(2).rounds(300),
            &prober,
            &nodes,
            &mut rng,
        );
        let coords: Vec<GnpCoordinates> = states.iter().map(|s| s.coords()).collect();
        let err = mean_relative_error(&coords, |i, j| m.get(i, j));
        assert!(err < 0.25, "mean relative error {err}");
    }

    #[test]
    fn error_estimates_shrink() {
        let pts = grid(3, 15.0);
        let m = planar_matrix(&pts);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let nodes: Vec<usize> = (0..pts.len()).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let states = run_vivaldi(
            VivaldiConfig::default().dimensions(2).rounds(200),
            &prober,
            &nodes,
            &mut rng,
        );
        let mean_err: f64 = states.iter().map(|s| s.error()).sum::<f64>() / states.len() as f64;
        assert!(mean_err < 0.5, "mean node error estimate {mean_err}");
    }

    #[test]
    fn more_rounds_do_not_hurt() {
        let pts = grid(3, 25.0);
        let m = planar_matrix(&pts);
        let nodes: Vec<usize> = (0..pts.len()).collect();
        let run = |rounds| {
            let prober = Prober::new(&m, ProbeConfig::noiseless());
            let mut rng = StdRng::seed_from_u64(11);
            let states = run_vivaldi(
                VivaldiConfig::default().dimensions(2).rounds(rounds),
                &prober,
                &nodes,
                &mut rng,
            );
            let coords: Vec<GnpCoordinates> = states.iter().map(|s| s.coords()).collect();
            mean_relative_error(&coords, |i, j| m.get(i, j))
        };
        assert!(run(400) <= run(5) + 0.05);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn one_node_rejected() {
        let m = planar_matrix(&[(0.0, 0.0), (1.0, 1.0)]);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(0);
        let _ = run_vivaldi(VivaldiConfig::default(), &prober, &[0], &mut rng);
    }

    #[test]
    fn mean_relative_error_empty_is_zero() {
        assert_eq!(mean_relative_error(&[], |_, _| 1.0), 0.0);
    }
}
