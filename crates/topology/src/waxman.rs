//! Waxman random graphs.
//!
//! The Waxman model places nodes uniformly in a unit square and connects
//! each pair `(u, v)` with probability
//! `P(u, v) = alpha * exp(-d(u, v) / (beta * L))`, where `d` is the
//! Euclidean distance between the points and `L` is the maximum possible
//! distance. It is the classic intra-domain model used by the GT-ITM
//! transit-stub generator, which this crate re-implements in
//! [`crate::transit_stub`].
//!
//! Generated graphs are *always connected*: after the probabilistic phase,
//! remaining components are stitched together through their closest node
//! pairs, mirroring what GT-ITM's "re-try until connected" loop achieves
//! without unbounded retries.

use crate::graph::{Graph, NodeId};
use rand::Rng;

/// A point in the unit square used for Waxman edge probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Configuration of a Waxman random graph: its node count. The edge
/// parameters are the transit-stub generator's, `alpha = 0.6` (edge
/// density) and `beta = 0.4` (long-edge affinity).
///
/// # Examples
///
/// ```
/// use ecg_topology::waxman::WaxmanConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let cfg = WaxmanConfig::new(12);
/// let mut rng = StdRng::seed_from_u64(7);
/// let (graph, points) = cfg.generate(&mut rng);
/// assert_eq!(graph.node_count(), 12);
/// assert_eq!(points.len(), 12);
/// assert!(graph.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaxmanConfig {
    nodes: usize,
}

const ALPHA: f64 = 0.6;
const BETA: f64 = 0.4;

/// Latency of one unit of Euclidean distance: 50 ms across the unit
/// square, so a typical intra-domain hop costs a few milliseconds.
const LATENCY_PER_UNIT_MS: f64 = 50.0;
/// Floor of every edge latency.
const MIN_LATENCY_MS: f64 = 0.5;

impl WaxmanConfig {
    /// Creates a configuration for a graph with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        WaxmanConfig { nodes }
    }

    /// Generates a connected Waxman graph plus the sampled node positions.
    ///
    /// Edge latency is proportional to the Euclidean distance between the
    /// endpoints (50 ms per unit, floored at 0.5 ms), so
    /// the triangle-flavored structure of the plane carries over to the
    /// latency space.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> (Graph, Vec<Point>) {
        let n = self.nodes;
        let points: Vec<Point> = (0..n)
            .map(|_| Point {
                x: rng.gen::<f64>(),
                y: rng.gen::<f64>(),
            })
            .collect();
        let mut graph = Graph::with_nodes(n);
        let max_dist = 2f64.sqrt();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = points[i].distance(&points[j]);
                let p = ALPHA * (-d / (BETA * max_dist)).exp();
                if rng.gen::<f64>() < p {
                    graph.add_edge(NodeId(i), NodeId(j), self.edge_latency(d));
                }
            }
        }
        self.connect_components(&mut graph, &points);
        (graph, points)
    }

    fn edge_latency(&self, euclidean: f64) -> f64 {
        (euclidean * LATENCY_PER_UNIT_MS).max(MIN_LATENCY_MS)
    }

    /// Stitches disconnected components together through their closest
    /// node pairs so the result is always connected.
    fn connect_components(&self, graph: &mut Graph, points: &[Point]) {
        loop {
            let comps = graph.components();
            if comps.len() <= 1 {
                return;
            }
            // Join the first component to its nearest neighbor component
            // through the closest cross pair.
            let base = &comps[0];
            let mut best: Option<(NodeId, NodeId, f64)> = None;
            for other in &comps[1..] {
                for &u in base {
                    for &v in other {
                        let d = points[u.index()].distance(&points[v.index()]);
                        if best.is_none_or(|(_, _, bd)| d < bd) {
                            best = Some((u, v, d));
                        }
                    }
                }
            }
            let (u, v, d) = best.expect("at least two components");
            graph.add_edge(u, v, self.edge_latency(d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_node_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, pts) = WaxmanConfig::new(25).generate(&mut rng);
        assert_eq!(g.node_count(), 25);
        assert_eq!(pts.len(), 25);
    }

    #[test]
    fn always_connected_even_when_the_draw_leaves_components() {
        // Few nodes far apart often draw no edge between them; the
        // stitching pass must join what the draw left apart.
        for nodes in 2..8 {
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (g, _) = WaxmanConfig::new(nodes).generate(&mut rng);
                assert!(g.is_connected(), "{nodes} nodes, seed {seed}: disconnected");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            WaxmanConfig::new(40).generate(&mut rng).0
        };
        assert_eq!(gen(42), gen(42));
    }

    #[test]
    fn different_seeds_differ() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            WaxmanConfig::new(40).generate(&mut rng).0
        };
        assert_ne!(gen(1), gen(2));
    }

    #[test]
    fn latencies_respect_floor() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = WaxmanConfig::new(30).generate(&mut rng);
        for e in g.edges() {
            assert!(e.latency_ms >= MIN_LATENCY_MS);
        }
    }

    #[test]
    fn single_node_graph() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = WaxmanConfig::new(1).generate(&mut rng);
        assert_eq!(g.node_count(), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
