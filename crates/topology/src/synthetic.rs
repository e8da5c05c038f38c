//! Implicit synthetic RTT oracles for large-N scaling runs.
//!
//! The GT-ITM pipeline materializes a dense [`RttMatrix`], which is
//! O(n²) memory — about 20 GB at n = 50 000. The scaling benchmarks
//! instead use [`SyntheticRtt`]: a geometric RTT model that stores O(n)
//! state (a plane position and a last-hop access penalty per node) and
//! computes any pairwise RTT on demand through the
//! [`RttSource`] trait. The model is a standard
//! cities-on-a-plane abstraction: nodes cluster around metro sites,
//! propagation delay is the Euclidean plane distance, and each endpoint
//! adds its own access-link penalty — qualitatively the same
//! short-intra-site / long-inter-site structure the transit-stub
//! generator produces.

use crate::rtt::{RttMatrix, RttSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator of the [`SyntheticRtt`] geometric model.
///
/// The model has one shape, a continental plane: 100 ms of one-way
/// extent, metro sites of about 64 nodes spread over ±5 ms, and 1–5 ms
/// access links.
///
/// # Examples
///
/// ```
/// use ecg_topology::{RttSource, SyntheticRttConfig};
///
/// let net = SyntheticRttConfig.generate(1_000, 7);
/// assert_eq!(net.node_count(), 1_000);
/// assert_eq!(net.rtt_ms(3, 3), 0.0);
/// assert_eq!(net.rtt_ms(1, 2), net.rtt_ms(2, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SyntheticRttConfig;

const EXTENT_MS: f64 = 100.0;
const SPREAD_MS: f64 = 5.0;
const ACCESS_MIN_MS: f64 = 1.0;
const ACCESS_MAX_MS: f64 = 5.0;
const NODES_PER_SITE: usize = 64;

impl SyntheticRttConfig {
    /// Generates the oracle for `nodes` nodes from a seed. Node `0`
    /// plays the origin-server role downstream consumers expect.
    ///
    /// Generation is O(n) time and memory and depends only on
    /// `(nodes, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn generate(&self, nodes: usize, seed: u64) -> SyntheticRtt {
        assert!(nodes > 0, "need at least one node");
        let mut rng = StdRng::seed_from_u64(seed);
        let site_count = nodes.div_ceil(NODES_PER_SITE).max(1);
        let sites: Vec<(f64, f64)> = (0..site_count)
            .map(|_| (rng.gen_range(0.0..EXTENT_MS), rng.gen_range(0.0..EXTENT_MS)))
            .collect();
        let mut positions = Vec::with_capacity(nodes);
        let mut access_ms = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (sx, sy) = sites[rng.gen_range(0..site_count)];
            positions.push((
                sx + rng.gen_range(-SPREAD_MS..=SPREAD_MS),
                sy + rng.gen_range(-SPREAD_MS..=SPREAD_MS),
            ));
            access_ms.push(rng.gen_range(ACCESS_MIN_MS..=ACCESS_MAX_MS));
        }
        SyntheticRtt {
            positions,
            access_ms,
        }
    }
}

/// An implicit RTT oracle over a geometric node embedding: O(n) state,
/// O(1) per-pair evaluation. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticRtt {
    positions: Vec<(f64, f64)>,
    access_ms: Vec<f64>,
}

/// RTT between two *distinct* nodes from their plane coordinates and
/// access penalties — the one expression both the pairwise and the
/// batched query evaluate, so they cannot drift apart.
#[inline]
fn pair_rtt(ax: f64, ay: f64, access_a: f64, bx: f64, by: f64, access_b: f64) -> f64 {
    let one_way = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
    // The access pair is summed first: f64 addition is commutative
    // but not associative, and exact rtt(a,b) == rtt(b,a) symmetry
    // requires the same grouping from both directions.
    2.0 * one_way + (access_a + access_b)
}

impl RttSource for SyntheticRtt {
    fn node_count(&self) -> usize {
        self.positions.len()
    }

    fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        assert!(
            a < self.positions.len() && b < self.positions.len(),
            "rtt index out of range"
        );
        if a == b {
            return 0.0;
        }
        let (ax, ay) = self.positions[a];
        let (bx, by) = self.positions[b];
        pair_rtt(ax, ay, self.access_ms[a], bx, by, self.access_ms[b])
    }

    /// Gathers the listed nodes' coordinates and access penalties into
    /// contiguous buffers once, then fills the block row by row with
    /// `pair_rtt` — no per-pair range check, virtual call or scattered
    /// read, and nothing in the loop body to stop it vectorizing.
    /// [`RttMatrix`] checks and mirrors each row as it is written, which
    /// is exact because `pair_rtt` is symmetric.
    fn submatrix_into(&self, nodes: &[usize], out: &mut RttMatrix) {
        let n = nodes.len();
        let mut gathered = vec![0.0; 3 * n];
        let (xs, rest) = gathered.split_at_mut(n);
        let (ys, access) = rest.split_at_mut(n);
        for (i, &node) in nodes.iter().enumerate() {
            assert!(node < self.positions.len(), "rtt index out of range");
            (xs[i], ys[i]) = self.positions[node];
            access[i] = self.access_ms[node];
        }
        let (xs, ys, access) = (&*xs, &*ys, &*access);
        out.fill_rows(n, |a, upper| {
            let (ax, ay, access_a) = (xs[a], ys[a], access[a]);
            let later = a + 1..n;
            for (((entry, &bx), &by), &access_b) in upper
                .iter_mut()
                .zip(&xs[later.clone()])
                .zip(&ys[later.clone()])
                .zip(&access[later])
            {
                *entry = pair_rtt(ax, ay, access_a, bx, by, access_b);
            }
        });
        // A node listed twice is at distance zero from itself, not two
        // access links away. A strictly ascending list — a group's usual
        // member order — repeats nothing; otherwise sorting the
        // `(node, position)` pairs puts every repeat next to its first
        // listing.
        if !nodes.is_sorted_by(|a, b| a < b) {
            let mut by_node: Vec<(usize, usize)> = nodes.iter().copied().zip(0..).collect();
            by_node.sort_unstable();
            for repeats in by_node.chunk_by(|a, b| a.0 == b.0) {
                for (i, &(_, a)) in repeats.iter().enumerate() {
                    for &(_, b) in &repeats[i + 1..] {
                        out.set(a, b, 0.0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticRttConfig.generate(500, 9);
        let b = SyntheticRttConfig.generate(500, 9);
        assert_eq!(a, b);
        let c = SyntheticRttConfig.generate(500, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn symmetric_zero_diagonal_and_positive() {
        let net = SyntheticRttConfig.generate(100, 3);
        for i in (0..100).step_by(7) {
            assert_eq!(net.rtt_ms(i, i), 0.0);
            for j in (0..100).step_by(11) {
                let r = net.rtt_ms(i, j);
                assert_eq!(r, net.rtt_ms(j, i));
                assert!(r.is_finite() && r >= 0.0);
                if i != j {
                    // Two access links bound the RTT away from zero.
                    assert!(r >= 2.0, "rtt({i},{j}) = {r}");
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        // d(a,b) + acc_a + acc_b <= (d(a,c) + acc_a + acc_c)
        //                         + (d(c,b) + acc_c + acc_b)
        // because plane distances are a metric and access penalties are
        // non-negative.
        let net = SyntheticRttConfig.generate(40, 5);
        for a in 0..40 {
            for b in 0..40 {
                for c in 0..40 {
                    assert!(
                        net.rtt_ms(a, b) <= net.rtt_ms(a, c) + net.rtt_ms(c, b) + 1e-9,
                        "triangle violated at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_is_linear_in_nodes() {
        // 50k nodes is exactly the scale a dense matrix cannot reach;
        // the implicit oracle builds it in O(n).
        let net = SyntheticRttConfig.generate(50_000, 1);
        assert_eq!(net.node_count(), 50_000);
        assert!(net.rtt_ms(0, 49_999) > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let net = SyntheticRttConfig.generate(10, 1);
        let _ = net.rtt_ms(0, 10);
    }
}
