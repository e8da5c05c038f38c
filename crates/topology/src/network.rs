//! Edge cache network placement.
//!
//! An [`EdgeNetwork`] is the paper's problem instance: one origin server
//! `Os` plus `N` edge caches `Ec_0 … Ec_{N-1}` with known pairwise RTTs.
//! This module places those nodes onto a generated
//! [`TransitStubTopology`] — caches on stub
//! nodes (they sit at the network edge), the origin on a transit or stub
//! node — and extracts the relevant RTT sub-matrix.

use crate::graph::NodeId;
use crate::rtt::RttMatrix;
use crate::shortest_path::all_pairs_rtt;
use crate::transit_stub::TransitStubTopology;
use rand::Rng;
use std::fmt;

/// Identifier of an edge cache within an [`EdgeNetwork`].
///
/// Cache ids are dense `0..cache_count` indices, matching the paper's
/// `Ec_0 … Ec_{N-1}` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CacheId(pub usize);

impl CacheId {
    /// Returns the id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ec{}", self.0)
    }
}

impl From<usize> for CacheId {
    fn from(index: usize) -> Self {
        CacheId(index)
    }
}

/// Where to place the origin server on the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OriginPlacement {
    /// On a random transit (backbone) node — a well-connected data center.
    /// This is the default.
    #[default]
    TransitNode,
    /// On a random stub node not used by any cache.
    StubNode,
}

impl std::str::FromStr for OriginPlacement {
    type Err = String;

    /// `transit` or `stub`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transit" => Ok(OriginPlacement::TransitNode),
            "stub" => Ok(OriginPlacement::StubNode),
            other => Err(format!("origin must be transit or stub, got {other:?}")),
        }
    }
}

/// Error from [`EdgeNetwork::place`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The topology does not contain enough stub nodes for the requested
    /// cache count (plus the origin when it is stub-placed).
    NotEnoughStubNodes {
        /// Stub nodes required.
        required: usize,
        /// Stub nodes available.
        available: usize,
    },
    /// Zero caches were requested.
    NoCaches,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NotEnoughStubNodes {
                required,
                available,
            } => write!(
                f,
                "placement needs {required} stub nodes but the topology has {available}"
            ),
            PlacementError::NoCaches => write!(f, "an edge network needs at least one cache"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// An origin server plus `N` edge caches with ground-truth pairwise RTTs.
///
/// Internally the RTT matrix is indexed with the origin at slot `0` and
/// cache `Ec_i` at slot `i + 1`; the typed accessors hide this layout.
///
/// # Examples
///
/// ```
/// use ecg_topology::{EdgeNetwork, TransitStubConfig, CacheId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let topo = TransitStubConfig::for_caches(50).generate(&mut rng);
/// let net = EdgeNetwork::place(&topo, 50, Default::default(), &mut rng)?;
/// assert_eq!(net.cache_count(), 50);
/// let rtt = net.cache_to_origin(CacheId(0));
/// assert!(rtt > 0.0);
/// # Ok::<(), ecg_topology::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeNetwork {
    /// RTTs over [origin, cache_0, …, cache_{N-1}].
    rtt: RttMatrix,
    origin_node: Option<NodeId>,
    cache_nodes: Vec<NodeId>,
}

impl EdgeNetwork {
    /// Places an edge network on a generated topology.
    ///
    /// Caches go on `cache_count` distinct random stub nodes; the origin
    /// goes on a random transit node (or an unused stub node, per
    /// `origin`). The full-topology RTT matrix is computed once and the
    /// relevant sub-matrix extracted.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if `cache_count == 0` or the topology
    /// has too few stub nodes.
    pub fn place<R: Rng + ?Sized>(
        topology: &TransitStubTopology,
        cache_count: usize,
        origin: OriginPlacement,
        rng: &mut R,
    ) -> Result<Self, PlacementError> {
        if cache_count == 0 {
            return Err(PlacementError::NoCaches);
        }
        let mut stubs = topology.stub_nodes();
        let origin_needs_stub = matches!(origin, OriginPlacement::StubNode);
        let required = cache_count + usize::from(origin_needs_stub);
        if stubs.len() < required {
            return Err(PlacementError::NotEnoughStubNodes {
                required,
                available: stubs.len(),
            });
        }
        // Partial Fisher-Yates: the first `required` entries become the
        // selected placement, uniformly at random.
        for i in 0..required {
            let j = rng.gen_range(i..stubs.len());
            stubs.swap(i, j);
        }
        let cache_nodes: Vec<NodeId> = stubs[..cache_count].to_vec();
        let origin_node = if origin_needs_stub {
            stubs[cache_count]
        } else {
            let transit = topology.transit_nodes();
            transit[rng.gen_range(0..transit.len())]
        };

        let full = all_pairs_rtt(topology.graph());
        let mut indices = Vec::with_capacity(cache_count + 1);
        indices.push(origin_node.index());
        indices.extend(cache_nodes.iter().map(|n| n.index()));
        Ok(EdgeNetwork {
            rtt: full.submatrix(&indices),
            origin_node: Some(origin_node),
            cache_nodes,
        })
    }

    /// Wraps an existing RTT matrix as an edge network.
    ///
    /// Index `0` of the matrix is the origin; index `i + 1` is cache
    /// `Ec_i`. Useful for tests and for replaying externally measured
    /// matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two nodes (an origin plus at
    /// least one cache).
    pub fn from_rtt_matrix(rtt: RttMatrix) -> Self {
        assert!(
            rtt.len() >= 2,
            "edge network needs an origin plus at least one cache"
        );
        EdgeNetwork {
            rtt,
            origin_node: None,
            cache_nodes: Vec::new(),
        }
    }

    /// Number of edge caches `N`.
    pub fn cache_count(&self) -> usize {
        self.rtt.len() - 1
    }

    /// Iterates over all cache ids `Ec_0 … Ec_{N-1}`.
    pub fn caches(&self) -> impl Iterator<Item = CacheId> + '_ {
        (0..self.cache_count()).map(CacheId)
    }

    /// Ground-truth RTT between two caches, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if a cache id is out of range.
    #[inline]
    pub fn cache_to_cache(&self, a: CacheId, b: CacheId) -> f64 {
        self.rtt.get(a.index() + 1, b.index() + 1)
    }

    /// Ground-truth RTT between a cache and the origin server.
    ///
    /// # Panics
    ///
    /// Panics if the cache id is out of range.
    #[inline]
    pub fn cache_to_origin(&self, cache: CacheId) -> f64 {
        self.rtt.get(cache.index() + 1, 0)
    }

    /// The underlying matrix over `[origin, Ec_0, …, Ec_{N-1}]`.
    pub fn rtt_matrix(&self) -> &RttMatrix {
        &self.rtt
    }

    /// Topology node the origin was placed on, if placed on a topology.
    pub fn origin_node(&self) -> Option<NodeId> {
        self.origin_node
    }

    /// Topology nodes the caches were placed on (empty if the network was
    /// built directly from a matrix).
    pub fn cache_nodes(&self) -> &[NodeId] {
        &self.cache_nodes
    }

    /// The `k` caches nearest to the origin, ascending by RTT.
    pub fn caches_nearest_origin(&self, k: usize) -> Vec<CacheId> {
        self.rtt
            .nearest_to(0, k)
            .into_iter()
            .map(|i| CacheId(i - 1))
            .collect()
    }

    /// The `k` caches farthest from the origin, descending by RTT.
    pub fn caches_farthest_origin(&self, k: usize) -> Vec<CacheId> {
        self.rtt
            .farthest_from(0, k)
            .into_iter()
            .map(|i| CacheId(i - 1))
            .collect()
    }

    /// Mean cache-to-origin RTT in milliseconds.
    pub fn mean_origin_rtt(&self) -> f64 {
        let n = self.cache_count();
        self.caches().map(|c| self.cache_to_origin(c)).sum::<f64>() / n as f64
    }

    /// Returns a new network with one additional cache appended as
    /// `Ec_N`, given its RTT to the origin and to each existing cache.
    ///
    /// This is the join operation dynamic deployments need: the existing
    /// caches keep their ids, so formed groups remain valid and the new
    /// cache can be admitted incrementally (see `ecg-core`'s
    /// maintenance module).
    ///
    /// # Panics
    ///
    /// Panics if `rtts_to_caches` does not have exactly `cache_count()`
    /// entries, or any RTT is negative or not finite.
    pub fn with_added_cache(&self, rtt_to_origin: f64, rtts_to_caches: &[f64]) -> EdgeNetwork {
        let n = self.cache_count();
        assert_eq!(
            rtts_to_caches.len(),
            n,
            "need one RTT per existing cache ({n})"
        );
        let new_idx = n + 1; // matrix index of the new cache
        let rtt = RttMatrix::from_fn(n + 2, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            if hi < new_idx {
                self.rtt.get(lo, hi)
            } else if lo == 0 {
                rtt_to_origin
            } else {
                rtts_to_caches[lo - 1]
            }
        });
        EdgeNetwork {
            rtt,
            origin_node: self.origin_node,
            cache_nodes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_figure1;
    use crate::TransitStubConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo(seed: u64) -> TransitStubTopology {
        TransitStubConfig::default()
            .transit_domains(2)
            .transit_nodes_per_domain(2)
            .stub_domains_per_transit_node(2)
            .stub_nodes_per_domain(5)
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn placement_produces_requested_caches() {
        let t = topo(1);
        let mut rng = StdRng::seed_from_u64(2);
        let net = EdgeNetwork::place(&t, 20, OriginPlacement::TransitNode, &mut rng).unwrap();
        assert_eq!(net.cache_count(), 20);
        assert_eq!(net.cache_nodes().len(), 20);
        // All cache nodes distinct.
        let mut nodes = net.cache_nodes().to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 20);
    }

    #[test]
    fn origin_on_transit_node_by_default() {
        let t = topo(3);
        let mut rng = StdRng::seed_from_u64(4);
        let net = EdgeNetwork::place(&t, 5, OriginPlacement::TransitNode, &mut rng).unwrap();
        let origin = net.origin_node().unwrap();
        assert!(t.kind(origin).is_transit());
    }

    #[test]
    fn origin_on_stub_node_when_requested() {
        let t = topo(5);
        let mut rng = StdRng::seed_from_u64(6);
        let net = EdgeNetwork::place(&t, 5, OriginPlacement::StubNode, &mut rng).unwrap();
        let origin = net.origin_node().unwrap();
        assert!(t.kind(origin).is_stub());
        assert!(!net.cache_nodes().contains(&origin));
    }

    #[test]
    fn rejects_zero_caches() {
        let t = topo(7);
        let mut rng = StdRng::seed_from_u64(8);
        let err = EdgeNetwork::place(&t, 0, OriginPlacement::TransitNode, &mut rng).unwrap_err();
        assert_eq!(err, PlacementError::NoCaches);
    }

    #[test]
    fn rejects_oversized_network() {
        let t = topo(9);
        let available = t.stub_nodes().len();
        let mut rng = StdRng::seed_from_u64(10);
        let err = EdgeNetwork::place(&t, available + 1, OriginPlacement::TransitNode, &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            PlacementError::NotEnoughStubNodes {
                required: available + 1,
                available
            }
        );
        assert!(err.to_string().contains("stub nodes"));
    }

    #[test]
    fn figure1_fixture_round_trips() {
        let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
        assert_eq!(net.cache_count(), 6);
        assert_eq!(net.cache_to_origin(CacheId(0)), 12.0);
        assert_eq!(net.cache_to_origin(CacheId(1)), 8.0);
        assert_eq!(net.cache_to_cache(CacheId(0), CacheId(1)), 4.0);
        assert_eq!(net.cache_to_cache(CacheId(2), CacheId(3)), 4.0);
        assert!(net.origin_node().is_none());
    }

    #[test]
    fn nearest_and_farthest_partition_by_origin_rtt() {
        let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let near = net.caches_nearest_origin(3);
        for c in &near {
            assert_eq!(net.cache_to_origin(*c), 8.0);
        }
        let far = net.caches_farthest_origin(3);
        for c in &far {
            assert_eq!(net.cache_to_origin(*c), 12.0);
        }
    }

    #[test]
    fn mean_origin_rtt_matches_hand_computation() {
        let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let expect = (12.0 + 8.0 + 12.0 + 8.0 + 12.0 + 8.0) / 6.0;
        assert!((net.mean_origin_rtt() - expect).abs() < 1e-12);
    }

    #[test]
    fn cache_id_display() {
        assert_eq!(CacheId(4).to_string(), "Ec4");
        assert_eq!(CacheId::from(2).index(), 2);
    }

    #[test]
    fn with_added_cache_preserves_existing_rtts() {
        let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let rtts: Vec<f64> = (0..6).map(|i| 3.0 + i as f64).collect();
        let grown = net.with_added_cache(9.5, &rtts);
        assert_eq!(grown.cache_count(), 7);
        // Old entries intact.
        for a in net.caches() {
            assert_eq!(grown.cache_to_origin(a), net.cache_to_origin(a));
            for b in net.caches() {
                assert_eq!(grown.cache_to_cache(a, b), net.cache_to_cache(a, b));
            }
        }
        // New entries in place.
        let newcomer = CacheId(6);
        assert_eq!(grown.cache_to_origin(newcomer), 9.5);
        for (i, &r) in rtts.iter().enumerate() {
            assert_eq!(grown.cache_to_cache(newcomer, CacheId(i)), r);
        }
    }

    #[test]
    #[should_panic(expected = "one RTT per existing cache")]
    fn with_added_cache_checks_arity() {
        let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let _ = net.with_added_cache(1.0, &[1.0, 2.0]);
    }

    #[test]
    fn placement_deterministic_per_seed() {
        let t = topo(11);
        let place = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            EdgeNetwork::place(&t, 10, OriginPlacement::TransitNode, &mut rng).unwrap()
        };
        assert_eq!(place(1), place(1));
        assert_ne!(place(1).cache_nodes(), place(2).cache_nodes());
    }
}
