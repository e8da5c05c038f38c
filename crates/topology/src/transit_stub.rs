//! Hierarchical transit-stub topologies (the GT-ITM model).
//!
//! The paper's evaluation runs on topologies "generated through the GT-ITM
//! network topology generator according to the hierarchical transit-stub
//! model" (Zegura, Calvert & Bhattacharjee, INFOCOM '96). GT-ITM is an
//! external C tool, so this module re-implements the model:
//!
//! 1. A top-level connected random graph of *transit domains*.
//! 2. Each transit domain is a connected Waxman graph of transit nodes.
//! 3. Each transit node hosts several *stub domains*, each a small
//!    connected Waxman graph attached to its transit node by one edge.
//!
//! Edge latencies come from per-tier latency bands: intra-stub links are
//! fastest, inter-transit-domain links slowest, which produces the strongly
//! clustered RTT structure that landmark clustering exploits.

use crate::graph::{Graph, NodeId};
use crate::waxman::WaxmanConfig;
use rand::Rng;
use std::fmt;

/// An inclusive latency range in milliseconds for one tier of links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBand {
    /// Lower bound in milliseconds.
    pub min_ms: f64,
    /// Upper bound in milliseconds.
    pub max_ms: f64,
}

impl LatencyBand {
    /// Samples a latency uniformly from the band.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.min_ms == self.max_ms {
            self.min_ms
        } else {
            rng.gen_range(self.min_ms..=self.max_ms)
        }
    }

    /// Returns `true` if `ms` lies within the band.
    pub fn contains(&self, ms: f64) -> bool {
        ms >= self.min_ms && ms <= self.max_ms
    }
}

/// Role of a node within the transit-stub hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A backbone node inside the given transit domain.
    Transit {
        /// Index of the transit domain, `0..transit_domains`.
        domain: usize,
    },
    /// An edge node inside the given stub domain.
    Stub {
        /// Global index of the stub domain.
        domain: usize,
    },
}

impl NodeKind {
    /// Returns `true` for transit (backbone) nodes.
    #[cfg(test)]
    pub(crate) fn is_transit(&self) -> bool {
        matches!(self, NodeKind::Transit { .. })
    }

    /// Returns `true` for stub (edge) nodes.
    #[cfg(test)]
    pub(crate) fn is_stub(&self) -> bool {
        matches!(self, NodeKind::Stub { .. })
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Transit { domain } => write!(f, "transit[{domain}]"),
            NodeKind::Stub { domain } => write!(f, "stub[{domain}]"),
        }
    }
}

/// One stub domain: its nodes and where it attaches to the backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct StubDomain {
    /// Global stub-domain index.
    pub id: usize,
    /// The transit node this stub domain hangs off.
    pub attachment: NodeId,
    /// All nodes of the stub domain.
    pub nodes: Vec<NodeId>,
}

/// Configuration of the transit-stub generator.
///
/// The backbone has one shape: 4 transit domains of 4 transit nodes,
/// stub domains of 8 nodes, and fixed per-tier latency bands. Only the
/// number of stub domains per transit node varies; the default of 3
/// gives 4·4·(1 + 3·8) = 400 nodes of which 384 are stub nodes, and
/// [`TransitStubConfig::for_caches`] sizes it to a cache count.
///
/// # Examples
///
/// ```
/// use ecg_topology::TransitStubConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let cfg = TransitStubConfig::default();
/// let topo = cfg.generate(&mut StdRng::seed_from_u64(1));
/// assert!(topo.graph().is_connected());
/// assert_eq!(topo.stub_nodes().len(), 384);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    stub_domains_per_transit_node: usize,
}

const TRANSIT_DOMAINS: usize = 4;
const TRANSIT_NODES_PER_DOMAIN: usize = 4;
const STUB_NODES_PER_DOMAIN: usize = 8;
const INTER_TRANSIT: LatencyBand = LatencyBand {
    min_ms: 20.0,
    max_ms: 80.0,
};
const INTRA_TRANSIT: LatencyBand = LatencyBand {
    min_ms: 5.0,
    max_ms: 25.0,
};
const TRANSIT_STUB: LatencyBand = LatencyBand {
    min_ms: 2.0,
    max_ms: 10.0,
};
const INTRA_STUB: LatencyBand = LatencyBand {
    min_ms: 0.5,
    max_ms: 3.0,
};
const DOMAIN_EDGE_ALPHA: f64 = 0.7;

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            stub_domains_per_transit_node: 3,
        }
    }
}

impl TransitStubConfig {
    /// Returns a configuration guaranteed to contain at least
    /// `cache_count` stub nodes (plus the backbone), scaling the number of
    /// stub domains while keeping the backbone shape fixed.
    ///
    /// This is the sizing helper the experiment harness uses to build
    /// networks of 100–500 edge caches.
    pub fn for_caches(cache_count: usize) -> Self {
        let attach_points = TRANSIT_DOMAINS * TRANSIT_NODES_PER_DOMAIN;
        // Total stub nodes = attach_points * stub domains per transit
        // node * STUB_NODES_PER_DOMAIN.
        let needed_domains = cache_count.div_ceil(STUB_NODES_PER_DOMAIN);
        TransitStubConfig {
            stub_domains_per_transit_node: needed_domains.div_ceil(attach_points).max(1),
        }
    }

    /// Total number of nodes the configuration will generate.
    pub fn total_nodes(&self) -> usize {
        let transit = TRANSIT_DOMAINS * TRANSIT_NODES_PER_DOMAIN;
        transit + self.total_stub_nodes()
    }

    /// Total number of stub nodes the configuration will generate.
    pub fn total_stub_nodes(&self) -> usize {
        TRANSIT_DOMAINS
            * TRANSIT_NODES_PER_DOMAIN
            * self.stub_domains_per_transit_node
            * STUB_NODES_PER_DOMAIN
    }

    /// Generates a transit-stub topology.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> TransitStubTopology {
        let mut graph = Graph::new();
        let mut kinds = Vec::new();

        // 1. Transit domains: an intra-domain Waxman graph each.
        let mut transit_nodes_by_domain: Vec<Vec<NodeId>> = Vec::new();
        for domain in 0..TRANSIT_DOMAINS {
            let ids = splice_waxman(&mut graph, rng, TRANSIT_NODES_PER_DOMAIN, INTRA_TRANSIT);
            for _ in &ids {
                kinds.push(NodeKind::Transit { domain });
            }
            transit_nodes_by_domain.push(ids);
        }

        // 2. Connect transit domains into a connected top-level graph.
        connect_domains(&mut graph, rng, &transit_nodes_by_domain);

        // 3. Stub domains hanging off every transit node.
        let mut stub_domains = Vec::new();
        for domain_nodes in &transit_nodes_by_domain {
            for &tn in domain_nodes {
                for _ in 0..self.stub_domains_per_transit_node {
                    let stub_id = stub_domains.len();
                    let ids = splice_waxman(&mut graph, rng, STUB_NODES_PER_DOMAIN, INTRA_STUB);
                    for _ in &ids {
                        kinds.push(NodeKind::Stub { domain: stub_id });
                    }
                    let gateway = ids[rng.gen_range(0..ids.len())];
                    graph.add_edge(tn, gateway, TRANSIT_STUB.sample(rng));
                    stub_domains.push(StubDomain {
                        id: stub_id,
                        attachment: tn,
                        nodes: ids,
                    });
                }
            }
        }

        debug_assert_eq!(graph.node_count(), kinds.len());
        TransitStubTopology {
            graph,
            kinds,
            transit_nodes: transit_nodes_by_domain.into_iter().flatten().collect(),
            stub_domains,
        }
    }
}

/// Generates a Waxman subgraph whose edges fall in `band` and splices
/// it into `graph`, returning the new global node ids.
fn splice_waxman<R: Rng + ?Sized>(
    graph: &mut Graph,
    rng: &mut R,
    nodes: usize,
    band: LatencyBand,
) -> Vec<NodeId> {
    let (sub, points) = WaxmanConfig::new(nodes).generate(rng);
    let ids: Vec<NodeId> = (0..nodes).map(|_| graph.add_node()).collect();
    for e in sub.edges() {
        // Map the unit-square distance onto the band so closer nodes
        // get proportionally faster links.
        let d = points[e.a.index()].distance(&points[e.b.index()]);
        let frac = (d / 2f64.sqrt()).clamp(0.0, 1.0);
        let latency = band.min_ms + frac * (band.max_ms - band.min_ms);
        graph.add_edge(ids[e.a.index()], ids[e.b.index()], latency);
    }
    ids
}

/// Adds inter-domain links between random transit nodes so the domain
/// graph is connected plus some redundant shortcuts.
fn connect_domains<R: Rng + ?Sized>(graph: &mut Graph, rng: &mut R, domains: &[Vec<NodeId>]) {
    let t = domains.len();
    if t <= 1 {
        return;
    }
    // Spanning chain in random order guarantees connectivity.
    let mut order: Vec<usize> = (0..t).collect();
    for i in (1..t).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let link = |graph: &mut Graph, rng: &mut R, a: usize, b: usize| {
        let u = domains[a][rng.gen_range(0..domains[a].len())];
        let v = domains[b][rng.gen_range(0..domains[b].len())];
        if !graph.has_edge(u, v) {
            graph.add_edge(u, v, INTER_TRANSIT.sample(rng));
        }
    };
    for w in order.windows(2) {
        link(graph, rng, w[0], w[1]);
    }
    // Redundant shortcuts with probability `DOMAIN_EDGE_ALPHA` per
    // remaining domain pair, mimicking GT-ITM's denser top level.
    for a in 0..t {
        for b in (a + 1)..t {
            if rng.gen::<f64>() < DOMAIN_EDGE_ALPHA {
                link(graph, rng, a, b);
            }
        }
    }
}

/// A generated transit-stub topology: graph plus hierarchy metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubTopology {
    graph: Graph,
    kinds: Vec<NodeKind>,
    transit_nodes: Vec<NodeId>,
    stub_domains: Vec<StubDomain>,
}

impl TransitStubTopology {
    /// The underlying latency graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Role of `node` within the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// All transit (backbone) nodes.
    pub fn transit_nodes(&self) -> &[NodeId] {
        &self.transit_nodes
    }

    /// All stub domains in generation order.
    pub fn stub_domains(&self) -> &[StubDomain] {
        &self.stub_domains
    }

    /// All stub nodes across all stub domains, in generation order.
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.stub_domains
            .iter()
            .flat_map(|d| d.nodes.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> TransitStubConfig {
        TransitStubConfig {
            stub_domains_per_transit_node: 1,
        }
    }

    #[test]
    fn node_counts_match_configuration() {
        let cfg = small();
        assert_eq!(cfg.total_nodes(), 4 * 4 + 4 * 4 * 8);
        let topo = cfg.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(topo.graph().node_count(), cfg.total_nodes());
        assert_eq!(topo.stub_nodes().len(), cfg.total_stub_nodes());
        assert_eq!(topo.transit_nodes().len(), 16);
    }

    #[test]
    fn generated_topology_is_connected() {
        for seed in 0..10 {
            let topo = small().generate(&mut StdRng::seed_from_u64(seed));
            assert!(topo.graph().is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn kinds_partition_nodes() {
        let topo = small().generate(&mut StdRng::seed_from_u64(2));
        let transit = topo
            .graph()
            .nodes()
            .filter(|&n| topo.kind(n).is_transit())
            .count();
        let stub = topo
            .graph()
            .nodes()
            .filter(|&n| topo.kind(n).is_stub())
            .count();
        assert_eq!(transit, 16);
        assert_eq!(stub, 128);
        assert_eq!(transit + stub, topo.graph().node_count());
    }

    #[test]
    fn stub_domains_attach_to_their_transit_node() {
        let topo = small().generate(&mut StdRng::seed_from_u64(3));
        for sd in topo.stub_domains() {
            assert!(topo.kind(sd.attachment).is_transit());
            let attached = sd
                .nodes
                .iter()
                .any(|&n| topo.graph().has_edge(n, sd.attachment));
            assert!(attached, "stub domain {} not attached", sd.id);
            for &n in &sd.nodes {
                assert_eq!(topo.kind(n), NodeKind::Stub { domain: sd.id });
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small().generate(&mut StdRng::seed_from_u64(11));
        let b = small().generate(&mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }

    #[test]
    fn for_caches_provides_enough_stub_nodes() {
        for want in [50, 100, 237, 500, 1000] {
            let cfg = TransitStubConfig::for_caches(want);
            assert!(
                cfg.total_stub_nodes() >= want,
                "requested {want}, got {}",
                cfg.total_stub_nodes()
            );
        }
    }

    #[test]
    fn latency_band_sampling_stays_in_range() {
        let band = LatencyBand {
            min_ms: 3.0,
            max_ms: 9.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let v = band.sample(&mut rng);
            assert!(band.contains(v));
        }
    }

    #[test]
    fn degenerate_band_samples_constant() {
        let band = LatencyBand {
            min_ms: 4.0,
            max_ms: 4.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(band.sample(&mut rng), 4.0);
    }

    #[test]
    fn node_kind_display() {
        assert_eq!(NodeKind::Transit { domain: 1 }.to_string(), "transit[1]");
        assert_eq!(NodeKind::Stub { domain: 7 }.to_string(), "stub[7]");
    }
}
