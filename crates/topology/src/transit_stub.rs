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
    /// Creates a band after validating `0 < min_ms <= max_ms`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, non-positive, or inverted.
    pub fn new(min_ms: f64, max_ms: f64) -> Self {
        assert!(
            min_ms.is_finite() && max_ms.is_finite() && min_ms > 0.0 && min_ms <= max_ms,
            "invalid latency band [{min_ms}, {max_ms}]"
        );
        LatencyBand { min_ms, max_ms }
    }

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
/// The defaults produce the mid-size Internet-like topologies used
/// throughout the reproduction: 4 transit domains of 4 transit nodes, 3
/// stub domains of 8 nodes per transit node, so 4·4·(1 + 3·8) = 400 nodes
/// of which 384 are stub nodes.
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
    transit_domains: usize,
    transit_nodes_per_domain: usize,
    stub_domains_per_transit_node: usize,
    stub_nodes_per_domain: usize,
    inter_transit: LatencyBand,
    intra_transit: LatencyBand,
    transit_stub: LatencyBand,
    intra_stub: LatencyBand,
    domain_edge_alpha: f64,
    waxman_alpha: f64,
    waxman_beta: f64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 4,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit_node: 3,
            stub_nodes_per_domain: 8,
            inter_transit: LatencyBand::new(20.0, 80.0),
            intra_transit: LatencyBand::new(5.0, 25.0),
            transit_stub: LatencyBand::new(2.0, 10.0),
            intra_stub: LatencyBand::new(0.5, 3.0),
            domain_edge_alpha: 0.7,
            waxman_alpha: 0.6,
            waxman_beta: 0.4,
        }
    }
}

impl TransitStubConfig {
    /// Creates the default configuration; see the type-level docs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of transit domains.
    pub fn transit_domains(mut self, n: usize) -> Self {
        self.transit_domains = n;
        self
    }

    /// Sets the number of transit nodes per transit domain.
    pub fn transit_nodes_per_domain(mut self, n: usize) -> Self {
        self.transit_nodes_per_domain = n;
        self
    }

    /// Sets the number of stub domains attached to each transit node.
    pub fn stub_domains_per_transit_node(mut self, n: usize) -> Self {
        self.stub_domains_per_transit_node = n;
        self
    }

    /// Sets the number of nodes in each stub domain.
    pub fn stub_nodes_per_domain(mut self, n: usize) -> Self {
        self.stub_nodes_per_domain = n;
        self
    }

    /// Sets the latency band for links between transit domains.
    pub fn inter_transit(mut self, band: LatencyBand) -> Self {
        self.inter_transit = band;
        self
    }

    /// Sets the latency band for links inside a transit domain.
    pub fn intra_transit(mut self, band: LatencyBand) -> Self {
        self.intra_transit = band;
        self
    }

    /// Sets the latency band for stub-domain attachment links.
    pub fn transit_stub(mut self, band: LatencyBand) -> Self {
        self.transit_stub = band;
        self
    }

    /// Sets the latency band for links inside a stub domain.
    pub fn intra_stub(mut self, band: LatencyBand) -> Self {
        self.intra_stub = band;
        self
    }

    /// Returns a configuration guaranteed to contain at least
    /// `cache_count` stub nodes (plus the backbone), scaling the number of
    /// stub domains while keeping the backbone shape fixed.
    ///
    /// This is the sizing helper the experiment harness uses to build
    /// networks of 100–500 edge caches.
    pub fn for_caches(cache_count: usize) -> Self {
        let cfg = TransitStubConfig::default();
        let attach_points = cfg.transit_domains * cfg.transit_nodes_per_domain;
        let per_stub = cfg.stub_nodes_per_domain;
        // Total stub nodes = attach_points * stubs_per_tn * per_stub.
        let needed_domains = cache_count.div_ceil(per_stub);
        let stubs_per_tn = needed_domains.div_ceil(attach_points).max(1);
        cfg.stub_domains_per_transit_node(stubs_per_tn)
    }

    /// Total number of nodes the configuration will generate.
    pub fn total_nodes(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit + transit * self.stub_domains_per_transit_node * self.stub_nodes_per_domain
    }

    /// Total number of stub nodes the configuration will generate.
    pub fn total_stub_nodes(&self) -> usize {
        self.transit_domains
            * self.transit_nodes_per_domain
            * self.stub_domains_per_transit_node
            * self.stub_nodes_per_domain
    }

    /// Generates a transit-stub topology.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> TransitStubTopology {
        assert!(self.transit_domains > 0, "need at least one transit domain");
        assert!(
            self.transit_nodes_per_domain > 0,
            "need at least one transit node per domain"
        );
        assert!(
            self.stub_domains_per_transit_node > 0,
            "need at least one stub domain per transit node"
        );
        assert!(
            self.stub_nodes_per_domain > 0,
            "need at least one node per stub domain"
        );

        let mut graph = Graph::new();
        let mut kinds = Vec::new();

        // 1. Transit domains: an intra-domain Waxman graph each.
        let mut transit_nodes_by_domain: Vec<Vec<NodeId>> = Vec::new();
        for domain in 0..self.transit_domains {
            let ids = self.splice_waxman(
                &mut graph,
                rng,
                self.transit_nodes_per_domain,
                self.intra_transit,
            );
            for _ in &ids {
                kinds.push(NodeKind::Transit { domain });
            }
            transit_nodes_by_domain.push(ids);
        }

        // 2. Connect transit domains into a connected top-level graph.
        self.connect_domains(&mut graph, rng, &transit_nodes_by_domain);

        // 3. Stub domains hanging off every transit node.
        let mut stub_domains = Vec::new();
        for domain_nodes in &transit_nodes_by_domain {
            for &tn in domain_nodes {
                for _ in 0..self.stub_domains_per_transit_node {
                    let stub_id = stub_domains.len();
                    let ids = self.splice_waxman(
                        &mut graph,
                        rng,
                        self.stub_nodes_per_domain,
                        self.intra_stub,
                    );
                    for _ in &ids {
                        kinds.push(NodeKind::Stub { domain: stub_id });
                    }
                    let gateway = ids[rng.gen_range(0..ids.len())];
                    graph.add_edge(tn, gateway, self.transit_stub.sample(rng));
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

    /// Generates a Waxman subgraph whose edges fall in `band` and splices
    /// it into `graph`, returning the new global node ids.
    fn splice_waxman<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        rng: &mut R,
        nodes: usize,
        band: LatencyBand,
    ) -> Vec<NodeId> {
        let (sub, points) = WaxmanConfig::new(nodes)
            .alpha(self.waxman_alpha)
            .beta(self.waxman_beta)
            .generate(rng);
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
    fn connect_domains<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        rng: &mut R,
        domains: &[Vec<NodeId>],
    ) {
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
                graph.add_edge(u, v, self.inter_transit.sample(rng));
            }
        };
        for w in order.windows(2) {
            link(graph, rng, w[0], w[1]);
        }
        // Redundant shortcuts with probability `domain_edge_alpha` per
        // remaining domain pair, mimicking GT-ITM's denser top level.
        for a in 0..t {
            for b in (a + 1)..t {
                if rng.gen::<f64>() < self.domain_edge_alpha {
                    link(graph, rng, a, b);
                }
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
        TransitStubConfig::default()
            .transit_domains(2)
            .transit_nodes_per_domain(3)
            .stub_domains_per_transit_node(2)
            .stub_nodes_per_domain(4)
    }

    #[test]
    fn node_counts_match_configuration() {
        let cfg = small();
        assert_eq!(cfg.total_nodes(), 2 * 3 + 2 * 3 * 2 * 4);
        let topo = cfg.generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(topo.graph().node_count(), cfg.total_nodes());
        assert_eq!(topo.stub_nodes().len(), cfg.total_stub_nodes());
        assert_eq!(topo.transit_nodes().len(), 6);
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
        assert_eq!(transit, 6);
        assert_eq!(stub, 48);
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
        let band = LatencyBand::new(3.0, 9.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let v = band.sample(&mut rng);
            assert!(band.contains(v));
        }
    }

    #[test]
    fn degenerate_band_samples_constant() {
        let band = LatencyBand::new(4.0, 4.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(band.sample(&mut rng), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid latency band")]
    fn inverted_band_panics() {
        let _ = LatencyBand::new(5.0, 1.0);
    }

    #[test]
    fn single_domain_topology_works() {
        let topo = TransitStubConfig::default()
            .transit_domains(1)
            .transit_nodes_per_domain(2)
            .stub_domains_per_transit_node(1)
            .stub_nodes_per_domain(3)
            .generate(&mut StdRng::seed_from_u64(8));
        assert!(topo.graph().is_connected());
        assert_eq!(topo.graph().node_count(), 2 + 2 * 3);
    }

    #[test]
    fn node_kind_display() {
        assert_eq!(NodeKind::Transit { domain: 1 }.to_string(), "transit[1]");
        assert_eq!(NodeKind::Stub { domain: 7 }.to_string(), "stub[7]");
    }
}
