//! Undirected weighted graphs with millisecond edge latencies.
//!
//! [`Graph`] is the base representation every topology generator in this
//! crate produces: an adjacency-list graph whose edge weights are one-way
//! link latencies in milliseconds. Round-trip times between arbitrary node
//! pairs are derived from shortest paths (see
//! [`crate::shortest_path`]).

use std::fmt;

/// Identifier of a node inside a [`Graph`].
///
/// `NodeId` is a plain index newtype: node ids are dense and start at zero,
/// so they double as vector indices throughout the crate.
///
/// # Examples
///
/// ```
/// use ecg_topology::NodeId;
///
/// let id = NodeId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the node id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// An undirected edge with a one-way latency in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// One-way link latency in milliseconds. Strictly positive and finite.
    pub latency_ms: f64,
}

/// Adjacency entry: a neighbor and the latency of the connecting link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The adjacent node.
    pub node: NodeId,
    /// One-way link latency in milliseconds.
    pub latency_ms: f64,
}

/// Error returned when an edge with an invalid latency or endpoint is added.
///
/// Produced by [`Graph::try_add_edge`].
#[derive(Debug, Clone, PartialEq)]
pub enum AddEdgeError {
    /// An endpoint index is outside `0..node_count`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// The latency was not a strictly positive finite number.
    InvalidLatency(f64),
    /// Both endpoints are the same node.
    SelfLoop(NodeId),
}

impl fmt::Display for AddEdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddEdgeError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            AddEdgeError::InvalidLatency(l) => {
                write!(f, "edge latency must be finite and positive, got {l}")
            }
            AddEdgeError::SelfLoop(node) => write!(f, "self loop on node {node}"),
        }
    }
}

impl std::error::Error for AddEdgeError {}

/// An undirected graph with latency-weighted edges.
///
/// Nodes are dense indices `0..node_count`. Edges are stored in both
/// adjacency lists, so `neighbors(a)` and `neighbors(b)` each see the link.
/// Parallel edges are permitted by the representation but never produced by
/// the generators in this crate; shortest-path routines simply take the
/// cheaper edge.
///
/// # Examples
///
/// ```
/// use ecg_topology::{Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), 5.0);
/// g.add_edge(NodeId(1), NodeId(2), 7.5);
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    adjacency: Vec<Vec<Neighbor>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId(self.adjacency.len() - 1)
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if `a == b`, or if
    /// `latency_ms` is not strictly positive and finite. Use
    /// [`Graph::try_add_edge`] for a fallible variant.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, latency_ms: f64) {
        self.try_add_edge(a, b, latency_ms)
            .unwrap_or_else(|e| panic!("add_edge: {e}"));
    }

    /// Adds an undirected edge, validating endpoints and latency.
    ///
    /// # Errors
    ///
    /// Returns [`AddEdgeError`] if an endpoint is out of range, the edge is
    /// a self loop, or the latency is not strictly positive and finite.
    pub fn try_add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency_ms: f64,
    ) -> Result<(), AddEdgeError> {
        let n = self.node_count();
        for node in [a, b] {
            if node.index() >= n {
                return Err(AddEdgeError::NodeOutOfRange {
                    node,
                    node_count: n,
                });
            }
        }
        if a == b {
            return Err(AddEdgeError::SelfLoop(a));
        }
        if !latency_ms.is_finite() || latency_ms <= 0.0 {
            return Err(AddEdgeError::InvalidLatency(latency_ms));
        }
        self.adjacency[a.index()].push(Neighbor {
            node: b,
            latency_ms,
        });
        self.adjacency[b.index()].push(Neighbor {
            node: a,
            latency_ms,
        });
        self.edge_count += 1;
        Ok(())
    }

    /// Returns `true` if an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(a.index())
            .is_some_and(|adj| adj.iter().any(|n| n.node == b))
    }

    /// Neighbors of `node` with link latencies.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[Neighbor] {
        &self.adjacency[node.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterates over every undirected edge exactly once (with `a < b`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, adj)| {
            adj.iter()
                .filter(move |n| i < n.node.index())
                .map(move |n| Edge {
                    a: NodeId(i),
                    b: n.node,
                    latency_ms: n.latency_ms,
                })
        })
    }

    /// Returns `true` if every node is reachable from node 0.
    ///
    /// The empty graph is considered connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut visited = 1;
        while let Some(u) = stack.pop() {
            for nb in self.neighbors(u) {
                if !seen[nb.node.index()] {
                    seen[nb.node.index()] = true;
                    visited += 1;
                    stack.push(nb.node);
                }
            }
        }
        visited == n
    }

    /// Returns the connected components as lists of node ids.
    ///
    /// Components are returned in order of their smallest node id, and the
    /// node ids within each component are sorted ascending.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![NodeId(start)];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u);
                for nb in self.neighbors(u) {
                    if !seen[nb.node.index()] {
                        seen[nb.node.index()] = true;
                        stack.push(nb.node);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i - 1), NodeId(i), 1.0);
        }
        g
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
        assert!(Graph::new().is_empty());
    }

    #[test]
    fn single_node_is_connected() {
        assert!(Graph::with_nodes(1).is_connected());
    }

    #[test]
    fn add_node_returns_dense_ids() {
        let mut g = Graph::new();
        assert_eq!(g.add_node(), NodeId(0));
        assert_eq!(g.add_node(), NodeId(1));
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn edges_are_bidirectional() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 3.0);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.neighbors(NodeId(0)).len(), 1);
        assert_eq!(g.neighbors(NodeId(1)).len(), 1);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = path_graph(4);
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for e in &edges {
            assert!(e.a < e.b);
        }
    }

    #[test]
    fn try_add_edge_rejects_out_of_range() {
        let mut g = Graph::with_nodes(2);
        let err = g.try_add_edge(NodeId(0), NodeId(5), 1.0).unwrap_err();
        assert!(matches!(err, AddEdgeError::NodeOutOfRange { .. }));
    }

    #[test]
    fn try_add_edge_rejects_self_loop() {
        let mut g = Graph::with_nodes(2);
        let err = g.try_add_edge(NodeId(1), NodeId(1), 1.0).unwrap_err();
        assert_eq!(err, AddEdgeError::SelfLoop(NodeId(1)));
    }

    #[test]
    fn try_add_edge_rejects_bad_latency() {
        let mut g = Graph::with_nodes(2);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = g.try_add_edge(NodeId(0), NodeId(1), bad).unwrap_err();
            assert!(matches!(err, AddEdgeError::InvalidLatency(_)));
        }
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn path_graph_is_connected() {
        assert!(path_graph(10).is_connected());
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = path_graph(3);
        g.add_node();
        assert!(!g.is_connected());
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(comps[1], vec![NodeId(3)]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "n7");
        let err = AddEdgeError::InvalidLatency(-2.0);
        assert!(err.to_string().contains("-2"));
    }
}
