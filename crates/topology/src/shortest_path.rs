//! Shortest-path latency computations.
//!
//! Edge weights are one-way link latencies in milliseconds; shortest paths
//! therefore give one-way propagation delays, and the round-trip time
//! between two nodes is twice the shortest-path distance (paths are
//! symmetric in an undirected graph). [`all_pairs_rtt`] builds the full
//! [`RttMatrix`] this way, fanning the
//! single-source runs out across scoped `std::thread` workers.

use crate::graph::{Graph, NodeId};
use crate::rtt::RttMatrix;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate entry in Dijkstra's priority queue.
///
/// Ordered so the smallest distance pops first from a max-heap. Distances
/// are finite non-NaN by construction (edge latencies are validated).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    dist: f64,
    node: NodeId,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the nearest node first.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are never NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest one-way latencies from `source`, in ms.
///
/// Unreachable nodes get `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use ecg_topology::{Graph, NodeId, shortest_path::dijkstra};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), 2.0);
/// g.add_edge(NodeId(1), NodeId(2), 3.0);
/// let d = dijkstra(&g, NodeId(0));
/// assert_eq!(d[2], 5.0);
/// ```
pub fn dijkstra(graph: &Graph, source: NodeId) -> Vec<f64> {
    let n = graph.node_count();
    assert!(source.index() < n, "source {source} out of range");
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Candidate {
        dist: 0.0,
        node: source,
    });
    while let Some(Candidate { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for nb in graph.neighbors(u) {
            let nd = d + nb.latency_ms;
            if nd < dist[nb.node.index()] {
                dist[nb.node.index()] = nd;
                heap.push(Candidate {
                    dist: nd,
                    node: nb.node,
                });
            }
        }
    }
    dist
}

/// Shortest one-way latencies from every node in `sources`.
///
/// Splits `sources` into one run of consecutive sources per
/// [`ecg_par::max_threads`] thread and runs each run's Dijkstras on an
/// [`ecg_par`] worker. Rows are returned in `sources` order; each row is
/// an independent Dijkstra run, so the result is identical at any
/// thread count.
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn multi_source_latencies(graph: &Graph, sources: &[NodeId]) -> Vec<Vec<f64>> {
    for &s in sources {
        assert!(s.index() < graph.node_count(), "source {s} out of range");
    }
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); sources.len()];
    let chunk = sources.len().div_ceil(ecg_par::max_threads()).max(1);
    let work: Vec<(&mut [Vec<f64>], &[NodeId])> =
        rows.chunks_mut(chunk).zip(sources.chunks(chunk)).collect();
    ecg_par::par_map(work, |(row_chunk, src_chunk)| {
        for (row, &src) in row_chunk.iter_mut().zip(src_chunk) {
            *row = dijkstra(graph, src);
        }
    });
    rows
}

/// Builds the all-pairs round-trip-time matrix of `graph`.
///
/// `rtt(i, j) = 2 × shortest one-way latency(i, j)`, from
/// [`multi_source_latencies`] over every node.
///
/// # Panics
///
/// Panics if the graph is disconnected (an RTT would be infinite).
pub fn all_pairs_rtt(graph: &Graph) -> RttMatrix {
    let sources: Vec<NodeId> = (0..graph.node_count()).map(NodeId).collect();
    RttMatrix::from_rows_one_way(&multi_source_latencies(graph, &sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -2- 1 -2- 3, and 0 -1- 2 -1- 3: the 0→3 shortest path is via 2.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 2.0);
        g.add_edge(NodeId(1), NodeId(3), 2.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(2), NodeId(3), 1.0);
        g
    }

    #[test]
    fn dijkstra_finds_cheaper_detour() {
        let d = dijkstra(&diamond(), NodeId(0));
        assert_eq!(d, vec![0.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn dijkstra_marks_unreachable_as_infinite() {
        let mut g = diamond();
        let iso = g.add_node();
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d[iso.index()], f64::INFINITY);
    }

    #[test]
    fn multi_source_matches_single_source() {
        let g = diamond();
        let sources = [NodeId(0), NodeId(2), NodeId(3)];
        for threads in [1, 2, 7] {
            ecg_par::set_max_threads(Some(threads));
            let rows = multi_source_latencies(&g, &sources);
            ecg_par::set_max_threads(None);
            for (row, &s) in rows.iter().zip(&sources) {
                assert_eq!(row, &dijkstra(&g, s), "threads={threads}");
            }
        }
    }

    #[test]
    fn all_pairs_rtt_doubles_one_way() {
        let m = all_pairs_rtt(&diamond());
        assert_eq!(m.get(0, 3), 4.0); // one-way 2.0 via node 2
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), m.get(2, 1));
    }

    #[test]
    fn rtt_satisfies_triangle_inequality() {
        use rand::{rngs::StdRng, SeedableRng};
        let topo = crate::TransitStubConfig::default()
            .transit_domains(2)
            .transit_nodes_per_domain(2)
            .stub_domains_per_transit_node(2)
            .stub_nodes_per_domain(3)
            .generate(&mut StdRng::seed_from_u64(4));
        let m = all_pairs_rtt(topo.graph());
        let n = m.len();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    assert!(
                        m.get(i, j) <= m.get(i, k) + m.get(k, j) + 1e-9,
                        "triangle violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dijkstra_rejects_bad_source() {
        let _ = dijkstra(&diamond(), NodeId(99));
    }
}
