//! Property-based tests for the topology substrate.

use ecg_topology::shortest_path::{all_pairs_rtt, dijkstra, multi_source_latencies};
use ecg_topology::{
    EdgeNetwork, Graph, NodeId, OriginPlacement, RttMatrix, RttSource, SyntheticRttConfig,
    TransitStubConfig, WaxmanConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    // A random spanning tree plus random extra edges: always connected.
    (2usize..30, any::<u64>()).prop_map(|(n, seed)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            g.add_edge(NodeId(i), NodeId(parent), rng.gen_range(0.1..50.0));
        }
        let extras = rng.gen_range(0..n);
        for _ in 0..extras {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                g.add_edge(NodeId(a), NodeId(b), rng.gen_range(0.1..50.0));
            }
        }
        g
    })
}

/// An oracle that implements only the two required methods — the shape
/// of the benchmark's call-counting wrapper — so `submatrix` is the
/// trait's default.
#[derive(Debug)]
struct PairwiseOnly<'a>(&'a dyn RttSource);

impl RttSource for PairwiseOnly<'_> {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        self.0.rtt_ms(a, b)
    }
}

/// Node lists the batched query must handle: node 0 first (the replay
/// shape), repeated nodes, and the degenerate lengths 1 and 2.
fn arb_node_list(nodes: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let len = match rng.gen_range(0..4) {
        0 => 1,
        1 => 2,
        _ => rng.gen_range(1..40),
    };
    let mut list: Vec<usize> = (0..len).map(|_| rng.gen_range(0..nodes)).collect();
    if rng.gen_bool(0.5) {
        list[0] = 0;
    }
    if len > 2 && rng.gen_bool(0.5) {
        list[len - 1] = list[rng.gen_range(0..len - 1)];
    }
    list
}

/// `sub` is bit-for-bit the pairwise matrix over `nodes`, symmetric,
/// with a zero diagonal.
fn assert_is_pairwise_block(source: &dyn RttSource, nodes: &[usize], sub: &RttMatrix) {
    let pairwise = RttMatrix::from_fn(nodes.len(), |a, b| source.rtt_ms(nodes[a], nodes[b]));
    assert_eq!(sub.len(), nodes.len());
    for a in 0..nodes.len() {
        assert_eq!(sub.get(a, a).to_bits(), 0.0f64.to_bits(), "diagonal {a}");
        for b in 0..nodes.len() {
            assert_eq!(
                sub.get(a, b).to_bits(),
                pairwise.get(a, b).to_bits(),
                "entry ({a}, {b}) of {nodes:?}"
            );
            assert_eq!(sub.get(a, b).to_bits(), sub.get(b, a).to_bits());
        }
    }
}

#[test]
#[should_panic(expected = "rtt index out of range")]
fn synthetic_submatrix_rejects_an_out_of_range_node_like_rtt_ms() {
    let net = SyntheticRttConfig::default().generate(10, 1);
    // Length 1: the pairwise default would never evaluate a pair, the
    // override still range-checks what it gathers.
    let _ = net.submatrix(&[10]);
}

#[test]
#[should_panic(expected = "rtt index out of range")]
fn matrix_submatrix_rejects_an_out_of_range_node_like_rtt_ms() {
    let full = RttMatrix::from_fn(4, |a, b| (a + b) as f64);
    let _ = RttSource::submatrix(&full, &[0, 4]);
}

#[test]
#[should_panic(expected = "rtt index out of range")]
fn default_submatrix_rejects_an_out_of_range_node_like_rtt_ms() {
    let net = SyntheticRttConfig::default().generate(10, 1);
    let _ = PairwiseOnly(&net).submatrix(&[0, 10]);
}

proptest! {
    #[test]
    fn submatrix_equals_pairwise_rtt(
        nodes in 1usize..300,
        net_seed in any::<u64>(),
        list_seed in any::<u64>(),
    ) {
        let synthetic = SyntheticRttConfig::default().generate(nodes, net_seed);
        let list = arb_node_list(nodes, list_seed);
        // The override, bit-equal to the pairwise definition.
        let batched = synthetic.submatrix(&list);
        assert_is_pairwise_block(&synthetic, &list, &batched);
        // A wrapper with only the required methods gets the default and
        // the same matrix.
        prop_assert_eq!(&PairwiseOnly(&synthetic).submatrix(&list), &batched);

        // A materialized matrix answers through its row gather.
        let dense_nodes = nodes.min(40);
        let dense = RttMatrix::from_fn(dense_nodes, |a, b| synthetic.rtt_ms(a, b));
        let list = arb_node_list(dense_nodes, list_seed);
        let gathered = RttSource::submatrix(&dense, &list);
        assert_is_pairwise_block(&dense, &list, &gathered);
        prop_assert_eq!(&PairwiseOnly(&dense).submatrix(&list), &gathered);
    }

    #[test]
    fn dijkstra_distances_are_metric(g in arb_connected_graph()) {
        let n = g.node_count();
        let rows: Vec<Vec<f64>> = (0..n).map(|i| dijkstra(&g, NodeId(i))).collect();
        // Symmetry (undirected graph) and identity.
        for (i, row) in rows.iter().enumerate() {
            prop_assert!(row[i].abs() < 1e-12);
            for (j, &d) in row.iter().enumerate() {
                prop_assert!((d - rows[j][i]).abs() < 1e-9);
            }
        }
        // Triangle inequality.
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(rows[i][j] <= rows[i][k] + rows[k][j] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn dijkstra_never_exceeds_direct_edge(g in arb_connected_graph()) {
        for e in g.edges() {
            let d = dijkstra(&g, e.a);
            prop_assert!(d[e.b.index()] <= e.latency_ms + 1e-12);
        }
    }

    #[test]
    fn multi_source_thread_count_is_irrelevant(g in arb_connected_graph()) {
        let sources: Vec<NodeId> = g.nodes().collect();
        ecg_par::set_max_threads(Some(1));
        let one = multi_source_latencies(&g, &sources);
        ecg_par::set_max_threads(Some(4));
        let many = multi_source_latencies(&g, &sources);
        ecg_par::set_max_threads(None);
        prop_assert_eq!(one, many);
    }

    #[test]
    fn rtt_matrix_submatrix_preserves_entries(
        g in arb_connected_graph(),
        pick_seed in any::<u64>(),
    ) {
        use rand::Rng;
        let m = all_pairs_rtt(&g);
        let mut rng = StdRng::seed_from_u64(pick_seed);
        let k = rng.gen_range(1..=m.len());
        let indices: Vec<usize> = (0..k).map(|_| rng.gen_range(0..m.len())).collect();
        let sub = m.submatrix(&indices);
        for a in 0..k {
            for b in 0..k {
                prop_assert_eq!(sub.get(a, b), m.get(indices[a], indices[b]));
            }
        }
    }

    #[test]
    fn waxman_is_connected_and_sized(n in 1usize..60, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, pts) = WaxmanConfig::new(n).generate(&mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(pts.len(), n);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn transit_stub_structure_holds(
        td in 1usize..4,
        tn in 1usize..4,
        sd in 1usize..3,
        sn in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = TransitStubConfig::default()
            .transit_domains(td)
            .transit_nodes_per_domain(tn)
            .stub_domains_per_transit_node(sd)
            .stub_nodes_per_domain(sn);
        let topo = cfg.generate(&mut StdRng::seed_from_u64(seed));
        prop_assert!(topo.graph().is_connected());
        prop_assert_eq!(topo.graph().node_count(), cfg.total_nodes());
        prop_assert_eq!(topo.stub_nodes().len(), cfg.total_stub_nodes());
    }

    #[test]
    fn placement_indices_are_consistent(seed in any::<u64>(), caches in 1usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let net = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
            .expect("placement");
        prop_assert_eq!(net.cache_count(), caches);
        // Typed accessors agree with the raw matrix layout.
        let m = net.rtt_matrix();
        for a in net.caches() {
            prop_assert_eq!(net.cache_to_origin(a), m.get(a.index() + 1, 0));
            for b in net.caches() {
                prop_assert_eq!(net.cache_to_cache(a, b), m.get(a.index() + 1, b.index() + 1));
            }
        }
    }

    #[test]
    fn rtt_from_fn_is_symmetric(n in 0usize..20) {
        let m = RttMatrix::from_fn(n, |i, j| (i * 31 + j * 7) as f64 + 1.0);
        for i in 0..n {
            prop_assert_eq!(m.get(i, i), 0.0);
            for j in 0..n {
                prop_assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }
}
