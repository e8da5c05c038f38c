//! The readers of outside bytes — the command-line parser, the flag
//! vocabularies (`FromStr`), and the trace, RTT-matrix and graph file
//! readers — under byte-level damage: each returns a typed error, or a
//! value that survives a write/read round trip, and never panics. And
//! every vocabulary name parses back to the value it names.

#[path = "support/mutation.rs"]
mod mutation;

use edge_cache_groups::cli::{parse_value, Args};
use edge_cache_groups::prelude::*;
use edge_cache_groups::topology::{read_graph, read_rtt_matrix, write_graph, write_rtt_matrix};
use edge_cache_groups::topology::{Graph, NodeId};
use edge_cache_groups::workload::{read_trace, write_trace, Request, TraceEvent, Update};
use mutation::{arb_mutation, mutate, Mutation};
use proptest::prelude::*;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::Utility,
    PolicyKind::Gdsf,
];

fn placements() -> [PlacementKind; 3] {
    [
        PlacementKind::SingleHolder,
        PlacementKind::adaptive(),
        PlacementKind::d_choices(),
    ]
}

fn reform_presets() -> [(&'static str, ReformPolicy); 5] {
    [
        ("static", ReformPolicy::hold_only()),
        ("hold", ReformPolicy::hold_only()),
        ("repair", ReformPolicy::repair_only()),
        ("eager", ReformPolicy::eager()),
        ("balanced", ReformPolicy::balanced()),
    ]
}

#[test]
fn every_name_parses_back_to_its_value() {
    for kind in POLICIES {
        assert_eq!(kind.name().parse(), Ok(kind));
    }
    for kind in placements() {
        assert_eq!(kind.name().parse(), Ok(kind));
    }
    for (name, preset) in reform_presets() {
        assert_eq!(name.parse(), Ok(preset), "{name}");
    }
    // The spelling the command line documents, beside the one
    // experiment output prints.
    assert_eq!("dchoices".parse(), Ok(PlacementKind::d_choices()));
    assert_eq!("transit".parse(), Ok(OriginPlacement::TransitNode));
    assert_eq!("stub".parse(), Ok(OriginPlacement::StubNode));
    for bad in ["", "LRU", "d_choices", "hold-only", "static "] {
        assert!(bad.parse::<PolicyKind>().is_err(), "{bad:?}");
        assert!(bad.parse::<PlacementKind>().is_err(), "{bad:?}");
        assert!(bad.parse::<ReformPolicy>().is_err(), "{bad:?}");
        assert!(bad.parse::<OriginPlacement>().is_err(), "{bad:?}");
    }
}

fn damaged(text: &str, edits: &[Mutation]) -> String {
    String::from_utf8_lossy(&mutate(text.as_bytes(), edits)).into_owned()
}

fn arb_edits() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec(arb_mutation(), 1..4)
}

/// An arbitrary trace: requests and updates at any finite time.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    let event = (any::<bool>(), 0.0f64..1e6, 0usize..64, 0usize..2_000).prop_map(
        |(request, time_ms, cache, doc)| match request {
            true => TraceEvent::Request(Request {
                time_ms,
                cache,
                doc: DocId(doc),
            }),
            false => TraceEvent::Update(Update {
                time_ms,
                doc: DocId(doc),
            }),
        },
    );
    proptest::collection::vec(event, 0..12)
}

fn trace_text(events: &[TraceEvent]) -> String {
    let mut out = Vec::new();
    write_trace(&mut out, events).expect("in-memory write");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

fn matrix_text(matrix: &RttMatrix) -> String {
    let mut out = Vec::new();
    write_rtt_matrix(&mut out, matrix).expect("in-memory write");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

fn graph_text(graph: &Graph) -> String {
    let mut out = Vec::new();
    write_graph(&mut out, graph).expect("in-memory write");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_argv_is_parsed_or_refused(edits in arb_edits()) {
        let line = "run fig5 --caches 300 --theta 0.5 --quick --sizes 1,2 --minibatch true";
        let args = damaged(line, &edits);
        let args = args.split_whitespace().map(str::to_owned);
        if let Ok(args) = Args::parse(args, &["quick"], &["caches", "theta", "sizes", "minibatch"]) {
            let _ = args.value("caches").map(|raw| parse_value::<usize>("caches", raw));
            let _ = args.value("theta").map(|raw| parse_value::<f64>("theta", raw));
            let _ = args.value("minibatch").map(|raw| parse_value::<bool>("minibatch", raw));
            let _ = args.value("sizes").map(|raw| parse_value::<usize>("sizes", raw));
            let _ = args.no_positionals();
        }
    }

    #[test]
    fn damaged_names_are_refused_or_name_a_value(edits in arb_edits()) {
        let names = POLICIES.iter().map(|k| k.name())
            .chain(placements().map(|k| k.name()))
            .chain(reform_presets().map(|(name, _)| name))
            .chain(["dchoices", "transit", "stub"]);
        for name in names {
            let name = damaged(name, &edits);
            if let Ok(kind) = name.parse::<PolicyKind>() {
                prop_assert_eq!(kind.name().parse(), Ok(kind));
            }
            if let Ok(kind) = name.parse::<PlacementKind>() {
                prop_assert_eq!(kind.name().parse(), Ok(kind));
            }
            if let Ok(policy) = name.parse::<ReformPolicy>() {
                let presets = reform_presets();
                prop_assert!(presets.iter().any(|(_, preset)| *preset == policy));
            }
            let _ = name.parse::<OriginPlacement>();
        }
    }

    #[test]
    fn damaged_traces_are_refused_or_round_trip(
        events in arb_trace(),
        edits in arb_edits(),
    ) {
        let text = damaged(&trace_text(&events), &edits);
        if let Ok(read) = read_trace(text.as_bytes()) {
            // Bytes, not values: a damaged time may read as NaN.
            let written = trace_text(&read);
            let again = read_trace(written.as_bytes()).expect("written traces read back");
            prop_assert_eq!(trace_text(&again), written);
        }
    }

    #[test]
    fn damaged_rtt_matrices_are_refused_or_round_trip(
        n in 1usize..7,
        cells in proptest::collection::vec(0.0f64..500.0, 21),
        edits in arb_edits(),
    ) {
        let matrix = RttMatrix::from_fn(n, |a, b| if a == b { 0.0 } else { cells[a + b] });
        let text = damaged(&matrix_text(&matrix), &edits);
        if let Ok(read) = read_rtt_matrix(text.as_bytes()) {
            let again = read_rtt_matrix(matrix_text(&read).as_bytes());
            prop_assert_eq!(again.expect("written matrices read back"), read);
        }
    }

    #[test]
    fn damaged_graphs_are_refused_or_round_trip(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8, 0.5f64..100.0), 0..12),
        edits in arb_edits(),
    ) {
        let mut graph = Graph::with_nodes(n);
        for (a, b, latency) in edges {
            // Out-of-range endpoints, self loops and repeats are refused.
            let _ = graph.try_add_edge(NodeId(a % n), NodeId(b), latency);
        }
        let text = damaged(&graph_text(&graph), &edits);
        if let Ok(read) = read_graph(text.as_bytes()) {
            let written = graph_text(&read);
            let again = read_graph(written.as_bytes()).expect("written graphs read back");
            prop_assert_eq!(graph_text(&again), written);
        }
    }
}
