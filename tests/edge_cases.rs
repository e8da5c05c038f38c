//! Failure-injection and boundary-condition integration tests.
//!
//! The simulator and schemes must behave sensibly on degenerate inputs:
//! single-cache networks, empty traces, pathological capacities,
//! same-instant event storms, and extreme K values.

use edge_cache_groups::prelude::*;
use edge_cache_groups::topology::fixtures::paper_figure1;
use edge_cache_groups::workload::{DocId, Request, TraceEvent, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn figure1_network() -> EdgeNetwork {
    EdgeNetwork::from_rtt_matrix(paper_figure1())
}

/// One fault-free run of `trace` under `groups` through the entry point.
fn sim(
    net: &EdgeNetwork,
    groups: &GroupMap,
    cat: &edge_cache_groups::workload::DocumentCatalog,
    trace: &[TraceEvent],
    config: SimConfig,
) -> Result<SimReport, edge_cache_groups::sim::SimError> {
    let plan = SimPlan::new(net.rtt_matrix(), cat, trace).config(config);
    simulate(&plan, groups, &mut RunContext::pooled())
}

fn small_catalog(n: usize) -> edge_cache_groups::workload::DocumentCatalog {
    CatalogConfig::default()
        .documents(n)
        .dynamic_fraction(0.0)
        .generate(&mut StdRng::seed_from_u64(0))
}

fn req(time_ms: f64, cache: usize, doc: usize) -> TraceEvent {
    TraceEvent::Request(Request {
        time_ms,
        cache,
        doc: DocId(doc),
    })
}

#[test]
fn empty_trace_produces_empty_report() {
    let net = figure1_network();
    let cat = small_catalog(5);
    let report = sim(
        &net,
        &GroupMap::one_group(6),
        &cat,
        &[],
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(report.metrics.total_requests(), 0);
    assert_eq!(report.average_latency_ms(), 0.0);
    assert_eq!(report.origin_fetches, 0);
    assert_eq!(report.metrics.latency_percentile_ms(0.5), None);
}

#[test]
fn updates_only_trace_touches_no_cache() {
    let net = figure1_network();
    let cat = small_catalog(5);
    let trace: Vec<TraceEvent> = (0..50)
        .map(|i| {
            TraceEvent::Update(Update {
                time_ms: i as f64,
                doc: DocId(i % 5),
            })
        })
        .collect();
    let report = sim(
        &net,
        &GroupMap::one_group(6),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(report.origin_updates, 50);
    assert_eq!(report.metrics.total_requests(), 0);
    assert_eq!(report.cache_stats.lookups, 0);
}

#[test]
fn same_instant_event_storm_is_deterministic_fifo() {
    let net = figure1_network();
    let cat = small_catalog(3);
    // 30 events all at t = 1.0: FIFO means the first request fetches
    // from the origin and the rest of the same cache's requests hit.
    let mut trace = Vec::new();
    for i in 0..30 {
        trace.push(req(1.0, i % 6, 0));
    }
    let a = sim(
        &net,
        &GroupMap::singletons(6),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    let b = sim(
        &net,
        &GroupMap::singletons(6),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(a, b);
    // Each cache: 1 origin fetch + 4 local hits.
    assert_eq!(a.origin_fetches, 6);
    assert_eq!(a.cache_stats.fresh_hits, 24);
}

#[test]
fn cache_smaller_than_every_document_degrades_to_origin_only() {
    let net = figure1_network();
    let cat = small_catalog(4);
    let trace: Vec<TraceEvent> = (0..20).map(|i| req(i as f64 * 10.0, 0, i % 4)).collect();
    let report = sim(
        &net,
        &GroupMap::one_group(6),
        &cat,
        &trace,
        SimConfig::default().cache_capacity_bytes(1), // nothing fits
    )
    .unwrap();
    // Every request goes to the origin; nothing is ever cached.
    assert_eq!(report.origin_fetches, 20);
    assert_eq!(report.cache_stats.fresh_hits, 0);
    assert_eq!(report.cache_stats.insertions, 0);
}

#[test]
fn single_cache_network_works_end_to_end() {
    let mut m = RttMatrix::zeros(2);
    m.set(0, 1, 25.0);
    let net = EdgeNetwork::from_rtt_matrix(m);
    let cat = small_catalog(10);
    let mut rng = StdRng::seed_from_u64(1);
    let requests = RequestConfig::default().generate(&cat, 1, 20_000.0, &mut rng);
    let trace: Vec<TraceEvent> = requests.into_iter().map(TraceEvent::Request).collect();
    let report = sim(
        &net,
        &GroupMap::singletons(1),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    assert!(report.metrics.total_requests() > 0);
    // No peers exist: no control traffic at all.
    assert_eq!(report.metrics.control_messages, 0);
    assert_eq!(report.metrics.peer_bytes, 0);
}

#[test]
fn k_equals_n_grouping_simulates_like_singletons() {
    let net = figure1_network();
    let cat = small_catalog(20);
    let mut rng = StdRng::seed_from_u64(2);
    let outcome = GfCoordinator::new(SchemeConfig::sl(6).landmarks(3).plset_multiplier(2))
        .form_groups(&net, &mut rng)
        .unwrap();
    assert_eq!(outcome.groups().len(), 6);
    assert!(outcome.groups().iter().all(|g| g.len() == 1));

    let requests = RequestConfig::default().generate(&cat, 6, 10_000.0, &mut rng);
    let trace: Vec<TraceEvent> = requests.into_iter().map(TraceEvent::Request).collect();
    let from_scheme = sim(
        &net,
        &GroupMap::new(6, outcome.groups().to_vec()).unwrap(),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    let singleton = sim(
        &net,
        &GroupMap::singletons(6),
        &cat,
        &trace,
        SimConfig::default(),
    )
    .unwrap();
    assert_eq!(
        from_scheme.average_latency_ms(),
        singleton.average_latency_ms()
    );
}

#[test]
fn zero_duration_workload_generates_nothing() {
    let cat = small_catalog(5);
    let mut rng = StdRng::seed_from_u64(3);
    let updates = edge_cache_groups::workload::generate_updates(&cat, 0.0, &mut rng);
    assert!(updates.is_empty());
}

#[test]
fn requests_at_trace_end_boundary_are_excluded() {
    // Generators promise t < duration; the simulator accepts any time,
    // but the workload contract holds.
    let cat = small_catalog(5);
    let mut rng = StdRng::seed_from_u64(4);
    let requests = RequestConfig::default()
        .rate_per_sec_per_cache(50.0)
        .generate(&cat, 3, 1_000.0, &mut rng);
    assert!(requests.iter().all(|r| r.time_ms < 1_000.0));
}

#[test]
fn scheme_on_two_cache_network() {
    // Smallest network the schemes accept: landmarks capped, K = 2.
    let mut m = RttMatrix::zeros(3);
    m.set(0, 1, 10.0);
    m.set(0, 2, 20.0);
    m.set(1, 2, 15.0);
    let net = EdgeNetwork::from_rtt_matrix(m);
    let mut rng = StdRng::seed_from_u64(5);
    let outcome = GfCoordinator::new(SchemeConfig::sdsl(2, 1.0))
        .form_groups(&net, &mut rng)
        .unwrap();
    assert_eq!(outcome.groups().len(), 2);
    let total: usize = outcome.groups().iter().map(Vec::len).sum();
    assert_eq!(total, 2);
}
