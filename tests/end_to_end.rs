//! Integration test: the full pipeline at experiment scale.
//!
//! Topology generation → network placement → group formation → workload
//! generation → simulation, asserting the paper's headline comparative
//! results hold on a mid-size instance.

use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 100;
const DURATION_MS: f64 = 90_000.0;

struct Setup {
    network: EdgeNetwork,
    workload: edge_cache_groups::workload::SportingEventWorkload,
    trace: Vec<edge_cache_groups::workload::TraceEvent>,
}

fn setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let workload = SportingEventConfig::default()
        .caches(CACHES)
        .documents(1_000)
        .duration_ms(DURATION_MS)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    Setup {
        network,
        workload,
        trace,
    }
}

fn run(setup: &Setup, groups: &[Vec<CacheId>]) -> SimReport {
    let map = GroupMap::new(CACHES, groups.to_vec()).expect("valid partition");
    let config = SimConfig::default()
        .cache_capacity_bytes(512 * 1024)
        .warmup_ms(DURATION_MS / 6.0);
    let plan = SimPlan::new(
        setup.network.rtt_matrix(),
        &setup.workload.catalog,
        &setup.trace,
    )
    .config(config);
    simulate(&plan, &map, &mut RunContext::pooled()).expect("simulation")
}

#[test]
fn formed_groups_always_feed_the_simulator() {
    let s = setup(1);
    for scheme in [SchemeConfig::sl(10), SchemeConfig::sdsl(10, 1.0)] {
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = GfCoordinator::new(scheme)
            .form_groups(&s.network, &mut rng)
            .expect("formation");
        let report = run(&s, outcome.groups());
        assert!(report.average_latency_ms() > 0.0);
        assert_eq!(
            report.metrics.total_requests()
                + s.trace
                    .iter()
                    .filter(|e| {
                        matches!(e, edge_cache_groups::workload::TraceEvent::Request(r)
                            if r.time_ms < DURATION_MS / 6.0)
                    })
                    .count() as u64,
            s.workload.requests.len() as u64,
            "warm-up exclusion accounts for every request"
        );
    }
}

#[test]
fn cooperation_beats_isolation_at_scale() {
    let s = setup(3);
    let mut rng = StdRng::seed_from_u64(4);
    let outcome = GfCoordinator::new(SchemeConfig::sl(10))
        .form_groups(&s.network, &mut rng)
        .expect("formation");
    let grouped = run(&s, outcome.groups());
    let isolated = run(
        &s,
        &(0..CACHES).map(|c| vec![CacheId(c)]).collect::<Vec<_>>(),
    );
    assert!(
        grouped.average_latency_ms() < isolated.average_latency_ms(),
        "grouped {:.2} vs isolated {:.2}",
        grouped.average_latency_ms(),
        isolated.average_latency_ms()
    );
    assert!(grouped.origin_fetches < isolated.origin_fetches);
    assert!(grouped.metrics.group_hit_rate() > isolated.metrics.group_hit_rate());
}

#[test]
fn sdsl_beats_sl_on_average() {
    // The paper's headline: SDSL's server-distance-sensitive grouping
    // yields lower client latency. Averaged over formation seeds to
    // absorb K-means randomness.
    let s = setup(5);
    let k = 15;
    let mean_latency = |scheme: SchemeConfig| -> f64 {
        let seeds = [10u64, 11, 12];
        let total: f64 = seeds
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome = GfCoordinator::new(scheme.clone())
                    .form_groups(&s.network, &mut rng)
                    .expect("formation");
                run(&s, outcome.groups()).average_latency_ms()
            })
            .sum();
        total / seeds.len() as f64
    };
    let sl = mean_latency(SchemeConfig::sl(k));
    let sdsl = mean_latency(SchemeConfig::sdsl(k, 1.0));
    assert!(sdsl < sl, "sdsl {sdsl:.2} vs sl {sl:.2}");
}

#[test]
fn greedy_landmarks_beat_mindist_on_interaction_cost() {
    use edge_cache_groups::core::LandmarkSelector;
    let s = setup(7);
    let gic = |selector: LandmarkSelector| -> f64 {
        let seeds = [1u64, 2, 3, 4, 5];
        let total: f64 = seeds
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome = GfCoordinator::new(SchemeConfig::sl(10).selector(selector))
                    .form_groups(&s.network, &mut rng)
                    .expect("formation");
                outcome.average_interaction_cost(|a, b| s.network.cache_to_cache(a, b))
            })
            .sum();
        total / seeds.len() as f64
    };
    let greedy = gic(LandmarkSelector::GreedyMaxMin);
    let mindist = gic(LandmarkSelector::MinDist);
    assert!(
        greedy < mindist,
        "greedy {greedy:.2} vs min-dist {mindist:.2}"
    );
}

#[test]
fn whole_pipeline_is_deterministic_per_seed() {
    let build = || {
        let s = setup(9);
        let mut rng = StdRng::seed_from_u64(10);
        let outcome = GfCoordinator::new(SchemeConfig::sdsl(8, 1.0))
            .form_groups(&s.network, &mut rng)
            .expect("formation");
        let report = run(&s, outcome.groups());
        (outcome, report)
    };
    let (o1, r1) = build();
    let (o2, r2) = build();
    assert_eq!(o1, o2);
    assert_eq!(r1, r2);
}
