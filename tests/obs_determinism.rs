//! Integration test: the observability subsystem is deterministic.
//!
//! An observed pipeline run — group formation, fault-injected
//! simulation, and churn replay, all feeding one [`Obs`] bundle — must
//! serialize to a byte-identical JSON document when repeated with the
//! same seeds, and that document must cover every instrumented
//! subsystem: clustering, probing, simulation, maintenance, and faults.

use edge_cache_groups::faults::{ChurnConfig, FaultPlan};
use edge_cache_groups::prelude::*;

use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 30;
const DURATION_MS: f64 = 40_000.0;

/// Runs the full observed pipeline from a seed — the simulation on the
/// worker pool when `pooled`, else on this thread — and returns the
/// serialized metrics document.
fn observed_run(seed: u64, pooled: bool) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let workload = SportingEventConfig::default()
        .caches(CACHES)
        .documents(500)
        .duration_ms(DURATION_MS)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    let plan = ChurnConfig::default()
        .crashes_per_hour_per_cache(40.0)
        .mean_downtime_ms(8_000.0)
        .retirement_fraction(0.2)
        .generate(CACHES, DURATION_MS, &mut StdRng::seed_from_u64(seed + 1));
    assert!(!plan.is_empty(), "churn at this rate must produce faults");

    let mut obs = Obs::new();
    let outcome = GfCoordinator::new(SchemeConfig::sdsl(5, 1.0))
        .form_groups_observed(&network, &mut rng, Some(&mut obs))
        .expect("formation");
    let groups = GroupMap::new(CACHES, outcome.groups().to_vec()).expect("partition");
    let schedule = plan.schedule();
    let sim_plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace)
        .config(SimConfig::default().warmup_ms(DURATION_MS / 6.0))
        .faults(&schedule);
    let context = if pooled {
        RunContext::pooled()
    } else {
        RunContext::serial()
    };
    simulate(&sim_plan, &groups, &mut context.observe(Some(&mut obs)))
        .expect("simulation succeeds");
    let maintainer = GroupMaintainer::new(&network, outcome, ProbeConfig::default());
    ChurnDriver::new(maintainer)
        .apply_observed(&network, &plan, &mut rng, Some(&mut obs))
        .expect("churn replay succeeds");
    obs.to_json()
}

#[test]
fn same_seed_gives_byte_identical_metrics_json() {
    let a = observed_run(5, false);
    let b = observed_run(5, true);
    assert_eq!(
        a, b,
        "same seeds must serialize identically, on this thread or on the pool"
    );

    let c = observed_run(6, true);
    assert_ne!(a, c, "a different seed must change the document");
}

#[test]
fn observed_run_covers_every_instrumented_subsystem() {
    let json = observed_run(5, true);
    for key in [
        // clustering
        "\"kmeans.iterations\"",
        "\"kmeans.runs\"",
        // probing
        "\"probe.measurements\"",
        "\"probe.rtt_ms\"",
        // scheme pipeline phases
        "\"scheme.landmarks\"",
        "\"scheme.positions\"",
        "\"scheme.clustering\"",
        // simulation
        "\"sim.local_hits\"",
        "\"sim.peer_hits\"",
        "\"sim.coop_misses\"",
        "\"sim.fault_events\"",
        "\"sim.latency_ms\"",
        // maintenance + churn
        "\"maintenance.retirements\"",
        "\"churn.retirements\"",
        "\"churn.max_drift\"",
    ] {
        assert!(json.contains(key), "document is missing {key}");
    }
}

#[test]
fn instrumentation_does_not_perturb_results() {
    let mut rng = StdRng::seed_from_u64(9);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let workload = SportingEventConfig::default()
        .caches(CACHES)
        .documents(500)
        .duration_ms(DURATION_MS)
        .generate(&mut rng);
    let trace = workload.merged_trace();

    let mut obs = Obs::new();
    let plain = GfCoordinator::new(SchemeConfig::sl(5))
        .form_groups(&network, &mut StdRng::seed_from_u64(17))
        .expect("plain formation");
    let observed = GfCoordinator::new(SchemeConfig::sl(5))
        .form_groups_observed(&network, &mut StdRng::seed_from_u64(17), Some(&mut obs))
        .expect("observed formation");
    assert_eq!(plain.groups(), observed.groups());

    let groups = GroupMap::new(CACHES, plain.groups().to_vec()).expect("partition");
    let config = SimConfig::default().warmup_ms(DURATION_MS / 6.0);
    let sim_plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace).config(config);
    let baseline =
        simulate(&sim_plan, &groups, &mut RunContext::pooled()).expect("plain simulation");
    let schedule = FaultPlan::new().schedule();
    let instrumented = simulate(
        &sim_plan.faults(&schedule),
        &groups,
        &mut RunContext::pooled().observe(Some(&mut obs)),
    )
    .expect("observed simulation");
    assert_eq!(
        edge_cache_groups::faults::report_to_json(&baseline),
        edge_cache_groups::faults::report_to_json(&instrumented),
        "observation must not change simulation results"
    );
}
