//! Integration test: fault-injected runs are bit-for-bit reproducible.
//!
//! The fault subsystem's contract is that a (seed, plan) pair pins the
//! whole run: the generated churn plan, the simulation itself, and the
//! serialized report. These tests check the contract at the integration
//! level via the deterministic JSON emitter — byte-identical strings,
//! not just approximately equal metrics.

use edge_cache_groups::faults::{report_to_json, ChurnConfig, FaultPlan};
use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 30;
const DURATION_MS: f64 = 40_000.0;

struct Setup {
    network: EdgeNetwork,
    workload: edge_cache_groups::workload::SportingEventWorkload,
    trace: Vec<edge_cache_groups::workload::TraceEvent>,
    groups: GroupMap,
}

fn setup(seed: u64) -> Setup {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let outcome = GfCoordinator::new(SchemeConfig::sl(5))
        .form_groups(&network, &mut rng)
        .expect("formation");
    let groups = GroupMap::new(CACHES, outcome.groups().to_vec()).expect("partition");
    let workload = SportingEventConfig::default()
        .caches(CACHES)
        .documents(500)
        .duration_ms(DURATION_MS)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    Setup {
        network,
        workload,
        trace,
        groups,
    }
}

/// The fault-free plan of a setup: what is simulated before any
/// schedule is attached.
fn sim_plan(s: &Setup) -> SimPlan<'_> {
    SimPlan::new(s.network.rtt_matrix(), &s.workload.catalog, &s.trace)
        .config(SimConfig::default().warmup_ms(DURATION_MS / 6.0))
}

fn run(s: &Setup, plan: &FaultPlan) -> String {
    let schedule = plan.schedule();
    let report = simulate(
        &sim_plan(s).faults(&schedule),
        &s.groups,
        &mut RunContext::pooled(),
    )
    .expect("simulation succeeds");
    report_to_json(&report)
}

#[test]
fn same_seed_and_plan_give_byte_identical_reports() {
    let plan = ChurnConfig::default()
        .crashes_per_hour_per_cache(40.0)
        .mean_downtime_ms(8_000.0)
        .retirement_fraction(0.2)
        .generate(CACHES, DURATION_MS, &mut StdRng::seed_from_u64(99));
    assert!(!plan.is_empty(), "churn at this rate must produce faults");

    let a = run(&setup(5), &plan);
    let b = run(&setup(5), &plan);
    assert_eq!(a, b, "identical (seed, plan) must serialize identically");

    // The faults actually bit: the degraded class saw requests.
    assert!(!a.contains("\"crashes\":0"));

    // A different workload seed gives a different report.
    let c = run(&setup(6), &plan);
    assert_ne!(a, c);
}

#[test]
fn zero_fault_plan_matches_plain_simulate_exactly() {
    let s = setup(7);
    let faulted = run(&s, &FaultPlan::new());
    let baseline =
        simulate(&sim_plan(&s), &s.groups, &mut RunContext::pooled()).expect("simulation succeeds");
    assert_eq!(
        faulted,
        report_to_json(&baseline),
        "an empty fault schedule must reproduce the baseline bit-for-bit"
    );
}
