//! End-to-end: supervisor timelines feed the simulator's timeline run.
//!
//! The acceptance contract of the lifecycle subsystem: a fault-free,
//! zero-churn stream produces zero re-formations and a run
//! bit-identical to serving the static `GroupMap` for the whole trace;
//! a churny stream produces a multi-epoch timeline whose run is
//! byte-identical across thread counts.

use ecg_coords::ProbeConfig;
use ecg_core::SchemeConfig;
use ecg_faults::FaultPlan;
use ecg_lifecycle::{FormationSupervisor, ReformPolicy, SupervisorConfig};
use ecg_sim::{simulate, simulate_epochs, FaultSchedule, ReplayEpoch, RunContext, SimPlan};
use ecg_topology::{fixtures::paper_figure1, CacheId, EdgeNetwork};
use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig, TraceEvent};
use rand::{rngs::StdRng, SeedableRng};

fn fixture() -> (EdgeNetwork, ecg_workload::DocumentCatalog, Vec<TraceEvent>) {
    let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let mut rng = StdRng::seed_from_u64(21);
    let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
    let requests = RequestConfig::default()
        .rate_per_sec_per_cache(4.0)
        .generate(&catalog, 6, 60_000.0, &mut rng);
    let updates = generate_updates(&catalog, 60_000.0, &mut rng);
    let trace = merge_streams(&requests, &updates);
    (network, catalog, trace)
}

fn supervisor(policy: ReformPolicy) -> FormationSupervisor {
    FormationSupervisor::new(
        SupervisorConfig::new(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2))
            .probe(ProbeConfig::noiseless())
            .policy(policy),
    )
}

fn to_replay_epochs(timeline: &ecg_lifecycle::FormationTimeline) -> Vec<ReplayEpoch> {
    timeline
        .epoch_spans()
        .map(|(start, groups)| ReplayEpoch::new(start, groups.clone()))
        .collect()
}

#[test]
fn zero_churn_timeline_replays_identically_to_static_groups() {
    let (network, catalog, trace) = fixture();
    let schedule = FaultSchedule::new();
    let mut rng = StdRng::seed_from_u64(7);
    let timeline = supervisor(ReformPolicy::balanced())
        .run(&network, &schedule, 60_000.0, &mut rng, None)
        .expect("quiet run succeeds");
    assert_eq!(timeline.reformations(), 0);
    assert_eq!(timeline.epochs().len(), 1);

    let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace);
    let epochs = to_replay_epochs(&timeline);
    let lifecycle =
        simulate_epochs(&plan, &epochs, &mut RunContext::pooled()).expect("epoch replay succeeds");
    let static_groups = simulate(
        &plan,
        &timeline.epochs()[0].groups,
        &mut RunContext::pooled(),
    )
    .expect("static replay succeeds");
    assert_eq!(
        lifecycle, static_groups,
        "one lifecycle epoch must be bit-identical to a static replay"
    );
}

#[test]
fn churny_timeline_replay_is_thread_invariant() {
    let (network, catalog, trace) = fixture();
    let schedule = FaultPlan::new()
        .crash(CacheId(0), 11_000.0, 30_000.0)
        .retire(CacheId(3), 21_000.0)
        .schedule();
    let mut rng = StdRng::seed_from_u64(11);
    let timeline = supervisor(ReformPolicy::eager())
        .run(&network, &schedule, 60_000.0, &mut rng, None)
        .expect("churny run succeeds");
    assert!(timeline.epochs().len() > 1, "churn must open epochs");

    let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).faults(&schedule);
    let epochs = to_replay_epochs(&timeline);
    ecg_par::set_max_threads(Some(1));
    let single = simulate_epochs(&plan, &epochs, &mut RunContext::pooled());
    ecg_par::set_max_threads(Some(4));
    let multi = simulate_epochs(&plan, &epochs, &mut RunContext::pooled());
    ecg_par::set_max_threads(None);
    assert_eq!(
        single.expect("1-thread replay succeeds"),
        multi.expect("4-thread replay succeeds"),
        "epoch replay of a lifecycle timeline must not depend on threads"
    );
}

#[test]
fn supervisor_is_thread_count_invariant() {
    // The supervisor itself is serial; pin threads anyway and check the
    // rendered timeline bytes, since formation runs probe in parallel.
    let (network, _, _) = fixture();
    let schedule = FaultPlan::new()
        .crash(CacheId(1), 12_000.0, 25_000.0)
        .retire(CacheId(4), 31_000.0)
        .schedule();
    let run = || {
        let mut rng = StdRng::seed_from_u64(3);
        supervisor(ReformPolicy::eager())
            .run(&network, &schedule, 60_000.0, &mut rng, None)
            .expect("run succeeds")
            .to_json()
    };
    ecg_par::set_max_threads(Some(1));
    let single = run();
    ecg_par::set_max_threads(Some(8));
    let multi = run();
    ecg_par::set_max_threads(None);
    assert_eq!(single, multi, "timeline bytes must not depend on threads");
}
