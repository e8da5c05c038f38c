//! Integration test: trace persistence and replay.
//!
//! The paper's simulator is log-file-driven; these tests check that a
//! workload written to the text trace format replays to bit-identical
//! simulation results, and that every way of running `simulate` — on
//! scoped worker threads at any thread count, over a materialized or a
//! streamed trace, observed or not — is bit-identical, report and
//! observability document, to the serial run over the materialized
//! trace, on formed networks and sporting-event workloads — across
//! placement policies, freshness protocols, fault schedules, and thread
//! counts; and that a timeline run does not depend on the thread count
//! either. The serial run is itself held to an independent reference
//! simulator in `ecg-sim`'s own tests.

use edge_cache_groups::prelude::*;
use edge_cache_groups::sim::{FaultKind, FaultSchedule, FreshnessProtocol, SimError};
use edge_cache_groups::workload::{
    generate_updates, read_trace, write_trace, DocumentCatalog, TraceEvent, Update,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn persisted_trace_replays_identically() {
    let caches = 30;
    let mut rng = StdRng::seed_from_u64(21);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let workload = SportingEventConfig::default()
        .caches(caches)
        .documents(300)
        .duration_ms(30_000.0)
        .generate(&mut rng);
    let trace = workload.merged_trace();

    // Round trip through the text format.
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).expect("write");
    let reloaded = read_trace(&buf[..]).expect("read");
    assert_eq!(reloaded, trace);

    // Both traces produce identical simulation reports.
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &SchemeConfig::sl(5)),
        &mut FormContext::new(),
        &mut rng,
    )
    .expect("formation");
    let groups = GroupMap::new(caches, outcome.groups().to_vec()).expect("groups");
    let run = |trace: &[TraceEvent]| {
        let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, trace);
        simulate(&plan, &groups, &mut RunContext::pooled()).expect("sim")
    };
    assert_eq!(run(&trace), run(&reloaded));
}

/// The reference every run is held to: `plan` under `groups` on the
/// caller's thread, observed — the report and its document.
fn serial_reference(plan: &SimPlan<'_>, groups: &GroupMap) -> (SimReport, String) {
    let mut obs = Obs::new();
    let ctx = &mut RunContext::serial().observe(Some(&mut obs));
    let report = simulate(plan, groups, ctx).expect("sim");
    (report, obs.to_json())
}

/// `plan` under `groups` on scoped worker threads, `threads` of them.
fn pooled_at(
    threads: usize,
    plan: &SimPlan<'_>,
    groups: &GroupMap,
    obs: Option<&mut Obs>,
) -> Result<SimReport, SimError> {
    edge_cache_groups::par::set_max_threads(Some(threads));
    let report = simulate(plan, groups, &mut RunContext::pooled().observe(obs));
    edge_cache_groups::par::set_max_threads(None);
    report
}

/// A formed network + sporting-event workload shared by the sharded
/// equivalence tests.
fn formed_fixture(
    caches: usize,
    k: usize,
    seed: u64,
) -> (EdgeNetwork, GroupMap, DocumentCatalog, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let outcome = form(
        &FormPlan::new(
            network.rtt_matrix(),
            &SchemeConfig::sdsl(k, 1.0).landmarks(6),
        ),
        &mut FormContext::new(),
        &mut rng,
    )
    .expect("formation");
    let groups = GroupMap::new(caches, outcome.groups().to_vec()).expect("groups");
    let workload = SportingEventConfig::default()
        .caches(caches)
        .documents(250)
        .duration_ms(20_000.0)
        .generate(&mut rng);
    (
        network,
        groups,
        workload.catalog.clone(),
        workload.merged_trace(),
    )
}

#[test]
fn sharded_replay_matches_monolithic_across_placements_and_threads() {
    let (network, groups, catalog, trace) = formed_fixture(36, 6, 11);
    for placement in [
        PlacementKind::SingleHolder,
        PlacementKind::adaptive(),
        PlacementKind::d_choices(),
    ] {
        let sim = SimConfig::default().placement(placement).warmup_ms(2_000.0);
        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).config(sim);
        let (monolithic, document) = serial_reference(&plan, &groups);
        for threads in [1usize, 2, 8] {
            let mut obs = Obs::new();
            let sharded = pooled_at(threads, &plan, &groups, Some(&mut obs)).expect("replay");
            assert_eq!(
                sharded, monolithic,
                "sharded replay diverged ({placement:?}, {threads} threads)"
            );
            assert_eq!(obs.to_json(), document, "{placement:?}, {threads} threads");
        }
    }
}

#[test]
fn sharded_replay_matches_monolithic_under_faults_and_freshness() {
    let (network, groups, catalog, trace) = formed_fixture(24, 4, 29);
    let mut schedule = FaultSchedule::new()
        .failover_penalty_ms(4.0)
        .timeline_bucket_ms(5_000.0);
    schedule.push(3_000.0, FaultKind::CacheDown { cache: CacheId(2) });
    schedule.push(6_000.0, FaultKind::BrownoutStart { factor: 2.5 });
    schedule.push(9_000.0, FaultKind::CacheUp { cache: CacheId(2) });
    schedule.push(11_000.0, FaultKind::BrownoutEnd);
    schedule.push(14_000.0, FaultKind::CacheRetire { cache: CacheId(7) });

    for freshness in [
        FreshnessProtocol::InvalidateOnAccess,
        FreshnessProtocol::OriginMulticast,
        FreshnessProtocol::TtlLease { ttl_ms: 2_000.0 },
    ] {
        let sim = SimConfig::default().freshness(freshness);
        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace)
            .config(sim)
            .faults(&schedule);
        let (monolithic, document) = serial_reference(&plan, &groups);
        assert!(monolithic.metrics.degradation.saw_faults());
        for threads in [1usize, 2, 8] {
            let mut obs = Obs::new();
            let sharded = pooled_at(threads, &plan, &groups, Some(&mut obs)).expect("replay");
            assert_eq!(
                sharded, monolithic,
                "sharded replay diverged under faults ({freshness:?}, {threads} threads)"
            );
            assert_eq!(obs.to_json(), document, "{freshness:?}, {threads} threads");
        }
    }
}

/// An RTT oracle that counts how it is asked: pair by pair, or one
/// batched sub-matrix at a time.
#[derive(Debug)]
struct CountingRtt<'a> {
    inner: &'a dyn RttSource,
    pair_queries: AtomicUsize,
    submatrix_queries: AtomicUsize,
}

impl RttSource for CountingRtt<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        self.pair_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.rtt_ms(a, b)
    }

    fn submatrix_into(&self, nodes: &[usize], out: &mut RttMatrix) {
        self.submatrix_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.submatrix_into(nodes, out)
    }
}

#[test]
fn streamed_replay_matches_monolithic_on_materialized_inputs() {
    let caches = 40;
    let seed = 5u64;
    let net = SyntheticRttConfig::default().generate(caches + 1, seed);
    // Ragged groups whose member lists do not ascend: local ids, peer
    // order and fault routing all go through the member position.
    let groups: Vec<Vec<CacheId>> = (0..caches)
        .collect::<Vec<_>>()
        .chunks(7)
        .map(|c| c.iter().rev().map(|&i| CacheId(i)).collect())
        .collect();
    let map = GroupMap::new(caches, groups).expect("groups");
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = CatalogConfig::default().documents(300).generate(&mut rng);
    let updates = generate_updates(&catalog, 15_000.0, &mut rng);
    let master: u64 = rng.gen();
    let workload = StreamedWorkload::new(
        RequestConfig::default().rate_per_sec_per_cache(3.0),
        master,
        15_000.0,
    )
    .updates(&updates);
    let sim = SimConfig::default()
        .placement(PlacementKind::adaptive())
        .warmup_ms(1_500.0);
    let full =
        EdgeNetwork::from_rtt_matrix(RttMatrix::from_fn(caches + 1, |a, b| net.rtt_ms(a, b)));
    let trace = workload.materialize_trace(&catalog, caches);

    let mut faulted = FaultSchedule::new()
        .failover_penalty_ms(6.0)
        .timeline_bucket_ms(4_000.0);
    faulted.push(2_000.0, FaultKind::CacheDown { cache: CacheId(9) });
    faulted.push(2_000.0, FaultKind::CacheDown { cache: CacheId(30) });
    faulted.push(4_000.0, FaultKind::BrownoutStart { factor: 3.0 });
    faulted.push(7_000.0, FaultKind::CacheUp { cache: CacheId(9) });
    faulted.push(8_500.0, FaultKind::BrownoutEnd);
    faulted.push(10_000.0, FaultKind::CacheRetire { cache: CacheId(39) });

    let counted = CountingRtt {
        inner: &net,
        pair_queries: AtomicUsize::new(0),
        submatrix_queries: AtomicUsize::new(0),
    };
    for schedule in [FaultSchedule::new(), faulted] {
        // The document too: a streamed, pooled run writes the `sim.*`
        // document of the serial run over the materialized trace and
        // the materialized matrix.
        let materialized = SimPlan::new(full.rtt_matrix(), &catalog, &trace)
            .config(sim)
            .faults(&schedule);
        let (monolithic, document) = serial_reference(&materialized, &map);
        let plan = SimPlan::streamed(&counted, &catalog, &workload)
            .config(sim)
            .faults(&schedule);
        for threads in [1usize, 2, 8] {
            let mut obs = Obs::new();
            let streamed = pooled_at(threads, &plan, &map, Some(&mut obs)).expect("replay");
            assert_eq!(
                streamed,
                monolithic,
                "streamed replay diverged ({} fault events, {threads} threads)",
                schedule.len()
            );
            assert_eq!(obs.to_json(), document, "{threads} threads");
        }
    }
    // A shard is one batched sub-topology query and one kernel run on
    // it in place: six replays of the map's groups, nothing pairwise.
    assert_eq!(
        counted.submatrix_queries.load(Ordering::Relaxed),
        6 * map.group_count()
    );
    assert_eq!(counted.pair_queries.load(Ordering::Relaxed), 0);
}

/// `StreamedWorkload::updates` asks for a time-sorted log, but nothing
/// rejects another: a streamed run over 400 shuffled updates — some on
/// one instant, some on a request's — is the run over the trace it
/// materializes, report and document, serial and pooled at 1 and 8
/// threads. A shard that merged the log as a presumed-sorted lane would
/// diverge here.
#[test]
fn streamed_replay_over_an_unsorted_update_log_matches_its_materialized_trace() {
    let caches = 30;
    let seed = 8u64;
    let duration_ms = 12_000.0;
    let net = SyntheticRttConfig::default().generate(caches + 1, seed);
    let groups: Vec<Vec<CacheId>> = (0..caches)
        .collect::<Vec<_>>()
        .chunks(6)
        .map(|c| c.iter().rev().map(|&i| CacheId(i)).collect())
        .collect();
    let map = GroupMap::new(caches, groups).expect("groups");
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = CatalogConfig::default().documents(200).generate(&mut rng);
    let requests = RequestConfig::default().rate_per_sec_per_cache(3.0);
    let master: u64 = rng.gen();
    let on_requests = requests.generate_with_master(&catalog, caches, duration_ms, master);
    let mut updates: Vec<Update> = (0..400)
        .map(|i| Update {
            time_ms: match i % 4 {
                0 => on_requests[rng.gen_range(0..on_requests.len())].time_ms,
                1 => f64::from(rng.gen_range(0u32..12)) * 1_000.0,
                _ => rng.gen_range(0.0..duration_ms),
            },
            doc: DocId(rng.gen_range(0..catalog.len())),
        })
        .collect();
    for i in (1..updates.len()).rev() {
        updates.swap(i, rng.gen_range(0..=i));
    }
    assert!(updates.windows(2).any(|w| w[0].time_ms > w[1].time_ms));
    let workload = StreamedWorkload::new(requests, master, duration_ms).updates(&updates);
    let trace = workload.materialize_trace(&catalog, caches);
    let sim = SimConfig::default()
        .freshness(FreshnessProtocol::OriginMulticast)
        .warmup_ms(1_000.0);

    let mut materialized_obs = Obs::new();
    let materialized = simulate(
        &SimPlan::new(&net, &catalog, &trace).config(sim),
        &map,
        &mut RunContext::serial().observe(Some(&mut materialized_obs)),
    )
    .expect("sim");
    assert!(materialized.origin_updates > 0);
    let plan = SimPlan::streamed(&net, &catalog, &workload).config(sim);
    let mut obs = Obs::new();
    let serial = simulate(
        &plan,
        &map,
        &mut RunContext::serial().observe(Some(&mut obs)),
    );
    assert_eq!(serial.expect("replay"), materialized, "serial");
    assert_eq!(obs.to_json(), materialized_obs.to_json(), "serial");
    for threads in [1usize, 8] {
        let mut obs = Obs::new();
        let streamed = pooled_at(threads, &plan, &map, Some(&mut obs)).expect("replay");
        assert_eq!(streamed, materialized, "{threads} threads");
        assert_eq!(
            obs.to_json(),
            materialized_obs.to_json(),
            "{threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The load-bearing contract: on any input, `simulate` on the pool
    /// is bit-identical to the serial run, report and observability
    /// document — whatever the group shapes, placement policy,
    /// freshness protocol, fault script or thread count; a one-epoch
    /// timeline is that run again, and a timeline that changes grouping
    /// mid-trace does not depend on the thread count.
    #[test]
    fn sharded_replay_is_bit_identical_on_arbitrary_inputs(
        seed in any::<u64>(),
        caches in 6usize..30,
        chunk in 1usize..9,
        placement_idx in 0usize..3,
        freshness_idx in 0usize..3,
        descending in any::<bool>(),
        faulted in any::<bool>(),
        flash in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let network = EdgeNetwork::place(
            &topo, caches, OriginPlacement::TransitNode, &mut rng,
        ).unwrap();
        // Contiguous chunks of arbitrary width cover singleton, ragged,
        // and whole-network groups alike; descending member lists make
        // local ids disagree with cache-id order.
        let groups: Vec<Vec<CacheId>> = (0..caches)
            .collect::<Vec<_>>()
            .chunks(chunk)
            .map(|c| {
                let mut members: Vec<CacheId> = c.iter().map(|&i| CacheId(i)).collect();
                if descending {
                    members.reverse();
                }
                members
            })
            .collect();
        let map = GroupMap::new(caches, groups).unwrap();
        let duration = 8_000.0;
        let workload = SportingEventConfig::default()
            .caches(caches)
            .documents(150)
            .duration_ms(duration)
            .flash_crowd(flash)
            .generate(&mut rng);
        let placement = [
            PlacementKind::SingleHolder,
            PlacementKind::adaptive(),
            PlacementKind::d_choices(),
        ][placement_idx];
        let freshness = [
            FreshnessProtocol::InvalidateOnAccess,
            FreshnessProtocol::OriginMulticast,
            FreshnessProtocol::TtlLease { ttl_ms: 1_500.0 },
        ][freshness_idx];
        let sim = SimConfig::default().placement(placement).freshness(freshness);
        let mut schedule = FaultSchedule::new().timeline_bucket_ms(2_000.0);
        if faulted {
            // Two same-instant crashes, a retirement of a cache that is
            // still down, a recovery, and a brownout over all of it.
            let (a, b) = (CacheId(rng.gen_range(0..caches)), CacheId(caches - 1));
            schedule.push(0.2 * duration, FaultKind::CacheDown { cache: a });
            schedule.push(0.2 * duration, FaultKind::CacheDown { cache: b });
            schedule.push(0.3 * duration, FaultKind::BrownoutStart { factor: 2.0 });
            schedule.push(0.5 * duration, FaultKind::CacheRetire { cache: b });
            schedule.push(0.6 * duration, FaultKind::CacheUp { cache: a });
            schedule.push(0.7 * duration, FaultKind::BrownoutEnd);
        }
        let trace = workload.merged_trace();
        let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace)
            .config(sim)
            .faults(&schedule);
        let (monolithic, document) = serial_reference(&plan, &map);
        // Mid-trace the grouping changes to singletons and back.
        let one_epoch = [ReplayEpoch::new(0.0, map.clone())];
        let three_epochs = [
            ReplayEpoch::new(0.0, map.clone()),
            ReplayEpoch::new(0.4 * duration, GroupMap::singletons(caches)),
            ReplayEpoch::new(0.8 * duration, map.clone()),
        ];
        let mut timelines = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut obs = Obs::new();
            let sharded = pooled_at(threads, &plan, &map, Some(&mut obs)).unwrap();
            prop_assert_eq!(&sharded, &monolithic, "{} threads", threads);
            prop_assert_eq!(&obs.to_json(), &document, "{} threads", threads);

            edge_cache_groups::par::set_max_threads(Some(threads));
            let mut obs = Obs::new();
            let mut ctx = RunContext::pooled().observe(Some(&mut obs));
            let flat = simulate_epochs(&plan, &one_epoch, &mut ctx).unwrap();
            let mut timeline_obs = Obs::new();
            let mut ctx = RunContext::pooled().observe(Some(&mut timeline_obs));
            let timeline = simulate_epochs(&plan, &three_epochs, &mut ctx).unwrap();
            edge_cache_groups::par::set_max_threads(None);
            prop_assert_eq!(&flat, &monolithic, "one epoch, {} threads", threads);
            prop_assert_eq!(&obs.to_json(), &document, "one epoch, {} threads", threads);
            prop_assert_eq!(
                timeline.metrics.total_requests(), monolithic.metrics.total_requests()
            );
            timelines.push((timeline, timeline_obs.to_json()));
        }
        prop_assert!(timelines.windows(2).all(|pair| pair[0] == pair[1]));
    }
}

#[test]
fn hand_written_trace_drives_the_simulator() {
    // A tiny hand-authored trace file exercising request + update lines
    // and comments — the format a user would edit by hand.
    let text = "\
# two caches fight over doc 0
R 0.0 0 0
R 100.0 1 0
U 200.0 0
R 300.0 0 0
R 400.0 1 0
";
    let trace = read_trace(text.as_bytes()).expect("parse");
    assert_eq!(trace.len(), 5);

    let network =
        EdgeNetwork::from_rtt_matrix(edge_cache_groups::topology::fixtures::paper_figure1());
    let catalog = CatalogConfig::default()
        .documents(4)
        .dynamic_fraction(0.0)
        .generate(&mut StdRng::seed_from_u64(1));
    let groups = GroupMap::one_group(6);
    let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace);
    let report = simulate(&plan, &groups, &mut RunContext::pooled()).expect("sim");

    // Request 1: origin fetch. Request 2: peer hit. After the update,
    // both caches are stale: one more origin fetch, one more peer hit.
    assert_eq!(report.metrics.total_requests(), 4);
    assert_eq!(report.origin_fetches, 2);
    assert_eq!(report.origin_updates, 1);
    let peer_hits: u64 = report.metrics.per_cache().iter().map(|a| a.peer_hits).sum();
    assert_eq!(peer_hits, 2);
}
