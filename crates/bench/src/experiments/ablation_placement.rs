//! Ablation: in-group placement/replication policy under a regional
//! flash crowd.
//!
//! The paper's caches demand-replicate: every peer hit leaves one more
//! copy behind, and an origin fetch always lands on the requester. That
//! is wasteful under capacity pressure — replicas of the same few hot
//! documents crowd out the rest of the catalog, so the *group* hit rate
//! falls even as local hit rates look healthy. This experiment pits the
//! single-holder baseline against two replica-aware placement policies
//! (`ecg_sim::place`): Leconte-style adaptive replication (replicate only
//! documents whose decayed request rate clears a promote threshold) and
//! Pourmiri-style proximity-aware power-of-d-choices (one balanced copy
//! per document, placed on the least-loaded of d RTT-weighted samples).
//!
//! The workload is the correlated regional flash crowd
//! ([`ecg_workload::RegionalFlashCrowdConfig`]): two of six regions
//! surge 6x onto a small shared hot set mid-trace. Caches are small
//! (256 KiB) relative to the ~12 MB catalog, so placement decisions are
//! consequential. Each placement runs under all four replacement
//! policies to show the effect is not an artifact of one eviction rule.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_placement [--metrics-out <path>]`.

use crate::{f2, Run, Table};
use ecg_cache::PolicyKind;
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_obs::json::JsonWriter;
use ecg_sim::{simulate, GroupMap, PlacementKind, RunContext, SimConfig, SimPlan};
use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 60;
const GROUPS: usize = 8;
const DOCUMENTS: usize = 1_500;
const DURATION_MS: f64 = 300_000.0;
const CAPACITY_BYTES: u64 = 256 * 1024;
const NETWORK_SEED: u64 = 23;
const WORKLOAD_SEED: u64 = 29;
const FORMATION_SEED: u64 = 31;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Utility,
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::Gdsf,
];

fn placements() -> [PlacementKind; 3] {
    [
        PlacementKind::SingleHolder,
        PlacementKind::adaptive(),
        PlacementKind::d_choices(),
    ]
}

pub fn run(run: &mut Run) {
    let mut rng = StdRng::seed_from_u64(NETWORK_SEED);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("scenario placement");

    let mut wl_rng = StdRng::seed_from_u64(WORKLOAD_SEED);
    let workload = ecg_workload::RegionalFlashCrowdConfig::default()
        .caches(CACHES)
        .documents(DOCUMENTS)
        .duration_ms(DURATION_MS)
        .generate(&mut wl_rng);
    let trace = workload.merged_trace();

    // Groups are formed once (SDSL, the paper's best scheme) and shared
    // by every cell: the ablation varies placement, not formation.
    let mut form_rng = StdRng::seed_from_u64(FORMATION_SEED);
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &SchemeConfig::sdsl(GROUPS, 1.0)),
        &mut FormContext::new(),
        &mut form_rng,
    )
    .expect("group formation");
    let map = GroupMap::new(CACHES, outcome.groups().to_vec()).expect("grouping partitions caches");

    run.line(format_args!(
        "Ablation: in-group placement policy ({CACHES} caches, K = {GROUPS} SDSL groups, \
         {DOCUMENTS} documents, {} KiB caches, regional flash crowd)\n",
        CAPACITY_BYTES / 1024
    ));

    let cells: Vec<(PlacementKind, PolicyKind)> = placements()
        .into_iter()
        .flat_map(|placement| POLICIES.into_iter().map(move |policy| (placement, policy)))
        .collect();

    let reports = run.cells(cells.clone(), |(placement, policy), cell_obs| {
        let config = SimConfig::default()
            .cache_capacity_bytes(CAPACITY_BYTES)
            .policy(policy)
            .placement(placement)
            .warmup_ms(DURATION_MS / 6.0);
        let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace).config(config);
        let mut ctx = RunContext::serial().observe(cell_obs.as_mut());
        simulate(&plan, &map, &mut ctx).expect("simulation inputs are consistent")
    });

    let mut table = Table::new([
        "placement",
        "policy",
        "group_hit_%",
        "latency_ms",
        "peer_mb",
        "origin",
        "replicas",
        "suppressed",
        "remote",
    ]);
    for ((placement, policy), report) in cells.iter().zip(&reports) {
        let hit = 100.0 * report.metrics.group_hit_rate().unwrap_or(0.0);
        let latency = report.average_latency_ms();
        let peer_mb = report.metrics.peer_bytes as f64 / (1024.0 * 1024.0);
        table.row([
            placement.name().to_string(),
            policy.name().to_string(),
            f2(hit),
            f2(latency),
            f2(peer_mb),
            report.origin_fetches.to_string(),
            report.metrics.replicas_created.to_string(),
            report.metrics.replicas_suppressed.to_string(),
            report.metrics.remote_placements.to_string(),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: the single-holder baseline demand-replicates the hot \
         set into every affected cache, evicting the catalog's tail; \
         adaptive replication suppresses cold-document replicas and \
         d-choices keeps one balanced copy per document, so both hold a \
         higher group hit rate (and fewer origin fetches) through the \
         surge.",
    );

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("caches").usize(CACHES);
        w.key("groups").usize(GROUPS);
        w.key("documents").usize(DOCUMENTS);
        w.key("duration_ms").f64(DURATION_MS);
        w.key("capacity_bytes").u64(CAPACITY_BYTES);
        w.key("cells").array(|w| {
            for ((placement, policy), report) in cells.iter().zip(&reports) {
                let m = &report.metrics;
                w.object(|w| {
                    w.key("placement").str(placement.name());
                    w.key("policy").str(policy.name());
                    w.key("group_hit_rate")
                        .f64(m.group_hit_rate().unwrap_or(0.0));
                    w.key("avg_latency_ms").f64(report.average_latency_ms());
                    w.key("peer_bytes").u64(m.peer_bytes);
                    w.key("origin_fetches").u64(report.origin_fetches);
                    w.key("replicas_created").u64(m.replicas_created);
                    w.key("replicas_suppressed").u64(m.replicas_suppressed);
                    w.key("remote_placements").u64(m.remote_placements);
                    w.key("stale_served").u64(m.stale_served);
                });
            }
        });
    });
    run.document("full cells", "ablation_placement.json", w.finish());
}
