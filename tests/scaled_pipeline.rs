//! Integration coverage for the formation pipeline's large-N form
//! ([`form`] under [`FormPlan::per_row`]) through the facade crate: it
//! must agree with itself across thread counts and K-means variants,
//! its outcome must interoperate with the same downstream machinery
//! (GIC, `GroupMap`) as a shared-stream run's, and every `SchemeConfig`
//! field must mean the same thing under both plans.

use edge_cache_groups::clustering::AssignMode;
use edge_cache_groups::core::{ResilienceConfig, SchemeError};
use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A per-row formation of `n` synthetic caches at `threads` threads,
/// with its stage times.
fn form_scaled(
    n: usize,
    variant: KmeansVariant,
    threads: usize,
    seed: u64,
) -> (GroupingOutcome, FormStats, SyntheticRtt) {
    let (formed, stats, net) = form_with(n, threads, seed, |s| s.kmeans_variant(variant));
    (formed.expect("scaled formation"), stats, net)
}

/// [`form_scaled`] with the rest of the `SchemeConfig` open to the caller.
fn form_with(
    n: usize,
    threads: usize,
    seed: u64,
    configure: impl Fn(SchemeConfig) -> SchemeConfig,
) -> (
    Result<GroupingOutcome, SchemeError>,
    FormStats,
    SyntheticRtt,
) {
    let net = SyntheticRttConfig.generate(n + 1, seed);
    let scheme = configure(
        SchemeConfig::sdsl((n / 50).max(2), 1.0)
            .landmarks(6)
            .plset_multiplier(4)
            .kmeans_max_iterations(15)
            .probe(ProbeConfig::noiseless()),
    );
    edge_cache_groups::par::set_max_threads(Some(threads));
    let mut ctx = FormContext::new();
    let plan = FormPlan::new(&net, &scheme).per_row();
    let formed = form(&plan, &mut ctx, &mut StdRng::seed_from_u64(seed));
    edge_cache_groups::par::set_max_threads(None);
    (formed, ctx.stats(), net)
}

#[test]
fn scaled_formation_is_thread_count_invariant_per_variant() {
    for variant in [
        KmeansVariant::Lloyd,
        KmeansVariant::MiniBatch(MiniBatchConfig::default().batch_size(128).iterations(10)),
    ] {
        let (base, _, net) = form_scaled(600, variant, 1, 77);
        let gic_base =
            base.average_interaction_cost(|a, b| net.rtt_ms(a.index() + 1, b.index() + 1));
        for threads in [2, 4] {
            let (wide, _, _) = form_scaled(600, variant, threads, 77);
            assert_eq!(
                wide.assignments(),
                base.assignments(),
                "assignments diverged at {threads} threads"
            );
            let gic =
                wide.average_interaction_cost(|a, b| net.rtt_ms(a.index() + 1, b.index() + 1));
            assert_eq!(gic.to_bits(), gic_base.to_bits());
        }
    }
}

#[test]
fn tree_and_blocked_assignment_agree_over_many_seeds_and_threads() {
    // 30 seeds × forced {1, 2, 8} workers × both nearest-center
    // engines: every combination must produce the identical
    // `GroupingOutcome` (assignments, groups, landmarks, server
    // distances — `PartialEq` covers all fields). This pins the
    // KD-tree's bit-exactness contract end to end through the scaled
    // pipeline, not just at the kernel boundary, and simultaneously
    // re-checks thread-count invariance for both engines. k = 60 sits
    // below the k that picks the tree on its own, so the hidden
    // `force_assign` hook, not k, decides the engine under test.
    for seed in 0..30u64 {
        let n = 240;
        let net = SyntheticRttConfig.generate(n + 1, 31_000 + seed);
        let run = |engine: AssignMode, threads: usize| {
            let scheme = SchemeConfig::sdsl(60, 1.0)
                .landmarks(6)
                .plset_multiplier(4)
                .kmeans_max_iterations(15)
                .force_assign(engine)
                .probe(ProbeConfig::noiseless());
            edge_cache_groups::par::set_max_threads(Some(threads));
            let formed = form(
                &FormPlan::new(&net, &scheme).per_row(),
                &mut FormContext::new(),
                &mut StdRng::seed_from_u64(seed),
            )
            .expect("scaled formation");
            edge_cache_groups::par::set_max_threads(None);
            formed
        };
        let base = run(AssignMode::Blocked, 1);
        for engine in [AssignMode::Blocked, AssignMode::Tree] {
            for threads in [1, 2, 8] {
                let outcome = run(engine, threads);
                assert_eq!(
                    outcome, base,
                    "outcome diverged: seed {seed}, {engine:?}, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn scaled_outcome_feeds_downstream_group_machinery() {
    let (outcome, t, net) = form_scaled(400, KmeansVariant::Lloyd, 2, 5);

    // A real partition: every cache in exactly one group.
    let mut seen: Vec<usize> = outcome
        .groups()
        .iter()
        .flatten()
        .map(|c| c.index())
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..400).collect::<Vec<_>>());

    // Server distances are the oracle's cache-to-origin RTTs.
    for (i, &d) in outcome.server_distances_ms().iter().enumerate() {
        assert_eq!(d.to_bits(), net.rtt_ms(i + 1, 0).to_bits());
    }

    // The grouping drops into the simulator's GroupMap like any paper-
    // path outcome.
    let map = GroupMap::new(400, outcome.groups().to_vec()).expect("valid group map");
    assert_eq!(map.group_count(), outcome.groups().len());

    // Timings are populated and internally consistent.
    assert!(t.landmarks_ms >= 0.0 && t.features_ms >= 0.0 && t.clustering_ms >= 0.0);
    assert!(t.total_ms >= t.clustering_ms);
}

#[test]
fn scaled_formation_honours_the_group_size_cap() {
    // 200 caches in 4 groups: uncapped K-means leaves them uneven (one
    // group above 100 at this seed); a cap of 50 leaves no slack at all.
    for threads in [1, 2, 8] {
        let (formed, _, _) = form_with(200, threads, 7, |s| s.max_group_size(50));
        let sizes: Vec<usize> = formed
            .expect("capped formation")
            .groups()
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(sizes, vec![50; 4], "{threads} threads");
    }
    let (uncapped, _, _) = form_with(200, 1, 7, |s| s);
    let uncapped = uncapped.expect("uncapped formation");
    assert!(uncapped.groups().iter().any(|g| g.len() > 50));
    let (too_tight, _, _) = form_with(200, 1, 7, |s| s.max_group_size(49));
    assert_eq!(
        too_tight.unwrap_err(),
        SchemeError::CapTooTight {
            groups: 4,
            max_group_size: 49,
            caches: 200
        }
    );
}

#[test]
fn scaled_formation_is_resilient_under_loss_at_any_thread_count() {
    // 40 % probe loss: a measurement of 3 probes times out 6.4 % of the
    // time. With resilience those are retried on the per-row streams
    // (and what still fails is masked), identically at any worker
    // count; without it they land in the features as timeout sentinels
    // and the run reports nothing.
    let lossy = ProbeConfig::default().loss_rate(0.4);
    let resilient = |s: SchemeConfig| s.probe(lossy).resilience(ResilienceConfig::default());
    let (base, _, _) = form_with(600, 1, 77, resilient);
    let base = base.expect("resilient formation");
    let health = base.health().expect("resilient run reports health");
    assert!(health.probe_retries > 0, "{health}");
    assert!(health.backoff_ms >= health.probe_retries * 50);
    assert_eq!(base.points().len(), 600);
    for threads in [2, 8] {
        let (wide, _, _) = form_with(600, threads, 77, resilient);
        let wide = wide.expect("resilient formation");
        assert_eq!(wide, base, "outcome diverged at {threads} threads");
    }
    let (plain, _, _) = form_with(600, 2, 77, |s| s.probe(lossy));
    let plain = plain.expect("plain formation");
    assert!(plain.health().is_none());
    let timeout = lossy.timeout();
    assert!(plain.points().as_flat().contains(&timeout));
    assert!(!base.points().as_flat().contains(&timeout));
}

#[test]
fn matrix_formation_honours_the_kmeans_variant() {
    let mut rng = StdRng::seed_from_u64(3);
    let topo = TransitStubConfig::for_caches(120).generate(&mut rng);
    let network =
        EdgeNetwork::place(&topo, 120, OriginPlacement::TransitNode, &mut rng).expect("placement");
    let scheme = SchemeConfig::sl(6)
        .landmarks(6)
        .plset_multiplier(2)
        .kmeans_max_iterations(15);
    let form = |scheme: SchemeConfig| {
        edge_cache_groups::core::form(
            &FormPlan::new(network.rtt_matrix(), &scheme),
            &mut FormContext::new(),
            &mut StdRng::seed_from_u64(11),
        )
        .expect("formation")
    };
    let lloyd = form(scheme.clone());
    assert!(lloyd.kmeans_iterations() <= 15);
    // Mini-batch reports its own schedule, which Lloyd's cap rules out.
    let minibatch = form(scheme.kmeans_variant(KmeansVariant::MiniBatch(
        MiniBatchConfig::default().batch_size(32).iterations(40),
    )));
    assert_eq!(minibatch.kmeans_iterations(), 40);
    assert_eq!(minibatch.landmarks(), lloyd.landmarks());
    assert_eq!(minibatch.points(), lloyd.points());
}
