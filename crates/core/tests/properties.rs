//! Property-based tests for the group formation schemes.

use ecg_coords::{GnpConfig, ProbeConfig, VivaldiConfig};
use ecg_core::{
    GfCoordinator, GroupInit, LandmarkSelector, Representation, ResilienceConfig, SchemeConfig,
};
use ecg_topology::{EdgeNetwork, RttMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random metric-ish edge network built from random 2-D positions, so
/// RTTs satisfy the triangle inequality.
fn arb_edge_network() -> impl Strategy<Value = EdgeNetwork> {
    (4usize..30, any::<u64>()).prop_map(|(caches, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..=caches)
            .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let m = RttMatrix::from_fn(caches + 1, |i, j| {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            (dx * dx + dy * dy).sqrt().max(0.1)
        });
        EdgeNetwork::from_rtt_matrix(m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sl_output_is_always_a_partition(
        net in arb_edge_network(),
        k_frac in 0.05f64..1.0,
        seed in any::<u64>(),
    ) {
        let n = net.cache_count();
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        let coord = GfCoordinator::new(
            SchemeConfig::sl(k).landmarks(5).plset_multiplier(2),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = coord.form_groups(&net, &mut rng).unwrap();
        prop_assert_eq!(outcome.groups().len(), k);
        let mut all: Vec<usize> = outcome
            .groups()
            .iter()
            .flatten()
            .map(|c| c.index())
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert!(outcome.groups().iter().all(|g| !g.is_empty()));
    }

    #[test]
    fn sdsl_output_is_always_a_partition(
        net in arb_edge_network(),
        theta in 0.0f64..4.0,
        seed in any::<u64>(),
    ) {
        let n = net.cache_count();
        let k = (n / 3).max(1);
        let coord = GfCoordinator::new(
            SchemeConfig::sdsl(k, theta).landmarks(5).plset_multiplier(2),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = coord.form_groups(&net, &mut rng).unwrap();
        let total: usize = outcome.groups().iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
        prop_assert_eq!(outcome.groups().len(), k);
    }

    #[test]
    fn noiseless_server_distances_are_exact(
        net in arb_edge_network(),
        seed in any::<u64>(),
    ) {
        let coord = GfCoordinator::new(
            SchemeConfig::sl(2)
                .landmarks(4)
                .plset_multiplier(2)
                .probe(ProbeConfig::noiseless()),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = coord.form_groups(&net, &mut rng).unwrap();
        for (i, &d) in outcome.server_distances_ms().iter().enumerate() {
            prop_assert_eq!(d, net.cache_to_origin(ecg_topology::CacheId(i)));
        }
    }

    #[test]
    fn all_selectors_produce_valid_landmark_sets(
        net in arb_edge_network(),
        seed in any::<u64>(),
    ) {
        for selector in [
            LandmarkSelector::GreedyMaxMin,
            LandmarkSelector::Random,
            LandmarkSelector::MinDist,
        ] {
            let coord = GfCoordinator::new(
                SchemeConfig::sl(2)
                    .landmarks(4)
                    .plset_multiplier(3)
                    .selector(selector),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = coord.form_groups(&net, &mut rng).unwrap();
            let lms = &outcome.landmarks().landmarks;
            prop_assert_eq!(lms.len(), 4);
            prop_assert_eq!(lms[0], 0, "origin must lead the landmark set");
            let mut sorted = lms.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), 4, "landmarks must be distinct");
            prop_assert!(sorted.iter().all(|&i| i <= net.cache_count()));
        }
    }

    #[test]
    fn determinism_per_seed(net in arb_edge_network(), seed in any::<u64>()) {
        let coord = GfCoordinator::new(
            SchemeConfig::sdsl(3.min(net.cache_count()), 1.0)
                .landmarks(4)
                .plset_multiplier(2),
        );
        let run = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            coord.form_groups(&net, &mut rng).unwrap()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn resilience_changes_nothing_on_a_fault_free_network(
        net in arb_edge_network(),
        selector in 0usize..3,
        representation in 0usize..3,
        init in 0usize..3,
        capped in 0usize..2,
        seed in any::<u64>(),
    ) {
        // Noisy (default) but loss-free probing, no faults: across the
        // whole configuration space a retry policy must leave every
        // RNG draw, and so every output, where it was.
        let n = net.cache_count();
        let k = (n / 3).max(1);
        let mut scheme = SchemeConfig::sl(k)
            .landmarks(4)
            .plset_multiplier(2)
            .selector([
                LandmarkSelector::GreedyMaxMin,
                LandmarkSelector::MinDist,
                LandmarkSelector::Random,
            ][selector])
            .representation([
                Representation::FeatureVectors,
                Representation::Gnp(GnpConfig::default().dimensions(2).restarts(1)),
                Representation::Vivaldi(VivaldiConfig::default().dimensions(2).rounds(30)),
            ][representation])
            .init([
                GroupInit::Uniform,
                GroupInit::ServerDistance { theta: 1.5 },
                GroupInit::KmeansPlusPlus,
            ][init]);
        if capped == 1 {
            scheme = scheme.max_group_size(n.div_ceil(k) + 1);
        }
        let run = |scheme: SchemeConfig| {
            GfCoordinator::new(scheme)
                .form_groups(&net, &mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        let plain = run(scheme.clone());
        let resilient = run(scheme.resilience(ResilienceConfig::default()));
        prop_assert_eq!(resilient.groups(), plain.groups());
        prop_assert_eq!(resilient.assignments(), plain.assignments());
        prop_assert_eq!(resilient.landmarks(), plain.landmarks());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(resilient.points().as_flat()),
            bits(plain.points().as_flat())
        );
        prop_assert_eq!(
            bits(resilient.server_distances_ms()),
            bits(plain.server_distances_ms())
        );
        prop_assert_eq!(resilient.probes_sent(), plain.probes_sent());
        prop_assert_eq!(resilient.kmeans_iterations(), plain.kmeans_iterations());
        prop_assert!(plain.health().is_none());
        let health = resilient.health().expect("resilient run reports health");
        prop_assert!(health.is_healthy(), "{}", health);
        prop_assert_eq!(health.probe_retries, 0);
    }
}
