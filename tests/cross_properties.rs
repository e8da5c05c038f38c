//! Cross-crate property tests: any formed grouping must be consumable
//! by the rest of the stack.

use edge_cache_groups::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_scheme_output_feeds_groupmap_and_simulator(
        seed in any::<u64>(),
        caches in 10usize..50,
        k_frac in 0.05f64..0.9,
        theta in 0.0f64..3.0,
        sdsl in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let network = EdgeNetwork::place(
            &topo, caches, OriginPlacement::TransitNode, &mut rng,
        ).unwrap();
        let k = ((caches as f64 * k_frac).ceil() as usize).clamp(1, caches);
        let scheme = if sdsl {
            SchemeConfig::sdsl(k, theta)
        } else {
            SchemeConfig::sl(k)
        };
        let scheme = scheme.landmarks(6).plset_multiplier(2);
        let plan = FormPlan::new(network.rtt_matrix(), &scheme);
        let outcome = form(&plan, &mut FormContext::new(), &mut rng).unwrap();

        // The outcome is a valid GroupMap partition...
        let map = GroupMap::new(caches, outcome.groups().to_vec()).unwrap();
        prop_assert_eq!(map.group_count(), k);

        // ...and the simulator accepts it with any consistent workload.
        let workload = SportingEventConfig::default()
            .caches(caches)
            .documents(200)
            .duration_ms(5_000.0)
            .flash_crowd(false)
            .generate(&mut rng);
        let trace = workload.merged_trace();
        let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace);
        let report = simulate(&plan, &map, &mut RunContext::pooled()).unwrap();
        prop_assert_eq!(
            report.metrics.total_requests(),
            workload.requests.len() as u64
        );
        let latency = report.average_latency_ms();
        prop_assert!(latency.is_finite() && latency >= 0.0);
    }

    #[test]
    fn group_assignments_respect_server_distance_ordering_under_extreme_theta(
        seed in any::<u64>(),
    ) {
        // With θ very large, (nearly) all initial centers sit close to
        // the origin; the nearest cache's group should on average be no
        // larger than the farthest cache's.
        let caches = 40;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let network = EdgeNetwork::place(
            &topo, caches, OriginPlacement::TransitNode, &mut rng,
        ).unwrap();
        let scheme = SchemeConfig::sdsl(8, 6.0).landmarks(6).plset_multiplier(2);
        let mut near_total = 0.0;
        let mut far_total = 0.0;
        for s in 0..10u64 {
            let mut form_rng = StdRng::seed_from_u64(seed.wrapping_add(s));
            let plan = FormPlan::new(network.rtt_matrix(), &scheme);
            let outcome = form(&plan, &mut FormContext::new(), &mut form_rng).unwrap();
            let near = network.caches_nearest_origin(5);
            let far = network.caches_farthest_origin(5);
            let mean_size = |set: &[CacheId]| -> f64 {
                set.iter()
                    .map(|&c| outcome.groups()[outcome.group_of(c)].len() as f64)
                    .sum::<f64>() / set.len() as f64
            };
            near_total += mean_size(&near);
            far_total += mean_size(&far);
        }
        // Allow slack: topology randomness can compress the gradient.
        prop_assert!(
            near_total <= far_total * 1.35 + 1.0,
            "near {near_total} vs far {far_total}"
        );
    }

    #[test]
    fn maintainer_keeps_partitions_valid_under_churn(
        seed in any::<u64>(),
    ) {
        use edge_cache_groups::core::GroupMaintainer;
        use edge_cache_groups::coords::ProbeConfig;
        use rand::Rng;

        let caches = 25;
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let mut network = EdgeNetwork::place(
            &topo, caches, OriginPlacement::TransitNode, &mut rng,
        ).unwrap();
        let scheme = SchemeConfig::sl(5).landmarks(5).plset_multiplier(2);
        let plan = FormPlan::new(network.rtt_matrix(), &scheme);
        let outcome = form(&plan, &mut FormContext::new(), &mut rng).unwrap();
        let mut maintainer =
            GroupMaintainer::new(&network, outcome, ProbeConfig::default());

        // Random churn: joins and retire attempts interleaved.
        for _ in 0..12 {
            if rng.gen_bool(0.6) {
                let n = network.cache_count();
                let rtts: Vec<f64> =
                    (0..n).map(|_| rng.gen_range(1.0..150.0)).collect();
                network = network.with_added_cache(rng.gen_range(5.0..150.0), &rtts);
                maintainer.admit(&network, &mut rng, None).unwrap();
            } else {
                let candidates: Vec<CacheId> = (0..network.cache_count())
                    .map(CacheId)
                    .filter(|&c| maintainer.group_of(c).is_some())
                    .collect();
                let victim = candidates[rng.gen_range(0..candidates.len())];
                // May legitimately fail (would empty a group); both fine.
                let _ = maintainer.retire(victim);
            }
            // Invariants: groups are disjoint, non-empty, and cover
            // exactly the active caches.
            let mut seen = std::collections::HashSet::new();
            for group in maintainer.groups() {
                prop_assert!(!group.is_empty());
                for &c in group {
                    prop_assert!(seen.insert(c), "cache {c} in two groups");
                    prop_assert_eq!(
                        maintainer.group_of(c).is_some(),
                        true,
                        "member without assignment"
                    );
                }
            }
            prop_assert_eq!(seen.len(), maintainer.active_caches());
            // Drift is well defined.
            let drift = maintainer.drift(&network).unwrap();
            prop_assert!(drift.is_finite() && drift >= 0.0);
        }
    }
}
