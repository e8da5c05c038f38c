//! Property test: `GroupMaintainer` never loses track of a cache.
//!
//! Any interleaving of admissions, retirements, and readmissions must
//! keep the maintainer's three views — `group_of`, `groups()`, and
//! `active_caches()` / `retired()` — mutually consistent: every cache
//! id is either in exactly one group or on the retired list, never
//! both, never neither.

use ecg_coords::ProbeConfig;
use ecg_core::{form, FormContext, FormPlan, GroupMaintainer, MaintenanceError, SchemeConfig};
use ecg_topology::{CacheId, EdgeNetwork, RttMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random metric-ish edge network built from random 2-D positions.
fn network(caches: usize, seed: u64) -> EdgeNetwork {
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
}

/// Checks every cross-view invariant of the maintainer.
fn assert_consistent(m: &GroupMaintainer) {
    let n = m.cache_count();
    let mut seen = vec![0usize; n];
    for (g, members) in m.groups().iter().enumerate() {
        for &c in members {
            prop_assert!(c.index() < n, "member {c} out of id space");
            seen[c.index()] += 1;
            prop_assert_eq!(
                m.group_of(c),
                Some(g),
                "group_of disagrees with groups() for {}",
                c
            );
        }
    }
    for (i, &count) in seen.iter().enumerate() {
        prop_assert!(count <= 1, "cache {i} appears in {count} groups");
        let retired = m.retired().contains(&CacheId(i));
        // Exactly one of: in a group, or on the retired list.
        prop_assert!(
            (count == 1) ^ retired,
            "cache {i} is orphaned (in {count} groups, retired={retired})"
        );
        prop_assert_eq!(m.group_of(CacheId(i)).is_some(), count == 1);
    }
    let members_total: usize = m.groups().iter().map(Vec::len).sum();
    prop_assert_eq!(m.active_caches(), members_total);
    prop_assert_eq!(m.active_caches() + m.retired().len(), n);
    prop_assert!(m.groups().iter().any(|g| !g.is_empty()), "all groups empty");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn maintenance_interleavings_never_orphan_a_cache(
        caches in 6usize..20,
        k in 2usize..5,
        net_seed in any::<u64>(),
        op_seed in any::<u64>(),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..60),
    ) {
        let mut network = network(caches, net_seed);
        let k = k.min(caches / 2);
        let mut rng = StdRng::seed_from_u64(op_seed);
        let scheme = SchemeConfig::sl(k).landmarks(4).plset_multiplier(2);
        let plan = FormPlan::new(network.rtt_matrix(), &scheme);
        let outcome = form(&plan, &mut FormContext::new(), &mut rng).unwrap();
        let mut m = GroupMaintainer::new(&network, outcome, ProbeConfig::default());
        assert_consistent(&m);

        for (kind, pick) in ops {
            let n = m.cache_count();
            let cache = CacheId(pick as usize % n);
            match kind % 4 {
                // Retire an arbitrary cache; refusals (unknown ids,
                // would-empty-group) must leave the maintainer intact.
                0 | 1 => match m.retire(cache) {
                    Ok(_)
                    | Err(MaintenanceError::UnknownCache(_))
                    | Err(MaintenanceError::WouldEmptyGroup { .. }) => {}
                    Err(e) => prop_assert!(false, "unexpected retire error {e}"),
                },
                // Readmit an arbitrary cache (usually a retired one).
                2 => match m.readmit(&network, cache, &mut rng, None) {
                    Ok(_) | Err(MaintenanceError::AlreadyActive(_)) => {}
                    Err(e) => prop_assert!(false, "unexpected readmit error {e}"),
                },
                // Admit a brand-new cache appended to the network.
                _ => {
                    let rtts: Vec<f64> =
                        (0..n).map(|_| rng.gen_range(1.0..50.0)).collect();
                    let origin = rng.gen_range(1.0..50.0);
                    network = network.with_added_cache(origin, &rtts);
                    m.admit(&network, &mut rng, None).unwrap();
                }
            }
            assert_consistent(&m);
        }

        // The drift ratio stays well-defined whatever happened above.
        let drift = m.drift(&network).unwrap();
        prop_assert!(drift.is_finite() || drift == f64::INFINITY);
    }
}
