//! Dynamic network maintenance: joins, departures, drift, re-formation.
//!
//! The paper forms groups once for a static network. Real CDNs churn.
//! This example walks the maintenance lifecycle:
//!
//! 1. form groups with SDSL,
//! 2. admit a wave of new caches incrementally (each probes the
//!    existing landmarks and joins the nearest group),
//! 3. retire a few caches,
//! 4. watch interaction-cost drift accumulate, and
//! 5. trigger a full re-formation once drift crosses the threshold.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dynamic_network
//! ```

use edge_cache_groups::coords::ProbeConfig;
use edge_cache_groups::core::GroupMaintainer;
use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let initial_caches = 60;
    let mut rng = StdRng::seed_from_u64(31);

    // Build the initial deployment and form groups.
    let topo = TransitStubConfig::for_caches(initial_caches + 20).generate(&mut rng);
    let mut network = EdgeNetwork::place(
        &topo,
        initial_caches,
        OriginPlacement::TransitNode,
        &mut rng,
    )?;
    let config = SchemeConfig::sdsl(8, 1.0);
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &config),
        &mut FormContext::new(),
        &mut rng,
    )?;
    println!(
        "formed {} groups over {} caches (sizes {:?})",
        outcome.groups().len(),
        initial_caches,
        outcome.groups().iter().map(Vec::len).collect::<Vec<_>>()
    );
    let mut maintainer = GroupMaintainer::new(&network, outcome, ProbeConfig::default());

    // A wave of expansion: 10 new caches join one by one. Each new
    // cache appears "near" a random existing cache (same stub domain in
    // spirit): close to its anchor, anchored RTTs elsewhere.
    for wave in 0..10 {
        let n = network.cache_count();
        let anchor = CacheId(rng.gen_range(0..n));
        let rtts: Vec<f64> = (0..n)
            .map(|i| {
                if CacheId(i) == anchor {
                    rng.gen_range(0.5..2.0)
                } else {
                    network.cache_to_cache(anchor, CacheId(i)) + rng.gen_range(0.5..2.0)
                }
            })
            .collect();
        let to_origin = network.cache_to_origin(anchor) + rng.gen_range(0.5..2.0);
        network = network.with_added_cache(to_origin, &rtts);
        let group = maintainer.admit(&network, &mut rng, None)?;
        let drift = maintainer.drift(&network)?;
        println!(
            "join {:>2}: Ec{} near {} -> group {} (drift {:.3})",
            wave + 1,
            n,
            anchor,
            group,
            drift
        );
    }

    // A few departures.
    for _ in 0..3 {
        let candidates: Vec<CacheId> = (0..network.cache_count())
            .map(CacheId)
            .filter(|&c| maintainer.group_of(c).is_some())
            .collect();
        let victim = candidates[rng.gen_range(0..candidates.len())];
        match maintainer.retire(victim) {
            Ok(outcome) if outcome.was_landmark => {
                println!("retired {victim} (was a landmark -- consider re-forming)")
            }
            Ok(_) => println!("retired {victim}"),
            Err(e) => println!("could not retire {victim}: {e}"),
        }
    }

    // Check drift and re-form if the incremental decisions have decayed
    // the grouping too far.
    let drift = maintainer.drift(&network)?;
    let threshold = 1.15;
    println!(
        "\nfinal drift {:.3} (threshold {threshold}); {} active caches, {} retired",
        drift,
        maintainer.active_caches(),
        maintainer.retired().len()
    );
    if maintainer.needs_reformation(&network, threshold)? {
        let plan = FormPlan::new(network.rtt_matrix(), &config);
        let outcome = form(&plan, &mut FormContext::new(), &mut rng)?;
        let refreshed = GroupMaintainer::new(&network, outcome, ProbeConfig::default());
        println!(
            "re-formed: {} groups (sizes {:?}), drift reset to {:.3}",
            refreshed.groups().len(),
            refreshed.groups().iter().map(Vec::len).collect::<Vec<_>>(),
            refreshed.drift(&network)?
        );
    } else {
        println!("incremental maintenance is holding; no re-formation needed");
    }
    Ok(())
}
