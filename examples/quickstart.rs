//! Quickstart: form cooperative cache groups and measure what they buy.
//!
//! Builds an 80-cache edge network on a synthetic transit-stub topology,
//! partitions it with the SDSL scheme, and replays a sporting-event
//! workload through the simulator — comparing against no cooperation at
//! all.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let caches = 80;

    // 1. An edge network: origin + caches placed on a transit-stub
    //    topology (the paper's GT-ITM setting).
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)?;
    println!(
        "network: {} caches, mean RTT to origin {:.1} ms",
        network.cache_count(),
        network.mean_origin_rtt()
    );

    // 2. Form 8 cooperative groups with the SDSL scheme (θ = 1).
    let outcome = GfCoordinator::new(SchemeConfig::sdsl(8, 1.0)).form_groups(&network, &mut rng)?;
    let gic = outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
    println!(
        "sdsl: {} groups, sizes {:?}, avg group interaction cost {:.1} ms, {} probes",
        outcome.groups().len(),
        outcome.groups().iter().map(Vec::len).collect::<Vec<_>>(),
        gic,
        outcome.probes_sent(),
    );

    // 3. Evaluate in simulation against the no-cooperation baseline.
    let workload = SportingEventConfig::default()
        .caches(caches)
        .duration_ms(120_000.0)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    // The plan says what is simulated; the context says how (here: on
    // the worker pool, unobserved). The grouping is the only variable.
    let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace);
    let mut ctx = RunContext::pooled();

    let formed = GroupMap::new(caches, outcome.groups().to_vec())?;
    let grouped = simulate(&plan, &formed, &mut ctx)?;
    let isolated = simulate(&plan, &GroupMap::singletons(caches), &mut ctx)?;

    println!("\n{:<22} {:>12} {:>12}", "", "cooperative", "isolated");
    println!(
        "{:<22} {:>9.2} ms {:>9.2} ms",
        "avg client latency",
        grouped.average_latency_ms(),
        isolated.average_latency_ms()
    );
    println!(
        "{:<22} {:>11.1}% {:>11.1}%",
        "group hit rate",
        100.0 * grouped.metrics.group_hit_rate().unwrap_or(0.0),
        100.0 * isolated.metrics.group_hit_rate().unwrap_or(0.0)
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "origin fetches", grouped.origin_fetches, isolated.origin_fetches
    );
    Ok(())
}
