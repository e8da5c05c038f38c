//! CDN planning: how many groups, and which scheme?
//!
//! The motivating question a CDN operator actually faces: given a fleet
//! of edge caches and a dynamic-content origin, sweep the number of
//! cooperative groups `K` and compare the SL and SDSL schemes on
//! end-to-end client latency. Reproduces the shape of the paper's
//! Figure 9 at a planner-friendly scale and prints a recommendation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cdn_planner
//! ```

use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let caches = 120;
    let mut rng = StdRng::seed_from_u64(2026);

    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)?;
    let workload = SportingEventConfig::default()
        .caches(caches)
        .documents(1_500)
        .duration_ms(180_000.0)
        .generate(&mut rng);
    let trace = workload.merged_trace();
    let sim_config = SimConfig::default()
        .cache_capacity_bytes(512 * 1024)
        .warmup_ms(30_000.0);

    println!(
        "planning for {caches} caches, {} requests",
        workload.requests.len()
    );

    println!(
        "\n{:>4} {:>14} {:>14} {:>12}",
        "K", "SL (ms)", "SDSL (ms)", "SDSL gain"
    );

    let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace).config(sim_config);
    let mut best: Option<(usize, &str, f64)> = None;
    for k in [4, 8, 12, 16, 24, 32] {
        let mut latencies = [0.0f64; 2];
        for (slot, scheme) in [SchemeConfig::sl(k), SchemeConfig::sdsl(k, 1.0)]
            .into_iter()
            .enumerate()
        {
            // Average over a few formation seeds: K-means is randomized.
            let mut sum = 0.0;
            let seeds = 3;
            for s in 0..seeds {
                let mut form_rng = StdRng::seed_from_u64(1_000 + s);
                let outcome = form(
                    &FormPlan::new(network.rtt_matrix(), &scheme),
                    &mut FormContext::new(),
                    &mut form_rng,
                )?;
                let groups = GroupMap::new(caches, outcome.groups().to_vec())?;
                let report = simulate(&plan, &groups, &mut RunContext::pooled())?;
                sum += report.average_latency_ms();
            }
            latencies[slot] = sum / seeds as f64;
        }
        let gain = 100.0 * (latencies[0] - latencies[1]) / latencies[0];
        println!(
            "{:>4} {:>11.2} ms {:>11.2} ms {:>11.1}%",
            k, latencies[0], latencies[1], gain
        );
        for (name, latency) in [("SL", latencies[0]), ("SDSL", latencies[1])] {
            match best {
                Some((_, _, incumbent)) if latency >= incumbent => {}
                _ => best = Some((k, name, latency)),
            }
        }
    }

    let (k, scheme, latency) = best.expect("at least one configuration ran");
    println!("\nrecommendation: {scheme} with K = {k} (≈ {latency:.2} ms average latency)");
    Ok(())
}
