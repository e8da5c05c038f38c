//! Landmark quality study: how much does landmark selection matter?
//!
//! Compares the SL scheme's greedy max–min landmark selection against
//! random and (adversarial) min-dist selection across probe-noise
//! levels, reporting the clustering accuracy each achieves — the paper's
//! §5.1 study, plus a measurement-noise dimension the paper holds fixed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example landmark_quality
//! ```

use edge_cache_groups::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let caches = 150;
    let k = 15;
    let seeds: Vec<u64> = (0..5).collect();

    let mut rng = StdRng::seed_from_u64(99);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)?;

    println!(
        "{caches} caches, K = {k}, average group interaction cost (ms) over {} seeds",
        seeds.len()
    );
    println!(
        "\n{:>12} {:>12} {:>12} {:>12}",
        "probe noise", "greedy (SL)", "random", "min-dist"
    );

    for sigma in [0.0, 0.05, 0.15, 0.30] {
        let mut row = Vec::new();
        for selector in [
            LandmarkSelector::GreedyMaxMin,
            LandmarkSelector::Random,
            LandmarkSelector::MinDist,
        ] {
            let scheme = SchemeConfig::sl(k).landmarks(20).selector(selector).probe(
                ProbeConfig::default()
                    .noise_sigma(sigma)
                    .probes_per_measurement(3),
            );
            let mut total = 0.0;
            for &seed in &seeds {
                let mut run_rng = StdRng::seed_from_u64(seed);
                let outcome = form(
                    &FormPlan::new(network.rtt_matrix(), &scheme),
                    &mut FormContext::new(),
                    &mut run_rng,
                )?;
                total += outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
            }
            row.push(total / seeds.len() as f64);
        }
        println!(
            "{:>11.0}% {:>12.2} {:>12.2} {:>12.2}",
            sigma * 100.0,
            row[0],
            row[1],
            row[2]
        );
    }

    println!(
        "\nlower is better; the greedy selector should dominate min-dist and \
         edge out random at every noise level."
    );
    Ok(())
}
