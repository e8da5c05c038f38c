//! Figure 5: effect of landmark selection on clustering accuracy,
//! varying the number of groups.
//!
//! A 500-cache network; K swept from 10 to 100; the same three landmark
//! selectors as Figure 4. Reports average group interaction cost (ms).
//!
//! Paper's finding: the greedy SL selector yields the best clustering
//! accuracy at every K.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig5 [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, LandmarkSelector, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 500;
    let ks = [10usize, 25, 50, 75, 100];
    let selectors = [
        LandmarkSelector::GreedyMaxMin,
        LandmarkSelector::Random,
        LandmarkSelector::MinDist,
    ];
    let seeds: Vec<u64> = (0..10).collect();

    run.line(format_args!(
        "Figure 5: avg group interaction cost (ms) vs number of groups\n\
         ({caches} caches, L = 25, M = 4)\n"
    ));
    let network = Scenario::network_only(caches, 8_500);
    let mut table = Table::new(["K", "greedy_SL", "random", "min_dist"]);
    for &k in &ks {
        let mut cols = Vec::new();
        for &selector in &selectors {
            let coord = GfCoordinator::new(SchemeConfig::sl(k).selector(selector));
            let gics: Vec<f64> = seeds
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let outcome = coord
                        .form_groups_observed(&network, &mut rng, run.obs())
                        .expect("group formation");
                    interaction_cost_ms(&outcome, &network)
                })
                .collect();
            cols.push(mean(&gics));
        }
        table.row([k.to_string(), f2(cols[0]), f2(cols[1]), f2(cols[2])]);
    }
    table.print(run);
    run.line("\nexpected: greedy_SL lowest at every K; costs fall as K grows.");
}
