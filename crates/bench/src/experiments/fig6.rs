//! Figure 6: effect of the number of landmarks on clustering accuracy.
//!
//! A 500-cache network, K = 10 groups; the landmark count swept over
//! {10, 20, 25} (plus 35 to show the saturation the paper describes in
//! prose). Reports average group interaction cost (ms) for the three
//! landmark selectors.
//!
//! Paper's findings: accuracy improves with more landmarks, with only
//! minor gains past 25; the greedy SL selector wins at every landmark
//! count.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig6 [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, LandmarkSelector, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 500;
    let k = 10;
    let landmark_counts = [10usize, 20, 25, 35];
    let selectors = [
        LandmarkSelector::GreedyMaxMin,
        LandmarkSelector::Random,
        LandmarkSelector::MinDist,
    ];
    let seeds: Vec<u64> = (0..10).collect();

    run.line(format_args!(
        "Figure 6: avg group interaction cost (ms) vs number of landmarks\n\
         ({caches} caches, K = {k}, M = 4)\n"
    ));
    let network = Scenario::network_only(caches, 61_000);
    let mut table = Table::new(["landmarks", "greedy_SL", "random", "min_dist"]);
    for &l in &landmark_counts {
        let mut cols = Vec::new();
        for &selector in &selectors {
            let coord = GfCoordinator::new(SchemeConfig::sl(k).landmarks(l).selector(selector));
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
        table.row([l.to_string(), f2(cols[0]), f2(cols[1]), f2(cols[2])]);
    }
    table.print(run);
    run.line(
        "\nexpected: all selectors improve with more landmarks, with little \
         change beyond 25; greedy_SL best at every landmark count.",
    );
}
