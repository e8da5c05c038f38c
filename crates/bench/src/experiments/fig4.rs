//! Figure 4: effect of landmark selection on clustering accuracy,
//! varying network size.
//!
//! Networks of 100–500 caches, K = 10% of N, 25 landmarks. Three
//! landmark selectors: the SL greedy technique, random selection, and
//! the adversarial min-dist selection. Reports average group
//! interaction cost (ms).
//!
//! Paper's finding: greedy (SL) is best everywhere — 8–26% better than
//! random and 21–46% better than min-dist.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig4 [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_core::{form, FormContext, FormPlan, LandmarkSelector, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let sizes = [100usize, 200, 300, 400, 500];
    let selectors = [
        LandmarkSelector::GreedyMaxMin,
        LandmarkSelector::Random,
        LandmarkSelector::MinDist,
    ];
    let seeds: Vec<u64> = (0..10).collect();

    run.line(
        "Figure 4: avg group interaction cost (ms) vs network size\n\
         (K = 10% of N, L = 25, M = 4)\n",
    );
    let mut table = Table::new(["caches", "greedy_SL", "random", "min_dist"]);
    for &n in &sizes {
        let network = Scenario::network_only(n, 7_000 + n as u64);
        let k = n / 10;
        let mut cols = Vec::new();
        for &selector in &selectors {
            let scheme = SchemeConfig::sl(k).selector(selector);
            let gics: Vec<f64> = seeds
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let outcome = form(
                        &FormPlan::new(network.rtt_matrix(), &scheme),
                        &mut FormContext::new().observe(run.obs()),
                        &mut rng,
                    )
                    .expect("group formation");
                    interaction_cost_ms(&outcome, &network)
                })
                .collect();
            cols.push(mean(&gics));
        }
        table.row([n.to_string(), f2(cols[0]), f2(cols[1]), f2(cols[2])]);
    }
    table.print(run);
    run.line("\nexpected ordering at every size: greedy_SL < random < min_dist.");
}
