//! Ablation: SDSL's θ sensitivity.
//!
//! θ controls how strongly SDSL biases initial cluster centers towards
//! the origin (`Pr ∝ 1/dist^θ`). θ = 0 degenerates to SL. Sweeps θ and
//! reports the simulated average latency plus the mean size of the
//! groups containing the 50 nearest / 50 farthest caches — showing the
//! compact-near / spread-far structure emerge as θ grows.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_theta [--metrics-out <path>]`.

use crate::{f2, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 300;
    let duration_ms = 120_000.0;
    let k = 30;
    let thetas = [0.0, 0.5, 1.0, 2.0, 4.0];
    let form_seeds = [5u64, 6, 7];

    run.line(format_args!(
        "Ablation: SDSL θ sweep ({caches} caches, K = {k})\n"
    ));
    let scenario = Scenario::build(caches, duration_ms, 333);
    let config = scenario.sim_config(duration_ms);
    let near = scenario.network.caches_nearest_origin(50);
    let far = scenario.network.caches_farthest_origin(50);

    let mut table = Table::new([
        "theta",
        "latency_ms",
        "near50_group_size",
        "far50_group_size",
    ]);
    for &theta in &thetas {
        let coord = GfCoordinator::new(SchemeConfig::sdsl(k, theta));
        let (mut lat, mut near_sz, mut far_sz) = (Vec::new(), Vec::new(), Vec::new());
        for &seed in &form_seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = coord
                .form_groups_observed(&scenario.network, &mut rng, run.obs())
                .expect("group formation");
            let report = scenario.simulate_groups(outcome.groups(), config, run.obs());
            lat.push(report.average_latency_ms());
            let avg_size_of = |subset: &[ecg_topology::CacheId]| -> f64 {
                subset
                    .iter()
                    .map(|&c| outcome.groups()[outcome.group_of(c)].len() as f64)
                    .sum::<f64>()
                    / subset.len() as f64
            };
            near_sz.push(avg_size_of(&near));
            far_sz.push(avg_size_of(&far));
        }
        table.row([
            format!("{theta:.1}"),
            f2(mean(&lat)),
            f2(mean(&near_sz)),
            f2(mean(&far_sz)),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: as θ grows, near-origin groups shrink and far groups \
         grow; latency bottoms out at a moderate θ and degrades for \
         extreme bias.",
    );
}
