//! Figure 8: SL vs. SDSL on client latency, varying network size.
//!
//! Networks of 100–500 caches; cache groups formed by SL and by SDSL
//! (θ = 1); K set to 10% and to 20% of N. Reports the simulated average
//! client latency.
//!
//! Paper's finding: SDSL beats SL at every size and both K settings —
//! by more than 27% at 500 caches with K = 20%.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig8 [--metrics-out <path>]`.

use crate::{f2, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let sizes = [100usize, 200, 300, 400, 500];
    let duration_ms = 120_000.0;
    let form_seeds = [3u64, 4];
    let theta = 1.0;

    run.line(format_args!(
        "Figure 8: avg client latency (ms) vs network size, SL vs SDSL\n\
         (K = 10% and 20% of N, θ = {theta})\n"
    ));
    let mut table = Table::new([
        "caches", "SL_10%", "SDSL_10%", "gain10", "SL_20%", "SDSL_20%", "gain20",
    ]);
    let rows = run.cells(sizes.to_vec(), |n, obs| {
        let scenario = Scenario::build(n, duration_ms, 500 + n as u64);
        let config = scenario.sim_config(duration_ms);
        let mut cells = vec![n.to_string()];
        for percent in [10usize, 20] {
            let k = (n * percent / 100).max(1);
            let mut latencies = [Vec::new(), Vec::new()];
            for &seed in &form_seeds {
                for (slot, scheme) in [SchemeConfig::sl(k), SchemeConfig::sdsl(k, theta)]
                    .into_iter()
                    .enumerate()
                {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let outcome = GfCoordinator::new(scheme)
                        .form_groups_observed(&scenario.network, &mut rng, obs.as_mut())
                        .expect("group formation");
                    let report = scenario.simulate_groups(outcome.groups(), config, obs.as_mut());
                    latencies[slot].push(report.average_latency_ms());
                }
            }
            let (sl, sdsl) = (mean(&latencies[0]), mean(&latencies[1]));
            cells.push(f2(sl));
            cells.push(f2(sdsl));
            cells.push(format!("{:.1}%", 100.0 * (sl - sdsl) / sl));
        }
        cells
    });
    for row in rows {
        table.row(row);
    }
    table.print(run);
    run.line("\nexpected: SDSL lower than SL at every size and both K settings.");
}
