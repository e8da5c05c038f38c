//! Figure 9: SL vs. SDSL on client latency, varying the number of
//! groups.
//!
//! A 500-cache network; K swept from 10 to 100; groups formed by SL and
//! by SDSL (θ = 1). Reports the simulated average client latency.
//!
//! Paper's finding: SDSL yields lower latency than SL irrespective of
//! the number of cache groups formed.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig9 [--metrics-out <path>]`.

use crate::{f2, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 500;
    let duration_ms = 120_000.0;
    let ks = [10usize, 25, 50, 75, 100];
    let form_seeds = [21u64, 22];
    let theta = 1.0;

    run.line(format_args!(
        "Figure 9: avg client latency (ms) vs number of groups, SL vs SDSL\n\
         ({caches} caches, θ = {theta})\n"
    ));
    let scenario = Scenario::build(caches, duration_ms, 999);
    let config = scenario.sim_config(duration_ms);

    // One cell per (K, seed, scheme); all run concurrently.
    let mut cells = Vec::new();
    for &k in &ks {
        for &seed in &form_seeds {
            for (slot, scheme) in [SchemeConfig::sl(k), SchemeConfig::sdsl(k, theta)]
                .into_iter()
                .enumerate()
            {
                cells.push((k, seed, slot, scheme));
            }
        }
    }
    let scenario_ref = &scenario;
    let results = run.cells(cells, |(k, seed, slot, scheme), obs| {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = GfCoordinator::new(scheme)
            .form_groups_observed(&scenario_ref.network, &mut rng, obs.as_mut())
            .expect("group formation");
        let report = scenario_ref.simulate_groups(outcome.groups(), config, obs.as_mut());
        (k, slot, report.average_latency_ms())
    });

    let mut table = Table::new(["K", "SL_ms", "SDSL_ms", "SDSL_gain"]);
    for &k in &ks {
        let of = |slot: usize| -> Vec<f64> {
            results
                .iter()
                .filter(|(rk, rslot, _)| *rk == k && *rslot == slot)
                .map(|(_, _, l)| *l)
                .collect()
        };
        let (sl, sdsl) = (mean(&of(0)), mean(&of(1)));
        table.row([
            k.to_string(),
            f2(sl),
            f2(sdsl),
            format!("{:.1}%", 100.0 * (sl - sdsl) / sl),
        ]);
    }
    table.print(run);
    run.line("\nexpected: the SDSL column below the SL column at every K.");
}
