//! Figure 3: average client latency vs. average cache group size.
//!
//! A 500-cache network partitioned by the SL scheme into groups of
//! increasing average size (K = N / size). Reports the network-wide
//! average latency plus the 50 caches nearest to and farthest from the
//! origin. The paper's findings to reproduce:
//!
//! 1. every curve is U-shaped (cooperation first helps, then group
//!    interaction costs dominate), and
//! 2. the three curves bottom out at *different* group sizes — the far
//!    caches want bigger groups than the near ones — which is the
//!    motivation for SDSL.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig3 [--metrics-out <path>]`.

use crate::{f2, mean, Run, Scenario, Table};
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 500;
    let duration_ms = 120_000.0;
    let sizes = [2usize, 5, 10, 25, 50, 100, 250, 500];
    let form_seeds = [11u64, 12];

    run.line(format_args!(
        "Figure 3: avg latency vs avg group size ({caches} caches, SL scheme)\n"
    ));
    let scenario = Scenario::build(caches, duration_ms, 42);
    let near = scenario.network.caches_nearest_origin(50);
    let far = scenario.network.caches_farthest_origin(50);
    let config = scenario.sim_config(duration_ms);

    let mut table = Table::new(["group_size", "K", "all_ms", "near50_ms", "far50_ms"]);
    let scenario_ref = &scenario;
    let (near_ref, far_ref) = (&near, &far);
    let rows = run.cells(sizes.to_vec(), |size, obs| {
        let k = (caches / size).max(1);
        let (mut all, mut near_l, mut far_l) = (Vec::new(), Vec::new(), Vec::new());
        for &seed in &form_seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = form(
                &FormPlan::new(scenario_ref.network.rtt_matrix(), &SchemeConfig::sl(k)),
                &mut FormContext::new().observe(obs.as_mut()),
                &mut rng,
            )
            .expect("group formation");
            let report = scenario_ref.simulate_groups(outcome.groups(), config, obs.as_mut());
            all.push(report.average_latency_ms());
            near_l.push(report.metrics.mean_latency_of(near_ref).unwrap_or(0.0));
            far_l.push(report.metrics.mean_latency_of(far_ref).unwrap_or(0.0));
        }
        [
            size.to_string(),
            k.to_string(),
            f2(mean(&all)),
            f2(mean(&near_l)),
            f2(mean(&far_l)),
        ]
    });
    for row in rows {
        table.row(row);
    }
    table.print(run);
    run.line(
        "\nexpected shape: U-shaped curves with minima at different group sizes \
         (near-origin caches prefer smaller groups than far caches).",
    );
}
