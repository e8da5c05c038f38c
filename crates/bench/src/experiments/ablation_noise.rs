//! Ablation: probe measurement noise.
//!
//! The paper probes each landmark "multiple times and records the
//! average RTT" but never quantifies how measurement error affects
//! clustering accuracy. This sweep varies the per-probe log-normal
//! noise σ and the number of probes averaged per measurement, reporting
//! the SL scheme's average group interaction cost.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_noise [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_coords::ProbeConfig;
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 300;
    let k = 30;
    let sigmas = [0.0, 0.05, 0.1, 0.2, 0.4];
    let probe_counts = [1usize, 3, 10];
    let seeds: Vec<u64> = (0..8).collect();

    run.line(format_args!(
        "Ablation: probe noise vs clustering accuracy\n\
         ({caches} caches, K = {k}, SL scheme; cells = avg GIC in ms)\n"
    ));
    let network = Scenario::network_only(caches, 4_242);
    let mut table = Table::new(["sigma", "1_probe", "3_probes", "10_probes"]);
    for &sigma in &sigmas {
        let mut cells = vec![format!("{:.0}%", sigma * 100.0)];
        for &probes in &probe_counts {
            let scheme = SchemeConfig::sl(k).probe(
                ProbeConfig::default()
                    .noise_sigma(sigma)
                    .probes_per_measurement(probes),
            );
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
            cells.push(f2(mean(&gics)));
        }
        table.row(cells);
    }
    table.print(run);
    run.line(
        "\nexpected: accuracy degrades as σ grows; averaging more probes \
         per measurement recovers most of the loss.",
    );
}
