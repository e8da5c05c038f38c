//! Ablation: the PLSet multiplier M.
//!
//! The SL scheme draws `M·(L-1)` potential landmarks and probes only
//! within that set, trading measurement overhead for landmark quality.
//! Sweeps M, reporting clustering accuracy *and* the probes spent —
//! the overhead/accuracy trade the paper's greedy design is about.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_m [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 300;
    let k = 30;
    let ms = [1usize, 2, 4, 8, 12];
    let seeds: Vec<u64> = (0..8).collect();

    run.line(format_args!(
        "Ablation: PLSet multiplier M ({caches} caches, K = {k}, L = 25)\n"
    ));
    let network = Scenario::network_only(caches, 1_717);
    let mut table = Table::new(["M", "gic_ms", "probes", "min_dist_ms"]);
    for &m in &ms {
        let coord = GfCoordinator::new(SchemeConfig::sl(k).plset_multiplier(m));
        let (mut gic, mut probes, mut mindist) = (Vec::new(), Vec::new(), Vec::new());
        for &seed in &seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = coord
                .form_groups_observed(&network, &mut rng, run.obs())
                .expect("group formation");
            gic.push(interaction_cost_ms(&outcome, &network));
            probes.push(outcome.probes_sent() as f64);
            mindist.push(outcome.landmarks().min_dist_ms.unwrap_or(0.0));
        }
        table.row([
            m.to_string(),
            f2(mean(&gic)),
            format!("{:.0}", mean(&probes)),
            f2(mean(&mindist)),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: landmark dispersal (min_dist) and accuracy improve \
         with M while probing overhead grows quadratically; gains flatten \
         quickly — the paper's small-M default is the sweet spot.",
    );
}
