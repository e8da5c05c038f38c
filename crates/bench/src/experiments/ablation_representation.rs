//! Ablation: position representation (feature vectors / GNP / Vivaldi).
//!
//! Extends Figure 7 with the landmark-free Vivaldi coordinates cited in
//! the paper's related work, and reports the *probing overhead* of each
//! representation alongside its clustering accuracy — the cost axis the
//! paper argues about in prose.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_representation [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_coords::{GnpConfig, VivaldiConfig};
use ecg_core::{GfCoordinator, Representation, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 200;
    let k = 20;
    let seeds: Vec<u64> = (0..4).collect();

    run.line(format_args!(
        "Ablation: position representation ({caches} caches, K = {k}, 25 landmarks)\n"
    ));
    let network = Scenario::network_only(caches, 24_680);

    let reps: Vec<(&str, Representation)> = vec![
        ("feature_vectors", Representation::FeatureVectors),
        (
            "gnp_d7",
            Representation::Gnp(
                GnpConfig::default()
                    .dimensions(7)
                    .restarts(2)
                    .max_iterations(600),
            ),
        ),
        (
            "vivaldi_d4",
            Representation::Vivaldi(VivaldiConfig::default().dimensions(4).rounds(400)),
        ),
    ];

    let mut table = Table::new(["representation", "gic_ms", "probes"]);
    for (name, rep) in reps {
        let coord = GfCoordinator::new(SchemeConfig::sl(k).representation(rep));
        let (mut gic, mut probes) = (Vec::new(), Vec::new());
        for &seed in &seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = coord
                .form_groups_observed(&network, &mut rng, run.obs())
                .expect("group formation");
            gic.push(interaction_cost_ms(&outcome, &network));
            probes.push(outcome.probes_sent() as f64);
        }
        table.row([
            name.to_string(),
            f2(mean(&gic)),
            format!("{:.0}", mean(&probes)),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: feature vectors and GNP comparable in accuracy (Fig 7); \
         Vivaldi lands close but needs roughly an order of magnitude more \
         probes — the cost of landmark-free convergence.",
    );
}
