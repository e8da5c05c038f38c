//! Ablation: clustering initialization and algorithm choices.
//!
//! Compares four ways of forming K groups from the same feature
//! vectors:
//!
//! * SL's uniform K-means seeding,
//! * k-means++ seeding (stronger spread, not in the paper),
//! * SDSL's server-distance-weighted seeding (θ = 1),
//! * agglomerative average-linkage clustering over the *true* RTT
//!   matrix — an oracle-ish upper bound that skips the landmark
//!   estimation entirely.
//!
//! Reports the average group interaction cost.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_init [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Scenario, Table};
use ecg_clustering::average_group_interaction_cost;
use ecg_clustering::hierarchical::{agglomerative, Linkage};
use ecg_core::{form, FormContext, FormPlan, GroupInit, SchemeConfig};
use ecg_sim::LatencyModel;
use ecg_topology::CacheId;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 300;
    let ks = [10usize, 30, 60];
    let seeds: Vec<u64> = (0..6).collect();

    run.line(format_args!(
        "Ablation: initialization / algorithm comparison ({caches} caches)\n\
         cells = avg group interaction cost (ms)\n"
    ));
    let network = Scenario::network_only(caches, 9_090);
    let model = LatencyModel::default();

    let mut table = Table::new([
        "K",
        "uniform_SL",
        "kmeans_pp",
        "weighted_SDSL",
        "hierarchical_oracle",
    ]);
    for &k in &ks {
        let mut cells = vec![k.to_string()];

        // The three K-means variants go through the full pipeline.
        for scheme in [
            SchemeConfig::sl(k),
            SchemeConfig::sl(k).init(GroupInit::KmeansPlusPlus),
            SchemeConfig::sdsl(k, 1.0),
        ] {
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

        // Oracle: agglomerative clustering of the ground-truth RTTs.
        let clusters = agglomerative(caches, k, Linkage::Average, |a, b| {
            network.cache_to_cache(CacheId(a), CacheId(b))
        });
        let oracle = average_group_interaction_cost(&clusters, |a, b| {
            model.interaction_cost(network.cache_to_cache(CacheId(a), CacheId(b)), 8.0 * 1024.0)
        });
        cells.push(f2(oracle));
        table.row(cells);
    }
    table.print(run);
    run.line(
        "\nexpected: the landmark-based variants land within striking \
         distance of the ground-truth hierarchical oracle; k-means++ and \
         uniform seeding are comparable on this objective.",
    );
}
