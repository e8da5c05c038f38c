//! Figure 7: feature-vector representation vs. GNP Euclidean embedding.
//!
//! A 500-cache network, the *same* 25 greedily chosen landmarks for both
//! representations, K swept from 10 to 100. The SL scheme clusters raw
//! RTT feature vectors; the comparator first embeds every node into a
//! 7-dimensional Euclidean space with GNP (Ng & Zhang) and clusters the
//! coordinates. Reports average group interaction cost (ms).
//!
//! Paper's finding: the cheap feature vectors cluster as accurately as
//! the expensive Euclidean embedding — neither dominates across K.
//!
//! The position estimates are computed once per seed and reused across
//! all K values (they do not depend on K), exactly as a deployment
//! would.
//!
//! Run with `cargo run --release -p ecg-bench -- run fig7 [--metrics-out <path>]`.

use crate::{f2, mean, Run, Scenario, Table};
use ecg_clustering::{average_group_interaction_cost, kmeans, Initializer, KmeansConfig};
use ecg_coords::{
    build_feature_vectors, embed_network, FeatureMatrix, GnpConfig, ProbeConfig, Prober,
};
use ecg_core::{select_landmarks, LandmarkSelector};
use ecg_sim::LatencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 500;
    let ks = [10usize, 25, 50, 75, 100];
    let seeds: Vec<u64> = (0..3).collect();
    let gnp_config = GnpConfig::default()
        .dimensions(7)
        .restarts(2)
        .max_iterations(600);

    run.line(format_args!(
        "Figure 7: avg group interaction cost (ms), feature vectors vs GNP\n\
         ({caches} caches, same 25 greedy landmarks, D = 7)\n"
    ));
    let network = Scenario::network_only(caches, 77_000);
    let model = LatencyModel;
    let cost = |a: usize, b: usize| {
        model.interaction_cost(
            network.cache_to_cache(ecg_topology::CacheId(a), ecg_topology::CacheId(b)),
            8.0 * 1024.0,
        )
    };

    // Per seed: landmark selection + both representations, then K-means
    // per K on each.
    let mut fv_gic = vec![Vec::new(); ks.len()];
    let mut gnp_gic = vec![Vec::new(); ks.len()];
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let prober = Prober::new(network.rtt_matrix(), ProbeConfig::default());
        let selection = select_landmarks(&prober, LandmarkSelector::GreedyMaxMin, 25, 4, &mut rng)
            .expect("landmark selection");
        let nodes: Vec<usize> = (1..=caches).collect();

        let fvs = build_feature_vectors(&prober, &nodes, &selection.landmarks, &mut rng);
        let mut fv_points = FeatureMatrix::with_capacity(fvs.len(), selection.landmarks.len());
        for fv in &fvs {
            fv_points.push_row(fv.as_slice());
        }

        let coords = embed_network(gnp_config, &prober, &nodes, &selection.landmarks, &mut rng);
        let mut gnp_points = FeatureMatrix::with_capacity(coords.len(), 7);
        for c in &coords {
            gnp_points.push_row(c.as_slice());
        }

        if let Some(o) = run.obs() {
            o.metrics.add("scheme.probes_sent", prober.probes_sent());
        }

        for (ki, &k) in ks.iter().enumerate() {
            for (points, out) in [(&fv_points, &mut fv_gic), (&gnp_points, &mut gnp_gic)] {
                let clustering = kmeans(
                    points,
                    KmeansConfig::new(k),
                    &Initializer::RandomRepresentative,
                    &mut rng,
                    run.obs(),
                )
                .expect("clustering");
                out[ki].push(average_group_interaction_cost(&clustering.clusters(), cost));
            }
        }
    }

    let mut table = Table::new(["K", "feature_vectors", "gnp_euclidean"]);
    for (ki, &k) in ks.iter().enumerate() {
        table.row([k.to_string(), f2(mean(&fv_gic[ki])), f2(mean(&gnp_gic[ki]))]);
    }
    table.print(run);
    run.line(
        "\nexpected: the two columns track each other closely — the simple \
         feature-vector representation is sufficient for cache clustering.",
    );
}
