//! Integration test: the paper's worked example (Figures 1 and 2).
//!
//! Walks the exact 6-cache network from the paper through the public
//! API: landmark selection with the figure's PLSet, feature-vector
//! construction, and K-means grouping into the three natural pairs.

use edge_cache_groups::coords::{build_feature_vectors, ProbeConfig, Prober};
use edge_cache_groups::core::{select_landmarks, LandmarkSelector};
use edge_cache_groups::prelude::*;
use edge_cache_groups::topology::fixtures::paper_figure1;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn figure1_landmark_choice_matches_paper() {
    // With the figure's PLSet {Ec0, Ec1, Ec3, Ec4} the greedy phase must
    // pick {Os, Ec0, Ec4} with MinDist 12.0. The PLSet draw is random,
    // so scan seeds until the draw matches the figure.
    let matrix = paper_figure1();
    let mut found = false;
    for seed in 0..5_000u64 {
        let prober = Prober::new(&matrix, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = select_landmarks(&prober, LandmarkSelector::GreedyMaxMin, 3, 2, &mut rng)
            .expect("selection");
        let mut plset = sel.plset.clone();
        plset.sort_unstable();
        if plset == vec![1, 2, 4, 5] {
            let mut lms = sel.landmarks.clone();
            lms.sort_unstable();
            assert_eq!(lms, vec![0, 1, 5], "landmarks must be {{Os, Ec0, Ec4}}");
            assert_eq!(sel.min_dist_ms, Some(12.0));
            found = true;
            break;
        }
    }
    assert!(found, "no seed reproduced the figure's PLSet");
}

#[test]
fn figure2_feature_vectors_match_paper() {
    let matrix = paper_figure1();
    let prober = Prober::new(&matrix, ProbeConfig::noiseless());
    let mut rng = StdRng::seed_from_u64(0);
    // Landmarks {Os, Ec0, Ec4} = matrix indices {0, 1, 5}.
    let caches: Vec<usize> = (1..7).collect();
    let fvs = build_feature_vectors(&prober, &caches, &[0, 1, 5], &mut rng);
    // Each cache's vector is its RTT row restricted to the landmarks.
    let expected = [
        [12.0, 0.0, 17.0],  // Ec0
        [8.0, 4.0, 14.4],   // Ec1
        [12.0, 17.0, 17.0], // Ec2
        [8.0, 14.4, 14.4],  // Ec3
        [12.0, 17.0, 0.0],  // Ec4
        [8.0, 14.4, 4.0],   // Ec5
    ];
    for (fv, want) in fvs.iter().zip(&expected) {
        assert_eq!(fv.as_slice(), want);
    }
}

#[test]
fn figure2_clustering_finds_the_three_pairs() {
    let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let scheme = SchemeConfig::sl(3)
        .landmarks(3)
        .plset_multiplier(2)
        .probe(ProbeConfig::noiseless());
    let mut hits = 0;
    let seeds = 40;
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = form(
            &FormPlan::new(network.rtt_matrix(), &scheme),
            &mut FormContext::new(),
            &mut rng,
        )
        .expect("formation");
        let mut groups: Vec<Vec<usize>> = outcome
            .groups()
            .iter()
            .map(|g| g.iter().map(|c| c.index()).collect())
            .collect();
        groups.sort();
        if groups == vec![vec![0, 1], vec![2, 3], vec![4, 5]] {
            hits += 1;
        }
    }
    assert!(
        hits * 2 > seeds,
        "natural pairs found on only {hits}/{seeds} seeds"
    );
}

#[test]
fn figure1_fixture_is_usable_as_an_edge_network() {
    let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
    assert_eq!(network.cache_count(), 6);
    // N = 6, K = 3, L = 3, M = 2 from the figure caption are all
    // representable.
    assert_eq!(network.caches_nearest_origin(3).len(), 3);
    assert!(network.mean_origin_rtt() > 0.0);
}
