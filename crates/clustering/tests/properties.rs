//! Property-based tests for the clustering crate.

use ecg_clustering::hierarchical::agglomerative;
use ecg_clustering::{
    average_group_interaction_cost, group_interaction_cost, kmeans, kmeans_capped, kmeans_masked,
    kmeans_minibatch, kmeans_reference, kmeans_warm, server_distance_weights, AssignMode,
    BlockedCenters, CenterTree, FeatureMatrix, Initializer, KmeansConfig, MiniBatchConfig,
    TREE_AUTO_MIN_K,
};
use ecg_coords::FeatureMask;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_points() -> impl Strategy<Value = FeatureMatrix> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, 2), 2..40)
        .prop_map(|rows| FeatureMatrix::from_rows(&rows))
}

/// Query points and center sets of a shared random dimension (1–24),
/// with k drawn from the leaf-width edge cases as often as from the
/// whole range. Center coordinates are snapped to a coarse grid that
/// holds both zeros, and a few rows are copied over others: exact
/// duplicate centers and mirror-symmetric (equidistant) layouts at
/// every dimension — the configurations where a sloppy tie-break in
/// the tree traversal would pick a different winner than the
/// ascending-index blocked scan. Point coordinates are half free, half
/// on the same grid: every box bound is a center coordinate, so those
/// points sit exactly on box faces and, when all coordinates snap, on
/// corners.
fn arb_tree_inputs() -> impl Strategy<Value = (FeatureMatrix, FeatureMatrix)> {
    fn grid() -> impl Strategy<Value = f64> {
        // {-50, -25, +0, 25, 50} and, one time in six, -0.
        (0u8..6).prop_map(|v| {
            if v == 5 {
                -0.0
            } else {
                f64::from(v) * 25.0 - 50.0
            }
        })
    }
    let k = prop_oneof![
        (0usize..8).prop_map(|i| [1, 7, 8, 9, 16, 17, 64, 65][i]),
        1usize..90,
    ];
    (1usize..25, k).prop_flat_map(|(dim, k)| {
        let points = proptest::collection::vec(
            proptest::collection::vec(prop_oneof![-60.0f64..60.0, grid()], dim),
            1..30,
        )
        .prop_map(|rows| FeatureMatrix::from_rows(&rows));
        let centers = (
            proptest::collection::vec(proptest::collection::vec(grid(), dim), k),
            proptest::collection::vec((0usize..k, 0usize..k), 0..4),
        )
            .prop_map(|(mut rows, copies)| {
                for (from, to) in copies {
                    rows[to] = rows[from].clone();
                }
                FeatureMatrix::from_rows(&rows)
            });
        (points, centers)
    })
}

/// Points of a random dimension (not just 2-D) for the engine
/// equivalence test below.
fn arb_dim_points() -> impl Strategy<Value = FeatureMatrix> {
    (1usize..7).prop_flat_map(|dim| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, dim), 2..40)
            .prop_map(|rows| FeatureMatrix::from_rows(&rows))
    })
}

proptest! {
    #[test]
    fn kmeans_output_is_a_partition(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let r = kmeans(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut rng, None,
        ).unwrap();
        // Every point assigned to a valid cluster.
        prop_assert_eq!(r.assignments().len(), points.len());
        prop_assert!(r.assignments().iter().all(|&c| c < k));
        // Exactly k non-empty clusters.
        let sizes = r.cluster_sizes();
        prop_assert_eq!(sizes.len(), k);
        prop_assert!(sizes.iter().all(|&s| s > 0));
        prop_assert_eq!(sizes.iter().sum::<usize>(), points.len());
    }

    #[test]
    fn kmeans_assigns_each_point_to_nearest_center(
        points in arb_points(),
        seed in any::<u64>(),
    ) {
        let k = (points.len() / 3).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let r = kmeans(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut rng, None,
        ).unwrap();
        if !r.converged() {
            // Iteration cap hit: the invariant may not hold yet.
            return Ok(());
        }
        let sq = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        for (i, p) in points.iter_rows().enumerate() {
            let assigned = sq(p, r.centers().row(r.assignments()[i]));
            for center in r.centers().iter_rows() {
                prop_assert!(assigned <= sq(p, center) + 1e-9);
            }
        }
    }

    #[test]
    fn pruned_kmeans_matches_naive_reference(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        // The bound-pruned assignment loop must be invisible: same
        // assignments, same centers (bit for bit), same iteration count
        // and convergence flag as the retained naive implementation.
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let mut rng_fast = StdRng::seed_from_u64(seed);
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let fast = kmeans(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut rng_fast, None,
        ).unwrap();
        let reference = kmeans_reference(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut rng_ref,
        ).unwrap();
        prop_assert_eq!(fast.assignments(), reference.assignments());
        prop_assert_eq!(fast.centers().as_flat(), reference.centers().as_flat());
        prop_assert_eq!(fast.iterations(), reference.iterations());
        prop_assert_eq!(fast.converged(), reference.converged());
    }

    #[test]
    fn weighted_init_with_uniform_weights_matches_contract(
        points in arb_points(),
        seed in any::<u64>(),
    ) {
        let k = (points.len() / 2).max(1);
        let weights = vec![1.0; points.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let chosen = Initializer::Weighted(weights)
            .select(&points, k, &mut rng)
            .unwrap();
        let mut sorted = chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
    }

    #[test]
    fn server_distance_weights_are_monotone_decreasing(
        mut distances in proptest::collection::vec(0.1f64..1000.0, 2..30),
        theta in 0.0f64..4.0,
    ) {
        distances.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let w = server_distance_weights(&distances, theta);
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-12);
        }
    }

    #[test]
    fn gic_is_scale_equivariant(
        groups in proptest::collection::vec(
            proptest::collection::vec(0usize..20, 0..6), 1..5),
        scale in 0.1f64..10.0,
    ) {
        let cost = |a: usize, b: usize| (a as f64 - b as f64).abs();
        let scaled = |a: usize, b: usize| scale * cost(a, b);
        let base = average_group_interaction_cost(&groups, cost);
        let after = average_group_interaction_cost(&groups, scaled);
        prop_assert!((after - scale * base).abs() < 1e-9);
    }

    #[test]
    fn gic_bounded_by_max_pair_cost(
        members in proptest::collection::vec(0usize..50, 2..10),
    ) {
        let cost = |a: usize, b: usize| (a as f64 - b as f64).abs();
        let gic = group_interaction_cost(&members, cost);
        let max = members.iter().flat_map(|&a| {
            members.iter().map(move |&b| cost(a, b))
        }).fold(0.0f64, f64::max);
        prop_assert!(gic <= max + 1e-12);
        prop_assert!(gic >= 0.0);
    }

    #[test]
    fn agglomerative_is_a_partition(
        n in 1usize..25,
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let pos: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        let clusters = agglomerative(n, k, |a, b| (pos[a] - pos[b]).abs());
        prop_assert_eq!(clusters.len(), k);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn capped_kmeans_respects_cap_and_partitions(
        points in arb_points(),
        k_frac in 0.05f64..1.0,
        slack in 0usize..5,
        seed in any::<u64>(),
    ) {
        let n = points.len();
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        let max_size = n.div_ceil(k) + slack;
        let mut rng = StdRng::seed_from_u64(seed);
        let r = kmeans_capped(
            &points,
            &FeatureMask::all_observed(n, points.dim()),
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            max_size,
            &mut rng,
        ).unwrap();
        let sizes = r.cluster_sizes();
        prop_assert_eq!(sizes.len(), k);
        prop_assert!(sizes.iter().all(|&s| s >= 1 && s <= max_size), "{:?}", sizes);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn parallel_kmeans_matches_sequential_and_reference(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        // The parallel assignment scans must be invisible three ways:
        // forced 4 workers == forced 1 worker (thread-count invariance)
        // == the naive reference (algorithmic equivalence), all bit for
        // bit. Thread-count invariance holds by construction (fixed
        // chunks, ordered reduction), so flipping the global override
        // here cannot perturb concurrently running tests.
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let run_at = |threads: usize| {
            ecg_par::set_max_threads(Some(threads));
            let r = kmeans(
                &points,
                KmeansConfig::new(k),
                &Initializer::RandomRepresentative,
                &mut StdRng::seed_from_u64(seed), None,
            ).unwrap();
            ecg_par::set_max_threads(None);
            r
        };
        let seq = run_at(1);
        let par = run_at(4);
        let reference = kmeans_reference(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        prop_assert_eq!(par.assignments(), seq.assignments());
        prop_assert_eq!(par.centers().as_flat(), seq.centers().as_flat());
        prop_assert_eq!(par.iterations(), seq.iterations());
        prop_assert_eq!(par.converged(), seq.converged());
        prop_assert_eq!(seq.assignments(), reference.assignments());
        prop_assert_eq!(seq.centers().as_flat(), reference.centers().as_flat());
        prop_assert_eq!(seq.iterations(), reference.iterations());
    }

    #[test]
    fn masked_kmeans_equals_full_kmeans_when_nothing_is_missing(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        // With every feature observed, the masked Lloyd loop must be
        // indistinguishable from the plain one — same assignments, same
        // centers bit for bit, same iteration count and convergence
        // flag. This pins the degraded-mode path to the healthy one so
        // resilience-on cannot perturb fault-free runs.
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let mask = FeatureMask::all_observed(points.len(), points.dim());
        let full = kmeans(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(seed), None,
        ).unwrap();
        let masked = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(seed), None,
        ).unwrap();
        prop_assert_eq!(masked.assignments(), full.assignments());
        for (a, b) in masked.centers().as_flat().iter().zip(full.centers().as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(masked.iterations(), full.iterations());
        prop_assert_eq!(masked.converged(), full.converged());
    }

    #[test]
    fn masked_kmeans_is_a_partition_under_masking(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        drop_frac in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let n = points.len();
        let dim = points.dim();
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        // Mask random cells but always keep component 0 observed, so no
        // row needs quarantining.
        let mut mask = FeatureMask::all_observed(n, dim);
        let mut mask_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for i in 0..n {
            for j in 1..dim {
                if mask_rng.gen_bool(drop_frac) {
                    mask.set(i, j, false);
                }
            }
        }
        let r = kmeans_masked(
            &points,
            &mask,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(seed), None,
        ).unwrap();
        prop_assert_eq!(r.assignments().len(), n);
        let sizes = r.cluster_sizes();
        prop_assert_eq!(sizes.len(), k);
        prop_assert!(sizes.iter().all(|&s| s > 0));
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        // Centers stay finite despite missing cells.
        prop_assert!(r.centers().as_flat().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn blocked_scan_matches_naive_nearest_center(
        points in arb_points(),
        centers in arb_points(),
    ) {
        // The tiled kernel must be invisible: same winner, same squared
        // distance bit for bit as the obvious row-major scan with the
        // same left-to-right accumulation order.
        let blocked = BlockedCenters::new(&centers);
        for p in points.iter_rows() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, row) in centers.iter_rows().enumerate() {
                let d: f64 = p.iter().zip(row).map(|(x, y)| (x - y) * (x - y)).sum();
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            let (bc, bd, _) = blocked.scan(p);
            prop_assert_eq!(bc, best);
            prop_assert_eq!(bd.to_bits(), best_d.to_bits());
        }
    }

    #[test]
    fn tree_query_matches_blocked_scan_bit_for_bit(
        (points, centers) in arb_tree_inputs(),
    ) {
        // The KD-tree query must be invisible next to the blocked tile
        // scan: same winning index (lowest index on exact distance
        // ties), same best and second-best squared distances bit for
        // bit — over random dimensions, duplicate centers, and
        // grid-symmetric equidistant layouts.
        let blocked = BlockedCenters::new(&centers);
        let tree = CenterTree::new(&centers);
        for p in points.iter_rows() {
            let (bc, bd, bs) = blocked.scan(p);
            let (tc, td, ts) = tree.query(p);
            prop_assert_eq!(tc, bc);
            prop_assert_eq!(td.to_bits(), bd.to_bits());
            prop_assert_eq!(ts.to_bits(), bs.to_bits());
        }
    }

    #[test]
    fn tree_kmeans_matches_blocked_and_reference(
        points in arb_dim_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        // Full three-way equivalence across assignment engines: the
        // tree-pruned Lloyd loop == the blocked-scan loop == the naive
        // reference, bit for bit in assignments, centers, iteration
        // count, and convergence flag. The engine moves wall-clock
        // only; results are contractually identical.
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let run = |engine: AssignMode| {
            kmeans(
                &points,
                KmeansConfig::new(k).force_assign(engine),
                &Initializer::RandomRepresentative,
                &mut StdRng::seed_from_u64(seed), None,
            ).unwrap()
        };
        let tree = run(AssignMode::Tree);
        let blocked = run(AssignMode::Blocked);
        let reference = kmeans_reference(
            &points,
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        prop_assert_eq!(tree.assignments(), blocked.assignments());
        prop_assert_eq!(tree.assignments(), reference.assignments());
        for (a, b) in tree.centers().as_flat().iter().zip(blocked.centers().as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in tree.centers().as_flat().iter().zip(reference.centers().as_flat()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(tree.iterations(), blocked.iterations());
        prop_assert_eq!(tree.iterations(), reference.iterations());
        prop_assert_eq!(tree.converged(), blocked.converged());
        prop_assert_eq!(tree.converged(), reference.converged());
    }

    #[test]
    fn minibatch_kmeans_is_thread_count_invariant(
        points in arb_points(),
        k_frac in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        // The derived-seed batch streams and chunked blocked assignment
        // must make mini-batch results a pure function of the seed:
        // forced 1, 2, and 8 workers all bit-identical. Invariance holds
        // by construction, so flipping the global override here cannot
        // perturb concurrently running tests.
        let k = ((points.len() as f64 * k_frac).ceil() as usize).clamp(1, points.len());
        let mb = MiniBatchConfig::default().batch_size(16).iterations(8);
        let run_at = |threads: usize| {
            ecg_par::set_max_threads(Some(threads));
            let r = kmeans_minibatch(
                &points,
                KmeansConfig::new(k),
                mb,
                &Initializer::RandomRepresentative,
                &mut StdRng::seed_from_u64(seed),
            ).unwrap();
            ecg_par::set_max_threads(None);
            r
        };
        let t1 = run_at(1);
        for wide in [run_at(2), run_at(8)] {
            prop_assert_eq!(wide.assignments(), t1.assignments());
            for (a, b) in wide.centers().as_flat().iter().zip(t1.centers().as_flat()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(wide.iterations(), t1.iterations());
        }
        // And it is still a partition into k non-empty clusters.
        let sizes = t1.cluster_sizes();
        prop_assert_eq!(sizes.len(), k);
        prop_assert!(sizes.iter().all(|&s| s > 0));
        prop_assert_eq!(sizes.iter().sum::<usize>(), points.len());
    }

    #[test]
    fn capped_kmeans_with_loose_cap_is_a_valid_partition(
        points in arb_points(),
        seed in any::<u64>(),
    ) {
        let n = points.len();
        let k = (n / 2).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        // cap = n is never binding.
        let r = kmeans_capped(
            &points,
            &FeatureMask::all_observed(n, points.dim()),
            KmeansConfig::new(k),
            &Initializer::RandomRepresentative,
            n,
            &mut rng,
        ).unwrap();
        let mut all: Vec<usize> = r.clusters().into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}

/// Multi-chunk point set (> `ecg_par::DEFAULT_CHUNK` rows), so the
/// parallel scans genuinely split across work items — the proptest
/// sizes above all fit in one chunk.
fn big_points(n: usize, seed: u64) -> FeatureMatrix {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..4).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    FeatureMatrix::from_rows(&rows)
}

#[test]
fn multi_chunk_parallel_kmeans_matches_reference_bit_for_bit() {
    let points = big_points(700, 13);
    let config = KmeansConfig::new(25);
    let run_at = |threads: usize| {
        ecg_par::set_max_threads(Some(threads));
        let r = kmeans(
            &points,
            config,
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(5),
            None,
        )
        .unwrap();
        ecg_par::set_max_threads(None);
        r
    };
    let seq = run_at(1);
    let par = run_at(4);
    let reference = kmeans_reference(
        &points,
        config,
        &Initializer::RandomRepresentative,
        &mut StdRng::seed_from_u64(5),
    )
    .unwrap();
    assert_eq!(par.assignments(), seq.assignments());
    assert_eq!(par.assignments(), reference.assignments());
    for (a, b) in par
        .centers()
        .as_flat()
        .iter()
        .zip(reference.centers().as_flat())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(par.iterations(), reference.iterations());
}

#[test]
fn a_warm_start_from_the_seed_rows_is_kmeans_bit_for_bit() {
    // Multi-chunk, on both engines (the blocked scan below
    // `TREE_AUTO_MIN_K`, the KD-tree from it), at 1 and 8 threads.
    let points = big_points(700, 29);
    for k in [25, TREE_AUTO_MIN_K] {
        let config = KmeansConfig::new(k);
        let init = Initializer::RandomRepresentative;
        let seeds = init
            .select(&points, k, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let mut start = FeatureMatrix::new(points.dim());
        for &i in &seeds {
            start.push_row(points.row(i));
        }
        for threads in [1, 8] {
            ecg_par::set_max_threads(Some(threads));
            let plain =
                kmeans(&points, config, &init, &mut StdRng::seed_from_u64(3), None).unwrap();
            let warm = kmeans_warm(&points, start.clone(), config).unwrap();
            ecg_par::set_max_threads(None);
            assert_eq!(warm, plain, "k = {k}, {threads} threads");
            for (a, b) in warm
                .centers()
                .as_flat()
                .iter()
                .zip(plain.centers().as_flat())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

#[test]
fn multi_chunk_minibatch_kmeans_is_thread_count_invariant() {
    // A batch larger than `ecg_par::DEFAULT_CHUNK` so the per-iteration
    // assignment genuinely splits across work items, and n large enough
    // that the final full assignment does too.
    let points = big_points(900, 41);
    let mb = MiniBatchConfig::default().batch_size(512).iterations(12);
    let run_at = |threads: usize| {
        ecg_par::set_max_threads(Some(threads));
        let r = kmeans_minibatch(
            &points,
            KmeansConfig::new(30),
            mb,
            &Initializer::RandomRepresentative,
            &mut StdRng::seed_from_u64(17),
        )
        .unwrap();
        ecg_par::set_max_threads(None);
        r
    };
    let t1 = run_at(1);
    for wide in [run_at(2), run_at(8)] {
        assert_eq!(wide.assignments(), t1.assignments());
        for (a, b) in wide.centers().as_flat().iter().zip(t1.centers().as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    let sizes = t1.cluster_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 900);
    assert!(sizes.iter().all(|&s| s > 0));
}

#[test]
fn multi_chunk_quality_metrics_are_thread_count_invariant() {
    let points = big_points(600, 29);
    let clustering = kmeans(
        &points,
        KmeansConfig::new(12),
        &Initializer::RandomRepresentative,
        &mut StdRng::seed_from_u64(3),
        None,
    )
    .unwrap();
    let groups = clustering.clusters();
    let cost = |a: usize, b: usize| -> f64 {
        let (p, q) = (points.row(a), points.row(b));
        p.iter()
            .zip(q)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let run_at = |threads: usize| {
        ecg_par::set_max_threads(Some(threads));
        let gic = average_group_interaction_cost(&groups, cost);
        ecg_par::set_max_threads(None);
        gic
    };
    assert_eq!(run_at(1).to_bits(), run_at(4).to_bits());
}

/// `n` points on a 2-d manifold in landmark space (each coordinate the
/// distance from a planar position to one of six landmarks), `copies` of
/// them overwritten with earlier rows: duplicate points make exact
/// distance ties and — two seeds on one spot — empty clusters for the
/// repair to refill.
fn planar_points(n: usize, copies: usize, seed: u64) -> FeatureMatrix {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let landmarks: Vec<(f64, f64)> = (0..6)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let (x, y) = (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            landmarks
                .iter()
                .map(|&(lx, ly)| ((x - lx) * (x - lx) + (y - ly) * (y - ly)).sqrt())
                .collect()
        })
        .collect();
    for _ in 0..copies {
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        rows[to] = rows[from].clone();
    }
    FeatureMatrix::from_rows(&rows)
}

/// One observed Lloyd run; returns the clustering with its telemetry.
fn observed_lloyd(
    points: &FeatureMatrix,
    config: KmeansConfig,
    initializer: &Initializer,
    seed: u64,
) -> (ecg_clustering::Clustering, ecg_obs::Obs) {
    let mut obs = ecg_obs::Obs::new();
    let clustering = kmeans(
        points,
        config,
        initializer,
        &mut StdRng::seed_from_u64(seed),
        Some(&mut obs),
    )
    .unwrap();
    (clustering, obs)
}

/// Tree-engine Lloyd with its re-scans on the neighbour tables ==
/// blocked-engine Lloyd == the naive reference, and the Hamerly
/// counters do not move. Returns the tree run's telemetry.
fn assert_neighbour_rescans_change_nothing(
    points: &FeatureMatrix,
    config: KmeansConfig,
    initializer: &Initializer,
    seed: u64,
) -> ecg_obs::Obs {
    let (tree, tree_obs) = observed_lloyd(
        points,
        config.force_assign(AssignMode::Tree),
        initializer,
        seed,
    );
    let (blocked, blocked_obs) = observed_lloyd(
        points,
        config.force_assign(AssignMode::Blocked),
        initializer,
        seed,
    );
    let reference = kmeans_reference(
        points,
        config,
        initializer,
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap();
    assert_eq!(tree, blocked);
    assert_eq!(tree, reference);
    for (a, b) in tree
        .centers()
        .as_flat()
        .iter()
        .zip(reference.centers().as_flat())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for counter in [
        "iterations",
        "reassigned",
        "pruned",
        "tightened",
        "exact_scans",
    ] {
        let name = format!("kmeans.{counter}");
        assert_eq!(
            tree_obs.metrics.counter(&name),
            blocked_obs.metrics.counter(&name),
            "{name}"
        );
    }
    assert_eq!(blocked_obs.metrics.counter("kmeans.neighbour_hits"), 0);
    assert_eq!(blocked_obs.metrics.counter("kmeans.neighbour_fallbacks"), 0);
    tree_obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn neighbour_rescans_leave_lloyd_bit_identical(
        k in prop_oneof![Just(25usize), Just(26usize), Just(64usize)],
        copies in 0usize..300,
        seed in any::<u64>(),
    ) {
        // 17 points per center keeps the first re-scans on the tables.
        let points = planar_points(17 * k, copies, seed);
        let uniform = Initializer::RandomRepresentative;
        let obs =
            assert_neighbour_rescans_change_nothing(&points, KmeansConfig::new(k), &uniform, seed);
        prop_assert!(obs.metrics.counter("kmeans.neighbour_hits") > 0);
    }
}

#[test]
fn neighbour_rescans_settle_points_the_repair_moved() {
    // Five seeds on one spot: four clusters start empty, the repair
    // re-seeds each on a stolen point whose bounds are ±∞, and those
    // points' exact scans — anchored on a center they sit on — go
    // through the tables in the first iteration.
    let mut points = planar_points(450, 0, 0xE0);
    let spot = points.row(0).to_vec();
    for duplicate in 1..5 {
        points.row_mut(duplicate).copy_from_slice(&spot);
    }
    let seeds = Initializer::Provided((0..25).collect());
    let obs = assert_neighbour_rescans_change_nothing(&points, KmeansConfig::new(25), &seeds, 0);
    assert!(obs.metrics.counter("kmeans.neighbour_hits") > 0);
}

#[test]
fn neighbour_rescans_at_two_hundred_centers_are_thread_invariant() {
    // k = 200 over 13 chunks of points, duplicates included; the
    // iteration cap keeps the naive reference affordable.
    let points = planar_points(3_300, 200, 0x200);
    let config = KmeansConfig::new(200).max_iterations(8);
    let uniform = Initializer::RandomRepresentative;
    let obs = assert_neighbour_rescans_change_nothing(&points, config, &uniform, 21);
    let hits = obs.metrics.counter("kmeans.neighbour_hits");
    let fallbacks = obs.metrics.counter("kmeans.neighbour_fallbacks");
    assert!(hits > 9 * fallbacks, "{hits} hits, {fallbacks} fallbacks");
    // Forced 1, 2 and 8 workers: same clustering, same telemetry —
    // the per-iteration hit counts included.
    let run_at = |threads: usize| {
        ecg_par::set_max_threads(Some(threads));
        let run = observed_lloyd(&points, config.force_assign(AssignMode::Tree), &uniform, 21);
        ecg_par::set_max_threads(None);
        run
    };
    let (t1, obs1) = run_at(1);
    assert_eq!(obs1, obs);
    for threads in [2, 8] {
        let (wide, wide_obs) = run_at(threads);
        assert_eq!(wide, t1, "{threads} threads");
        assert_eq!(wide_obs, obs1, "{threads} threads");
    }
}

#[test]
fn neighbour_tables_retire_themselves_on_unseparated_centers() {
    // Uniform random points in 8 dimensions: 24 neighbours do not reach
    // the second-nearest center, the first re-scan settles under half
    // its scans from the tables, and no later iteration builds them —
    // with the clustering what the blocked engine computes.
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(0x8D);
    let rows: Vec<Vec<f64>> = (0..3_300)
        .map(|_| (0..8).map(|_| rng.gen_range(-50.0..50.0)).collect())
        .collect();
    let points = FeatureMatrix::from_rows(&rows);
    let config = KmeansConfig::new(200).max_iterations(6);
    let uniform = Initializer::RandomRepresentative;
    let (tree, obs) = observed_lloyd(&points, config.force_assign(AssignMode::Tree), &uniform, 4);
    let (blocked, _) = observed_lloyd(
        &points,
        config.force_assign(AssignMode::Blocked),
        &uniform,
        4,
    );
    assert_eq!(tree, blocked);
    let tabled: Vec<f64> = obs
        .trace
        .events()
        .filter(|e| e.fields.iter().any(|(name, _)| *name == "neighbour_hits"))
        .map(|e| e.t)
        .collect();
    assert_eq!(tabled, [1.0], "iterations that ran on neighbour tables");
    assert_eq!(tree.iterations(), 6);
    let hits = obs.metrics.counter("kmeans.neighbour_hits");
    let fallbacks = obs.metrics.counter("kmeans.neighbour_fallbacks");
    assert!(hits < fallbacks, "{hits} hits, {fallbacks} fallbacks");
}
