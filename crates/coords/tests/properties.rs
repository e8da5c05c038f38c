//! Property-based tests for the position-estimation crate.

use ecg_coords::simplex::{minimize, SimplexOptions};
use ecg_coords::{build_feature_vectors, ProbeConfig, Prober};
use ecg_topology::RttMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn noiseless_probing_reproduces_matrix(seed in any::<u64>(), n in 2usize..10) {
        let m = RttMatrix::from_fn(n, |i, j| ((i + 1) * (j + 2)) as f64);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(prober.measure(i, j, &mut rng, None), m.get(i, j));
            }
        }
    }

    #[test]
    fn noisy_probes_are_positive_and_bounded(
        seed in any::<u64>(),
        sigma in 0.0f64..0.5,
    ) {
        let m = RttMatrix::from_fn(4, |i, j| (10 * (i + j)) as f64);
        let prober = Prober::new(
            &m,
            ProbeConfig::default().noise_sigma(sigma).probes_per_measurement(2),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let v = prober.measure(0, 3, &mut rng, None);
            prop_assert!(v > 0.0);
            prop_assert!(v.is_finite());
            // exp(σz) with |z| < 6 virtually always: generous envelope.
            let truth = m.get(0, 3);
            prop_assert!(v < truth * (6.0 * (sigma + 0.01)).exp());
        }
    }

    #[test]
    fn feature_vectors_have_zero_at_own_landmark_slot(
        seed in any::<u64>(),
        n in 3usize..12,
    ) {
        let m = RttMatrix::from_fn(n, |i, j| (i + j) as f64 * 3.0 + 1.0);
        let prober = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(seed);
        let landmarks: Vec<usize> = (0..n.min(3)).collect();
        let nodes: Vec<usize> = (0..n).collect();
        let fvs = build_feature_vectors(&prober, &nodes, &landmarks, &mut rng);
        for (node, fv) in nodes.iter().zip(&fvs) {
            for (slot, lm) in landmarks.iter().enumerate() {
                if node == lm {
                    prop_assert_eq!(fv[slot], 0.0);
                }
            }
        }
    }

    #[test]
    fn simplex_never_worsens_the_start_point(
        start in proptest::collection::vec(-50.0f64..50.0, 1..5),
        target in -10.0f64..10.0,
    ) {
        let f = |p: &[f64]| -> f64 {
            p.iter().map(|x| (x - target) * (x - target)).sum()
        };
        let start_value = f(&start);
        let r = minimize(f, &start, SimplexOptions::default());
        prop_assert!(r.value <= start_value + 1e-12);
    }
}
