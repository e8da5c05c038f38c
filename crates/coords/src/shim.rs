//! **Scheduled for deletion.** The one pre-`FormPlan` name the
//! end-to-end benchmark (`benchmark/src/adapter.rs`) still imports from
//! this crate, kept as a single call into [`build_features`] because
//! `benchmark/` could not change in the PR that gave formation one entry
//! point. The benchmark PR on the ROADMAP ports the adapter and deletes
//! this module; it has no other caller.

use crate::feature::build_features;
use crate::matrix::FeatureMatrix;
use crate::probe::{Draws, Prober};
use rand::Rng;

/// [`build_features`] without retries under [`Draws::PerRow`].
#[doc(hidden)]
pub fn build_feature_matrix_par<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    nodes: &[usize],
    landmarks: &[usize],
    rng: &mut R,
) -> FeatureMatrix {
    build_features(prober, nodes, landmarks, None, &mut Draws::PerRow, rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeConfig;
    use ecg_topology::fixtures::paper_figure1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_shim_is_per_row_feature_building_at_any_thread_count() {
        let m = paper_figure1();
        let landmarks = [0usize, 1, 5];
        let nodes: Vec<usize> = (1..7).collect();
        for threads in [1, 2, 8] {
            ecg_par::set_max_threads(Some(threads));
            let noisy = || Prober::new(&m, ProbeConfig::default().noise_sigma(0.2));
            let direct = build_features(
                &noisy(),
                &nodes,
                &landmarks,
                None,
                &mut Draws::PerRow,
                &mut StdRng::seed_from_u64(77),
            )
            .0;
            let shim = build_feature_matrix_par(
                &noisy(),
                &nodes,
                &landmarks,
                &mut StdRng::seed_from_u64(77),
            );
            ecg_par::set_max_threads(None);
            assert_eq!(shim.as_flat(), direct.as_flat(), "{threads} threads");
        }
    }
}
