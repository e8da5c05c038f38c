//! **Scheduled for deletion.** The pre-`FormPlan` names the end-to-end
//! benchmark (`benchmark/src/adapter.rs`) still imports from this
//! crate, each kept as a single call into [`form`] (or the landmark
//! selector) because `benchmark/` could not change in the PR that gave
//! formation one entry point. The benchmark PR on the ROADMAP ports the
//! adapter to [`form`] and deletes this module; it has no other caller.

use crate::landmarks::{select, LandmarkError, LandmarkSelection, LandmarkSelector};
use crate::maintenance::GroupMaintainer;
use crate::scheme::{form, FormContext, FormPlan, GroupingOutcome, SchemeConfig, SchemeError};
use ecg_coords::{Draws, Prober};
use ecg_obs::Obs;
use ecg_topology::{EdgeNetwork, RttSource};
use rand::Rng;

/// A [`SchemeConfig`] under its old coordinator name.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct GfCoordinator {
    config: SchemeConfig,
}

/// What the per-row name returned: the grouping alone.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledFormation {
    /// The grouping.
    pub outcome: GroupingOutcome,
}

impl GfCoordinator {
    /// Wraps `config`.
    pub fn new(config: SchemeConfig) -> Self {
        GfCoordinator { config }
    }

    /// [`form`] over the network's matrix on one shared stream.
    ///
    /// # Errors
    ///
    /// Exactly as [`form`].
    pub fn form_groups<R: Rng + ?Sized>(
        &self,
        network: &EdgeNetwork,
        rng: &mut R,
    ) -> Result<GroupingOutcome, SchemeError> {
        self.form_groups_observed(network, rng, None)
    }

    /// [`form`] over the network's matrix, recording into `obs`.
    ///
    /// # Errors
    ///
    /// Exactly as [`form`].
    pub fn form_groups_observed<R: Rng + ?Sized>(
        &self,
        network: &EdgeNetwork,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> Result<GroupingOutcome, SchemeError> {
        let plan = FormPlan::new(network.rtt_matrix(), &self.config);
        form(&plan, &mut FormContext::new().observe(obs), rng)
    }

    /// [`form`] over `source` under [`FormPlan::per_row`].
    ///
    /// # Errors
    ///
    /// Exactly as [`form`].
    pub fn form_groups_scaled<R: Rng + ?Sized>(
        &self,
        source: &dyn RttSource,
        rng: &mut R,
    ) -> Result<ScaledFormation, SchemeError> {
        let plan = FormPlan::new(source, &self.config).per_row();
        let outcome = form(&plan, &mut FormContext::new(), rng)?;
        Ok(ScaledFormation { outcome })
    }
}

impl GroupMaintainer {
    /// A maintainer over a fresh [`GfCoordinator::form_groups`] run,
    /// keeping this one's probe model.
    ///
    /// # Errors
    ///
    /// Exactly as [`form`].
    #[doc(hidden)]
    pub fn reform<R: Rng + ?Sized>(
        self,
        coordinator: &GfCoordinator,
        network: &EdgeNetwork,
        rng: &mut R,
    ) -> Result<GroupMaintainer, SchemeError> {
        let outcome = coordinator.form_groups(network, rng)?;
        Ok(GroupMaintainer::new(network, outcome, self.probe))
    }
}

/// [`crate::select_landmarks`] with the PLSet measured under
/// [`Draws::PerRow`].
///
/// # Errors
///
/// Exactly as [`crate::select_landmarks`].
#[doc(hidden)]
pub fn select_landmarks_par<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    selector: LandmarkSelector,
    l: usize,
    m: usize,
    rng: &mut R,
) -> Result<LandmarkSelection, LandmarkError> {
    select(prober, selector, l, m, None, &mut Draws::PerRow, rng).map(|s| s.selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_coords::ProbeConfig;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::SyntheticRttConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `check` at `ECG_THREADS` 1, 2 and 8.
    fn at_thread_counts(check: impl Fn(usize)) {
        for threads in [1, 2, 8] {
            ecg_par::set_max_threads(Some(threads));
            check(threads);
            ecg_par::set_max_threads(None);
        }
    }

    /// Noisy probing (the default model), so a draw-order slip shows.
    fn noisy() -> SchemeConfig {
        SchemeConfig::sdsl(3, 1.0).landmarks(3).plset_multiplier(2)
    }

    #[test]
    fn the_matrix_shims_are_the_shared_stream_form() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let config = noisy();
        let coordinator = GfCoordinator::new(config.clone());
        at_thread_counts(|threads| {
            let plan = FormPlan::new(network.rtt_matrix(), &config);
            let mut obs = Obs::new();
            let mut ctx = FormContext::new().observe(Some(&mut obs));
            let direct = form(&plan, &mut ctx, &mut StdRng::seed_from_u64(11)).unwrap();
            let plain = coordinator
                .form_groups(&network, &mut StdRng::seed_from_u64(11))
                .unwrap();
            let mut shim_obs = Obs::new();
            let observed = coordinator
                .form_groups_observed(
                    &network,
                    &mut StdRng::seed_from_u64(11),
                    Some(&mut shim_obs),
                )
                .unwrap();
            assert_eq!(plain, direct, "{threads} threads");
            assert_eq!(observed, direct, "{threads} threads");
            assert_eq!(shim_obs.to_json(), obs.to_json(), "{threads} threads");
        });
    }

    #[test]
    fn the_scaled_shim_is_the_per_row_form() {
        let source = SyntheticRttConfig.generate(121, 3);
        let config = SchemeConfig::sdsl(6, 1.0).landmarks(5).plset_multiplier(3);
        let coordinator = GfCoordinator::new(config.clone());
        at_thread_counts(|threads| {
            let plan = FormPlan::new(&source, &config).per_row();
            let direct = form(
                &plan,
                &mut FormContext::new(),
                &mut StdRng::seed_from_u64(4),
            );
            let shim = coordinator.form_groups_scaled(&source, &mut StdRng::seed_from_u64(4));
            assert_eq!(shim.unwrap().outcome, direct.unwrap(), "{threads} threads");
        });
    }

    #[test]
    fn the_reform_shim_is_a_maintainer_over_a_fresh_form() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let config = noisy();
        let probe = ProbeConfig::default();
        at_thread_counts(|threads| {
            let mut rng = StdRng::seed_from_u64(5);
            let plan = FormPlan::new(network.rtt_matrix(), &config);
            let first = form(&plan, &mut FormContext::new(), &mut rng).unwrap();
            let old = GroupMaintainer::new(&network, first, probe);
            let mut direct_rng = rng.clone();
            let direct = form(&plan, &mut FormContext::new(), &mut direct_rng).unwrap();
            let direct = GroupMaintainer::new(&network, direct, probe);
            let shim = old
                .reform(&GfCoordinator::new(config.clone()), &network, &mut rng)
                .unwrap();
            assert_eq!(shim, direct, "{threads} threads");
        });
    }

    #[test]
    fn the_landmark_shim_is_per_row_selection() {
        let matrix = paper_figure1();
        at_thread_counts(|threads| {
            for seed in 0..5u64 {
                let selector = LandmarkSelector::GreedyMaxMin;
                let prober = Prober::new(&matrix, ProbeConfig::default());
                let mut rng = StdRng::seed_from_u64(seed);
                let direct = select(&prober, selector, 3, 2, None, &mut Draws::PerRow, &mut rng);
                let prober = Prober::new(&matrix, ProbeConfig::default());
                let mut rng = StdRng::seed_from_u64(seed);
                let shim = select_landmarks_par(&prober, selector, 3, 2, &mut rng);
                assert_eq!(shim, direct.map(|s| s.selection), "{threads} threads");
            }
        });
    }
}
