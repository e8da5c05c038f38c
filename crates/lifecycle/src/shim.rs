//! **Scheduled for deletion.** The observed supervisor name the
//! end-to-end benchmark (`benchmark/src/adapter.rs`) still calls, kept
//! as a single call into [`FormationSupervisor::run`] because
//! `benchmark/` could not change in the PR that folded it. The
//! benchmark PR on the ROADMAP ports the adapter and deletes this
//! module; it has no other caller.

use crate::supervisor::{FormationSupervisor, LifecycleError};
use crate::timeline::FormationTimeline;
use ecg_obs::Obs;
use ecg_sim::FaultSchedule;
use ecg_topology::EdgeNetwork;
use rand::Rng;

impl FormationSupervisor {
    /// [`FormationSupervisor::run`] under its old observed name.
    ///
    /// # Errors
    ///
    /// Exactly as [`FormationSupervisor::run`].
    #[doc(hidden)]
    pub fn run_observed<R: Rng + ?Sized>(
        &self,
        network: &EdgeNetwork,
        schedule: &FaultSchedule,
        horizon_ms: f64,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> Result<FormationTimeline, LifecycleError> {
        self.run(network, schedule, horizon_ms, rng, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;
    use crate::ReformPolicy;
    use ecg_coords::ProbeConfig;
    use ecg_core::SchemeConfig;
    use ecg_faults::FaultPlan;
    use ecg_topology::{CacheId, OriginPlacement, TransitStubConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_shim_is_the_observed_run_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(8);
        let topology = TransitStubConfig::for_caches(40).generate(&mut rng);
        let network =
            EdgeNetwork::place(&topology, 40, OriginPlacement::TransitNode, &mut rng).unwrap();
        let schedule = FaultPlan::new()
            .crash(CacheId(2), 8_000.0, 15_000.0)
            .retire(CacheId(5), 21_000.0)
            .schedule();
        let supervisor = FormationSupervisor::new(
            SupervisorConfig::new(SchemeConfig::sdsl(4, 1.0).landmarks(5))
                .probe(ProbeConfig::default())
                .policy(ReformPolicy::eager()),
        );
        for threads in [1, 2, 8] {
            ecg_par::set_max_threads(Some(threads));
            let mut obs = Obs::new();
            let mut rng = StdRng::seed_from_u64(3);
            let direct = supervisor.run(&network, &schedule, 40_000.0, &mut rng, Some(&mut obs));
            let mut shim_obs = Obs::new();
            let mut rng = StdRng::seed_from_u64(3);
            let shim = supervisor.run_observed(
                &network,
                &schedule,
                40_000.0,
                &mut rng,
                Some(&mut shim_obs),
            );
            ecg_par::set_max_threads(None);
            assert!(direct.is_ok(), "{threads} threads");
            assert_eq!(shim, direct, "{threads} threads");
            assert_eq!(shim_obs.to_json(), obs.to_json(), "{threads} threads");
        }
    }
}
