//! **Scheduled for deletion.** The one pre-`SimPlan` signature the
//! end-to-end benchmark (`benchmark/src/adapter.rs`) still imports from
//! this crate, kept as a single call into [`simulate`] because
//! `benchmark/` could not change in the PR that replaced the ten
//! `simulate*` / `replay_*` entry points. The benchmark PR on the
//! ROADMAP ports the adapter to `simulate` and deletes this module; it
//! has no other caller.

use crate::{simulate, GroupMap, RunContext, SimConfig, SimError, SimPlan, SimReport};
use ecg_obs::Obs;
use ecg_topology::EdgeNetwork;
use ecg_workload::{DocumentCatalog, TraceEvent};

/// [`simulate`] of `trace` with no faults, on the caller's thread.
///
/// # Errors
///
/// Exactly as [`simulate`].
#[doc(hidden)]
pub fn simulate_observed(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: SimConfig,
    obs: Option<&mut Obs>,
) -> Result<SimReport, SimError> {
    let plan = SimPlan::new(network.rtt_matrix(), catalog, trace).config(config);
    simulate(&plan, groups, &mut RunContext::serial().observe(obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::CacheId;
    use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_shim_is_the_entry_point() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = CatalogConfig::default().documents(80).generate(&mut rng);
        let requests = RequestConfig::default().generate(&catalog, 6, 15_000.0, &mut rng);
        let trace = merge_streams(&requests, &generate_updates(&catalog, 15_000.0, &mut rng));
        let members = |ids: [usize; 3]| ids.into_iter().map(CacheId).collect();
        let groups = GroupMap::new(6, vec![members([4, 0, 2]), members([1, 5, 3])]).unwrap();
        let config = SimConfig::default().warmup_ms(2_000.0);

        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).config(config);
        let mut obs = Obs::new();
        let direct = simulate(
            &plan,
            &groups,
            &mut RunContext::serial().observe(Some(&mut obs)),
        );
        let mut shim_obs = Obs::new();
        let shim = simulate_observed(
            &network,
            &groups,
            &catalog,
            &trace,
            config,
            Some(&mut shim_obs),
        );
        assert_eq!(shim, direct);
        assert!(shim.is_ok());
        assert_eq!(shim_obs.to_json(), obs.to_json());
    }
}
