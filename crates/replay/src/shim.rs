//! **Scheduled for deletion** with the crate around it (see the crate
//! docs): pre-`SimPlan` signatures over [`ecg_sim::simulate`] and
//! [`ecg_sim::simulate_epochs`], pooled, for `benchmark/src/adapter.rs`
//! alone. Each function is one call into the entry point; the structs
//! only carry its inputs in and its `RunStats` out.

use ecg_obs::Obs;
use ecg_sim::{
    simulate, simulate_epochs, EpochReplayError, FaultSchedule, GroupMap, ReplayEpoch, RunContext,
    RunStats, SimConfig, SimError, SimPlan, SimReport, StreamedWorkload,
};
use ecg_topology::{EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, TraceEvent};

/// A [`SimConfig`] plus an owned [`FaultSchedule`]: what
/// [`SimPlan::config`] and [`SimPlan::faults`] take separately.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayConfig {
    sim: SimConfig,
    schedule: FaultSchedule,
}

impl ReplayConfig {
    /// The default [`SimConfig`] with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulator configuration.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the fault schedule.
    pub fn schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    fn plan<'a>(&'a self, plan: SimPlan<'a>) -> SimPlan<'a> {
        plan.config(self.sim).faults(&self.schedule)
    }
}

/// The wall-clock stage times of [`RunStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayTimings {
    /// [`RunStats::plan_ms`].
    pub plan_ms: f64,
    /// [`RunStats::shards_ms`].
    pub shards_ms: f64,
    /// [`RunStats::merge_ms`].
    pub merge_ms: f64,
}

/// A one-grouping run's report with its [`RunStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The report of [`simulate`].
    pub report: SimReport,
    /// The stage times of the run.
    pub timings: ReplayTimings,
    /// [`RunStats::shards`].
    pub shards: usize,
    /// [`RunStats::shard_events`].
    pub shard_events: u64,
}

/// A timeline run's report with its [`RunStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReplayReport {
    /// The report of [`simulate_epochs`].
    pub report: SimReport,
    /// The stage times summed over all epochs.
    pub timings: ReplayTimings,
    /// [`RunStats::epochs`].
    pub epochs: usize,
    /// [`RunStats::shards`].
    pub shards: usize,
    /// [`RunStats::shard_events`].
    pub shard_events: u64,
}

fn timings(stats: RunStats) -> ReplayTimings {
    ReplayTimings {
        plan_ms: stats.plan_ms,
        shards_ms: stats.shards_ms,
        merge_ms: stats.merge_ms,
    }
}

/// The one call behind both one-grouping shims.
fn replay(
    plan: SimPlan<'_>,
    groups: &GroupMap,
    obs: Option<&mut Obs>,
) -> Result<ReplayReport, SimError> {
    let mut ctx = RunContext::pooled().observe(obs);
    let report = simulate(&plan, groups, &mut ctx)?;
    let stats = ctx.stats();
    Ok(ReplayReport {
        report,
        timings: timings(stats),
        shards: stats.shards,
        shard_events: stats.shard_events,
    })
}

/// [`simulate`] of a materialized `trace` on the pool.
///
/// # Errors
///
/// Exactly as [`simulate`].
pub fn replay_sharded_observed(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<ReplayReport, SimError> {
    let plan = SimPlan::new(network.rtt_matrix(), catalog, trace);
    replay(config.plan(plan), groups, obs)
}

/// [`simulate`] of a streamed `workload` on the pool.
///
/// # Errors
///
/// Exactly as [`simulate`].
pub fn replay_streamed_observed(
    rtt: &dyn RttSource,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<ReplayReport, SimError> {
    let plan = SimPlan::streamed(rtt, catalog, workload);
    replay(config.plan(plan), groups, obs)
}

/// [`simulate_epochs`] of a materialized `trace` on the pool.
///
/// # Errors
///
/// Exactly as [`simulate_epochs`].
pub fn replay_epochs_observed(
    network: &EdgeNetwork,
    epochs: &[ReplayEpoch],
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<EpochReplayReport, EpochReplayError> {
    let plan = config.plan(SimPlan::new(network.rtt_matrix(), catalog, trace));
    let mut ctx = RunContext::pooled().observe(obs);
    let report = simulate_epochs(&plan, epochs, &mut ctx)?;
    let stats = ctx.stats();
    Ok(EpochReplayReport {
        report,
        timings: timings(stats),
        epochs: stats.epochs,
        shards: stats.shards,
        shard_events: stats.shard_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_sim::FaultKind;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::CacheId;
    use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig, Update};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        network: EdgeNetwork,
        catalog: DocumentCatalog,
        updates: Vec<Update>,
        trace: Vec<TraceEvent>,
        config: ReplayConfig,
    }

    fn fixture() -> Fixture {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(11);
        let catalog = CatalogConfig::default().documents(120).generate(&mut rng);
        let requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .generate(&catalog, 6, 20_000.0, &mut rng);
        let updates = generate_updates(&catalog, 20_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let mut schedule = FaultSchedule::new();
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(12_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        let config = ReplayConfig::new()
            .sim(SimConfig::default().warmup_ms(2_000.0))
            .schedule(schedule);
        Fixture {
            network,
            catalog,
            updates,
            trace,
            config,
        }
    }

    fn pairs() -> GroupMap {
        let pair = |a, b| vec![CacheId(a), CacheId(b)];
        GroupMap::new(6, vec![pair(1, 0), pair(2, 3), pair(5, 4)]).expect("valid partition")
    }

    /// The entry point's report, stats and document for `plan`.
    fn direct(plan: SimPlan<'_>, config: &ReplayConfig) -> (SimReport, RunStats, String) {
        let mut obs = Obs::new();
        let mut ctx = RunContext::pooled().observe(Some(&mut obs));
        let report = simulate(&config.plan(plan), &pairs(), &mut ctx).unwrap();
        let stats = ctx.stats();
        (report, stats, obs.to_json())
    }

    #[test]
    fn replay_sharded_observed_is_the_entry_point() {
        let f = fixture();
        let plan = SimPlan::new(f.network.rtt_matrix(), &f.catalog, &f.trace);
        let (report, stats, document) = direct(plan, &f.config);
        let mut obs = Obs::new();
        let shim = replay_sharded_observed(
            &f.network,
            &pairs(),
            &f.catalog,
            &f.trace,
            &f.config,
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(shim.report, report);
        assert_eq!((shim.shards, shim.shard_events), (3, stats.shard_events));
        assert_eq!(obs.to_json(), document);
    }

    #[test]
    fn replay_streamed_observed_is_the_entry_point() {
        let f = fixture();
        let workload =
            StreamedWorkload::new(RequestConfig::default(), 9, 20_000.0).updates(&f.updates);
        let plan = SimPlan::streamed(f.network.rtt_matrix(), &f.catalog, &workload);
        let (report, stats, document) = direct(plan, &f.config);
        let mut obs = Obs::new();
        let shim = replay_streamed_observed(
            f.network.rtt_matrix(),
            &pairs(),
            &f.catalog,
            &workload,
            &f.config,
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(shim.report, report);
        assert_eq!((shim.shards, shim.shard_events), (3, stats.shard_events));
        assert_eq!(obs.to_json(), document);
    }

    #[test]
    fn replay_epochs_observed_is_the_entry_point() {
        let f = fixture();
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(10_000.0, GroupMap::one_group(6)),
        ];
        let plan = f
            .config
            .plan(SimPlan::new(f.network.rtt_matrix(), &f.catalog, &f.trace));
        let mut direct_obs = Obs::new();
        let mut ctx = RunContext::pooled().observe(Some(&mut direct_obs));
        let report = simulate_epochs(&plan, &epochs, &mut ctx).unwrap();
        let stats = ctx.stats();
        let mut obs = Obs::new();
        let shim = replay_epochs_observed(
            &f.network,
            &epochs,
            &f.catalog,
            &f.trace,
            &f.config,
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(shim.report, report);
        assert_eq!(
            (shim.epochs, shim.shards, shim.shard_events),
            (2, 4, stats.shard_events)
        );
        assert_eq!(obs.to_json(), direct_obs.to_json());
    }
}
