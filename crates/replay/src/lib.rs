//! Sharded, streaming trace replay at production scale.
//!
//! Every run of the simulator is **group-major**: groups are independent
//! between re-formation events — a request at cache `c` only ever
//! touches `c`'s group peers and the origin — so `ecg-sim`'s driver
//! validates and plans a run once, simulates one group at a time over
//! that group's sub-topology, and folds the per-group results in group
//! order. [`ecg_sim::simulate`] does this serially on the caller's
//! thread over a materialized trace. This crate adds what that entry
//! point cannot do at the roadmap's north-star scale of 50 000 caches ×
//! millions of requests:
//!
//! 1. **The pool fan-out.** [`replay_sharded`] hands the same planned
//!    run's groups — **shards** — to the [`ecg_par`] persistent worker
//!    pool instead of a loop; plan, sub-topology, fault split and merge
//!    are `ecg-sim`'s, used as they are.
//! 2. **Streaming generation.** [`replay_streamed`] never materializes
//!    the global trace: each shard regenerates exactly its own members'
//!    arrivals from a master seed via
//!    [`ecg_workload::RequestConfig::stream_cache`] (derived-seed
//!    per-cache streams), so peak memory is bounded by the largest
//!    group's event count times the worker count, not by `N × requests`.
//! 3. **Epochs.** [`replay_epochs`] replays one trace across a timeline
//!    of groupings, one sharded replay per segment.
//!
//! Origin interactions (the freshness protocols: on-access invalidation,
//! multicast push, TTL leases) are modeled per shard by replaying the
//! *full* update log into every shard, so each shard's origin reaches
//! the same document version at the same simulated instant as a single
//! shared origin would. Cross-group behavior therefore matches without
//! any cross-shard communication.
//!
//! ## The merge contract
//!
//! Equivalence is load-bearing, not best-effort: on any input the
//! time-major reference oracle (`ecg_sim::simulate_time_major`, one
//! pass of the event loop over the whole map) can handle, every engine
//! here produces a **bit-identical** merged [`SimReport`], at any
//! `ECG_THREADS` setting — integer metrics add associatively, every f64
//! accumulator sums in per-cache or per-group event order and shards
//! are merged in group order, and each shard's fault script is an
//! order-preserving subsequence of the global one (DESIGN.md, "Sharded
//! Replay", has the argument in full).
//!
//! ## What a shard costs
//!
//! The paper sweeps the *number* of groups, so replay throughput must
//! not depend on how finely formation partitions the network: a shard
//! of `g` members pays for its group — one batched
//! [`RttSource::submatrix`] query, a ready-made fault script, its own
//! events (regenerated and sorted when streamed, walked by position in
//! the caller's trace when materialized), simulator state over `g`
//! caches and the catalog — never for the `N` caches around it.
//! Everything that reads the whole network happens once, in the plan
//! stage.
//!
//! # Examples
//!
//! ```
//! use ecg_replay::{replay_sharded, ReplayConfig};
//! use ecg_sim::{simulate, GroupMap};
//! use ecg_topology::{fixtures::paper_figure1, EdgeNetwork};
//! use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
//! let mut rng = StdRng::seed_from_u64(1);
//! let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
//! let requests = RequestConfig::default().generate(&catalog, 6, 10_000.0, &mut rng);
//! let trace = merge_streams(&requests, &[]);
//! let groups = GroupMap::new(6, vec![
//!     (0..3).map(ecg_topology::CacheId).collect(),
//!     (3..6).map(ecg_topology::CacheId).collect(),
//! ])?;
//!
//! let config = ReplayConfig::new();
//! let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config)?;
//! let serial = simulate(&network, &groups, &catalog, &trace, *config.sim_config())?;
//! assert_eq!(sharded, serial);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod epoch;
mod stream;

pub use epoch::{
    replay_epochs, replay_epochs_observed, EpochReplayError, EpochReplayReport, ReplayEpoch,
};
pub use stream::StreamedWorkload;

use ecg_obs::Obs;
use ecg_sim::{FaultSchedule, GroupMap, GroupOutcome, GroupRun, SimConfig, SimError, SimReport};
use ecg_topology::{EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, TraceEvent, ZipfSampler};
use std::time::Instant;

/// Configuration of a sharded replay: the per-shard simulator settings
/// plus the fault script injected alongside the workload.
///
/// The default is the default [`SimConfig`] with no faults — byte-for-
/// byte [`ecg_sim::simulate`]'s defaults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayConfig {
    sim: SimConfig,
    schedule: FaultSchedule,
}

impl ReplayConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulator configuration every shard runs with.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the fault schedule (cache ids are global; each shard
    /// receives its members' events plus all brownout windows).
    pub fn schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The per-shard simulator configuration.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// The global fault schedule.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

/// Wall-clock stage timings of one replay run.
///
/// These are *measurements*, not simulation outputs: they vary run to
/// run and never feed back into the report or the observability bundle
/// (whose `work` values stay deterministic). `bench_replay` records them
/// per sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayTimings {
    /// Input validation and shard planning, ms.
    pub plan_ms: f64,
    /// Shard construction + simulation on the worker pool, ms.
    pub shards_ms: f64,
    /// Group-order report merging, ms.
    pub merge_ms: f64,
}

impl ReplayTimings {
    /// Total measured time across all stages, ms.
    pub fn total_ms(&self) -> f64 {
        self.plan_ms + self.shards_ms + self.merge_ms
    }
}

/// A merged replay result plus its run telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The merged simulation report — bit-identical to
    /// [`ecg_sim::simulate`] on the same input.
    pub report: SimReport,
    /// Wall-clock stage timings (non-deterministic; for benchmarks).
    pub timings: ReplayTimings,
    /// Number of shards (= groups) replayed.
    pub shards: usize,
    /// Total events (requests + shared updates) fed across all shards.
    pub shard_events: u64,
}

/// Replays a materialized trace sharded per group and merges the
/// per-shard reports in group order.
///
/// Produces a report bit-identical to
/// [`ecg_sim::simulate_with_faults`]`(network, groups, catalog, trace,
/// *config.sim_config(), config.fault_schedule())`, at any
/// `ECG_THREADS` setting.
///
/// # Errors
///
/// Exactly the [`SimError`] cases [`ecg_sim::simulate_with_faults`]
/// reports, with the same precedence: group/network mismatch, invalid
/// fault schedule, then the first trace event with an out-of-range
/// reference or a negative or non-finite time.
pub fn replay_sharded(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
) -> Result<SimReport, SimError> {
    replay_sharded_observed(network, groups, catalog, trace, config, None).map(|r| r.report)
}

/// Like [`replay_sharded`], returning stage timings and recording
/// `replay.*` counters and a `replay` phase span into `obs` when one is
/// supplied.
///
/// The observability bundle gets deterministic values only (shard and
/// event counts as span work, never wall-clock), so metrics JSON stays
/// byte-stable across hosts and thread counts; wall-clock lives in the
/// returned [`ReplayTimings`].
///
/// # Errors
///
/// Exactly as [`replay_sharded`].
pub fn replay_sharded_observed(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<ReplayReport, SimError> {
    let t0 = Instant::now();
    let run = GroupRun::new(
        network.rtt_matrix(),
        groups,
        catalog,
        Some(trace),
        *config.sim_config(),
        config.fault_schedule(),
    )?;
    let plan_ms = ms_since(t0);

    let out = run_shards(&run, groups.group_count(), plan_ms, |g| run.group(g, None));
    record_obs(obs, &out, network.cache_count(), trace.len() as u64);
    Ok(out)
}

/// Replays a *streamed* workload sharded per group: no global trace is
/// ever materialized. Each shard regenerates its members' request
/// streams from the workload's master seed
/// ([`ecg_workload::RequestConfig::stream_cache`]), orders them and
/// interleaves the shared update log, and simulates over its members'
/// sub-topology, one [`RttSource::submatrix`] query to the oracle (node
/// 0 is the origin, node `i + 1` is cache `i`).
///
/// The merged report is bit-identical to running
/// [`ecg_sim::simulate_with_faults`] over
/// [`StreamedWorkload::materialize_trace`] and the materialized full
/// RTT matrix — see that method for the exact equivalent input.
///
/// # Errors
///
/// [`SimError`] on group/oracle size mismatch, an invalid fault
/// schedule, an empty catalog ([`SimError::EmptyCatalog`] — there is
/// nothing to generate requests for), or an update referencing an
/// unknown document or carrying a negative or non-finite time.
pub fn replay_streamed(
    rtt: &dyn RttSource,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
    config: &ReplayConfig,
) -> Result<SimReport, SimError> {
    replay_streamed_observed(rtt, groups, catalog, workload, config, None).map(|r| r.report)
}

/// Like [`replay_streamed`], returning stage timings and recording
/// `replay.*` telemetry into `obs` when one is supplied (deterministic
/// values only, as in [`replay_sharded_observed`]).
///
/// # Errors
///
/// Exactly as [`replay_streamed`].
pub fn replay_streamed_observed(
    rtt: &dyn RttSource,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<ReplayReport, SimError> {
    let t0 = Instant::now();
    let run = GroupRun::new(
        rtt,
        groups,
        catalog,
        None,
        *config.sim_config(),
        config.fault_schedule(),
    )?;
    stream::validate(catalog, workload)?;
    // One shared sampler: it is read-only and identical to the one the
    // eager generator builds, so shards can borrow it concurrently.
    let zipf = ZipfSampler::new(catalog.len(), workload.zipf_exponent());
    let plan_ms = ms_since(t0);

    let out = run_shards(&run, groups.group_count(), plan_ms, |g| {
        run.group_on(
            g,
            &stream::member_subtrace(workload, &zipf, &groups.groups()[g]),
        )
    });
    // The streamed path has no global trace; its "input events" figure
    // is the replayed request total plus the shared update log.
    let input_events = out.report.metrics.total_requests() + workload.update_log().len() as u64;
    record_obs(obs, &out, groups.cache_count(), input_events);
    Ok(out)
}

/// The shards and merge stages both replay paths share: one work item
/// per group on the [`ecg_par`] pool — `shard(g)` simulates group `g`
/// through `run` — then `run`'s group-order fold.
fn run_shards(
    run: &GroupRun<'_>,
    shards: usize,
    plan_ms: f64,
    shard: impl Fn(usize) -> GroupOutcome + Sync,
) -> ReplayReport {
    let t1 = Instant::now();
    let outcomes = ecg_par::par_map((0..shards).collect(), shard);
    let shards_ms = ms_since(t1);

    let t2 = Instant::now();
    let (report, shard_events) = run.merge(outcomes);
    let merge_ms = ms_since(t2);

    ReplayReport {
        report,
        timings: ReplayTimings {
            plan_ms,
            shards_ms,
            merge_ms,
        },
        shards,
        shard_events,
    }
}

/// Emits the replay-level observability: counters plus a `replay` span
/// with `plan`/`shards`/`merge` children. All values are deterministic
/// (counts, not clocks).
fn record_obs(obs: Option<&mut Obs>, out: &ReplayReport, caches: usize, input_events: u64) {
    let Some(o) = obs else { return };
    o.metrics.add("replay.shards", out.shards as u64);
    o.metrics.add("replay.caches", caches as u64);
    o.metrics.add("replay.input_events", input_events);
    o.metrics.add("replay.shard_events", out.shard_events);
    o.metrics
        .add("replay.requests", out.report.metrics.total_requests());
    let mut span = o.phases.span("replay");
    span.add_work(out.shards as f64);
    {
        let mut plan = span.child("plan");
        plan.add_work(caches as f64);
    }
    {
        let mut shards = span.child("shards");
        shards.add_work(out.shard_events as f64);
    }
    {
        let mut merge = span.child("merge");
        merge.add_work(out.shards as f64);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_sim::fault::FaultKind;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::CacheId;
    use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (EdgeNetwork, DocumentCatalog, Vec<TraceEvent>) {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(11);
        let catalog = CatalogConfig::default().documents(120).generate(&mut rng);
        let requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .generate(&catalog, 6, 20_000.0, &mut rng);
        let updates = generate_updates(&catalog, 20_000.0, &mut rng);
        (network, catalog, merge_streams(&requests, &updates))
    }

    /// The time-major reference run of `config` over the whole map.
    fn oracle(
        network: &EdgeNetwork,
        groups: &GroupMap,
        catalog: &DocumentCatalog,
        trace: &[TraceEvent],
        config: &ReplayConfig,
    ) -> SimReport {
        ecg_sim::simulate_time_major(
            network,
            groups,
            catalog,
            trace,
            *config.sim_config(),
            config.fault_schedule(),
            None,
        )
        .unwrap()
    }

    fn two_groups() -> GroupMap {
        GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(2), CacheId(4)],
                vec![CacheId(1), CacheId(3), CacheId(5)],
            ],
        )
        .expect("valid partition")
    }

    #[test]
    fn sharded_matches_monolithic_bit_for_bit() {
        let (network, catalog, trace) = fixture();
        let groups = two_groups();
        let config = ReplayConfig::new();
        let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        assert_eq!(
            sharded,
            oracle(&network, &groups, &catalog, &trace, &config)
        );
    }

    #[test]
    fn sharded_matches_monolithic_under_faults() {
        let (network, catalog, trace) = fixture();
        let groups = two_groups();
        let mut schedule = FaultSchedule::new().failover_penalty_ms(5.0);
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(9_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        schedule.push(6_000.0, FaultKind::BrownoutStart { factor: 2.5 });
        schedule.push(12_000.0, FaultKind::BrownoutEnd);
        schedule.push(15_000.0, FaultKind::CacheRetire { cache: CacheId(5) });
        let config = ReplayConfig::new().schedule(schedule);
        let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        assert_eq!(
            sharded,
            oracle(&network, &groups, &catalog, &trace, &config)
        );
    }

    #[test]
    fn singleton_groups_shard_per_cache() {
        let (network, catalog, trace) = fixture();
        let groups = GroupMap::singletons(6);
        let config = ReplayConfig::new();
        let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        assert_eq!(
            sharded,
            oracle(&network, &groups, &catalog, &trace, &config)
        );
    }

    #[test]
    fn replay_rejects_what_simulate_rejects() {
        let (network, catalog, trace) = fixture();
        let bad_groups = GroupMap::one_group(5);
        let err = replay_sharded(
            &network,
            &bad_groups,
            &catalog,
            &trace,
            &ReplayConfig::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::CacheCountMismatch { .. }));

        let groups = two_groups();
        let mut bad_schedule = FaultSchedule::new();
        bad_schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(9) });
        let err = replay_sharded(
            &network,
            &groups,
            &catalog,
            &trace,
            &ReplayConfig::new().schedule(bad_schedule),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
    }

    #[test]
    fn hostile_event_times_are_errors_not_worker_panics() {
        let (network, catalog, mut trace) = fixture();
        let groups = two_groups();
        let config = ReplayConfig::new();
        let victim = trace.len() / 2;
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            match &mut trace[victim] {
                TraceEvent::Request(r) => r.time_ms = bad,
                TraceEvent::Update(u) => u.time_ms = bad,
            }
            // Same error from the time-major oracle and before any
            // shard starts.
            let expected = SimError::EventTimeInvalid { index: victim };
            let mono = ecg_sim::simulate_time_major(
                &network,
                &groups,
                &catalog,
                &trace,
                *config.sim_config(),
                config.fault_schedule(),
                None,
            );
            assert_eq!(mono.unwrap_err(), expected, "{bad}");
            let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config);
            assert_eq!(sharded.unwrap_err(), expected, "{bad}");

            // Streamed input: requests are generated, the update log is
            // the caller's.
            let updates = [
                ecg_workload::Update {
                    time_ms: 10.0,
                    doc: ecg_workload::DocId(1),
                },
                ecg_workload::Update {
                    time_ms: bad,
                    doc: ecg_workload::DocId(2),
                },
            ];
            let workload =
                StreamedWorkload::new(RequestConfig::default(), 5, 2_000.0).updates(&updates);
            let streamed =
                replay_streamed(network.rtt_matrix(), &groups, &catalog, &workload, &config);
            assert_eq!(
                streamed.unwrap_err(),
                SimError::EventTimeInvalid { index: 1 },
                "{bad}"
            );
        }
    }

    #[test]
    fn streamed_replay_over_an_empty_catalog_is_an_error_not_a_panic() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let groups = two_groups();
        let empty = DocumentCatalog::from_documents(vec![]);
        let workload = StreamedWorkload::new(RequestConfig::default(), 5, 2_000.0);
        let config = ReplayConfig::new();
        let plain = replay_streamed(network.rtt_matrix(), &groups, &empty, &workload, &config);
        assert_eq!(plain.unwrap_err(), SimError::EmptyCatalog);
        let mut obs = Obs::new();
        let observed = replay_streamed_observed(
            network.rtt_matrix(),
            &groups,
            &empty,
            &workload,
            &config,
            Some(&mut obs),
        );
        assert_eq!(observed.unwrap_err(), SimError::EmptyCatalog);
        // Rejected in the plan stage: nothing was replayed or recorded.
        assert_eq!(obs.metrics.counter("replay.shards"), 0);
        assert!(SimError::EmptyCatalog.to_string().contains("catalog"));
    }

    #[test]
    fn observed_variant_emits_replay_counters_and_identical_report() {
        let (network, catalog, trace) = fixture();
        let groups = two_groups();
        let config = ReplayConfig::new();
        let mut obs = Obs::new();
        let observed =
            replay_sharded_observed(&network, &groups, &catalog, &trace, &config, Some(&mut obs))
                .unwrap();
        let plain = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        assert_eq!(observed.report, plain);
        assert_eq!(observed.shards, 2);
        assert_eq!(obs.metrics.counter("replay.shards"), 2);
        assert_eq!(obs.metrics.counter("replay.caches"), 6);
        assert_eq!(
            obs.metrics.counter("replay.input_events"),
            trace.len() as u64
        );
        assert!(obs.metrics.counter("replay.shard_events") >= trace.len() as u64);
        assert!(observed.timings.total_ms() >= 0.0);
    }
}
