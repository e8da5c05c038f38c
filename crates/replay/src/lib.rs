//! Sharded, streaming trace replay at production scale.
//!
//! The monolithic [`ecg_sim::simulate`] driver materializes one global
//! trace and walks it serially — fine at paper scale (tens of caches,
//! tens of thousands of requests), impossible at the roadmap's
//! north-star scale of 50 000 caches × millions of requests. This crate
//! exploits the structural fact the paper's evaluation rests on: *groups
//! are independent between re-formation events*. A request at cache `c`
//! only ever touches `c`'s group peers and the origin, so the request
//! stream partitions perfectly per group and each partition can be
//! replayed as its own small simulation — a **shard** — on the
//! [`ecg_par`] persistent worker pool.
//!
//! Two ingredients make this production-scale rather than a port:
//!
//! 1. **Streaming generation.** [`replay_streamed`] never materializes
//!    the global trace: each shard regenerates exactly its own members'
//!    arrivals from a master seed via
//!    [`ecg_workload::RequestConfig::stream_cache`] (derived-seed
//!    per-cache streams), so peak memory is bounded by the largest
//!    group's event count times the worker count, not by `N × requests`.
//! 2. **Update-boundary synchronization.** Origin interactions (the
//!    freshness protocols: on-access invalidation, multicast push, TTL
//!    leases) are modeled per shard by replaying the *full* update log
//!    into every shard, so each shard's origin reaches the same document
//!    version at the same simulated instant as the monolithic origin.
//!    Cross-group behavior therefore matches without any cross-shard
//!    communication: shard origins agree at every update boundary by
//!    construction.
//!
//! ## The merge contract
//!
//! Equivalence is load-bearing, not best-effort: on any input the
//! monolithic `simulate` can handle, the sharded replay produces a
//! **bit-identical** merged [`SimReport`], at any `ECG_THREADS` setting.
//! This holds because
//!
//! * every integer metric is a sum of per-event increments, and u64
//!   addition is associative;
//! * every f64 accumulator in [`ecg_sim::MetricsRecorder`] sums in
//!   *per-cache* or *per-group* event order (the simulator folds its
//!   per-group degradation recorders in group order for exactly this
//!   reason), and shards are merged in group order, so each f64 sum
//!   replays the identical chain of additions;
//! * per-shard fault schedules keep each member's crash/recover/retire
//!   subsequence (plus all brownout windows) in the original relative
//!   order, and the simulator's FIFO tie-break at equal instants is
//!   order-preserving on subsequences.
//!
//! `origin_updates` is taken from shard 0 rather than summed: every
//! shard applies the full update log, so all shards agree on it.
//!
//! ## What a shard builds, and what it costs
//!
//! The paper sweeps the *number* of groups, so replay throughput must
//! not depend on how finely formation partitions the network: a shard
//! of `g` members pays for its group, its events and the catalog, never
//! for the `N` caches around it.
//!
//! | a shard builds | from | cost |
//! |---|---|---|
//! | its `(g + 1)²` sub-topology | one batched [`RttSource::submatrix`] query over `[origin, members…]` | `O(g²)` arithmetic or copies, no per-pair call |
//! | its fault script | nothing — the plan stage routed every fault event to its group in one pass | `O(1)` |
//! | its sub-trace | its members' streams drained into one buffer and stable-sorted (streamed), or its pre-split run merged with the update log (materialized) | `O(events · log g)` / `O(events)` |
//! | its simulator state | the unmodified simulator: holder index and origin over the catalog, one cache per member | `O(docs + g)`, then `O(events)` |
//!
//! Everything that reads the whole network happens once, in the plan
//! stage: input validation, the global-to-local id map (skipped by the
//! streamed path when there are no fault events to route), the request
//! split and the fault split.
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
//! let monolithic =
//!     simulate(&network, &groups, &catalog, &trace, *config.sim_config())?;
//! assert_eq!(sharded, monolithic);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod epoch;
mod shard;
mod stream;

pub use epoch::{
    replay_epochs, replay_epochs_observed, EpochReplayError, EpochReplayReport, ReplayEpoch,
};
pub use stream::StreamedWorkload;

use ecg_cache::CacheStats;
use ecg_obs::Obs;
use ecg_sim::{
    DegradationMetrics, FaultSchedule, GroupMap, MetricsRecorder, SimConfig, SimError, SimReport,
};
use ecg_topology::{EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, TraceEvent, ZipfSampler};
use std::time::Instant;

/// Configuration of a sharded replay: the per-shard simulator settings
/// plus the fault script injected alongside the workload.
///
/// The default is the default [`SimConfig`] with no faults — byte-for-
/// byte the monolithic simulator's defaults.
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
    /// The merged simulation report — bit-identical to the monolithic
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
/// Exactly the [`SimError`] cases the monolithic simulator reports:
/// group/network mismatch, out-of-range trace references, negative or
/// non-finite event times, invalid fault schedule.
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
    let n = network.cache_count();
    let schedule = config.fault_schedule();
    shard::validate(n, groups, catalog, trace, schedule)?;
    let local_of = shard::local_ids(groups);
    let plan = shard::RequestPartition::build(groups, &local_of, trace);
    let schedules = shard::member_schedules(schedule, groups, &local_of);
    let plan_ms = ms_since(t0);

    let out = run_shards(
        network.rtt_matrix(),
        groups,
        catalog,
        config,
        &schedules,
        plan_ms,
        |g| plan.subtrace(g),
    );
    record_obs(obs, &out, n, trace.len() as u64);
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
/// The merged report is bit-identical to running the monolithic
/// simulator over [`StreamedWorkload::materialize_trace`] and the
/// materialized full RTT matrix — see that method for the exact
/// equivalent input.
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
    let n = rtt.node_count().saturating_sub(1);
    let schedule = config.fault_schedule();
    stream::validate(n, groups, catalog, workload, schedule)?;
    // One shared sampler: it is read-only and identical to the one the
    // eager generator builds, so shards can borrow it concurrently.
    let zipf = ZipfSampler::new(catalog.len(), workload.zipf_exponent());
    // Nothing else here localizes cache ids, so the N-entry map exists
    // only when there are fault events to route through it.
    let local_of = if schedule.is_empty() {
        Vec::new()
    } else {
        shard::local_ids(groups)
    };
    let schedules = shard::member_schedules(schedule, groups, &local_of);
    let plan_ms = ms_since(t0);

    let out = run_shards(rtt, groups, catalog, config, &schedules, plan_ms, |g| {
        stream::member_subtrace(workload, &zipf, &groups.groups()[g])
    });
    // The streamed path has no global trace; its "input events" figure
    // is the replayed request total plus the shared update log.
    let input_events = report_request_total(&out.report) + workload.update_log().len() as u64;
    record_obs(obs, &out, n, input_events);
    Ok(out)
}

/// The shards and merge stages both replay paths share: one work item
/// per group on the [`ecg_par`] pool — the group's sub-topology, its
/// planned fault script and the sub-trace `subtrace(g)` builds, through
/// the unmodified simulator — then the group-order fold.
fn run_shards(
    rtt: &dyn RttSource,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    config: &ReplayConfig,
    schedules: &[FaultSchedule],
    plan_ms: f64,
    subtrace: impl Fn(usize) -> Vec<TraceEvent> + Sync,
) -> ReplayReport {
    let t1 = Instant::now();
    let shard_results: Vec<(SimReport, u64)> =
        ecg_par::par_map((0..groups.group_count()).collect(), |g| {
            let members = &groups.groups()[g];
            let sub_network = shard::member_network(rtt, members);
            let sub_trace = subtrace(g);
            let report = ecg_sim::simulate_with_faults(
                &sub_network,
                &GroupMap::one_group(members.len()),
                catalog,
                &sub_trace,
                *config.sim_config(),
                &schedules[g],
            )
            .expect("shard inputs were validated up front");
            (report, sub_trace.len() as u64)
        });
    let shards_ms = ms_since(t1);

    let t2 = Instant::now();
    let (report, shard_events) = merge_reports(groups, config.fault_schedule(), shard_results);
    let merge_ms = ms_since(t2);

    ReplayReport {
        report,
        timings: ReplayTimings {
            plan_ms,
            shards_ms,
            merge_ms,
        },
        shards: groups.group_count(),
        shard_events,
    }
}

/// Folds per-shard reports into the merged network-wide report, in
/// group order (the order every f64 chain was validated against).
fn merge_reports(
    groups: &GroupMap,
    schedule: &FaultSchedule,
    shard_results: Vec<(SimReport, u64)>,
) -> (SimReport, u64) {
    let mut metrics = MetricsRecorder::new(groups.cache_count());
    metrics.degradation = DegradationMetrics::new(schedule.timeline_bucket());
    let mut cache_stats = CacheStats::default();
    let mut origin_fetches = 0u64;
    // Every shard applies the full update log, so all shards agree on
    // the applied-update count; an empty network has no shards and no
    // updates applied.
    let mut origin_updates = 0u64;
    let mut shard_events = 0u64;
    for (g, (shard, events)) in shard_results.iter().enumerate() {
        metrics.merge_shard(&groups.groups()[g], &shard.metrics);
        cache_stats += shard.cache_stats;
        origin_fetches += shard.origin_fetches;
        origin_updates = shard.origin_updates;
        shard_events += events;
    }
    (
        SimReport {
            metrics,
            cache_stats,
            origin_updates,
            origin_fetches,
        },
        shard_events,
    )
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
        .add("replay.requests", report_request_total(&out.report));
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

/// Requests counted by the merged report (all outcomes, post-warmup —
/// the same figure the monolithic report exposes).
fn report_request_total(report: &SimReport) -> u64 {
    report.metrics.total_requests()
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
        let monolithic =
            ecg_sim::simulate(&network, &groups, &catalog, &trace, *config.sim_config()).unwrap();
        assert_eq!(sharded, monolithic);
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
        let config = ReplayConfig::new().schedule(schedule.clone());
        let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        let monolithic = ecg_sim::simulate_with_faults(
            &network,
            &groups,
            &catalog,
            &trace,
            *config.sim_config(),
            &schedule,
        )
        .unwrap();
        assert_eq!(sharded, monolithic);
    }

    #[test]
    fn singleton_groups_shard_per_cache() {
        let (network, catalog, trace) = fixture();
        let groups = GroupMap::singletons(6);
        let config = ReplayConfig::new();
        let sharded = replay_sharded(&network, &groups, &catalog, &trace, &config).unwrap();
        let monolithic =
            ecg_sim::simulate(&network, &groups, &catalog, &trace, *config.sim_config()).unwrap();
        assert_eq!(sharded, monolithic);
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
            // Same error from the monolithic loop and before any shard
            // starts.
            let expected = SimError::EventTimeInvalid { index: victim };
            let mono = ecg_sim::simulate(&network, &groups, &catalog, &trace, *config.sim_config());
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
