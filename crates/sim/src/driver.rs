//! The entry point and the group-major driver behind it: how every
//! run reaches the kernel.
//!
//! A run is described by two values. The [`SimPlan`] says **what** is
//! simulated — topology, catalog, trace source, simulator settings,
//! fault schedule — and the [`RunContext`] says **how**: with or
//! without an observability bundle, on the caller's thread or on
//! [`ecg_par`] workers. [`simulate`] takes both and a grouping;
//! [`crate::simulate_epochs`] takes a timeline of groupings instead.
//! Nothing in the [`SimReport`] or in the bundle depends on the how.
//!
//! Groups are independent between re-formations — a request at cache
//! `c` touches only `c`'s group peers and the origin — so a run is the
//! kernel ([`crate::sim`]'s event loop) applied to **one group at a
//! time**: that group's requests plus the full update log, its members'
//! fault events plus every brownout window, over the RTT sub-matrix of
//! `[origin, members…]`, with one cache per member. An event's working
//! set is then its group's, not the network's.
//!
//! Everything that reads the whole network happens once, before the
//! first group runs: input validation in trace order (the first invalid
//! event yields its [`SimError`] whichever group it belongs to), the
//! by-position [`TracePlan`] — or, for a streamed source, the one
//! shared Zipf sampler — and the fault split. Per-group outcomes are
//! folded in group order — the order every `f64` chain of the
//! time-major loop already follows — so the merged [`SimReport`] is
//! bit-identical to [`crate::simulate_time_major`] however the groups
//! were scheduled: serially, each folded as it finishes so one group's
//! caches are live at a time, or fanned over [`ecg_par`] workers and
//! folded after.

use crate::event::{local_ids, GroupWalk, RecordBlock, Timeline, TracePlan};
use crate::fault::{FaultKind, FaultSchedule};
use crate::groups::GroupMap;
use crate::metrics::{DegradationMetrics, MetricsRecorder};
use crate::sim::{check_inputs, kernel, GroupOutcome, SimConfig, SimError, SimReport, Tallies};
use crate::stream::{self, StreamedWorkload};
use ecg_cache::CacheStats;
use ecg_obs::Obs;
use ecg_topology::{CacheId, EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, TraceEvent, ZipfSampler};
use std::time::Instant;

/// The schedule of a plan nobody gave one: no faults, default knobs.
static NO_FAULTS: FaultSchedule = FaultSchedule::new();

/// Where a run's events come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceSource<'a> {
    /// A materialized trace, walked in place.
    Events(&'a [TraceEvent]),
    /// Generation parameters: each group regenerates its own members'
    /// requests, so no global trace ever exists.
    Streamed(StreamedWorkload<'a>),
}

/// **What** a run simulates: the topology, the document catalog, the
/// trace source, the simulator configuration and the fault schedule.
/// Starts with the default [`SimConfig`] and no faults.
///
/// The topology is any [`RttSource`] spanning `[origin, caches…]`
/// (node 0 is the origin, node `i + 1` cache `i`); a caller holding an
/// [`EdgeNetwork`] passes [`EdgeNetwork::rtt_matrix`].
///
/// # Examples
///
/// ```
/// use ecg_sim::{FaultKind, FaultSchedule, SimConfig, SimPlan};
/// use ecg_topology::{fixtures::paper_figure1, CacheId};
/// use ecg_workload::DocumentCatalog;
///
/// let rtt = paper_figure1();
/// let catalog = DocumentCatalog::from_documents(vec![]);
/// let mut schedule = FaultSchedule::new();
/// schedule.push(1_000.0, FaultKind::CacheDown { cache: CacheId(2) });
/// let plan = SimPlan::new(&rtt, &catalog, &[])
///     .config(SimConfig::default().warmup_ms(500.0))
///     .faults(&schedule);
/// # let _ = plan;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SimPlan<'a> {
    pub(crate) rtt: &'a dyn RttSource,
    pub(crate) catalog: &'a DocumentCatalog,
    pub(crate) trace: TraceSource<'a>,
    pub(crate) config: SimConfig,
    pub(crate) schedule: &'a FaultSchedule,
}

impl<'a> SimPlan<'a> {
    /// A plan over a materialized `trace`, walked in place (it need
    /// not be in time order; an unordered trace pays one index sort).
    pub fn new(
        rtt: &'a dyn RttSource,
        catalog: &'a DocumentCatalog,
        trace: &'a [TraceEvent],
    ) -> Self {
        Self::over(rtt, catalog, TraceSource::Events(trace))
    }

    /// A plan over a streamed `workload`: each group regenerates its
    /// members' request streams from the workload's master seed and
    /// interleaves the shared update log, so peak memory is bounded by
    /// the groups in flight. The run is bit-identical — report and
    /// observability document — to one over
    /// [`StreamedWorkload::materialize_trace`].
    pub fn streamed(
        rtt: &'a dyn RttSource,
        catalog: &'a DocumentCatalog,
        workload: &StreamedWorkload<'a>,
    ) -> Self {
        Self::over(rtt, catalog, TraceSource::Streamed(*workload))
    }

    fn over(rtt: &'a dyn RttSource, catalog: &'a DocumentCatalog, trace: TraceSource<'a>) -> Self {
        SimPlan {
            rtt,
            catalog,
            trace,
            config: SimConfig::default(),
            schedule: &NO_FAULTS,
        }
    }

    /// Sets the simulator configuration every group runs with.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects the faults in `schedule` alongside the workload (cache
    /// ids are global). Fault semantics are documented on
    /// [`crate::fault`]; in brief: a down cache serves nothing (its
    /// clients fail over to the origin, paying the schedule's failover
    /// penalty), cooperative lookups skip down peers, recovery is cold,
    /// retirement is permanent, and origin brownouts multiply every
    /// origin fetch latency. An empty schedule is the fault-free run.
    pub fn faults(mut self, schedule: &'a FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// What a run did that is not simulation output: how it was cut up and
/// how long its stages took on the wall clock. The counts are
/// deterministic; the times are *measurements* — they vary run to run
/// and never feed back into the report or the observability bundle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Groupings run: 1, or the epochs of a timeline.
    pub epochs: usize,
    /// Kernel runs — one per group per epoch.
    pub shards: usize,
    /// Kernel runs that took the dense lookup layout, same report: `R ≥ m ·
    /// max(m − 1, ⌈D / 8⌉)` for `m` members, `R` requests, `D` documents.
    pub dense_shards: usize,
    /// Trace events fed across all shards (each replays its own
    /// requests plus the shared update log).
    pub shard_events: u64,
    /// Input validation and planning, ms.
    pub plan_ms: f64,
    /// Sub-topology construction and simulation of every group, ms
    /// (a serial run folds each group as it finishes, inside this).
    pub shards_ms: f64,
    /// The group-order fold of a pooled run, ms.
    pub merge_ms: f64,
}

impl RunStats {
    /// Total measured time across all stages, ms.
    pub fn total_ms(&self) -> f64 {
        self.plan_ms + self.shards_ms + self.merge_ms
    }
}

/// **How** a run executes, and what it hands back besides the report:
/// an optional observability bundle to record into, whether groups run
/// on the caller's thread or on [`ecg_par`] workers, and the
/// [`RunStats`] of the last run made with it.
///
/// Serial suits a caller that is itself one cell of a parallel sweep
/// (and keeps one group's caches live at a time); pooled suits one big
/// run. The report and the bundle are the same bytes either way, at
/// any `ECG_THREADS`.
#[derive(Debug, Default)]
pub struct RunContext<'o> {
    obs: Option<&'o mut Obs>,
    exec: Execution,
    stats: RunStats,
}

/// How a run's groups execute: pooled or not, and any layout forced.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Execution {
    pooled: bool,
    forced_dense: Option<bool>,
}

impl<'o> RunContext<'o> {
    /// Groups run one after another on the caller's thread.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Groups run as work items on [`ecg_par`] workers.
    pub fn pooled() -> Self {
        let mut ctx = Self::default();
        ctx.exec.pooled = true;
        ctx
    }

    /// Every kernel run takes the dense layout (`true`) or the sparse
    /// one, whatever its traffic: the hook tests hold both layouts to
    /// the oracle through. Nothing a run reports depends on it.
    #[doc(hidden)]
    pub fn force_layout(mut self, dense: bool) -> Self {
        self.exec.forced_dense = Some(dense);
        self
    }

    /// Records the run's telemetry into `obs` when one is supplied
    /// (see [`simulate`] for the document). The report is identical
    /// with and without a bundle — the simulator is RNG-free and
    /// instrumentation only reads state.
    pub fn observe(mut self, obs: Option<&'o mut Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Counts and stage times of the last run made with this context.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Starts a run of `epochs` groupings.
    pub(crate) fn begin(&mut self, epochs: usize) -> (Execution, &mut RunStats) {
        self.stats = RunStats {
            epochs,
            ..RunStats::default()
        };
        (self.exec, &mut self.stats)
    }

    /// Ends a run: flushes its telemetry — one document per run,
    /// whatever produced `outcome` — and yields the report.
    pub(crate) fn finish(
        &mut self,
        outcome: GroupOutcome,
        plan: &SimPlan<'_>,
        trace_len: usize,
    ) -> SimReport {
        let obs = self.obs.as_deref_mut();
        outcome.finish(obs, plan.config, plan.schedule, trace_len)
    }
}

/// Simulates `plan` under the grouping `groups` and returns the
/// collected metrics: the one entry point of the simulator.
///
/// When `ctx` carries an observability bundle the run records into it:
///
/// * per-group outcome counters `sim.group.NNN.{local_hits, peer_hits,
///   coop_misses}` (zero-padded so sorted export order equals numeric
///   group order) plus workload-wide totals `sim.{local_hits,
///   peer_hits, coop_misses, failovers, control_messages,
///   stale_served}` — counted over the whole run, warm-up included;
/// * holder-index counters `sim.holder.{group_checks, ruled_out,
///   bit_tests}` (all zero under [`crate::PeerLookup::ScanAll`]);
/// * a `sim.queue.max_depth` gauge: the run's event count (trace plus
///   faults), which is what is pending before the first event;
/// * the request-latency distribution merged into a `sim.latency_ms`
///   histogram;
/// * under an active placement policy, `place.{decisions,
///   replicas_created, replicas_suppressed, remote_placements}`, the
///   `place.replica_count` histogram and a `place` child span;
/// * one `sim` trace event per fault injection, timestamped with sim
///   time, and a `sim` phase span whose work is the timestamp of the
///   last processed event in ms.
///
/// One run writes one document, the same bytes serial or pooled,
/// materialized or streamed.
///
/// # Errors
///
/// Returns [`SimError`] — in this order of precedence — if the group
/// map does not match the topology, the fault schedule fails
/// [`FaultSchedule::validate`], or a trace event references an unknown
/// cache / document or carries a negative or non-finite time (the
/// first such event in trace order; for a streamed source, whose
/// requests are valid by construction, the first such update, or
/// [`SimError::EmptyCatalog`] when there is nothing to request).
///
/// # Examples
///
/// ```
/// use ecg_sim::{simulate, GroupMap, RunContext, SimPlan};
/// use ecg_topology::fixtures::paper_figure1;
/// use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let rtt = paper_figure1();
/// let mut rng = StdRng::seed_from_u64(1);
/// let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
/// let requests = RequestConfig::default().generate(&catalog, 6, 10_000.0, &mut rng);
/// let trace = merge_streams(&requests, &[]);
/// let groups = GroupMap::one_group(6);
///
/// let plan = SimPlan::new(&rtt, &catalog, &trace);
/// let mut ctx = RunContext::pooled();
/// let report = simulate(&plan, &groups, &mut ctx)?;
/// assert!(report.average_latency_ms() > 0.0);
/// assert_eq!(ctx.stats().shards, 1);
/// // The same report from the caller's thread.
/// assert_eq!(simulate(&plan, &groups, &mut RunContext::serial())?, report);
/// # Ok::<(), ecg_sim::SimError>(())
/// ```
pub fn simulate(
    plan: &SimPlan<'_>,
    groups: &GroupMap,
    ctx: &mut RunContext<'_>,
) -> Result<SimReport, SimError> {
    let (exec, stats) = ctx.begin(1);
    let outcome = run(plan, groups, exec, stats)?;
    let trace_len = match plan.trace {
        TraceSource::Events(trace) => trace.len(),
        // Every group replayed the whole update log; the materialized
        // trace holds it once.
        TraceSource::Streamed(workload) => {
            let repeats = groups.group_count().saturating_sub(1);
            outcome.tallies.trace_events as usize - repeats * workload.update_log().len()
        }
    };
    Ok(ctx.finish(outcome, plan, trace_len))
}

/// One grouping of `plan`, group-major: validated and planned once,
/// every group through the kernel as `exec` says, and folded in group
/// order. Adds its counts and stage times to `stats`; the caller flushes
/// the telemetry.
pub(crate) fn run(
    plan: &SimPlan<'_>,
    groups: &GroupMap,
    exec: Execution,
    stats: &mut RunStats,
) -> Result<GroupOutcome, SimError> {
    let t0 = Instant::now();
    let run = GroupRun::new(plan, groups)?;
    stats.plan_ms += ms_since(t0);

    let t1 = Instant::now();
    let shards = groups.group_count();
    let merged = if exec.pooled {
        let outcomes = ecg_par::par_map((0..shards).collect(), |g| run.group(g, exec.forced_dense));
        stats.shards_ms += ms_since(t1);
        let t2 = Instant::now();
        let merged = run.fold(outcomes.into_iter());
        stats.merge_ms += ms_since(t2);
        merged
    } else {
        // Folded as they finish: one group's caches are live at a time.
        let merged = run.fold((0..shards).map(|g| run.group(g, exec.forced_dense)));
        stats.shards_ms += ms_since(t1);
        merged
    };
    stats.shards += shards;
    stats.dense_shards += merged.tallies.dense_runs;
    stats.shard_events += merged.tallies.trace_events;
    Ok(merged)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// A validated, planned run whose groups can be simulated in any order
/// and on any thread, then folded.
#[derive(Debug)]
struct GroupRun<'a> {
    plan: &'a SimPlan<'a>,
    groups: &'a GroupMap,
    /// [`local_ids`] of `groups`; empty when nothing is routed through it.
    local_of: Vec<u32>,
    /// Each group's fault script, from [`member_schedules`].
    schedules: Vec<FaultSchedule>,
    events: GroupEvents<'a>,
}

/// Where [`GroupRun::group`] finds a group's events.
#[derive(Debug)]
enum GroupEvents<'a> {
    /// The materialized trace and its split by position.
    Planned(&'a [TraceEvent], TracePlan),
    /// The streamed workload and the one sampler its groups share: it
    /// is read-only and identical to the one the eager generator
    /// builds, so groups can borrow it concurrently.
    Streamed(StreamedWorkload<'a>, ZipfSampler),
}

impl<'a> GroupRun<'a> {
    /// Validates the inputs as [`crate::simulate_time_major`] does —
    /// map, then schedule, then the trace event by event (for a
    /// streamed source: the catalog and the update log) — and plans the
    /// run.
    fn new(plan: &'a SimPlan<'a>, groups: &'a GroupMap) -> Result<Self, SimError> {
        let schedule = plan.schedule;
        check_inputs(plan.rtt.node_count().saturating_sub(1), groups, schedule)?;
        let events = match plan.trace {
            TraceSource::Events(trace) => {
                let docs = plan.catalog.len();
                GroupEvents::Planned(trace, TracePlan::build(groups, docs, schedule, trace)?)
            }
            TraceSource::Streamed(workload) => {
                stream::validate(plan.catalog, &workload, schedule)?;
                let zipf = ZipfSampler::new(plan.catalog.len(), workload.zipf_exponent());
                GroupEvents::Streamed(workload, zipf)
            }
        };
        // Only planned requests and cache fault events go through the
        // N-entry id map.
        let local_of = if matches!(events, GroupEvents::Planned(..)) || !schedule.is_empty() {
            local_ids(groups)
        } else {
            Vec::new()
        };
        Ok(GroupRun {
            plan,
            groups,
            schedules: member_schedules(schedule, groups, &local_of),
            local_of,
            events,
        })
    }

    /// Simulates group `g`: its share of the planned trace by position,
    /// or its members' regenerated streams under local ids — in the
    /// `forced` layout, or the one [`crate::sim::dense_layout`] picks.
    fn group(&self, g: usize, forced: Option<bool>) -> GroupOutcome {
        let members = &self.groups.groups()[g];
        let (catalog, config, schedule) = (self.plan.catalog, self.plan.config, &self.schedules[g]);
        let network = member_network(self.plan.rtt, members);
        let one_group = GroupMap::one_group(members.len());
        let dense = |requests| {
            forced
                .unwrap_or_else(|| crate::sim::dense_layout(members.len(), requests, catalog.len()))
        };
        match &self.events {
            GroupEvents::Planned(trace, plan) => RecordBlock::on_this_thread(|block| {
                let dense = dense(plan.request_count(g));
                let walk = GroupWalk::new(trace, plan, g, &self.local_of, schedule, block);
                let events = walk.trace_events();
                kernel(
                    &network, &one_group, catalog, walk, events, config, schedule, dense,
                )
            }),
            GroupEvents::Streamed(workload, zipf) => {
                let subtrace = stream::member_subtrace(workload, zipf, members);
                let dense = dense(subtrace.len() - workload.update_log().len());
                let timeline = Timeline::new(members.len(), catalog.len(), &subtrace, schedule)
                    .expect("a generated sub-trace references its own members and catalog");
                let events = timeline.trace_events();
                kernel(
                    &network, &one_group, catalog, timeline, events, config, schedule, dense,
                )
            }
        }
    }

    /// The group-order fold (the order every `f64` chain was validated
    /// against), consuming each outcome as the iterator yields it.
    fn fold(&self, outcomes: impl Iterator<Item = GroupOutcome>) -> GroupOutcome {
        let mut metrics = MetricsRecorder::new(self.groups.cache_count());
        metrics.degradation = DegradationMetrics::new(self.plan.schedule.timeline_bucket());
        let mut report = SimReport {
            metrics,
            cache_stats: CacheStats::default(),
            origin_updates: 0,
            origin_fetches: 0,
        };
        let mut tallies = Tallies::default();
        for (members, outcome) in self.groups.groups().iter().zip(outcomes) {
            report.metrics.merge_shard(members, &outcome.report.metrics);
            report.cache_stats += outcome.report.cache_stats;
            report.origin_fetches += outcome.report.origin_fetches;
            // Every group applies the full update log, so all agree.
            report.origin_updates = outcome.report.origin_updates;
            tallies.absorb(outcome.tallies);
        }
        GroupOutcome { report, tallies }
    }
}

/// A group's edge network: one batched [`RttSource::submatrix`] query
/// over `[origin, members…]` (node 0 is the origin, node `i + 1` cache
/// `i`), in member-list order so local cache `i` is `members[i]` and
/// equal-RTT peer ties resolve as in the full network.
fn member_network(rtt: &dyn RttSource, members: &[CacheId]) -> EdgeNetwork {
    let mut nodes = Vec::with_capacity(members.len() + 1);
    nodes.push(0);
    nodes.extend(members.iter().map(|m| m.index() + 1));
    EdgeNetwork::from_rtt_matrix(rtt.submatrix(&nodes))
}

/// Every group's fault script from one pass over the global schedule:
/// a cache event goes to its cache's group re-indexed to the local id,
/// a brownout event to every group (the origin is shared), all in the
/// original push order — the kernel's FIFO tie-break at equal instants
/// is order-preserving on subsequences. Failover penalty and timeline
/// bucket carry over so degradation metrics bucket identically, events
/// or no events.
///
/// `local_of` is [`local_ids`] of `groups`, read only for cache events:
/// a caller with an empty schedule need not build it.
fn member_schedules(
    schedule: &FaultSchedule,
    groups: &GroupMap,
    local_of: &[u32],
) -> Vec<FaultSchedule> {
    let empty = FaultSchedule::new()
        .failover_penalty_ms(schedule.failover_penalty())
        .timeline_bucket_ms(schedule.timeline_bucket());
    let mut subs = vec![empty; groups.group_count()];
    for event in schedule.events() {
        let mut kind = event.kind;
        match &mut kind {
            FaultKind::CacheDown { cache }
            | FaultKind::CacheUp { cache }
            | FaultKind::CacheRetire { cache } => {
                let group = groups.group_of(*cache);
                *cache = CacheId(local_of[cache.index()] as usize);
                subs[group].push(event.time_ms, kind);
            }
            FaultKind::BrownoutStart { .. } | FaultKind::BrownoutEnd => {
                for sub in &mut subs {
                    sub.push(event.time_ms, kind);
                }
            }
        }
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_time_major;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::{RttMatrix, SyntheticRttConfig};
    use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `groups` under `schedule` over the fixture: the entry point on
    /// the caller's thread and on the pool, with and without a bundle,
    /// against the time-major reference run — report and document.
    fn assert_every_context_matches_the_oracle(groups: &GroupMap, schedule: &FaultSchedule) {
        let (network, catalog, trace) = fixture();
        let config = SimConfig::default();
        let mut oracle_obs = Obs::new();
        let oracle = simulate_time_major(
            &network,
            groups,
            &catalog,
            &trace,
            config,
            schedule,
            Some(&mut oracle_obs),
        )
        .unwrap();
        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).faults(schedule);
        for context in [RunContext::serial, RunContext::pooled] {
            let mut ctx = context();
            assert_eq!(simulate(&plan, groups, &mut ctx).unwrap(), oracle);
            assert_eq!(ctx.stats().shards, groups.group_count());
            assert!(ctx.stats().shard_events >= trace.len() as u64);
            assert!(ctx.stats().total_ms() >= 0.0);
            let mut obs = Obs::new();
            let mut ctx = context().observe(Some(&mut obs));
            assert_eq!(simulate(&plan, groups, &mut ctx).unwrap(), oracle);
            assert_eq!(obs.to_json(), oracle_obs.to_json());
        }
    }

    #[test]
    fn serial_and_pooled_match_the_oracle_bit_for_bit() {
        assert_every_context_matches_the_oracle(&two_groups(), &FaultSchedule::new());
    }

    #[test]
    fn serial_and_pooled_match_the_oracle_under_faults() {
        let mut schedule = FaultSchedule::new().failover_penalty_ms(5.0);
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(9_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        schedule.push(6_000.0, FaultKind::BrownoutStart { factor: 2.5 });
        schedule.push(12_000.0, FaultKind::BrownoutEnd);
        schedule.push(15_000.0, FaultKind::CacheRetire { cache: CacheId(5) });
        assert_every_context_matches_the_oracle(&two_groups(), &schedule);
    }

    #[test]
    fn singleton_groups_shard_per_cache() {
        assert_every_context_matches_the_oracle(&GroupMap::singletons(6), &FaultSchedule::new());
    }

    #[test]
    fn one_group_in_id_order_is_a_group_like_any_other() {
        assert_every_context_matches_the_oracle(&GroupMap::one_group(6), &FaultSchedule::new());
    }

    #[test]
    fn run_stats_count_the_shards_that_went_dense() {
        // 3 members, ~240 requests each group, 120 documents: the rule
        // needs 3 · max(2, 15) = 45.
        let (network, catalog, trace) = fixture();
        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace);
        for context in [RunContext::serial, RunContext::pooled] {
            let mut ctx = context();
            simulate(&plan, &two_groups(), &mut ctx).unwrap();
            assert_eq!((ctx.stats().shards, ctx.stats().dense_shards), (2, 2));
        }
        // Two seconds of traffic streamed to one group of 6: some 50
        // requests against 6 · max(5, 15) = 90 needed.
        let workload = StreamedWorkload::new(
            RequestConfig::default().rate_per_sec_per_cache(4.0),
            3,
            2_000.0,
        );
        let plan = SimPlan::streamed(network.rtt_matrix(), &catalog, &workload);
        let mut ctx = RunContext::pooled();
        let report = simulate(&plan, &GroupMap::one_group(6), &mut ctx).unwrap();
        assert!(report.metrics.total_requests() > 0);
        assert_eq!((ctx.stats().shards, ctx.stats().dense_shards), (1, 0));
        // A forced layout overrides the rule, and the scan-all reference
        // never goes dense.
        let mut ctx = RunContext::serial().force_layout(true);
        assert_eq!(
            simulate(&plan, &GroupMap::one_group(6), &mut ctx),
            Ok(report)
        );
        assert_eq!(ctx.stats().dense_shards, 1);
        let scan = plan.config(SimConfig::default().peer_lookup(crate::PeerLookup::ScanAll));
        let mut ctx = RunContext::serial().force_layout(true);
        simulate(&scan, &GroupMap::one_group(6), &mut ctx).unwrap();
        assert_eq!(ctx.stats().dense_shards, 0);
    }

    #[test]
    fn the_entry_point_rejects_what_the_oracle_rejects() {
        let (network, catalog, trace) = fixture();
        let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace);
        let err = simulate(&plan, &GroupMap::one_group(5), &mut RunContext::pooled()).unwrap_err();
        assert!(matches!(err, SimError::CacheCountMismatch { .. }));

        let mut bad_schedule = FaultSchedule::new();
        bad_schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(9) });
        let plan = plan.faults(&bad_schedule);
        let err = simulate(&plan, &two_groups(), &mut RunContext::pooled()).unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
    }

    #[test]
    fn hostile_event_times_are_errors_not_worker_panics() {
        let (network, catalog, mut trace) = fixture();
        let groups = two_groups();
        let victim = trace.len() / 2;
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            match &mut trace[victim] {
                TraceEvent::Request(r) => r.time_ms = bad,
                TraceEvent::Update(u) => u.time_ms = bad,
            }
            // Same error from the time-major oracle and before any
            // shard starts.
            let expected = SimError::EventTimeInvalid { index: victim };
            let (config, schedule) = (SimConfig::default(), FaultSchedule::new());
            let mono =
                simulate_time_major(&network, &groups, &catalog, &trace, config, &schedule, None);
            assert_eq!(mono.unwrap_err(), expected, "{bad}");
            let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace);
            let pooled = simulate(&plan, &groups, &mut RunContext::pooled());
            assert_eq!(pooled.unwrap_err(), expected, "{bad}");

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
            let plan = SimPlan::streamed(network.rtt_matrix(), &catalog, &workload);
            let streamed = simulate(&plan, &groups, &mut RunContext::pooled());
            assert_eq!(
                streamed.unwrap_err(),
                SimError::EventTimeInvalid { index: 1 },
                "{bad}"
            );
        }
    }

    #[test]
    fn a_streamed_run_over_an_empty_catalog_is_an_error_not_a_panic() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let empty = DocumentCatalog::from_documents(vec![]);
        let workload = StreamedWorkload::new(RequestConfig::default(), 5, 2_000.0);
        let plan = SimPlan::streamed(network.rtt_matrix(), &empty, &workload);
        let mut obs = Obs::new();
        let mut ctx = RunContext::pooled().observe(Some(&mut obs));
        let observed = simulate(&plan, &two_groups(), &mut ctx);
        assert_eq!(observed.unwrap_err(), SimError::EmptyCatalog);
        // Rejected in the plan stage: nothing was simulated or recorded.
        assert_eq!(ctx.stats().shards, 0);
        assert!(obs.metrics.is_empty());
        assert!(SimError::EmptyCatalog.to_string().contains("catalog"));
    }

    fn groups() -> GroupMap {
        GroupMap::new(
            4,
            vec![vec![CacheId(2), CacheId(0)], vec![CacheId(1), CacheId(3)]],
        )
        .expect("valid partition")
    }

    /// The per-shard filter the plan-stage partition replaced, kept as
    /// its oracle: group `g`'s member events re-indexed to local ids
    /// through an N-entry map of its own, plus every brownout window, in
    /// push order.
    fn member_schedule(schedule: &FaultSchedule, groups: &GroupMap, g: usize) -> FaultSchedule {
        let mut local_of = vec![usize::MAX; groups.cache_count()];
        for (local, &m) in groups.groups()[g].iter().enumerate() {
            local_of[m.index()] = local;
        }
        let mut sub = FaultSchedule::new()
            .failover_penalty_ms(schedule.failover_penalty())
            .timeline_bucket_ms(schedule.timeline_bucket());
        for event in schedule.events() {
            match event.kind {
                FaultKind::CacheDown { cache }
                | FaultKind::CacheUp { cache }
                | FaultKind::CacheRetire { cache } => {
                    let local = local_of[cache.index()];
                    if local == usize::MAX {
                        continue;
                    }
                    let kind = match event.kind {
                        FaultKind::CacheDown { .. } => FaultKind::CacheDown {
                            cache: CacheId(local),
                        },
                        FaultKind::CacheUp { .. } => FaultKind::CacheUp {
                            cache: CacheId(local),
                        },
                        _ => FaultKind::CacheRetire {
                            cache: CacheId(local),
                        },
                    };
                    sub.push(event.time_ms, kind);
                }
                FaultKind::BrownoutStart { .. } | FaultKind::BrownoutEnd => {
                    sub.push(event.time_ms, event.kind);
                }
            }
        }
        sub
    }

    #[test]
    fn member_network_reads_origin_and_member_rows() {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let members = [CacheId(2), CacheId(0)];
        let sub = member_network(network.rtt_matrix(), &members);
        assert_eq!(sub.cache_count(), 2);
        assert_eq!(
            sub.cache_to_origin(CacheId(0)),
            network.cache_to_origin(CacheId(2))
        );
        assert_eq!(
            sub.cache_to_origin(CacheId(1)),
            network.cache_to_origin(CacheId(0))
        );
        assert_eq!(
            sub.cache_to_cache(CacheId(0), CacheId(1)),
            network.cache_to_cache(CacheId(2), CacheId(0))
        );
    }

    #[test]
    fn member_network_is_the_same_over_an_oracle_and_its_materialization() {
        let rtt = SyntheticRttConfig::default().generate(9, 5);
        let full = RttMatrix::from_fn(9, |a, b| rtt.rtt_ms(a, b));
        let members = [CacheId(5), CacheId(0), CacheId(7)];
        let via_oracle = member_network(&rtt, &members);
        assert_eq!(via_oracle, member_network(&full, &members));
        assert_eq!(
            via_oracle,
            EdgeNetwork::from_rtt_matrix(full.submatrix(&[0, 6, 1, 8]))
        );
    }

    #[test]
    fn member_schedules_keep_members_and_brownouts() {
        let mut schedule = FaultSchedule::new()
            .failover_penalty_ms(7.0)
            .timeline_bucket_ms(2_000.0);
        schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(0) });
        schedule.push(2.0, FaultKind::CacheDown { cache: CacheId(1) });
        schedule.push(3.0, FaultKind::BrownoutStart { factor: 2.0 });
        schedule.push(4.0, FaultKind::CacheUp { cache: CacheId(0) });
        schedule.push(5.0, FaultKind::BrownoutEnd);
        schedule.push(6.0, FaultKind::CacheRetire { cache: CacheId(3) });
        let groups = groups();
        let subs = member_schedules(&schedule, &groups, &local_ids(&groups));
        assert_eq!(subs.len(), 2);
        let sub = &subs[0];
        assert_eq!(sub.failover_penalty(), 7.0);
        assert_eq!(sub.timeline_bucket(), 2_000.0);
        // Member order is [2, 0], so global cache 0 is local 1; the
        // group-1 events (caches 1 and 3) are gone, brownouts stay.
        let kinds: Vec<FaultKind> = sub.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::CacheDown { cache: CacheId(1) },
                FaultKind::BrownoutStart { factor: 2.0 },
                FaultKind::CacheUp { cache: CacheId(1) },
                FaultKind::BrownoutEnd,
            ]
        );
    }

    #[test]
    fn an_empty_schedule_partitions_without_the_id_map_and_keeps_its_knobs() {
        let schedule = FaultSchedule::new()
            .failover_penalty_ms(9.0)
            .timeline_bucket_ms(750.0);
        let groups = groups();
        let subs = member_schedules(&schedule, &groups, &[]);
        assert_eq!(subs.len(), groups.group_count());
        for (g, sub) in subs.iter().enumerate() {
            assert_eq!(sub, &member_schedule(&schedule, &groups, g));
            assert!(sub.is_empty());
            assert_eq!(sub.failover_penalty(), 9.0);
            assert_eq!(sub.timeline_bucket(), 750.0);
        }
    }

    /// A random partition of `caches` caches into non-empty groups whose
    /// member lists are in arbitrary (non-ascending) order.
    fn random_group_map(caches: usize, rng: &mut StdRng) -> GroupMap {
        let mut ids: Vec<CacheId> = (0..caches).map(CacheId).collect();
        for i in (1..caches).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut groups: Vec<Vec<CacheId>> = Vec::new();
        while !ids.is_empty() {
            let take = rng.gen_range(1..=ids.len().min(6));
            groups.push(ids.split_off(ids.len() - take));
        }
        GroupMap::new(caches, groups).expect("valid partition")
    }

    proptest! {
        #[test]
        fn member_schedules_equal_the_per_shard_filter(
            seed in any::<u64>(),
            caches in 1usize..40,
            events in 0usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let groups = random_group_map(caches, &mut rng);
            let mut schedule = FaultSchedule::new()
                .failover_penalty_ms(rng.gen_range(0.0..20.0))
                .timeline_bucket_ms(rng.gen_range(1.0..9_000.0));
            for _ in 0..events {
                // A coarse clock makes equal instants (and outright
                // duplicate events) common; the partition is a pure
                // routing of events, so it need not be a valid script.
                let time_ms = f64::from(rng.gen_range(0u32..8)) * 500.0;
                let cache = CacheId(rng.gen_range(0..caches));
                let kind = match rng.gen_range(0..5) {
                    0 => FaultKind::CacheDown { cache },
                    1 => FaultKind::CacheUp { cache },
                    2 => FaultKind::CacheRetire { cache },
                    3 => FaultKind::BrownoutStart { factor: 2.0 },
                    _ => FaultKind::BrownoutEnd,
                };
                schedule.push(time_ms, kind);
                if rng.gen_bool(0.2) {
                    schedule.push(time_ms, kind);
                }
            }
            let subs = member_schedules(&schedule, &groups, &local_ids(&groups));
            prop_assert_eq!(subs.len(), groups.group_count());
            for (g, sub) in subs.iter().enumerate() {
                prop_assert_eq!(sub, &member_schedule(&schedule, &groups, g));
            }
        }
    }
}
