//! The timeline run: one trace, a *sequence* of groupings.
//!
//! A continuously maintained deployment re-forms its groups while
//! traffic keeps flowing: the lifecycle supervisor emits a timeline of
//! **epochs**, each an interval `[start, next_start)` served by one
//! [`GroupMap`]. [`simulate_epochs`] runs a single request/update trace
//! across such a timeline: it validates the whole input once, in trace
//! order, then splits the trace at the epoch boundaries and runs each
//! segment through the group-major driver under its own epoch's
//! grouping, folding the per-segment reports in epoch order. Absolute
//! timestamps are preserved end to end, so warmup cutoffs and
//! degradation-timeline buckets land exactly where a single-grouping
//! run would put them.
//!
//! ## Boundary semantics
//!
//! * **Validate, then segment.** The epochs, schedule and trace are
//!   checked before anything is cut, with [`crate::simulate`]'s
//!   precedence and the caller's trace positions in the error — an
//!   event whose time is NaN, negative or infinite lies in no
//!   `[start, end)` window, so segmenting first would drop it silently.
//! * **Cold restart.** Caches and the origin restart empty at every
//!   epoch boundary — the conservative model of a re-formation that
//!   reshuffles membership (content held under the old grouping is not
//!   guaranteed to be reachable under the new one). With a single
//!   epoch there is no boundary and the result — report and
//!   observability document — is bit-identical to [`crate::simulate`]
//!   on the same input.
//! * **Fault carry-over.** The global [`FaultSchedule`] is split per
//!   epoch; state that straddles a boundary (a cache still down, a
//!   retirement) is reconstructed from
//!   [`FaultSchedule::carry_state_at`] and re-announced at the epoch
//!   start *before* any in-window event at the same instant (the
//!   simulator's FIFO tie-break preserves push order). Re-announcement
//!   means a crash spanning `k` boundaries is counted `k + 1` times by
//!   the degradation `crashes` counter — it is genuinely announced to
//!   each segment's simulator.
//! * **Determinism.** Segments run in epoch order and each is the
//!   thread-invariant group-major run, so the merged report and the
//!   one document the run flushes — group rows in run order, fault
//!   events once from the *global* schedule, queue depth and `sim` span
//!   for the whole trace — are byte-identical serial or pooled, at any
//!   `ECG_THREADS` setting.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use ecg_cache::CacheStats;
use ecg_topology::CacheId;
use ecg_workload::TraceEvent;

use crate::driver::{self, RunContext, SimPlan, TraceSource};
use crate::event::validate_trace;
use crate::fault::{FaultKind, FaultSchedule};
use crate::groups::GroupMap;
use crate::metrics::MetricsRecorder;
use crate::sim::{GroupOutcome, SimError, SimReport, Tallies};

/// One serving interval of a formation timeline: from `start_ms` until
/// the next epoch's start (or forever, for the last epoch), requests
/// are routed under `groups`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEpoch {
    /// Simulated time at which this grouping starts serving, ms.
    pub start_ms: f64,
    /// The cache-to-group partition serving the epoch.
    pub groups: GroupMap,
}

impl ReplayEpoch {
    /// Convenience constructor.
    pub fn new(start_ms: f64, groups: GroupMap) -> Self {
        ReplayEpoch { start_ms, groups }
    }
}

/// Why a timeline run was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochReplayError {
    /// The timeline has no epochs at all.
    NoEpochs,
    /// The first epoch does not start at time zero, so part of the
    /// trace would have no grouping to serve it.
    FirstEpochStart(f64),
    /// Epoch starts must be finite and strictly increasing.
    NonMonotonicStart {
        /// Index of the offending epoch.
        index: usize,
        /// Its start time, ms.
        start_ms: f64,
    },
    /// An epoch's grouping covers a different cache population than the
    /// network.
    CacheCountMismatch {
        /// Index of the offending epoch.
        epoch: usize,
        /// Caches in the network.
        expected: usize,
        /// Caches covered by the epoch's grouping.
        found: usize,
    },
    /// The plan's trace source is a [`crate::StreamedWorkload`]: a
    /// timeline segments a materialized trace, and generation
    /// parameters have nothing to cut.
    StreamedTrace,
    /// The schedule or the trace is invalid (same cases as
    /// [`crate::simulate`]; an event index is a position in the
    /// caller's trace).
    Sim(SimError),
}

impl fmt::Display for EpochReplayError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochReplayError::NoEpochs => write!(out, "timeline has no epochs"),
            EpochReplayError::FirstEpochStart(t) => {
                write!(out, "first epoch starts at {t} ms, must start at 0")
            }
            EpochReplayError::NonMonotonicStart { index, start_ms } => write!(
                out,
                "epoch {index} starts at {start_ms} ms, not after its predecessor"
            ),
            EpochReplayError::CacheCountMismatch {
                epoch,
                expected,
                found,
            } => write!(
                out,
                "epoch {epoch} groups {found} caches but the network has {expected}"
            ),
            EpochReplayError::StreamedTrace => {
                write!(out, "a timeline run needs a materialized trace")
            }
            EpochReplayError::Sim(e) => write!(out, "timeline run failed: {e}"),
        }
    }
}

impl Error for EpochReplayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EpochReplayError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for EpochReplayError {
    fn from(e: SimError) -> Self {
        EpochReplayError::Sim(e)
    }
}

/// Simulates `plan` across a timeline of groupings — each epoch's
/// segment of the trace under that epoch's grouping — and merges the
/// segment reports in epoch order: [`crate::simulate`]'s timeline
/// form. `ctx` works as there; its [`crate::RunStats`] count every
/// epoch's shards.
///
/// See the [module docs](self) for the boundary semantics. With a
/// single epoch this is bit-identical to [`crate::simulate`], report
/// and observability document.
///
/// # Errors
///
/// [`EpochReplayError`] — in this order of precedence — on a streamed
/// trace source, an invalid timeline, an invalid fault schedule, or the
/// first invalid event in trace order.
///
/// # Examples
///
/// ```
/// use ecg_sim::{simulate_epochs, GroupMap, ReplayEpoch, RunContext, SimPlan};
/// use ecg_topology::fixtures::paper_figure1;
/// use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let rtt = paper_figure1();
/// let mut rng = StdRng::seed_from_u64(1);
/// let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
/// let requests = RequestConfig::default().generate(&catalog, 6, 10_000.0, &mut rng);
/// let trace = merge_streams(&requests, &[]);
///
/// // One group for the first half, every cache on its own after it.
/// let epochs = [
///     ReplayEpoch::new(0.0, GroupMap::one_group(6)),
///     ReplayEpoch::new(5_000.0, GroupMap::singletons(6)),
/// ];
/// let mut ctx = RunContext::pooled();
/// let report = simulate_epochs(&SimPlan::new(&rtt, &catalog, &trace), &epochs, &mut ctx)?;
/// assert_eq!(report.metrics.total_requests(), requests.len() as u64);
/// assert_eq!((ctx.stats().epochs, ctx.stats().shards), (2, 7));
/// # Ok::<(), ecg_sim::EpochReplayError>(())
/// ```
pub fn simulate_epochs(
    plan: &SimPlan<'_>,
    epochs: &[ReplayEpoch],
    ctx: &mut RunContext<'_>,
) -> Result<SimReport, EpochReplayError> {
    let TraceSource::Events(trace) = plan.trace else {
        return Err(EpochReplayError::StreamedTrace);
    };
    let n = plan.rtt.node_count().saturating_sub(1);
    validate_epochs(n, epochs)?;
    plan.schedule.validate(n).map_err(SimError::from)?;
    validate_trace(n, plan.catalog.len(), trace)?;

    let (exec, stats) = ctx.begin(epochs.len());
    let mut tallies = Tallies::default();
    let mut segments: Vec<SimReport> = Vec::with_capacity(epochs.len());
    let in_time_order = trace.windows(2).all(|w| w[0].time_ms() <= w[1].time_ms());
    for (i, epoch) in epochs.iter().enumerate() {
        let end_ms = epochs.get(i + 1).map_or(f64::INFINITY, |e| e.start_ms);
        let segment_trace = segment(trace, in_time_order, epoch.start_ms, end_ms);
        let schedule = segment_schedule(plan.schedule, epoch.start_ms, end_ms);
        let segment_plan = SimPlan {
            trace: TraceSource::Events(&segment_trace),
            schedule: &schedule,
            ..*plan
        };
        let outcome = driver::run(&segment_plan, &epoch.groups, exec, stats)?;
        tallies.absorb(outcome.tallies);
        segments.push(outcome.report);
    }

    let report = merge_segments(n, &segments);
    Ok(ctx.finish(GroupOutcome { report, tallies }, plan, trace.len()))
}

/// The events of `trace` with a time in `[start_ms, end_ms)`, in trace
/// order: a sub-slice of a trace that is in time order (every generator
/// emits one), a filtered copy of any other.
fn segment(
    trace: &[TraceEvent],
    in_time_order: bool,
    start_ms: f64,
    end_ms: f64,
) -> Cow<'_, [TraceEvent]> {
    if in_time_order {
        let from = trace.partition_point(|e| e.time_ms() < start_ms);
        let to = trace.partition_point(|e| e.time_ms() < end_ms);
        return Cow::Borrowed(&trace[from..to]);
    }
    let inside = |e: &&TraceEvent| e.time_ms() >= start_ms && e.time_ms() < end_ms;
    Cow::Owned(trace.iter().filter(inside).copied().collect())
}

/// Checks the timeline invariants: at least one epoch, first at time 0,
/// finite strictly-increasing starts, every grouping covering the full
/// cache population.
fn validate_epochs(n: usize, epochs: &[ReplayEpoch]) -> Result<(), EpochReplayError> {
    let first = epochs.first().ok_or(EpochReplayError::NoEpochs)?;
    if first.start_ms != 0.0 {
        return Err(EpochReplayError::FirstEpochStart(first.start_ms));
    }
    for (i, e) in epochs.iter().enumerate() {
        if !e.start_ms.is_finite() || (i > 0 && e.start_ms <= epochs[i - 1].start_ms) {
            return Err(EpochReplayError::NonMonotonicStart {
                index: i,
                start_ms: e.start_ms,
            });
        }
        if e.groups.cache_count() != n {
            return Err(EpochReplayError::CacheCountMismatch {
                epoch: i,
                expected: n,
                found: e.groups.cache_count(),
            });
        }
    }
    Ok(())
}

/// The fault schedule one epoch's segment replays: carried-over state
/// re-announced at the epoch start, then every in-window event. Carry
/// events are pushed *first* so the simulator's FIFO tie-break applies
/// them before same-instant in-window events.
fn segment_schedule(full: &FaultSchedule, start_ms: f64, end_ms: f64) -> FaultSchedule {
    let mut seg = FaultSchedule::new();
    let carry = full.carry_state_at(start_ms);
    for &cache in &carry.retired {
        seg.push(start_ms, FaultKind::CacheRetire { cache });
    }
    for &cache in &carry.down {
        seg.push(start_ms, FaultKind::CacheDown { cache });
    }
    for e in full.events() {
        if e.time_ms >= start_ms && e.time_ms < end_ms {
            seg.push(e.time_ms, e.kind);
        }
    }
    seg
}

/// Folds per-epoch reports into one network-wide report, in epoch
/// order. Unlike the within-segment shard merge (where every shard
/// replays the full update log), segments split the update log between
/// them, so `origin_updates` is summed.
fn merge_segments(cache_count: usize, segments: &[SimReport]) -> SimReport {
    let mut metrics = MetricsRecorder::new(cache_count);
    let identity: Vec<CacheId> = (0..cache_count).map(CacheId).collect();
    let mut cache_stats = CacheStats::default();
    let mut origin_fetches = 0u64;
    let mut origin_updates = 0u64;
    for seg in segments {
        metrics.merge_shard(&identity, &seg.metrics);
        cache_stats += seg.cache_stats;
        origin_fetches += seg.origin_fetches;
        origin_updates += seg.origin_updates;
    }
    SimReport {
        metrics,
        cache_stats,
        origin_updates,
        origin_fetches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use ecg_obs::Obs;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::RttMatrix;
    use ecg_workload::{
        generate_updates, merge_streams, CatalogConfig, DocumentCatalog, RequestConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (RttMatrix, DocumentCatalog, Vec<TraceEvent>) {
        let mut rng = StdRng::seed_from_u64(21);
        let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
        let requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .generate(&catalog, 6, 20_000.0, &mut rng);
        let updates = generate_updates(&catalog, 20_000.0, &mut rng);
        (paper_figure1(), catalog, merge_streams(&requests, &updates))
    }

    fn pairs() -> GroupMap {
        GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .expect("valid partition")
    }

    /// The timeline run of `plan` on the pool, no bundle.
    fn run(plan: &SimPlan<'_>, epochs: &[ReplayEpoch]) -> Result<SimReport, EpochReplayError> {
        simulate_epochs(plan, epochs, &mut RunContext::pooled())
    }

    #[test]
    fn a_segment_of_an_ordered_trace_is_borrowed_and_equals_the_filtered_copy() {
        let (_, _, trace) = fixture();
        let at = trace[trace.len() / 3].time_ms();
        for (start, end) in [
            (0.0, at),
            (at, 12_345.6),
            (12_345.6, f64::INFINITY),
            (30_000.0, f64::INFINITY),
        ] {
            let slice = segment(&trace, true, start, end);
            assert!(matches!(slice, Cow::Borrowed(_)));
            assert_eq!(slice, segment(&trace, false, start, end));
        }
    }

    #[test]
    fn single_epoch_is_bit_identical_to_the_one_grouping_run() {
        let (rtt, catalog, trace) = fixture();
        let mut schedule = FaultSchedule::new();
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(9_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        let plan = SimPlan::new(&rtt, &catalog, &trace).faults(&schedule);
        let epochs = [ReplayEpoch::new(0.0, pairs())];
        // Report, counts and the observability document, serial or pooled.
        for context in [RunContext::serial, RunContext::pooled] {
            let (mut timeline_obs, mut flat_obs) = (Obs::new(), Obs::new());
            let mut ctx = context().observe(Some(&mut timeline_obs));
            let merged = simulate_epochs(&plan, &epochs, &mut ctx).unwrap();
            let timeline_stats = ctx.stats();
            let mut ctx = context().observe(Some(&mut flat_obs));
            let flat = simulate(&plan, &pairs(), &mut ctx).unwrap();
            let stats = ctx.stats();
            assert_eq!(merged, flat);
            assert_eq!(timeline_obs.to_json(), flat_obs.to_json());
            assert_eq!(
                (
                    timeline_stats.epochs,
                    timeline_stats.shards,
                    timeline_stats.shard_events
                ),
                (stats.epochs, stats.shards, stats.shard_events)
            );
        }
    }

    #[test]
    fn epoch_switch_changes_serving_groups() {
        let (rtt, catalog, trace) = fixture();
        let plan = SimPlan::new(&rtt, &catalog, &trace);
        let epochs = [
            ReplayEpoch::new(0.0, GroupMap::one_group(6)),
            ReplayEpoch::new(10_000.0, GroupMap::singletons(6)),
        ];
        let merged = run(&plan, &epochs).unwrap();
        // Request conservation: splitting the trace loses nothing.
        let flat = simulate(&plan, &GroupMap::one_group(6), &mut RunContext::pooled()).unwrap();
        assert_eq!(
            merged.metrics.total_requests(),
            flat.metrics.total_requests()
        );
        // Singleton epochs have no peers: the merged run must show
        // strictly fewer peer hits than serving one big group
        // throughout.
        let peer_hits =
            |r: &SimReport| -> u64 { r.metrics.per_cache().iter().map(|a| a.peer_hits).sum() };
        assert!(peer_hits(&merged) < peer_hits(&flat));
        // And byte-stable: same inputs, same bytes.
        assert_eq!(merged, run(&plan, &epochs).unwrap());
    }

    #[test]
    fn faults_carry_across_epoch_boundaries() {
        let (rtt, catalog, trace) = fixture();
        // Down at 4 s, recovering at 15 s — spanning the 10 s boundary —
        // plus a permanent retirement.
        let mut schedule = FaultSchedule::new();
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(15_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        schedule.push(2_000.0, FaultKind::CacheRetire { cache: CacheId(5) });
        let plan = SimPlan::new(&rtt, &catalog, &trace).faults(&schedule);
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(10_000.0, pairs()),
        ];
        let mut obs = Obs::new();
        let mut ctx = RunContext::pooled().observe(Some(&mut obs));
        let merged = simulate_epochs(&plan, &epochs, &mut ctx).unwrap();
        let d = &merged.metrics.degradation;
        // The boundary re-announces the open crash and the retirement:
        // one announcement per segment that sees them.
        assert_eq!(d.crashes, 2, "crash announced in both segments");
        assert_eq!(d.recoveries, 1, "recovery only in the second");
        assert_eq!(d.retirements, 2, "retirement re-announced");
        assert!(d.saw_faults());
        // The document lists the global schedule once, carry events
        // excluded, and one group row per shard in run order.
        assert_eq!(obs.metrics.counter("sim.fault_events"), 3);
        assert_eq!(obs.trace.len(), 3);
        let served = |g: usize| -> u64 {
            ["local_hits", "peer_hits", "coop_misses"]
                .iter()
                .map(|name| obs.metrics.counter(&format!("sim.group.{g:03}.{name}")))
                .sum()
        };
        assert_eq!(
            (0..6).map(served).sum::<u64>() + obs.metrics.counter("sim.failovers"),
            merged.metrics.total_requests()
        );
        assert_eq!(served(6), 0);
        assert_eq!(
            obs.metrics.gauge("sim.queue.max_depth"),
            Some((trace.len() + schedule.len()) as f64)
        );
    }

    #[test]
    fn the_carried_state_is_the_one_the_simulator_fired_into() {
        // 1.0004 ms and 1.0001 ms are both 1 000 µs: the recovery (pushed
        // first) fires before the second crash, so cache 0 is down from
        // then on — in one segment or across a boundary at 2 ms.
        let (rtt, catalog, _) = fixture();
        let trace = [TraceEvent::Request(ecg_workload::Request {
            time_ms: 3.0,
            cache: 0,
            doc: ecg_workload::DocId(0),
        })];
        let mut schedule = FaultSchedule::new();
        let cache = CacheId(0);
        schedule.push(0.5, FaultKind::CacheDown { cache });
        schedule.push(1.0004, FaultKind::CacheUp { cache });
        schedule.push(1.0001, FaultKind::CacheDown { cache });
        let plan = SimPlan::new(&rtt, &catalog, &trace).faults(&schedule);
        let flat = simulate(&plan, &pairs(), &mut RunContext::serial()).unwrap();
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(2.0, pairs()),
        ];
        let split = run(&plan, &epochs).unwrap();
        assert_eq!(flat.metrics.degradation.failovers, 1);
        assert_eq!(split.metrics.degradation.failovers, 1);
    }

    #[test]
    fn timeline_run_is_thread_invariant() {
        let (rtt, catalog, trace) = fixture();
        let plan = SimPlan::new(&rtt, &catalog, &trace);
        let epochs = [
            ReplayEpoch::new(0.0, GroupMap::one_group(6)),
            ReplayEpoch::new(8_000.0, pairs()),
            ReplayEpoch::new(14_000.0, GroupMap::singletons(6)),
        ];
        let observed = |ctx: RunContext<'_>| {
            let mut obs = Obs::new();
            let report = simulate_epochs(&plan, &epochs, &mut ctx.observe(Some(&mut obs)));
            (report.unwrap(), obs.to_json())
        };
        let serial = observed(RunContext::serial());
        for threads in [1, 4] {
            ecg_par::set_max_threads(Some(threads));
            let pooled = observed(RunContext::pooled());
            ecg_par::set_max_threads(None);
            assert_eq!(pooled, serial, "{threads} threads");
        }
    }

    #[test]
    fn invalid_timelines_are_rejected() {
        let (rtt, catalog, trace) = fixture();
        let plan = SimPlan::new(&rtt, &catalog, &trace);
        let run = |epochs: &[ReplayEpoch]| run(&plan, epochs).unwrap_err();
        assert_eq!(run(&[]), EpochReplayError::NoEpochs);
        assert_eq!(
            run(&[ReplayEpoch::new(5.0, pairs())]),
            EpochReplayError::FirstEpochStart(5.0)
        );
        assert!(matches!(
            run(&[
                ReplayEpoch::new(0.0, pairs()),
                ReplayEpoch::new(3_000.0, pairs()),
                ReplayEpoch::new(3_000.0, pairs()),
            ]),
            EpochReplayError::NonMonotonicStart { index: 2, .. }
        ));
        assert!(matches!(
            run(&[
                ReplayEpoch::new(0.0, pairs()),
                ReplayEpoch::new(2_000.0, GroupMap::one_group(5)),
            ]),
            EpochReplayError::CacheCountMismatch {
                epoch: 1,
                expected: 6,
                found: 5
            }
        ));
        // Errors display something human-readable.
        assert!(run(&[]).to_string().contains("no epochs"));
    }

    #[test]
    fn a_streamed_source_has_nothing_to_segment() {
        let (rtt, catalog, _) = fixture();
        let workload = crate::StreamedWorkload::new(RequestConfig::default(), 3, 5_000.0);
        let plan = SimPlan::streamed(&rtt, &catalog, &workload);
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(2_500.0, GroupMap::one_group(6)),
        ];
        let err = run(&plan, &epochs).unwrap_err();
        assert_eq!(err, EpochReplayError::StreamedTrace);
        assert!(err.to_string().contains("materialized"));
    }

    #[test]
    fn an_invalid_schedule_or_event_is_rejected_before_anything_is_cut() {
        let (rtt, catalog, mut trace) = fixture();
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(10_000.0, GroupMap::one_group(6)),
        ];
        // A NaN fault time used to reach the carry-state sort.
        let mut bad_schedule = FaultSchedule::new();
        bad_schedule.push(f64::NAN, FaultKind::CacheDown { cache: CacheId(1) });
        let plan = SimPlan::new(&rtt, &catalog, &trace).faults(&bad_schedule);
        assert!(matches!(
            run(&plan, &epochs),
            Err(EpochReplayError::Sim(SimError::Fault(_)))
        ));
        // An event with no valid time lies in no epoch's window; it is
        // the error, under its position in the caller's trace.
        let victim = trace.len() - 1;
        match &mut trace[victim] {
            TraceEvent::Request(r) => r.time_ms = f64::NAN,
            TraceEvent::Update(u) => u.time_ms = f64::NAN,
        }
        let plan = SimPlan::new(&rtt, &catalog, &trace);
        assert_eq!(
            run(&plan, &epochs),
            Err(EpochReplayError::Sim(SimError::EventTimeInvalid {
                index: victim
            }))
        );
    }
}
