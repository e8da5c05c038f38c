//! Epoch-spanning replay: one trace, a *sequence* of groupings.
//!
//! A continuously maintained deployment re-forms its groups while
//! traffic keeps flowing: the lifecycle supervisor emits a timeline of
//! **epochs**, each an interval `[start, next_start)` served by one
//! [`GroupMap`]. This module replays a single request/update trace
//! across such a timeline by splitting it at the epoch boundaries and
//! replaying each segment — via the sharded engine in [`crate`] — under
//! its own epoch's grouping, then folding the per-segment reports in
//! epoch order. Absolute timestamps are preserved end to end, so warmup
//! cutoffs and degradation-timeline buckets land exactly where a
//! single-grouping run would put them.
//!
//! ## Boundary semantics
//!
//! * **Cold restart.** Caches and the origin restart empty at every
//!   epoch boundary — the conservative model of a re-formation that
//!   reshuffles membership (content held under the old grouping is not
//!   guaranteed to be reachable under the new one). With a single
//!   epoch there is no boundary and the result is bit-identical to
//!   [`crate::replay_sharded`] on the same input.
//! * **Fault carry-over.** The global [`FaultSchedule`] is split per
//!   epoch; state that straddles a boundary (a cache still down, a
//!   retirement, an open brownout) is reconstructed from
//!   [`FaultSchedule::carry_state_at`] and re-announced at the epoch
//!   start *before* any in-window event at the same instant (the
//!   simulator's FIFO tie-break preserves push order). Re-announcement
//!   means a crash spanning `k` boundaries is counted `k + 1` times by
//!   the degradation `crashes` counter — it is genuinely announced to
//!   each segment's simulator.
//! * **Determinism.** Segments replay serially in epoch order and each
//!   segment is the thread-invariant sharded replay, so the merged
//!   report is byte-identical at any `ECG_THREADS` setting.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use ecg_cache::CacheStats;
use ecg_obs::Obs;
use ecg_sim::fault::FaultKind;
use ecg_sim::{DegradationMetrics, FaultSchedule, GroupMap, MetricsRecorder, SimError, SimReport};
use ecg_topology::{CacheId, EdgeNetwork};
use ecg_workload::{DocumentCatalog, TraceEvent};

use crate::{replay_sharded_observed, ReplayConfig, ReplayTimings};

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

/// Why an epoch-spanning replay was rejected.
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
    /// A segment replay failed (same cases as
    /// [`ecg_sim::simulate_with_faults`]).
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
            EpochReplayError::Sim(e) => write!(out, "segment replay failed: {e}"),
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

/// A merged epoch-spanning replay result plus its run telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReplayReport {
    /// The merged simulation report across all epochs.
    pub report: SimReport,
    /// Wall-clock stage timings summed over all segments
    /// (non-deterministic; for benchmarks).
    pub timings: ReplayTimings,
    /// Number of epochs replayed.
    pub epochs: usize,
    /// Total shards across all segments.
    pub shards: usize,
    /// Total events fed across all shards of all segments.
    pub shard_events: u64,
}

/// Replays `trace` across a timeline of groupings, one sharded replay
/// per epoch, and merges the segment reports in epoch order.
///
/// See the [module docs](self) for the boundary semantics. With a
/// single epoch starting at 0 this is bit-identical to
/// [`crate::replay_sharded`].
///
/// # Errors
///
/// [`EpochReplayError`] on an invalid timeline, or any [`SimError`] a
/// segment replay reports.
pub fn replay_epochs(
    network: &EdgeNetwork,
    epochs: &[ReplayEpoch],
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
) -> Result<SimReport, EpochReplayError> {
    replay_epochs_observed(network, epochs, catalog, trace, config, None).map(|r| r.report)
}

/// Like [`replay_epochs`], returning aggregated timings and recording
/// `replay.epochs` counters plus a `replay_epochs` phase span (one
/// child per epoch, work = segment events) into `obs` when supplied.
/// All observed values are deterministic counts, never wall-clock.
///
/// # Errors
///
/// Exactly as [`replay_epochs`].
pub fn replay_epochs_observed(
    network: &EdgeNetwork,
    epochs: &[ReplayEpoch],
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: &ReplayConfig,
    obs: Option<&mut Obs>,
) -> Result<EpochReplayReport, EpochReplayError> {
    let n = network.cache_count();
    validate_epochs(n, epochs)?;

    let mut timings = ReplayTimings::default();
    let mut shards = 0usize;
    let mut segment_events: Vec<u64> = Vec::with_capacity(epochs.len());
    let mut segments: Vec<SimReport> = Vec::with_capacity(epochs.len());
    let in_time_order = trace.windows(2).all(|w| w[0].time_ms() <= w[1].time_ms());
    for (i, epoch) in epochs.iter().enumerate() {
        let end_ms = epochs.get(i + 1).map_or(f64::INFINITY, |e| e.start_ms);
        let segment_trace = segment(trace, in_time_order, epoch.start_ms, end_ms);
        let segment_config =
            ReplayConfig::new()
                .sim(*config.sim_config())
                .schedule(segment_schedule(
                    config.fault_schedule(),
                    epoch.start_ms,
                    end_ms,
                ));
        let seg = replay_sharded_observed(
            network,
            &epoch.groups,
            catalog,
            &segment_trace,
            &segment_config,
            None,
        )?;
        timings.plan_ms += seg.timings.plan_ms;
        timings.shards_ms += seg.timings.shards_ms;
        timings.merge_ms += seg.timings.merge_ms;
        shards += seg.shards;
        segment_events.push(seg.shard_events);
        segments.push(seg.report);
    }

    let report = merge_segments(n, config.fault_schedule().timeline_bucket(), &segments);
    let out = EpochReplayReport {
        report,
        timings,
        epochs: epochs.len(),
        shards,
        shard_events: segment_events.iter().sum(),
    };
    if let Some(o) = obs {
        o.metrics.add("replay.epochs", out.epochs as u64);
        o.metrics.add("replay.epoch_shards", out.shards as u64);
        o.metrics.add("replay.epoch_events", out.shard_events);
        let mut span = o.phases.span("replay_epochs");
        span.add_work(out.epochs as f64);
        for (i, events) in segment_events.iter().enumerate() {
            let mut child = span.child(&format!("epoch{i}"));
            child.add_work(*events as f64);
        }
    }
    Ok(out)
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
/// re-announced at the epoch start, then every in-window event, knobs
/// preserved. Carry events are pushed *first* so the simulator's FIFO
/// tie-break applies them before same-instant in-window events.
fn segment_schedule(full: &FaultSchedule, start_ms: f64, end_ms: f64) -> FaultSchedule {
    let mut seg = FaultSchedule::new()
        .failover_penalty_ms(full.failover_penalty())
        .timeline_bucket_ms(full.timeline_bucket());
    let carry = full.carry_state_at(start_ms);
    for &cache in &carry.retired {
        seg.push(start_ms, FaultKind::CacheRetire { cache });
    }
    for &cache in &carry.down {
        seg.push(start_ms, FaultKind::CacheDown { cache });
    }
    if let Some(factor) = carry.brownout_factor {
        seg.push(start_ms, FaultKind::BrownoutStart { factor });
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
fn merge_segments(cache_count: usize, bucket_ms: f64, segments: &[SimReport]) -> SimReport {
    let mut metrics = MetricsRecorder::new(cache_count);
    metrics.degradation = DegradationMetrics::new(bucket_ms);
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
    use ecg_topology::fixtures::paper_figure1;
    use ecg_workload::{generate_updates, merge_streams, CatalogConfig, RequestConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (EdgeNetwork, DocumentCatalog, Vec<TraceEvent>) {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(21);
        let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
        let requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .generate(&catalog, 6, 20_000.0, &mut rng);
        let updates = generate_updates(&catalog, 20_000.0, &mut rng);
        (network, catalog, merge_streams(&requests, &updates))
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
    fn single_epoch_is_bit_identical_to_sharded_replay() {
        let (network, catalog, trace) = fixture();
        let mut schedule = FaultSchedule::new();
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(9_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        let config = ReplayConfig::new().schedule(schedule);
        let epochs = [ReplayEpoch::new(0.0, pairs())];
        let merged = replay_epochs(&network, &epochs, &catalog, &trace, &config).unwrap();
        let flat = crate::replay_sharded(&network, &pairs(), &catalog, &trace, &config).unwrap();
        assert_eq!(merged, flat);
    }

    #[test]
    fn epoch_switch_changes_serving_groups() {
        let (network, catalog, trace) = fixture();
        let config = ReplayConfig::new();
        let epochs = [
            ReplayEpoch::new(0.0, GroupMap::one_group(6)),
            ReplayEpoch::new(10_000.0, GroupMap::singletons(6)),
        ];
        let merged = replay_epochs(&network, &epochs, &catalog, &trace, &config).unwrap();
        // Request conservation: splitting the trace loses nothing.
        let flat =
            crate::replay_sharded(&network, &GroupMap::one_group(6), &catalog, &trace, &config)
                .unwrap();
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
        let again = replay_epochs(&network, &epochs, &catalog, &trace, &config).unwrap();
        assert_eq!(merged, again);
    }

    #[test]
    fn faults_carry_across_epoch_boundaries() {
        let (network, catalog, trace) = fixture();
        // Down at 4 s, recovering at 15 s — spanning the 10 s boundary —
        // plus a brownout open across it and a permanent retirement.
        let mut schedule = FaultSchedule::new();
        schedule.push(4_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(15_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        schedule.push(6_000.0, FaultKind::BrownoutStart { factor: 3.0 });
        schedule.push(18_000.0, FaultKind::BrownoutEnd);
        schedule.push(2_000.0, FaultKind::CacheRetire { cache: CacheId(5) });
        let config = ReplayConfig::new().schedule(schedule);
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(10_000.0, pairs()),
        ];
        let merged = replay_epochs(&network, &epochs, &catalog, &trace, &config).unwrap();
        let d = &merged.metrics.degradation;
        // The boundary re-announces the open crash and the retirement:
        // one announcement per segment that sees them.
        assert_eq!(d.crashes, 2, "crash announced in both segments");
        assert_eq!(d.recoveries, 1, "recovery only in the second");
        assert_eq!(d.retirements, 2, "retirement re-announced");
        assert!(d.saw_faults());
    }

    #[test]
    fn epoch_replay_is_thread_invariant() {
        let (network, catalog, trace) = fixture();
        let epochs = [
            ReplayEpoch::new(0.0, GroupMap::one_group(6)),
            ReplayEpoch::new(8_000.0, pairs()),
            ReplayEpoch::new(14_000.0, GroupMap::singletons(6)),
        ];
        let config = ReplayConfig::new();
        ecg_par::set_max_threads(Some(1));
        let serial = replay_epochs(&network, &epochs, &catalog, &trace, &config);
        ecg_par::set_max_threads(Some(4));
        let parallel = replay_epochs(&network, &epochs, &catalog, &trace, &config);
        ecg_par::set_max_threads(None);
        assert_eq!(serial.unwrap(), parallel.unwrap());
    }

    #[test]
    fn invalid_timelines_are_rejected() {
        let (network, catalog, trace) = fixture();
        let config = ReplayConfig::new();
        let run = |epochs: &[ReplayEpoch]| {
            replay_epochs(&network, epochs, &catalog, &trace, &config).unwrap_err()
        };
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
    fn observed_variant_matches_plain_and_counts_epochs() {
        let (network, catalog, trace) = fixture();
        let epochs = [
            ReplayEpoch::new(0.0, pairs()),
            ReplayEpoch::new(10_000.0, GroupMap::one_group(6)),
        ];
        let config = ReplayConfig::new();
        let mut obs = Obs::new();
        let observed =
            replay_epochs_observed(&network, &epochs, &catalog, &trace, &config, Some(&mut obs))
                .unwrap();
        let plain = replay_epochs(&network, &epochs, &catalog, &trace, &config).unwrap();
        assert_eq!(observed.report, plain);
        assert_eq!(observed.epochs, 2);
        assert_eq!(observed.shards, 4, "three pairs + one big group");
        assert_eq!(obs.metrics.counter("replay.epochs"), 2);
        assert_eq!(
            obs.metrics.counter("replay.epoch_events"),
            observed.shard_events
        );
    }
}
