//! The group-major driver: how every run reaches the kernel.
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
//! by-position [`TracePlan`], the fault split. Per-group outcomes are
//! folded in group order — the order every `f64` chain of the
//! time-major loop already follows — so the merged [`SimReport`] is
//! bit-identical to [`simulate_time_major`] however the groups were
//! scheduled: serially on the caller's thread ([`run`], behind the four
//! `simulate*` entry points) or fanned over a worker pool by
//! `ecg-replay` through [`GroupRun`].

use crate::event::{local_ids, Timeline, TracePlan};
use crate::fault::{FaultKind, FaultSchedule};
use crate::groups::GroupMap;
use crate::metrics::{DegradationMetrics, MetricsRecorder};
use crate::sim::{
    check_inputs, kernel, simulate_time_major, GroupOutcome, SimConfig, SimError, SimReport,
    Tallies,
};
use ecg_cache::CacheStats;
use ecg_obs::Obs;
use ecg_topology::{CacheId, EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, TraceEvent};

/// Whether `groups` is at most one group listing the caches in id
/// order: local ids equal global ids and the sub-matrix is the matrix.
fn is_whole_network(groups: &GroupMap) -> bool {
    match groups.groups() {
        [] => true,
        [members] => members.iter().enumerate().all(|(i, m)| m.index() == i),
        _ => false,
    }
}

/// One simulation, serially on the caller's thread: what the four
/// `simulate*` entry points call. One group in id order *is* the whole
/// network, so that case goes to the kernel on the caller's inputs — no
/// plan, no sub-matrix.
pub(crate) fn run(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    config: SimConfig,
    schedule: &FaultSchedule,
    mut obs: Option<&mut Obs>,
) -> Result<SimReport, SimError> {
    if is_whole_network(groups) {
        return simulate_time_major(network, groups, catalog, trace, config, schedule, obs);
    }
    let rtt = network.rtt_matrix();
    let run = GroupRun::new(rtt, groups, catalog, Some(trace), config, schedule)?;
    // Folded as they finish: one group's caches are live at a time.
    let each = (0..groups.group_count()).map(|g| run.group(g, obs.as_deref_mut()));
    let merged = run.fold(each);
    Ok(merged.finish(obs, config, schedule, trace.len()))
}

/// A validated, planned run whose groups can be simulated in any order
/// and on any thread, then merged: the seam `ecg-replay` fans out over
/// its worker pool.
#[doc(hidden)]
#[derive(Debug)]
pub struct GroupRun<'a> {
    rtt: &'a dyn RttSource,
    groups: &'a GroupMap,
    catalog: &'a DocumentCatalog,
    config: SimConfig,
    schedule: &'a FaultSchedule,
    /// [`local_ids`] of `groups`; empty when nothing is routed through it.
    local_of: Vec<u32>,
    /// Each group's fault script, from [`member_schedules`].
    schedules: Vec<FaultSchedule>,
    /// The materialized trace and its split; `None` when the caller
    /// supplies each group's sub-trace ([`GroupRun::group_on`]).
    planned: Option<(&'a [TraceEvent], TracePlan)>,
}

impl<'a> GroupRun<'a> {
    /// Validates the inputs as [`simulate_time_major`] does — map, then
    /// schedule, then `trace` event by event — and plans the run. With
    /// no global `trace` (the caller generates each group's sub-trace)
    /// there is only the fault split to plan. `rtt` spans
    /// `[origin, caches…]`.
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::simulate_with_faults`].
    pub fn new(
        rtt: &'a dyn RttSource,
        groups: &'a GroupMap,
        catalog: &'a DocumentCatalog,
        trace: Option<&'a [TraceEvent]>,
        config: SimConfig,
        schedule: &'a FaultSchedule,
    ) -> Result<Self, SimError> {
        check_inputs(rtt.node_count().saturating_sub(1), groups, schedule)?;
        let planned = match trace {
            Some(trace) => Some((trace, TracePlan::build(groups, catalog.len(), trace)?)),
            None => None,
        };
        // Only planned requests and cache fault events go through the
        // N-entry id map.
        let local_of = if planned.is_some() || !schedule.is_empty() {
            local_ids(groups)
        } else {
            Vec::new()
        };
        Ok(GroupRun {
            rtt,
            groups,
            catalog,
            config,
            schedule,
            schedules: member_schedules(schedule, groups, &local_of),
            local_of,
            planned,
        })
    }

    /// Simulates group `g`'s share of the planned trace.
    ///
    /// # Panics
    ///
    /// Panics if the run was built without a trace.
    pub fn group(&self, g: usize, obs: Option<&mut Obs>) -> GroupOutcome {
        let (trace, plan) = self
            .planned
            .as_ref()
            .expect("a run without a trace takes sub-traces through `group_on`");
        let timeline = Timeline::for_group(trace, plan, g, &self.local_of, &self.schedules[g]);
        self.kernel_on(g, timeline, obs)
    }

    /// Simulates group `g` over `subtrace`: its members' requests under
    /// local ids (member-list positions) plus the update log, as
    /// `ecg-replay`'s streamed shards regenerate them.
    ///
    /// # Panics
    ///
    /// Panics if `subtrace` is not valid for the group and catalog.
    pub fn group_on(&self, g: usize, subtrace: &[TraceEvent]) -> GroupOutcome {
        let members = self.groups.groups()[g].len();
        let timeline = Timeline::new(members, self.catalog.len(), subtrace, &self.schedules[g])
            .expect("a generated sub-trace references its own members and catalog");
        self.kernel_on(g, timeline, None)
    }

    fn kernel_on(&self, g: usize, timeline: Timeline<'_>, obs: Option<&mut Obs>) -> GroupOutcome {
        let members = &self.groups.groups()[g];
        kernel(
            &member_network(self.rtt, members),
            &GroupMap::one_group(members.len()),
            self.catalog,
            timeline,
            self.config,
            &self.schedules[g],
            obs,
        )
    }

    /// Folds every group's outcome, given in group order, into the
    /// run's report; also returns the trace events fed across all
    /// groups (each replays the full update log).
    pub fn merge(&self, outcomes: Vec<GroupOutcome>) -> (SimReport, u64) {
        let merged = self.fold(outcomes.into_iter());
        (merged.report, merged.tallies.trace_events)
    }

    /// The group-order fold (the order every `f64` chain was validated
    /// against), consuming each outcome as the iterator yields it.
    fn fold(&self, outcomes: impl Iterator<Item = GroupOutcome>) -> GroupOutcome {
        let mut metrics = MetricsRecorder::new(self.groups.cache_count());
        metrics.degradation = DegradationMetrics::new(self.schedule.timeline_bucket());
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
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::{RttMatrix, SyntheticRttConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn only_one_group_in_id_order_is_the_whole_network() {
        let cid = |ids: &[usize]| ids.iter().copied().map(CacheId).collect::<Vec<_>>();
        assert!(is_whole_network(&GroupMap::one_group(5)));
        assert!(is_whole_network(&GroupMap::singletons(1)));
        let backwards = GroupMap::new(3, vec![cid(&[2, 1, 0])]).unwrap();
        assert!(!is_whole_network(&backwards));
        assert!(!is_whole_network(&GroupMap::singletons(2)));
        assert!(!is_whole_network(&groups()));
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
