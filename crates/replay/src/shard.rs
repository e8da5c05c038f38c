//! Shard planning: what both replay paths split once, up front.
//!
//! A shard is the restriction of the global replay to one group: its
//! members' requests (re-indexed to local ids), **all** origin updates,
//! its members' fault events plus all brownout windows, and the RTT
//! sub-matrix over `[origin, members…]`. Everything here is
//! order-preserving — each shard's event sequence is a subsequence of
//! the global one, which together with the simulator's FIFO tie-break
//! at equal instants is what makes the merged report bit-identical.
//!
//! Whatever reads the whole network (id map, trace and fault-schedule
//! passes) runs here once per replay; a shard touches only its group.

use ecg_sim::fault::FaultKind;
use ecg_sim::{FaultSchedule, GroupMap, SimError, SimTime};
use ecg_topology::{CacheId, EdgeNetwork, RttSource};
use ecg_workload::{DocumentCatalog, Request, TraceEvent, Update};

/// Mirrors the monolithic simulator's input validation — references
/// first, then the timestamp, event by event — so replay fails with the
/// same [`SimError`] before any shard is spawned (shards then run on
/// known-good inputs).
pub(crate) fn validate(
    cache_count: usize,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    schedule: &FaultSchedule,
) -> Result<(), SimError> {
    if groups.cache_count() != cache_count {
        return Err(SimError::CacheCountMismatch {
            network: cache_count,
            groups: groups.cache_count(),
        });
    }
    schedule.validate(cache_count)?;
    for (index, event) in trace.iter().enumerate() {
        let doc = match event {
            TraceEvent::Request(r) => {
                if r.cache >= cache_count {
                    return Err(SimError::RequestCacheOutOfRange { cache: r.cache });
                }
                r.doc
            }
            TraceEvent::Update(u) => u.doc,
        };
        if doc.index() >= catalog.len() {
            return Err(SimError::DocOutOfRange { doc: doc.index() });
        }
        if SimTime::try_from_ms(event.time_ms()).is_none() {
            return Err(SimError::EventTimeInvalid { index });
        }
    }
    Ok(())
}

/// Global cache id → position within its group's member list: the one
/// map the request split and the fault split both localize through.
pub(crate) fn local_ids(groups: &GroupMap) -> Vec<usize> {
    let mut local_of = vec![0usize; groups.cache_count()];
    for members in groups.groups() {
        for (local, &m) in members.iter().enumerate() {
            local_of[m.index()] = local;
        }
    }
    local_of
}

/// The global trace split once, up front: per-group request runs plus
/// the shared update log, each entry tagged with its original trace
/// position so a shard's sub-trace can be rebuilt as an exact
/// subsequence by a two-pointer position merge.
///
/// Requests are localized (global cache id → index within the member
/// list) at split time; updates are shared untouched across all shards.
pub(crate) struct RequestPartition {
    per_group: Vec<Vec<(usize, Request)>>,
    updates: Vec<(usize, Update)>,
}

impl RequestPartition {
    /// One pass over the trace: `O(len(trace))` plus one localized
    /// request copy per event. `local_of` is [`local_ids`] of `groups`.
    pub(crate) fn build(groups: &GroupMap, local_of: &[usize], trace: &[TraceEvent]) -> Self {
        let mut per_group: Vec<Vec<(usize, Request)>> =
            (0..groups.group_count()).map(|_| Vec::new()).collect();
        let mut updates = Vec::new();
        for (pos, event) in trace.iter().enumerate() {
            match event {
                TraceEvent::Request(r) => {
                    let localized = Request {
                        cache: local_of[r.cache],
                        ..*r
                    };
                    per_group[groups.group_of(CacheId(r.cache))].push((pos, localized));
                }
                TraceEvent::Update(u) => updates.push((pos, *u)),
            }
        }
        RequestPartition { per_group, updates }
    }

    /// Group `g`'s sub-trace: its localized requests merged with the
    /// shared update log by original trace position. Positions are
    /// disjoint, so the merge reproduces the exact relative order the
    /// monolithic event loop saw.
    pub(crate) fn subtrace(&self, g: usize) -> Vec<TraceEvent> {
        let reqs = &self.per_group[g];
        let ups = &self.updates;
        let mut out = Vec::with_capacity(reqs.len() + ups.len());
        let (mut ri, mut ui) = (0usize, 0usize);
        while ri < reqs.len() || ui < ups.len() {
            let take_update = match (reqs.get(ri), ups.get(ui)) {
                (Some(&(rp, _)), Some(&(up, _))) => up < rp,
                (None, Some(_)) => true,
                _ => false,
            };
            if take_update {
                out.push(TraceEvent::Update(ups[ui].1));
                ui += 1;
            } else {
                out.push(TraceEvent::Request(reqs[ri].1));
                ri += 1;
            }
        }
        out
    }
}

/// The shard's edge network: one batched [`RttSource::submatrix`] query
/// over `[origin, members…]` (node 0 is the origin, node `i + 1` cache
/// `i`), in member-list order so local cache `i` is `members[i]` and
/// equal-RTT peer ties resolve as in the full network.
pub(crate) fn member_network(rtt: &dyn RttSource, members: &[CacheId]) -> EdgeNetwork {
    let mut nodes = Vec::with_capacity(members.len() + 1);
    nodes.push(0);
    nodes.extend(members.iter().map(|m| m.index() + 1));
    EdgeNetwork::from_rtt_matrix(rtt.submatrix(&nodes))
}

/// Every group's fault script from one pass over the global schedule:
/// a cache event goes to its cache's group re-indexed to the local id,
/// a brownout event to every group (the origin is shared), all in the
/// original push order. Failover penalty and timeline bucket carry over
/// so degradation metrics bucket identically, events or no events.
///
/// `local_of` is [`local_ids`] of `groups`, read only for cache events:
/// a caller with an empty schedule need not build it.
pub(crate) fn member_schedules(
    schedule: &FaultSchedule,
    groups: &GroupMap,
    local_of: &[usize],
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
                *cache = CacheId(local_of[cache.index()]);
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
    use ecg_workload::DocId;
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

    fn req(time_ms: f64, cache: usize, doc: usize) -> TraceEvent {
        TraceEvent::Request(Request {
            time_ms,
            cache,
            doc: DocId(doc),
        })
    }

    fn upd(time_ms: f64, doc: usize) -> TraceEvent {
        TraceEvent::Update(Update {
            time_ms,
            doc: DocId(doc),
        })
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
    fn partition_localizes_and_preserves_order() {
        let trace = vec![
            req(1.0, 1, 0),
            upd(2.0, 5),
            req(2.0, 2, 1), // group 0, local id 0 (member order [2, 0])
            req(3.0, 0, 2), // group 0, local id 1
            upd(4.0, 6),
            req(5.0, 3, 3), // group 1, local id 1
        ];
        let groups = groups();
        let plan = RequestPartition::build(&groups, &local_ids(&groups), &trace);
        assert_eq!(
            plan.subtrace(0),
            vec![upd(2.0, 5), req(2.0, 0, 1), req(3.0, 1, 2), upd(4.0, 6)]
        );
        assert_eq!(
            plan.subtrace(1),
            vec![req(1.0, 0, 0), upd(2.0, 5), upd(4.0, 6), req(5.0, 1, 3)]
        );
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
