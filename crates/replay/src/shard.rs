//! Shard planning for materialized traces.
//!
//! A shard is the restriction of the global replay to one group: its
//! members' requests (re-indexed to local ids), **all** origin updates,
//! its members' fault events plus all brownout windows, and the RTT
//! sub-matrix over `[origin, members…]`. Everything here is
//! order-preserving — each shard's event sequence is a subsequence of
//! the global one, which together with the simulator's FIFO tie-break
//! at equal instants is what makes the merged report bit-identical.

use ecg_sim::fault::FaultKind;
use ecg_sim::{FaultSchedule, GroupMap, SimError, SimTime};
use ecg_topology::{CacheId, EdgeNetwork};
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
    /// request copy per event.
    pub(crate) fn build(groups: &GroupMap, trace: &[TraceEvent]) -> Self {
        // global cache id -> position within its group's member list.
        let mut local_of = vec![0usize; groups.cache_count()];
        for members in groups.groups() {
            for (local, &m) in members.iter().enumerate() {
                local_of[m.index()] = local;
            }
        }
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

/// The shard's edge network: the RTT sub-matrix over
/// `[origin, members…]`, in member-list order so local cache `i` is
/// `members[i]` and equal-RTT peer ties resolve as in the full network.
pub(crate) fn member_network(network: &EdgeNetwork, members: &[CacheId]) -> EdgeNetwork {
    let mut indices = Vec::with_capacity(members.len() + 1);
    indices.push(0); // origin row/column of the [origin, caches…] matrix
    indices.extend(members.iter().map(|m| m.index() + 1));
    EdgeNetwork::from_rtt_matrix(network.rtt_matrix().submatrix(&indices))
}

/// The shard's fault script: group `g`'s member events re-indexed to
/// local ids, plus every brownout window (the origin is shared), in the
/// original push order. Failover penalty and timeline bucket carry over
/// so degradation metrics bucket identically.
pub(crate) fn member_schedule(
    schedule: &FaultSchedule,
    groups: &GroupMap,
    g: usize,
) -> FaultSchedule {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_workload::DocId;

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
        let plan = RequestPartition::build(&groups(), &trace);
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
        let sub = member_network(&network, &members);
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
    fn member_schedule_keeps_members_and_brownouts() {
        let mut schedule = FaultSchedule::new()
            .failover_penalty_ms(7.0)
            .timeline_bucket_ms(2_000.0);
        schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(0) });
        schedule.push(2.0, FaultKind::CacheDown { cache: CacheId(1) });
        schedule.push(3.0, FaultKind::BrownoutStart { factor: 2.0 });
        schedule.push(4.0, FaultKind::CacheUp { cache: CacheId(0) });
        schedule.push(5.0, FaultKind::BrownoutEnd);
        schedule.push(6.0, FaultKind::CacheRetire { cache: CacheId(3) });
        let sub = member_schedule(&schedule, &groups(), 0);
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
}
