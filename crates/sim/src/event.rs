//! Simulator events and the order a run processes them in.
//!
//! A run interleaves the workload trace with the fault schedule by
//! `(time quantised to µs, faults before trace events, input order)`:
//! at equal instants a crash lands before the requests of that instant,
//! and same-instant trace events keep their trace order. The
//! crate-internal `Timeline` produces that order without copying the
//! trace, for the whole trace or for **one group's share of it**:
//!
//! * the whole trace is walked in place — every generator
//!   (`merge_streams`, the streamed shards' sub-traces) already emits
//!   time-ordered events — and merged with the short, time-sorted fault
//!   list by two cursors; only a trace that is not already ordered pays
//!   for one stable index sort;
//! * a group's share is two lists of `u32` trace positions out of a
//!   `TracePlan` — the group's own requests and the update log every
//!   group replays — both already in processing order, merged by
//!   `(time, position)`. That is the order the stable sort gives the
//!   whole trace, so the group sees the exact subsequence of the
//!   whole-trace walk, and the plan costs 4 bytes per event where a
//!   per-group copy of the events cost 32. Requests are re-indexed to
//!   the group's local cache ids as they are yielded.

use crate::fault::FaultSchedule;
use crate::groups::GroupMap;
use crate::sim::SimError;
use crate::time::SimTime;
use ecg_topology::CacheId;
use ecg_workload::{DocId, TraceEvent};
use std::borrow::Cow;

/// An event processed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A document update lands at the origin server.
    OriginUpdate {
        /// The updated document.
        doc: DocId,
    },
    /// A client request arrives at an edge cache.
    ClientRequest {
        /// The cache the client hits.
        cache: CacheId,
        /// The requested document.
        doc: DocId,
    },
    /// A scheduled fault fires; `idx` points into the run's
    /// [`FaultSchedule`].
    Fault {
        /// Index of the fault in the schedule's event list.
        idx: usize,
    },
}

/// Validates `trace` against a network of `caches` caches and a catalog
/// of `docs` documents, event by event in trace order — references
/// first, then the timestamp — handing each valid event to `visit`.
/// Returns whether the quantised times never decrease, i.e. whether
/// trace order already is processing order.
///
/// # Errors
///
/// The first trace event, in trace order, with an unknown cache or
/// document or a negative / NaN / infinite timestamp.
fn scan_trace(
    caches: usize,
    docs: usize,
    trace: &[TraceEvent],
    mut visit: impl FnMut(&TraceEvent),
) -> Result<bool, SimError> {
    let mut ordered = true;
    let mut previous = SimTime::ZERO;
    for (index, event) in trace.iter().enumerate() {
        let doc = match event {
            TraceEvent::Request(r) => {
                if r.cache >= caches {
                    return Err(SimError::RequestCacheOutOfRange { cache: r.cache });
                }
                r.doc
            }
            TraceEvent::Update(u) => u.doc,
        };
        if doc.index() >= docs {
            return Err(SimError::DocOutOfRange { doc: doc.index() });
        }
        let at =
            SimTime::try_from_ms(event.time_ms()).ok_or(SimError::EventTimeInvalid { index })?;
        ordered &= previous <= at;
        previous = at;
        visit(event);
    }
    Ok(ordered)
}

/// The trace checks of [`Timeline::new`] on their own, with the same
/// errors: what a timeline run makes once, over the caller's whole
/// trace, before it cuts the trace into segments.
pub(crate) fn validate_trace(
    caches: usize,
    docs: usize,
    trace: &[TraceEvent],
) -> Result<(), SimError> {
    scan_trace(caches, docs, trace, |_| {}).map(drop)
}

/// Processing order of a validated trace: every position, in place when
/// `ordered`, else stably sorted by quantised time.
fn processing_order(trace: &[TraceEvent], ordered: bool) -> Option<Vec<u32>> {
    (!ordered).then(|| {
        let mut order: Vec<u32> = (0..position_count(trace)).collect();
        order.sort_by_key(|&i| SimTime::from_ms(trace[i as usize].time_ms()));
        order
    })
}

/// `trace.len()` as the `u32` its positions are kept in.
fn position_count(trace: &[TraceEvent]) -> u32 {
    u32::try_from(trace.len()).expect("a trace holds fewer than 2^32 events")
}

/// `(time, schedule index)` of every fault, stably sorted by time: the
/// order a run fires them in. `schedule` must already have passed
/// [`FaultSchedule::validate`] (its times are then finite).
pub(crate) fn fault_order(schedule: &FaultSchedule) -> Vec<(SimTime, usize)> {
    let mut faults: Vec<(SimTime, usize)> = schedule
        .events()
        .iter()
        .enumerate()
        .map(|(idx, fault)| (SimTime::from_ms(fault.time_ms), idx))
        .collect();
    faults.sort_by_key(|&(at, _)| at);
    faults
}

/// Global cache id → position within its group's member list: the one
/// map requests and cache fault events are both re-indexed through.
pub(crate) fn local_ids(groups: &GroupMap) -> Vec<u32> {
    let mut local_of = vec![0u32; groups.cache_count()];
    for members in groups.groups() {
        for (local, m) in members.iter().enumerate() {
            local_of[m.index()] = u32::try_from(local).expect("a group has < 2^32 members");
        }
    }
    local_of
}

/// The trace split per group **by position**: one validated pass yields
/// each group's request positions and the shared update positions, all
/// in processing order. Nothing of the trace is copied.
#[derive(Debug)]
pub(crate) struct TracePlan {
    /// Request positions, group by group: group `g`'s are
    /// `requests[starts[g]..starts[g + 1]]`.
    requests: Vec<u32>,
    starts: Vec<usize>,
    updates: Vec<u32>,
}

impl TracePlan {
    /// Validates `trace` (as [`Timeline::new`] does, with the same
    /// errors) and splits it over `groups`: a counting pass sizes the
    /// lists exactly, a second pass in processing order fills them.
    pub(crate) fn build(
        groups: &GroupMap,
        docs: usize,
        trace: &[TraceEvent],
    ) -> Result<Self, SimError> {
        let k = groups.group_count();
        let mut starts = vec![0usize; k + 1];
        let mut update_count = 0usize;
        let ordered = scan_trace(groups.cache_count(), docs, trace, |event| match event {
            TraceEvent::Request(r) => starts[groups.group_of(CacheId(r.cache)) + 1] += 1,
            TraceEvent::Update(_) => update_count += 1,
        })?;
        for g in 0..k {
            starts[g + 1] += starts[g];
        }
        let mut requests = vec![0u32; starts[k]];
        let mut updates = Vec::with_capacity(update_count);
        let mut fill = starts.clone();
        let mut place = |position: u32| match &trace[position as usize] {
            TraceEvent::Request(r) => {
                let slot = &mut fill[groups.group_of(CacheId(r.cache))];
                requests[*slot] = position;
                *slot += 1;
            }
            TraceEvent::Update(_) => updates.push(position),
        };
        match processing_order(trace, ordered) {
            None => (0..position_count(trace)).for_each(place),
            Some(order) => order.into_iter().for_each(&mut place),
        }
        Ok(TracePlan {
            requests,
            starts,
            updates,
        })
    }
}

/// The events of one run — trace (or a group's share of it) plus fault
/// schedule — in processing order, yielded lazily as `(time, event)`:
/// a merge of up to three cursors, each already in processing order.
pub(crate) struct Timeline<'a> {
    trace: &'a [TraceEvent],
    /// The main cursor's trace positions: `None` walks the trace in
    /// place; otherwise the whole trace stably sorted by time, or one
    /// group's requests.
    positions: Option<Cow<'a, [u32]>>,
    next: usize,
    /// The second cursor of a group walk: every update's position.
    updates: &'a [u32],
    next_update: usize,
    /// `(time, position)` at each of the two cursors.
    head: Option<(SimTime, usize)>,
    update_head: Option<(SimTime, usize)>,
    /// Re-indexes the cache of a yielded request ([`local_ids`]).
    local_of: Option<&'a [u32]>,
    /// [`fault_order`] of the run's schedule.
    faults: Vec<(SimTime, usize)>,
    next_fault: usize,
}

impl<'a> Timeline<'a> {
    /// Validates `trace` against a network of `caches` caches and a
    /// catalog of `docs` documents and fixes the processing order, in
    /// one pass over the trace. `schedule` must already have passed
    /// [`FaultSchedule::validate`] (its times are then finite).
    ///
    /// # Errors
    ///
    /// The first trace event, in trace order, with an unknown cache or
    /// document or a negative / NaN / infinite timestamp.
    pub(crate) fn new(
        caches: usize,
        docs: usize,
        trace: &'a [TraceEvent],
        schedule: &FaultSchedule,
    ) -> Result<Self, SimError> {
        let ordered = scan_trace(caches, docs, trace, |_| {})?;
        let order = processing_order(trace, ordered).map(Cow::Owned);
        Ok(Self::over(trace, order, &[], None, schedule))
    }

    /// Group `g`'s share of the trace `plan` was built from — its
    /// requests, re-indexed through `local_of` ([`local_ids`] of the
    /// plan's groups), and every update — merged with `schedule`, the
    /// group's own (validated, local-id) fault script.
    pub(crate) fn for_group(
        trace: &'a [TraceEvent],
        plan: &'a TracePlan,
        g: usize,
        local_of: &'a [u32],
        schedule: &FaultSchedule,
    ) -> Self {
        let requests = &plan.requests[plan.starts[g]..plan.starts[g + 1]];
        Self::over(
            trace,
            Some(Cow::Borrowed(requests)),
            &plan.updates,
            Some(local_of),
            schedule,
        )
    }

    fn over(
        trace: &'a [TraceEvent],
        positions: Option<Cow<'a, [u32]>>,
        updates: &'a [u32],
        local_of: Option<&'a [u32]>,
        schedule: &FaultSchedule,
    ) -> Self {
        let mut timeline = Timeline {
            trace,
            positions,
            next: 0,
            updates,
            next_update: 0,
            head: None,
            update_head: None,
            local_of,
            faults: fault_order(schedule),
            next_fault: 0,
        };
        timeline.head = timeline.main_head();
        timeline.update_head = timeline.second_head();
        timeline
    }

    /// Number of trace events in the run (yielded or not), faults
    /// excluded.
    pub(crate) fn trace_events(&self) -> usize {
        let main = self
            .positions
            .as_ref()
            .map_or(self.trace.len(), |p| p.len());
        main + self.updates.len()
    }

    /// `(time, position)` of the trace event at `position`.
    fn at(&self, position: usize) -> (SimTime, usize) {
        (SimTime::from_ms(self.trace[position].time_ms()), position)
    }

    fn main_head(&self) -> Option<(SimTime, usize)> {
        let position = match &self.positions {
            None => (self.next < self.trace.len()).then_some(self.next)?,
            Some(positions) => *positions.get(self.next)? as usize,
        };
        Some(self.at(position))
    }

    fn second_head(&self) -> Option<(SimTime, usize)> {
        Some(self.at(*self.updates.get(self.next_update)? as usize))
    }
}

impl Iterator for Timeline<'_> {
    type Item = (SimTime, Event);

    fn next(&mut self) -> Option<(SimTime, Event)> {
        // Both cursors hold disjoint positions of one trace, whose
        // processing order is `(time, position)`.
        let from_updates = match (self.head, self.update_head) {
            (Some(main), Some(update)) => update < main,
            (None, Some(_)) => true,
            _ => false,
        };
        let trace_head = if from_updates {
            self.update_head
        } else {
            self.head
        };
        if let Some(&(at, idx)) = self.faults.get(self.next_fault) {
            if trace_head.is_none_or(|(trace_at, _)| at <= trace_at) {
                self.next_fault += 1;
                return Some((at, Event::Fault { idx }));
            }
        }
        let (at, position) = trace_head?;
        if from_updates {
            self.next_update += 1;
            self.update_head = self.second_head();
        } else {
            self.next += 1;
            self.head = self.main_head();
        }
        let event = match self.trace[position] {
            TraceEvent::Request(r) => Event::ClientRequest {
                cache: CacheId(
                    self.local_of
                        .map_or(r.cache, |local_of| local_of[r.cache] as usize),
                ),
                doc: r.doc,
            },
            TraceEvent::Update(u) => Event::OriginUpdate { doc: u.doc },
        };
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use ecg_workload::{Request, Update};
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The binary-heap event queue the simulator used to copy every run
    /// into, kept as the ordering oracle: earliest time first, FIFO on
    /// insertion sequence at equal times.
    #[derive(Default)]
    struct EventQueue {
        heap: BinaryHeap<Scheduled>,
        seq: u64,
    }

    #[derive(PartialEq, Eq)]
    struct Scheduled {
        time: SimTime,
        seq: u64,
        event: Event,
    }

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the earliest first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl EventQueue {
        fn schedule(&mut self, time: SimTime, event: Event) {
            self.heap.push(Scheduled {
                time,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }
    }

    /// What the heap-based loop processed: faults scheduled first, then
    /// the trace, popped until empty.
    fn heap_order(trace: &[TraceEvent], schedule: &FaultSchedule) -> Vec<(SimTime, Event)> {
        let mut queue = EventQueue::default();
        for (idx, fault) in schedule.events().iter().enumerate() {
            queue.schedule(SimTime::from_ms(fault.time_ms), Event::Fault { idx });
        }
        for event in trace {
            let scheduled = match *event {
                TraceEvent::Request(r) => Event::ClientRequest {
                    cache: CacheId(r.cache),
                    doc: r.doc,
                },
                TraceEvent::Update(u) => Event::OriginUpdate { doc: u.doc },
            };
            queue.schedule(SimTime::from_ms(event.time_ms()), scheduled);
        }
        std::iter::from_fn(|| queue.pop()).collect()
    }

    fn request(time_ms: f64, cache: usize, doc: usize) -> TraceEvent {
        TraceEvent::Request(Request {
            time_ms,
            cache,
            doc: DocId(doc),
        })
    }

    fn update(time_ms: f64, doc: usize) -> TraceEvent {
        TraceEvent::Update(Update {
            time_ms,
            doc: DocId(doc),
        })
    }

    fn walked_in_place(timeline: &Timeline<'_>) -> bool {
        timeline.positions.is_none()
    }

    fn docs_of(timeline: Timeline<'_>) -> Vec<usize> {
        timeline
            .map(|(_, event)| match event {
                Event::ClientRequest { doc, .. } | Event::OriginUpdate { doc } => doc.index(),
                Event::Fault { idx } => 100 + idx,
            })
            .collect()
    }

    #[test]
    fn oracle_pops_by_time_then_fifo() {
        let mut queue = EventQueue::default();
        for (time_ms, doc) in [(3.0, 0), (1.0, 1), (3.0, 2), (1.0, 3)] {
            queue.schedule(
                SimTime::from_ms(time_ms),
                Event::OriginUpdate { doc: DocId(doc) },
            );
        }
        let docs: Vec<usize> = std::iter::from_fn(|| queue.pop())
            .map(|(_, event)| match event {
                Event::OriginUpdate { doc } => doc.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(docs, vec![1, 3, 0, 2]);
    }

    #[test]
    fn ordered_trace_is_walked_in_place_with_faults_first_at_ties() {
        let trace = vec![request(1.0, 0, 0), update(2.0, 1), request(2.0, 1, 2)];
        let mut schedule = FaultSchedule::new();
        schedule.push(2.0, FaultKind::CacheDown { cache: CacheId(1) });
        schedule.push(0.5, FaultKind::CacheDown { cache: CacheId(0) });
        schedule.push(9.0, FaultKind::CacheUp { cache: CacheId(0) });
        let timeline = Timeline::new(2, 3, &trace, &schedule).unwrap();
        assert!(walked_in_place(&timeline), "no copy for an ordered trace");
        assert_eq!(timeline.trace_events(), 3);
        assert_eq!(docs_of(timeline), vec![101, 0, 100, 1, 2, 102]);
    }

    #[test]
    fn unordered_trace_is_stably_sorted() {
        // 2.0004 and 2.0 collide at 2000 µs, so trace order decides.
        let trace = vec![
            request(5.0, 0, 0),
            request(2.0004, 0, 1),
            update(2.0, 2),
            request(0.0, 0, 3),
        ];
        let timeline = Timeline::new(1, 4, &trace, &FaultSchedule::new()).unwrap();
        assert!(!walked_in_place(&timeline));
        assert_eq!(docs_of(timeline), vec![3, 1, 2, 0]);
    }

    #[test]
    fn hostile_events_are_typed_errors_in_trace_order() {
        let schedule = FaultSchedule::new();
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let trace = vec![request(0.0, 0, 0), update(bad, 0), request(bad, 0, 0)];
            let err = Timeline::new(1, 1, &trace, &schedule).err();
            assert_eq!(err, Some(SimError::EventTimeInvalid { index: 1 }), "{bad}");
        }
        // References are checked before the timestamp of the same event.
        let err = Timeline::new(1, 1, &[request(f64::NAN, 3, 0)], &schedule).err();
        assert_eq!(err, Some(SimError::RequestCacheOutOfRange { cache: 3 }));
        let err = Timeline::new(1, 1, &[update(f64::NAN, 7)], &schedule).err();
        assert_eq!(err, Some(SimError::DocOutOfRange { doc: 7 }));
    }

    #[test]
    fn plan_splits_by_position_and_localizes_on_the_way_out() {
        // Member order [2, 0] and [1, 3]: global cache 2 is local 0.
        let groups = GroupMap::new(
            4,
            vec![vec![CacheId(2), CacheId(0)], vec![CacheId(1), CacheId(3)]],
        )
        .unwrap();
        let trace = vec![
            request(1.0, 1, 0),
            update(2.0, 5),
            request(2.0, 2, 1),
            request(3.0, 0, 2),
            update(4.0, 6),
            request(5.0, 3, 3),
        ];
        let plan = TracePlan::build(&groups, 7, &trace).unwrap();
        assert_eq!(plan.requests, [2, 3, 0, 5]);
        assert_eq!(plan.starts, [0, 2, 4]);
        assert_eq!(plan.updates, [1, 4]);
        let local_of = local_ids(&groups);
        assert_eq!(local_of, [1, 0, 0, 1]);
        let walk = |g| {
            let timeline = Timeline::for_group(&trace, &plan, g, &local_of, &FaultSchedule::new());
            assert_eq!(timeline.trace_events(), 4);
            timeline.map(|(_, event)| event).collect::<Vec<_>>()
        };
        let served = |cache, doc| Event::ClientRequest {
            cache: CacheId(cache),
            doc: DocId(doc),
        };
        let updated = |doc| Event::OriginUpdate { doc: DocId(doc) };
        assert_eq!(
            walk(0),
            [updated(5), served(0, 1), served(1, 2), updated(6)]
        );
        assert_eq!(
            walk(1),
            [served(0, 0), updated(5), updated(6), served(1, 3)]
        );
        // Same errors, same precedence as the whole-trace walk.
        let err = TracePlan::build(&groups, 3, &trace).err();
        assert_eq!(err, Some(SimError::DocOutOfRange { doc: 5 }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each group's walk is the whole-trace walk restricted to that
        /// group's requests (under local ids), every update and every
        /// fault — ordered or not, ties and all.
        #[test]
        fn group_walks_are_subsequences_of_the_whole_walk(
            ticks in proptest::collection::vec(0u32..300, 0..80),
            fault_ticks in proptest::collection::vec(0u32..300, 0..6),
            presorted in any::<bool>(),
            stride in 1usize..4,
        ) {
            let mut ticks = ticks;
            if presorted {
                ticks.sort_unstable();
            }
            let ms = |tick: u32| f64::from(tick) * 0.0004;
            let trace: Vec<TraceEvent> = ticks
                .iter()
                .enumerate()
                .map(|(i, &tick)| if i % 3 == 0 {
                    update(ms(tick), i)
                } else {
                    request(ms(tick), i % 5, i)
                })
                .collect();
            let mut schedule = FaultSchedule::new();
            for &tick in &fault_ticks {
                schedule.push(ms(tick), FaultKind::BrownoutEnd);
            }
            // Five caches dealt round the groups, member lists descending.
            let mut lists = vec![Vec::new(); stride];
            for cache in (0..5).rev() {
                lists[cache % stride].push(CacheId(cache));
            }
            lists.retain(|members| !members.is_empty());
            let groups = GroupMap::new(5, lists).unwrap();
            let plan = TracePlan::build(&groups, trace.len(), &trace).unwrap();
            let local_of = local_ids(&groups);
            let whole: Vec<(SimTime, Event)> =
                Timeline::new(5, trace.len(), &trace, &schedule).unwrap().collect();
            for (g, members) in groups.groups().iter().enumerate() {
                let expected: Vec<(SimTime, Event)> = whole
                    .iter()
                    .filter_map(|&(at, event)| match event {
                        Event::ClientRequest { cache, doc } => members
                            .iter()
                            .position(|&m| m == cache)
                            .map(|local| (at, Event::ClientRequest { cache: CacheId(local), doc })),
                        other => Some((at, other)),
                    })
                    .collect();
                let walked: Vec<(SimTime, Event)> =
                    Timeline::for_group(&trace, &plan, g, &local_of, &schedule).collect();
                prop_assert_eq!(walked, expected);
            }
        }

        /// Times sit on a 0.4 µs grid over a short range, so neighbours
        /// collide once quantised to whole µs and exact duplicates are
        /// common — among trace events, among faults, and across both.
        #[test]
        fn timeline_yields_the_heap_pop_order(
            ticks in proptest::collection::vec(0u32..300, 0..80),
            fault_ticks in proptest::collection::vec(0u32..300, 0..10),
            presorted in any::<bool>(),
        ) {
            let mut ticks = ticks;
            if presorted {
                ticks.sort_unstable();
            }
            let ms = |tick: u32| f64::from(tick) * 0.0004;
            // The document id names the trace position, so equal-time
            // events stay distinguishable.
            let trace: Vec<TraceEvent> = ticks
                .iter()
                .enumerate()
                .map(|(i, &tick)| if i % 3 == 0 {
                    update(ms(tick), i)
                } else {
                    request(ms(tick), i % 4, i)
                })
                .collect();
            let mut schedule = FaultSchedule::new();
            for &tick in &fault_ticks {
                schedule.push(ms(tick), FaultKind::CacheDown { cache: CacheId(0) });
            }
            let timeline = Timeline::new(4, trace.len(), &trace, &schedule).unwrap();
            if presorted {
                prop_assert!(walked_in_place(&timeline));
            }
            prop_assert_eq!(timeline.trace_events(), trace.len());
            let merged: Vec<(SimTime, Event)> = timeline.collect();
            prop_assert_eq!(merged, heap_order(&trace, &schedule));
        }
    }
}
