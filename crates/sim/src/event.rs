//! Simulator events and the order a run processes them in.
//!
//! A run interleaves the workload trace with the fault schedule by
//! `(time quantised to µs, faults before trace events, input order)`:
//! at equal instants a crash lands before the requests of that instant,
//! and same-instant trace events keep their trace order. One
//! crate-internal walk, `GroupWalk`, produces that order for **one
//! group's share** of a run without copying the trace, planned or
//! streamed: two lanes, the group's requests and the update log every
//! group replays, each in processing order, merged by `(time, key)`,
//! with the group's short, time-sorted fault list. A planned lane is
//! `u32` positions out of a `TracePlan`, keyed by position — the stable
//! sort's order, 4 bytes of plan per event; only a trace that is not
//! already ordered pays for one stable index sort. A streamed lane is
//! records built ahead: the members' regenerated requests keyed by
//! time, and the run's one copy of the log (`log_records`), keyed so the
//! merge takes `merge_streams`' decisions. Either way the group sees the
//! exact subsequence of the whole run's order (the unit tests hold both
//! to a plain stable sort of the whole trace and schedule).
//!
//! A planned group's events lie scattered through the trace — with 25
//! groups, some 800 bytes apart — so reading them one at a time is one
//! cache miss per event that nothing overlaps. `GroupWalk` therefore
//! reads *dense records*: a fixed-capacity `RecordBlock`, one per
//! worker thread and reused by every group it runs, that a tight loop
//! refills from the front of each lane — gathered (time quantised,
//! cache re-indexed to the group's local id, once) or copied — so the
//! misses of one refill overlap and the event loop reads 24-byte
//! records side by side, whatever the group's size.

use crate::fault::{FaultSchedule, HORIZON};
use crate::groups::GroupMap;
use crate::sim::SimError;
use crate::time::SimTime;
use ecg_topology::CacheId;
use ecg_workload::{DocId, TraceEvent, Update};

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

/// Validates `trace` against a network of `caches` caches, a catalog of
/// `docs` documents and the run horizon ([`HORIZON`]), event by event
/// in trace order —
/// references first, then the timestamp — handing each valid event to
/// `visit`. Returns whether the quantised times never decrease, i.e.
/// whether trace order already is processing order.
///
/// # Errors
///
/// The first trace event, in trace order, with an unknown cache or
/// document, a negative / NaN / infinite timestamp, or one at or past
/// the horizon.
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
        if at >= HORIZON {
            return Err(SimError::EventTimeBeyondHorizon { index });
        }
        ordered &= previous <= at;
        previous = at;
        visit(event);
    }
    Ok(ordered)
}

/// The trace checks of [`TracePlan::build`] on their own, with the
/// same errors: what a timeline run makes once, over the caller's whole
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
        order.sort_by_key(|&i| SimTime::from_valid_ms(trace[i as usize].time_ms()));
        order
    })
}

/// `trace.len()` as the `u32` its positions are kept in.
fn position_count(trace: &[TraceEvent]) -> u32 {
    u32::try_from(trace.len()).expect("a trace holds fewer than 2^32 events")
}

/// `(time, schedule index)` of every fault, stably sorted by quantised
/// time: the order a run fires them in. The schedule's own queries
/// replay it too, on any schedule: a time no run accepts sorts first.
pub(crate) fn fault_order(schedule: &FaultSchedule) -> Vec<(SimTime, usize)> {
    let mut faults: Vec<(SimTime, usize)> = schedule
        .events()
        .iter()
        .enumerate()
        .map(|(idx, fault)| (SimTime::try_from_ms(fault.time_ms).unwrap_or_default(), idx))
        .collect();
    faults.sort_by_key(|&(at, _)| at);
    faults
}

/// The faults of a walk, in firing order, and how far it has got.
struct FaultCursor {
    /// [`fault_order`] of the walk's schedule.
    order: Vec<(SimTime, usize)>,
    next: usize,
}

impl FaultCursor {
    fn new(schedule: &FaultSchedule) -> Self {
        FaultCursor {
            order: fault_order(schedule),
            next: 0,
        }
    }

    /// The next fault, if it fires no later than the next trace event
    /// at `trace_head` (none: the trace is exhausted): at equal
    /// instants the fault comes first.
    #[inline]
    fn due(&mut self, trace_head: Option<SimTime>) -> Option<(SimTime, Event)> {
        let &(at, idx) = self.order.get(self.next)?;
        trace_head.is_none_or(|trace_at| at <= trace_at).then(|| {
            self.next += 1;
            (at, Event::Fault { idx })
        })
    }
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

/// The trace split per group **by position**: each group's request
/// positions and the shared update positions, all in processing order.
/// Nothing of the trace is copied.
#[derive(Debug)]
pub(crate) struct TracePlan {
    /// Request positions, group by group: group `g`'s are
    /// `requests[starts[g]..starts[g + 1]]`.
    requests: Vec<u32>,
    starts: Vec<usize>,
    updates: Vec<u32>,
}

impl TracePlan {
    /// Validates `trace` against a catalog of `docs` documents and the
    /// run horizon ([`HORIZON`]) and splits it over `groups`: the one
    /// pass that validates and quantises every event also counts each
    /// list's length, so the lists are sized exactly; a second loop,
    /// which only routes positions, fills them in processing order.
    ///
    /// # Errors
    ///
    /// The first trace event, in trace order, with an unknown cache or
    /// document, a negative / NaN / infinite timestamp, or one at or
    /// past the horizon.
    pub(crate) fn build(
        groups: &GroupMap,
        docs: usize,
        trace: &[TraceEvent],
    ) -> Result<Self, SimError> {
        let k = groups.group_count();
        let mut starts = vec![0usize; k + 1];
        let mut update_count = 0usize;
        let count = |event: &TraceEvent| match event {
            TraceEvent::Request(r) => starts[groups.group_of(CacheId(r.cache)) + 1] += 1,
            TraceEvent::Update(_) => update_count += 1,
        };
        let ordered = scan_trace(groups.cache_count(), docs, trace, count)?;
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

    /// How many requests group `g` has.
    pub(crate) fn request_count(&self, g: usize) -> usize {
        self.starts[g + 1] - self.starts[g]
    }
}

/// `ms` (finite, ≥ 0) as a [`Record::key`]: the bit pattern, negative
/// zero folded into the positive one, orders as the number does.
#[inline]
pub(crate) fn time_key(ms: f64) -> u64 {
    (ms + 0.0).to_bits()
}

/// One trace event of a group's share: what the event loop needs of it,
/// 24 bytes, next to its successor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Record {
    /// The event's time, quantised.
    pub(crate) at: SimTime,
    /// What orders an update before a request of the same µs, at equal
    /// keys too: a planned event's trace position; a streamed request's
    /// [`time_key`]; a streamed update's running maximum of the log's
    /// times up to it ([`log_records`]).
    pub(crate) key: u64,
    /// The requesting cache's local id, or [`Record::UPDATE`].
    pub(crate) cache: u32,
    pub(crate) doc: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() == 24);

impl Record {
    /// In place of a cache id: the record is an origin update.
    pub(crate) const UPDATE: u32 = u32::MAX;

    /// The record of an event at `time_ms` (already validated) for local
    /// `cache` (or [`Record::UPDATE`]) and `doc`, an index into a catalog
    /// the driver has checked holds fewer than 2³² documents.
    #[inline]
    pub(crate) fn new(time_ms: f64, key: u64, cache: u32, doc: DocId) -> Self {
        Record {
            at: SimTime::from_valid_ms(time_ms),
            key,
            cache,
            doc: doc.index() as u32,
        }
    }
}

/// A validated update log as a streamed lane, built once per run: its
/// records stably sorted by quantised time, each keyed by the running
/// maximum of the log's times up to it. Under
/// [`ecg_workload::merge_streams`]' step rule a request precedes update
/// `j` exactly when its time is below that maximum, sorted log or not.
pub(crate) fn log_records(updates: &[Update]) -> Vec<Record> {
    let mut latest = 0.0f64;
    let mut records: Vec<Record> = updates
        .iter()
        .map(|u| {
            latest = latest.max(u.time_ms);
            Record::new(u.time_ms, time_key(latest), Record::UPDATE, u.doc)
        })
        .collect();
    records.sort_by_key(|record| record.at);
    records
}

/// The records a [`GroupWalk`] reads its events from: a fixed number of
/// slots, half for the group's requests and half for the update log,
/// refilled as the walk drains them. One per worker thread, in its
/// group store, serves every group that thread runs.
#[derive(Debug)]
pub(crate) struct RecordBlock {
    records: Vec<Record>,
}

impl RecordBlock {
    /// Events of each kind gathered per refill: enough for the cache
    /// misses of a refill to overlap, few enough (2 × 128 × 24 B) to
    /// sit in L1 beside the group's caches.
    const LANE: usize = 128;

    /// A block whose two lanes hold `lane` (≥ 1) records each.
    fn with_lanes_of(lane: usize) -> Self {
        assert!(lane >= 1, "a lane holds at least one record");
        RecordBlock {
            records: vec![Record::default(); 2 * lane],
        }
    }
}

impl Default for RecordBlock {
    fn default() -> Self {
        RecordBlock::with_lanes_of(RecordBlock::LANE)
    }
}

/// What a lane has not yet refilled from.
enum Pending<'a> {
    /// Positions in a planned trace, gathered and localized through
    /// `local_of` ([`local_ids`]) on refill.
    Positions {
        positions: &'a [u32],
        trace: &'a [TraceEvent],
        local_of: &'a [u32],
    },
    /// Records built ahead, copied on refill.
    Records(&'a [Record]),
}

/// One of a group walk's two lanes and the records refilled from its
/// front.
struct Lane<'a> {
    pending: Pending<'a>,
    records: &'a mut [Record],
    /// `records[next..len]` are refilled and not yet yielded.
    next: usize,
    len: usize,
}

impl<'a> Lane<'a> {
    /// A lane through `records`, refilled once.
    fn new(pending: Pending<'a>, records: &'a mut [Record]) -> Self {
        let mut lane = Lane {
            pending,
            records,
            next: 0,
            len: 0,
        };
        lane.refill();
        lane
    }

    /// The next record to yield, if any is left.
    #[inline]
    fn head(&self) -> Option<&Record> {
        self.records[..self.len].get(self.next)
    }

    /// Steps past [`head`](Self::head), refilling when that was the last
    /// refilled record.
    #[inline]
    fn advance(&mut self) {
        self.next += 1;
        if self.next == self.len {
            self.refill();
        }
    }

    /// Refills the records from the front of what is pending. Positions
    /// are gathered in a loop of independent loads — the trace event,
    /// then the requester's local id — whose misses overlap; the trace
    /// passed [`scan_trace`], so times quantise and caches index
    /// `local_of`.
    fn refill(&mut self) {
        let room = self.records.len();
        self.len = match &mut self.pending {
            Pending::Positions {
                positions,
                trace,
                local_of,
            } => {
                let (gathered, rest) = positions.split_at(positions.len().min(room));
                for (record, &position) in self.records.iter_mut().zip(gathered) {
                    let key = u64::from(position);
                    *record = match trace[position as usize] {
                        TraceEvent::Request(r) => {
                            Record::new(r.time_ms, key, local_of[r.cache], r.doc)
                        }
                        TraceEvent::Update(u) => Record::new(u.time_ms, key, Record::UPDATE, u.doc),
                    };
                }
                *positions = rest;
                gathered.len()
            }
            Pending::Records(records) => {
                let (copied, rest) = records.split_at(records.len().min(room));
                self.records[..copied.len()].copy_from_slice(copied);
                *records = rest;
                copied.len()
            }
        };
        self.next = 0;
    }
}

/// The events of one run over **one group's share** — its requests
/// under local cache ids, every update, its fault script — in processing
/// order, yielded lazily as `(time, event)` out of a [`RecordBlock`].
pub(crate) struct GroupWalk<'a> {
    requests: Lane<'a>,
    updates: Lane<'a>,
    trace_events: usize,
    faults: FaultCursor,
}

impl<'a> GroupWalk<'a> {
    /// Group `g`'s share of the trace `plan` was built from, merged
    /// with `schedule`, the group's own (validated, local-id) fault
    /// script, reading through `block`.
    pub(crate) fn planned(
        trace: &'a [TraceEvent],
        plan: &'a TracePlan,
        g: usize,
        local_of: &'a [u32],
        schedule: &FaultSchedule,
        block: &'a mut RecordBlock,
    ) -> Self {
        let requests = &plan.requests[plan.starts[g]..plan.starts[g + 1]];
        let events = requests.len() + plan.updates.len();
        let lane = |positions| Pending::Positions {
            positions,
            trace,
            local_of,
        };
        let lanes = [lane(requests), lane(&plan.updates)];
        Self::new(lanes, events, schedule, block)
    }

    /// A streamed group's walk: its ordered, localized `requests`, keyed
    /// by [`time_key`], and the run's [`log_records`], merged with
    /// `schedule` as [`GroupWalk::planned`] does, through `block`.
    pub(crate) fn streamed(
        requests: &'a [Record],
        log: &'a [Record],
        schedule: &FaultSchedule,
        block: &'a mut RecordBlock,
    ) -> Self {
        let lanes = [Pending::Records(requests), Pending::Records(log)];
        Self::new(lanes, requests.len() + log.len(), schedule, block)
    }

    fn new(
        [requests, updates]: [Pending<'a>; 2],
        trace_events: usize,
        schedule: &FaultSchedule,
        block: &'a mut RecordBlock,
    ) -> Self {
        let lane = block.records.len() / 2;
        let (request_records, update_records) = block.records.split_at_mut(lane);
        GroupWalk {
            requests: Lane::new(requests, request_records),
            updates: Lane::new(updates, update_records),
            trace_events,
            faults: FaultCursor::new(schedule),
        }
    }

    /// Number of trace events in the run (yielded or not), faults
    /// excluded.
    pub(crate) fn trace_events(&self) -> usize {
        self.trace_events
    }
}

impl Iterator for GroupWalk<'_> {
    type Item = (SimTime, Event);

    fn next(&mut self) -> Option<(SimTime, Event)> {
        // Each lane is in processing order, and `(time, key)` orders an
        // update and a request as processing does, the update first at
        // equal keys (planned keys, positions, never are).
        let from_updates = match (self.requests.head(), self.updates.head()) {
            (Some(request), Some(update)) => (update.at, update.key) <= (request.at, request.key),
            (None, Some(_)) => true,
            _ => false,
        };
        let lane = if from_updates {
            &mut self.updates
        } else {
            &mut self.requests
        };
        let head = lane.head().copied();
        if let Some(fault) = self.faults.due(head.map(|record| record.at)) {
            return Some(fault);
        }
        let record = head?;
        lane.advance();
        let doc = DocId(record.doc as usize);
        let event = if record.cache == Record::UPDATE {
            Event::OriginUpdate { doc }
        } else {
            Event::ClientRequest {
                cache: CacheId(record.cache as usize),
                doc,
            }
        };
        Some((record.at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::stream::{member_requests, RequestBuffers, StreamedWorkload};
    use ecg_workload::{CatalogConfig, Request, RequestConfig, ZipfSampler};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// The simulator event a trace event becomes.
    fn event_of(event: &TraceEvent) -> Event {
        match *event {
            TraceEvent::Request(r) => Event::ClientRequest {
                cache: CacheId(r.cache),
                doc: r.doc,
            },
            TraceEvent::Update(u) => Event::OriginUpdate { doc: u.doc },
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
            queue.schedule(SimTime::from_ms(event.time_ms()), event_of(event));
        }
        std::iter::from_fn(|| queue.pop()).collect()
    }

    /// The order a run processes `trace` and `schedule` in, as one plain
    /// stable sort of both: by quantised time, faults before trace
    /// events, then position in the input. The reference every walk is
    /// held to.
    fn stable_order(trace: &[TraceEvent], schedule: &FaultSchedule) -> Vec<(SimTime, Event)> {
        let faults = schedule.events().iter().enumerate();
        let faults =
            faults.map(|(idx, f)| ((SimTime::from_ms(f.time_ms), 0), Event::Fault { idx }));
        let events = trace
            .iter()
            .map(|e| ((SimTime::from_ms(e.time_ms()), 1), event_of(e)));
        let mut all: Vec<_> = faults.chain(events).collect();
        all.sort_by_key(|&(key, _)| key);
        all.into_iter()
            .map(|((at, _), event)| (at, event))
            .collect()
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

    /// The one walk of a map that is one group in id order, so local
    /// ids are global ones: the whole run's order.
    fn whole_walk(caches: usize, trace: &[TraceEvent], schedule: &FaultSchedule) -> Vec<usize> {
        let groups = GroupMap::one_group(caches);
        let plan = TracePlan::build(&groups, usize::MAX, trace).unwrap();
        let walked = walk_group(trace, &plan, 0, &local_ids(&groups), schedule, 128);
        assert_eq!(walked, stable_order(trace, schedule));
        walked
            .into_iter()
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
        let ordered = scan_trace(2, 3, &trace, |_| {}).unwrap();
        assert!(ordered, "no copy for an ordered trace");
        assert_eq!(
            whole_walk(2, &trace, &schedule),
            vec![101, 0, 100, 1, 2, 102]
        );
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
        let schedule = FaultSchedule::new();
        assert!(!scan_trace(1, 4, &trace, |_| {}).unwrap());
        assert_eq!(whole_walk(1, &trace, &schedule), vec![3, 1, 2, 0]);
    }

    #[test]
    fn hostile_events_are_typed_errors_in_trace_order() {
        let one = GroupMap::one_group(1);
        for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let trace = vec![request(0.0, 0, 0), update(bad, 0), request(bad, 0, 0)];
            let err = TracePlan::build(&one, 1, &trace).err();
            assert_eq!(err, Some(SimError::EventTimeInvalid { index: 1 }), "{bad}");
        }
        // References are checked before the timestamp of the same event.
        let err = TracePlan::build(&one, 1, &[request(f64::NAN, 3, 0)]).err();
        assert_eq!(err, Some(SimError::RequestCacheOutOfRange { cache: 3 }));
        let err = TracePlan::build(&one, 1, &[update(f64::NAN, 7)]).err();
        assert_eq!(err, Some(SimError::DocOutOfRange { doc: 7 }));
    }

    /// Group `g`'s walk of `trace` under `plan`, through a block whose
    /// lanes hold `lane` records.
    fn walk_group(
        trace: &[TraceEvent],
        plan: &TracePlan,
        g: usize,
        local_of: &[u32],
        schedule: &FaultSchedule,
        lane: usize,
    ) -> Vec<(SimTime, Event)> {
        let mut block = RecordBlock::with_lanes_of(lane);
        let walk = GroupWalk::planned(trace, plan, g, local_of, schedule, &mut block);
        let expected = plan.starts[g + 1] - plan.starts[g] + plan.updates.len();
        assert_eq!(walk.trace_events(), expected);
        walk.collect()
    }

    /// A streamed group's walk of its `requests` and the `log`, through
    /// a block whose lanes hold `lane` records.
    fn walk_streamed(
        requests: &[Record],
        log: &[Record],
        schedule: &FaultSchedule,
        lane: usize,
    ) -> Vec<(SimTime, Event)> {
        let mut block = RecordBlock::with_lanes_of(lane);
        let walk = GroupWalk::streamed(requests, log, schedule, &mut block);
        assert_eq!(walk.trace_events(), requests.len() + log.len());
        walk.collect()
    }

    /// The drawn lane capacity, and each of `lists`' lengths less one,
    /// exactly, and plus one.
    fn lanes_around(lane: usize, lists: [usize; 2]) -> Vec<usize> {
        let mut lanes = vec![lane];
        for events in lists {
            lanes.extend([events.saturating_sub(1).max(1), events.max(1), events + 1]);
        }
        lanes
    }

    /// What group `g` must see of `trace` under `schedule`: the whole
    /// walk restricted to the group's requests (under local ids), every
    /// update and every fault.
    fn share_of_the_whole_walk(
        groups: &GroupMap,
        g: usize,
        trace: &[TraceEvent],
        schedule: &FaultSchedule,
    ) -> Vec<(SimTime, Event)> {
        let members = &groups.groups()[g];
        stable_order(trace, schedule)
            .into_iter()
            .filter_map(|(at, event)| match event {
                Event::ClientRequest { cache, doc } => {
                    let local = members.iter().position(|&m| m == cache)?;
                    Some((
                        at,
                        Event::ClientRequest {
                            cache: CacheId(local),
                            doc,
                        },
                    ))
                }
                other => Some((at, other)),
            })
            .collect()
    }

    /// Every group's walk of `trace`, at every lane capacity from 1 to
    /// two past the longest list, equals its share of the whole walk.
    fn assert_walks_match(groups: &GroupMap, trace: &[TraceEvent], schedule: &FaultSchedule) {
        let plan = TracePlan::build(groups, usize::MAX, trace).unwrap();
        let local_of = local_ids(groups);
        for g in 0..groups.group_count() {
            let expected = share_of_the_whole_walk(groups, g, trace, schedule);
            for lane in 1..=trace.len() + 2 {
                let walked = walk_group(trace, &plan, g, &local_of, schedule, lane);
                assert_eq!(walked, expected, "group {g}, lanes of {lane}");
            }
        }
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
        let schedule = FaultSchedule::new();
        let plan = TracePlan::build(&groups, 7, &trace).unwrap();
        assert_eq!(plan.requests, [2, 3, 0, 5]);
        assert_eq!(plan.starts, [0, 2, 4]);
        assert_eq!(plan.updates, [1, 4]);
        let local_of = local_ids(&groups);
        assert_eq!(local_of, [1, 0, 0, 1]);
        let served = |cache, doc| Event::ClientRequest {
            cache: CacheId(cache),
            doc: DocId(doc),
        };
        let updated = |doc| Event::OriginUpdate { doc: DocId(doc) };
        // Each list holds two events: lanes of 1 (capacity + 1 events),
        // 2 (capacity), 3 (capacity − 1) and more records.
        for lane in 1..=4 {
            let walk = |g| {
                let events = walk_group(&trace, &plan, g, &local_of, &schedule, lane);
                events.into_iter().map(|(_, e)| e).collect::<Vec<_>>()
            };
            assert_eq!(
                walk(0),
                [updated(5), served(0, 1), served(1, 2), updated(6)]
            );
            assert_eq!(
                walk(1),
                [served(0, 0), updated(5), updated(6), served(1, 3)]
            );
        }
        // Same errors, same precedence as the whole-trace walk.
        let err = TracePlan::build(&groups, 3, &trace).err();
        assert_eq!(err, Some(SimError::DocOutOfRange { doc: 5 }));
    }

    #[test]
    fn walks_cross_block_boundaries_where_the_whole_walk_does_not_notice() {
        let two = GroupMap::new(3, vec![vec![CacheId(1)], vec![CacheId(2), CacheId(0)]]).unwrap();
        // An update and requests of one quantised µs (2.0004 ms and
        // 2.0 ms are both 2000 µs), in both trace orders: position
        // decides, across the two lanes.
        let same_instant = [
            vec![
                update(2.0, 0),
                request(2.0004, 0, 1),
                request(2.0, 1, 2),
                update(2.0004, 3),
            ],
            vec![
                request(2.0004, 1, 0),
                update(2.0, 1),
                request(2.0, 0, 2),
                request(2.0, 1, 3),
                update(2.0004, 4),
            ],
        ];
        for trace in &same_instant {
            assert_walks_match(&two, trace, &FaultSchedule::new());
        }
        // An unordered trace: the plan's lists follow the stable sort.
        let unordered = vec![
            request(5.0, 0, 0),
            request(2.0004, 2, 1),
            update(2.0, 2),
            request(0.0, 1, 3),
            update(0.0, 4),
            request(5.0, 1, 5),
            request(2.0, 0, 6),
        ];
        assert_walks_match(&two, &unordered, &FaultSchedule::new());
        // Cache 1's group gets no request at all: updates and faults
        // only. And a trace with nothing but requests, or nothing.
        let no_requests_for_one = vec![update(1.0, 0), request(1.0, 2, 1), update(3.0, 2)];
        let mut schedule = FaultSchedule::new();
        schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(0) });
        schedule.push(9.0, FaultKind::CacheUp { cache: CacheId(0) });
        assert_walks_match(&two, &no_requests_for_one, &schedule);
        assert_walks_match(&two, &[request(1.0, 0, 0), request(1.0, 1, 1)], &schedule);
        assert_walks_match(&two, &[], &schedule);
        // Faults at every instant of an eight-request group, so one
        // falls before, on and after each refill whatever the lane.
        let steady: Vec<TraceEvent> = (0..8)
            .map(|i| request(f64::from(i), 0, i as usize))
            .collect();
        let mut schedule = FaultSchedule::new();
        for tick in 0..9 {
            let kind = if tick % 2 == 0 {
                FaultKind::CacheDown { cache: CacheId(0) }
            } else {
                FaultKind::CacheUp { cache: CacheId(0) }
            };
            schedule.push(f64::from(tick), kind);
        }
        assert_walks_match(&GroupMap::one_group(1), &steady, &schedule);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each group's walk is the whole-trace walk restricted to that
        /// group's requests (under local ids), every update and every
        /// fault — ordered or not, ties and all, whatever the size of
        /// the record block it reads through — for a planned trace, and
        /// for a streamed workload against the trace it materializes.
        #[test]
        fn group_walks_are_subsequences_of_the_whole_walk(
            ticks in proptest::collection::vec(0u32..300, 0..80),
            fault_ticks in proptest::collection::vec(0u32..300, 0..6),
            presorted in any::<bool>(),
            stride in 1usize..4,
            lane in 1usize..40,
            seed in any::<u64>(),
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
                schedule.push(ms(tick), FaultKind::CacheDown { cache: CacheId(0) });
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
            for g in 0..groups.group_count() {
                let expected = share_of_the_whole_walk(&groups, g, &trace, &schedule);
                let requests = plan.starts[g + 1] - plan.starts[g];
                for lane in lanes_around(lane, [requests, plan.updates.len()]) {
                    let walked = walk_group(&trace, &plan, g, &local_of, &schedule, lane);
                    prop_assert_eq!(&walked, &expected, "lanes of {}", lane);
                }
            }

            // Streamed: the five caches' regenerated requests and a log on
            // an 8 ms grid, sorted or not, some of it past the last
            // request — plus, in the µs of some requests, an update on the
            // request's time (the update goes first) and one a hair after
            // it (the request goes first).
            let mut rng = StdRng::seed_from_u64(seed);
            let catalog = CatalogConfig::default().documents(30).generate(&mut rng);
            let cfg = RequestConfig::default().rate_per_sec_per_cache(20.0);
            let (master, duration_ms) = (rng.gen(), 2_000.0);
            let mut log: Vec<Update> = ticks
                .iter()
                .map(|&tick| Update {
                    time_ms: f64::from(tick) * 8.0,
                    doc: DocId(rng.gen_range(0..catalog.len())),
                })
                .collect();
            let drawn = cfg.generate_with_master(&catalog, 5, duration_ms, master);
            for r in drawn.iter().step_by(drawn.len() / 4 + 1) {
                let hair = r.time_ms + 1e-7;
                log.push(Update { time_ms: r.time_ms, doc: r.doc });
                if SimTime::from_ms(hair) == SimTime::from_ms(r.time_ms) {
                    log.push(Update { time_ms: hair, doc: r.doc });
                }
            }
            if presorted {
                log.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
            }
            let workload = StreamedWorkload::new(cfg, master, duration_ms).updates(&log);
            let full = workload.materialize_trace(&catalog, 5);
            let zipf = ZipfSampler::new(catalog.len(), cfg.zipf_exponent_value());
            let log = log_records(&log);
            let mut buffers = RequestBuffers::default();
            for (g, members) in groups.groups().iter().enumerate() {
                let expected = share_of_the_whole_walk(&groups, g, &full, &schedule);
                let requests = member_requests(&workload, &zipf, members, &mut buffers);
                for lane in lanes_around(lane, [requests.len(), log.len()]) {
                    let walked = walk_streamed(requests, &log, &schedule, lane);
                    prop_assert_eq!(&walked, &expected, "streamed, lanes of {}", lane);
                }
            }
        }

        /// The stable sort the walks are held to, and the walk of one
        /// group in id order, pop what the binary heap popped. Times sit
        /// on a 0.4 µs grid over a short range, so neighbours collide
        /// once quantised to whole µs and exact duplicates are common —
        /// among trace events, among faults, and across both.
        #[test]
        fn the_stable_sort_and_the_whole_walk_are_the_heap_pop_order(
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
            let ordered = scan_trace(4, trace.len(), &trace, |_| {}).unwrap();
            if presorted {
                prop_assert!(ordered, "a sorted trace is walked in place");
            }
            let heap = heap_order(&trace, &schedule);
            prop_assert_eq!(&stable_order(&trace, &schedule), &heap);
            let groups = GroupMap::one_group(4);
            let plan = TracePlan::build(&groups, trace.len(), &trace).unwrap();
            let walked = walk_group(&trace, &plan, 0, &local_ids(&groups), &schedule, 16);
            prop_assert_eq!(walked, heap);
        }
    }
}
