//! Simulator events and the order a run processes them in.
//!
//! A run interleaves the workload trace with the fault schedule by
//! `(time quantised to µs, faults before trace events, input order)`:
//! at equal instants a crash lands before the requests of that instant,
//! and same-instant trace events keep their trace order. The
//! crate-internal `Timeline` produces that order without copying the
//! trace: every generator (`merge_streams`, the replay shards'
//! sub-traces) already emits time-ordered events, so the trace is
//! walked in place and merged with the — short — time-sorted fault list
//! by two cursors. Only a trace that is not already ordered pays for
//! one stable index sort.

use crate::fault::FaultSchedule;
use crate::sim::SimError;
use crate::time::SimTime;
use ecg_topology::CacheId;
use ecg_workload::{DocId, TraceEvent};

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

/// The events of one run — trace plus fault schedule — in processing
/// order, yielded lazily as `(time, event)`.
pub(crate) struct Timeline<'a> {
    trace: &'a [TraceEvent],
    /// Trace positions stably sorted by quantised time; `None` when the
    /// trace is already non-decreasing and is walked in place.
    order: Option<Vec<usize>>,
    /// `(time, schedule index)` of every fault, stably sorted by time.
    faults: Vec<(SimTime, usize)>,
    next_trace: usize,
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
            let at = SimTime::try_from_ms(event.time_ms())
                .ok_or(SimError::EventTimeInvalid { index })?;
            ordered &= previous <= at;
            previous = at;
        }
        let order = (!ordered).then(|| {
            let mut order: Vec<usize> = (0..trace.len()).collect();
            order.sort_by_key(|&i| SimTime::from_ms(trace[i].time_ms()));
            order
        });
        let mut faults: Vec<(SimTime, usize)> = schedule
            .events()
            .iter()
            .enumerate()
            .map(|(idx, fault)| (SimTime::from_ms(fault.time_ms), idx))
            .collect();
        faults.sort_by_key(|&(at, _)| at);
        Ok(Timeline {
            trace,
            order,
            faults,
            next_trace: 0,
            next_fault: 0,
        })
    }

    /// Total number of events in the run (yielded or not).
    pub(crate) fn event_count(&self) -> usize {
        self.trace.len() + self.faults.len()
    }

    fn trace_head(&self) -> Option<(SimTime, &'a TraceEvent)> {
        let position = match &self.order {
            None => self.next_trace,
            Some(order) => *order.get(self.next_trace)?,
        };
        let event = self.trace.get(position)?;
        Some((SimTime::from_ms(event.time_ms()), event))
    }
}

impl Iterator for Timeline<'_> {
    type Item = (SimTime, Event);

    fn next(&mut self) -> Option<(SimTime, Event)> {
        let trace_head = self.trace_head();
        if let Some(&(at, idx)) = self.faults.get(self.next_fault) {
            if trace_head.is_none_or(|(trace_at, _)| at <= trace_at) {
                self.next_fault += 1;
                return Some((at, Event::Fault { idx }));
            }
        }
        let (at, event) = trace_head?;
        self.next_trace += 1;
        let event = match *event {
            TraceEvent::Request(r) => Event::ClientRequest {
                cache: CacheId(r.cache),
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
        assert!(timeline.order.is_none(), "no copy for an ordered trace");
        assert_eq!(timeline.event_count(), 6);
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
        assert!(timeline.order.is_some());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

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
                prop_assert!(timeline.order.is_none());
            }
            prop_assert_eq!(timeline.event_count(), trace.len() + fault_ticks.len());
            let merged: Vec<(SimTime, Event)> = timeline.collect();
            prop_assert_eq!(merged, heap_order(&trace, &schedule));
        }
    }
}
