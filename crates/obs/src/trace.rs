//! Bounded ring-buffer structured event trace.
//!
//! Each event carries a deterministic timestamp `t` (simulated
//! milliseconds or an iteration/operation counter — never wall clock),
//! a component, a kind, and a small list of named fields. When the ring
//! fills, the oldest events are dropped and counted, so memory stays
//! bounded no matter how long the run.

use std::collections::VecDeque;

use crate::json::JsonWriter;

/// One field value attached to a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A finite floating-point field.
    F64(f64),
    /// A static string field (event vocabularies are compile-time).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn write_json(&self, w: &mut JsonWriter) {
        match *self {
            FieldValue::U64(v) => w.u64(v),
            FieldValue::F64(v) => w.f64(v),
            FieldValue::Str(s) => w.str(s),
        };
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (monotone across ring wraps).
    pub seq: u64,
    /// Deterministic timestamp: sim-time in ms or an iteration count.
    pub t: f64,
    /// Emitting component, e.g. `"sim"` or `"kmeans"`.
    pub component: &'static str,
    /// Event kind within the component, e.g. `"crash"`.
    pub kind: &'static str,
    /// Named payload fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("seq").u64(self.seq);
            w.key("t").f64(self.t);
            w.key("component").str(self.component);
            w.key("kind").str(self.kind);
            w.key("fields").object(|w| {
                for (name, value) in &self.fields {
                    value.write_json(w.key(name));
                }
            });
        });
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// # Examples
///
/// ```
/// use ecg_obs::EventTrace;
///
/// let mut trace = EventTrace::new(2);
/// trace.push(0.0, "demo", "first", vec![]);
/// trace.push(1.0, "demo", "second", vec![("n", 1u64.into())]);
/// trace.push(2.0, "demo", "third", vec![]);
/// assert_eq!(trace.len(), 2); // "first" was evicted
/// assert_eq!(trace.dropped(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl EventTrace {
    /// Creates an empty trace holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        EventTrace {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(
        &mut self,
        t: f64,
        component: &'static str,
        kind: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            seq: self.next_seq,
            t,
            component,
            kind,
            fields,
        });
        self.next_seq += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were evicted by ring wrap (including evictions
    /// inherited through [`EventTrace::merge`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Appends another trace's retained events (renumbering their
    /// sequence counters into this trace's stream) and inherits its
    /// drop count. Merging per-task traces in task order keeps the
    /// combined stream deterministic.
    pub fn merge(&mut self, other: &EventTrace) {
        for event in &other.events {
            self.push(event.t, event.component, event.kind, event.fields.clone());
        }
        self.dropped += other.dropped;
    }

    /// Appends the trace as a JSON object
    /// `{"capacity":..,"recorded":..,"dropped":..,"events":[...]}`.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("capacity").usize(self.capacity);
            w.key("recorded").u64(self.next_seq);
            w.key("dropped").u64(self.dropped);
            w.key("events").array(|w| {
                for event in &self.events {
                    event.write_json(w);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut trace = EventTrace::new(3);
        for i in 0..10u64 {
            trace.push(i as f64, "c", "tick", vec![("i", i.into())]);
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 7);
        let seqs: Vec<u64> = trace.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn merge_renumbers_and_inherits_drops() {
        let mut a = EventTrace::new(8);
        a.push(0.0, "a", "x", vec![]);
        let mut b = EventTrace::new(1);
        b.push(1.0, "b", "y", vec![]);
        b.push(2.0, "b", "z", vec![]); // evicts "y"
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped(), 1);
        let seqs: Vec<u64> = a.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(a.events().last().map(|e| e.kind), Some("z"));
    }

    #[test]
    fn json_shape() {
        let mut trace = EventTrace::new(4);
        trace.push(1.5, "sim", "crash", vec![("cache", 3u64.into())]);
        let mut w = JsonWriter::new();
        trace.write_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"capacity\":4,\"recorded\":1,\"dropped\":0,\"events\":[{\"seq\":0,\"t\":1.5,\
             \"component\":\"sim\",\"kind\":\"crash\",\"fields\":{\"cache\":3}}]}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventTrace::new(0);
    }
}
