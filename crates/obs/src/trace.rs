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

    fn render(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::F64(v) => v.to_string(),
            FieldValue::Str(s) => (*s).to_owned(),
        }
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

    /// Renders the retained events as JSON lines (one event object per
    /// line, trailing newline after each).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let mut w = JsonWriter::new();
            event.write_json(&mut w);
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Renders the retained events as an aligned text table.
    pub fn to_table(&self) -> String {
        let header = ["seq", "t", "component", "kind", "fields"];
        let mut rows: Vec<[String; 5]> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let fields = e
                .fields
                .iter()
                .map(|(name, value)| format!("{name}={}", value.render()))
                .collect::<Vec<_>>()
                .join(" ");
            rows.push([
                e.seq.to_string(),
                e.t.to_string(),
                e.component.to_owned(),
                e.kind.to_owned(),
                fields,
            ]);
        }
        let mut widths = header.map(str::len);
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String; 5]| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                // Left-align: pad all but the last column.
                if i + 1 < cells.len() {
                    for _ in cell.len()..w {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &header.map(str::to_owned));
        for row in &rows {
            render_row(&mut out, row);
        }
        out
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
    fn jsonl_and_json_shapes() {
        let mut trace = EventTrace::new(4);
        trace.push(1.5, "sim", "crash", vec![("cache", 3u64.into())]);
        assert_eq!(
            trace.to_jsonl(),
            "{\"seq\":0,\"t\":1.5,\"component\":\"sim\",\"kind\":\"crash\",\
             \"fields\":{\"cache\":3}}\n"
        );
        let mut w = JsonWriter::new();
        trace.write_json(&mut w);
        assert!(w
            .finish()
            .starts_with("{\"capacity\":4,\"recorded\":1,\"dropped\":0,"));
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut trace = EventTrace::new(4);
        trace.push(0.0, "maintenance", "retire", vec![("cache", 12u64.into())]);
        trace.push(10.0, "sim", "up", vec![("ok", "yes".into())]);
        let table = trace.to_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("seq"));
        assert!(lines[1].contains("maintenance") && lines[1].contains("cache=12"));
        assert!(lines[2].contains("ok=yes"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventTrace::new(0);
    }
}
