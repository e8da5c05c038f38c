//! Deterministic observability for the edge-cache-groups workspace.
//!
//! The experiment pipeline is seeded end to end and its outputs are
//! byte-gated (`ecg-bench run --all --check`), so any telemetry
//! layered on top must be just as reproducible. This crate provides
//! three building blocks that never touch a wall clock or an RNG:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and geometric-bucket
//!   [`Histogram`]s, keyed by `BTreeMap` so every export iterates in a
//!   stable order.
//! * [`PhaseRecorder`] — nested phase spans accumulated into a tree.
//!   "Work" is whatever deterministic unit the instrumented code hands
//!   in (simulated milliseconds, K-means iterations, probes sent) —
//!   never elapsed real time.
//! * [`EventTrace`] — a bounded ring buffer of structured
//!   [`TraceEvent`]s with JSON-lines and aligned-table exporters.
//!
//! [`Obs`] bundles the three and serializes them with [`Obs::to_json`];
//! two runs with the same seeds produce byte-identical JSON.
//!
//! The crate is also the home of [`json`], the workspace's one JSON
//! writer and parser: every document any crate emits or reads — this
//! one's included — goes through it.
//!
//! ## Metric naming convention
//!
//! Dotted lowercase paths, `component.metric` (e.g. `kmeans.pruned`,
//! `probe.sent`, `sim.local_hits`); per-entity metrics zero-pad the
//! entity id so lexicographic `BTreeMap` order equals numeric order
//! (e.g. `sim.group.007.peer_hits`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod histogram;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use histogram::Histogram;
use json::JsonWriter;
pub use metrics::MetricsRegistry;
pub use span::{PhaseNode, PhaseRecorder, SpanGuard};
pub use trace::{EventTrace, FieldValue, TraceEvent};

/// Default capacity of the bundled [`EventTrace`] ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// One observability bundle: metrics + phase tree + event trace.
///
/// Instrumented entry points across the workspace take
/// `Option<&mut Obs>`; passing `None` keeps the uninstrumented
/// behaviour (and cost) unchanged.
///
/// # Examples
///
/// ```
/// use ecg_obs::Obs;
///
/// let mut obs = Obs::new();
/// obs.metrics.inc("demo.counter");
/// {
///     let mut span = obs.phases.span("demo.phase");
///     span.add_work(3.0);
/// }
/// obs.trace.push(0.0, "demo", "start", vec![("n", 3u64.into())]);
/// let json = obs.to_json();
/// assert!(json.contains("\"demo.counter\":1"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Counters, gauges, histograms.
    pub metrics: MetricsRegistry,
    /// The phase-span tree.
    pub phases: PhaseRecorder,
    /// The bounded structured event trace.
    pub trace: EventTrace,
}

impl Obs {
    /// Creates an empty bundle with the default trace capacity.
    pub fn new() -> Self {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates an empty bundle with an explicit trace ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            phases: PhaseRecorder::new(),
            trace: EventTrace::new(capacity),
        }
    }

    /// Merges another bundle into this one (counters add, gauges take
    /// the maximum, histograms accumulate, phase trees merge by name,
    /// trace events append in order). Merging per-task bundles in task
    /// order keeps the combined output deterministic even when the
    /// tasks themselves ran concurrently.
    pub fn merge(&mut self, other: &Obs) {
        self.metrics.merge(&other.metrics);
        self.phases.merge(&other.phases);
        self.trace.merge(&other.trace);
    }

    /// Serializes the bundle as one JSON object (no trailing newline).
    ///
    /// The layout is
    /// `{"schema":"ecg-obs/v1","metrics":{...},"phases":[...],"trace":{...}}`
    /// with every map in sorted-key order, so equal bundles always
    /// produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("schema").str("ecg-obs/v1");
            self.metrics.write_json(w.key("metrics"));
            self.phases.write_json(w.key("phases"));
            self.trace.write_json(w.key("trace"));
        });
        w.finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_is_deterministic_and_merge_accumulates() {
        let build = || {
            let mut o = Obs::new();
            o.metrics.inc("a.count");
            o.metrics.set_gauge("a.gauge", 2.5);
            o.metrics.observe("a.hist", 12.0);
            {
                let mut s = o.phases.span("outer");
                s.add_work(1.0);
                let mut inner = s.child("inner");
                inner.add_work(4.0);
            }
            o.trace.push(1.5, "c", "k", vec![("x", 7u64.into())]);
            o
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_json(), b.to_json());

        let mut merged = build();
        merged.merge(&b);
        assert_eq!(merged.metrics.counter("a.count"), 2);
        assert_eq!(merged.trace.len(), 2);
        assert!(merged.to_json().starts_with("{\"schema\":\"ecg-obs/v1\""));
    }

    #[test]
    fn the_document_reads_back_with_the_numbers_it_was_given() {
        use json::{parse, JsonValue};
        let mut o = Obs::new();
        // A control character in a name is escaped, and read back.
        o.metrics.add("a\u{1}b", 7);
        o.metrics.set_gauge("g", 2.5);
        o.metrics.observe("h", 12.0);
        o.phases.span("outer").child("inner").add_work(4.0);
        o.trace
            .push(1.5, "c", "k", vec![("x", 7u64.into()), ("s", "v".into())]);

        let doc = parse(&o.to_json()).expect("the document parses");
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64);
        let metrics = doc.get("metrics").expect("metrics");
        let counters = metrics.get("counters").expect("counters");
        assert_eq!(num(counters.get("a\u{1}b")), Some(7.0));
        assert_eq!(
            num(metrics.get("gauges").and_then(|g| g.get("g"))),
            Some(2.5)
        );
        let hist = metrics.get("histograms").and_then(|h| h.get("h"));
        assert_eq!(num(hist.and_then(|h| h.get("count"))), Some(1.0));
        let outer = &doc
            .get("phases")
            .and_then(JsonValue::as_arr)
            .expect("phases")[0];
        let inner = &outer
            .get("children")
            .and_then(JsonValue::as_arr)
            .expect("children")[0];
        assert_eq!(inner.get("name").and_then(JsonValue::as_str), Some("inner"));
        assert_eq!(num(inner.get("work")), Some(4.0));
        let events = doc.get("trace").and_then(|t| t.get("events"));
        let event = &events.and_then(JsonValue::as_arr).expect("events")[0];
        assert_eq!(num(event.get("t")), Some(1.5));
        let fields = event.get("fields").expect("fields");
        assert_eq!(num(fields.get("x")), Some(7.0));
        assert_eq!(fields.get("s").and_then(JsonValue::as_str), Some("v"));
    }

    #[test]
    fn empty_bundle_serializes() {
        let o = Obs::default();
        let json = o.to_json();
        assert!(json.contains("\"counters\":{}"));
        assert!(json.contains("\"phases\":[]"));
    }
}
