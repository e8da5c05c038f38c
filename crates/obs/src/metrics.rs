//! Named counters, gauges, and histograms with stable export order.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::json::JsonWriter;

/// A registry of named metrics.
///
/// Names follow the workspace convention of dotted lowercase paths
/// (`component.metric`, e.g. `kmeans.pruned`). Storage is `BTreeMap`,
/// so exports iterate in sorted-name order and are byte-stable.
///
/// # Examples
///
/// ```
/// use ecg_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("probe.sent");
/// m.add("probe.sent", 4);
/// m.set_gauge("sim.queue.max_depth", 17.0);
/// m.observe("probe.rtt_ms", 42.0);
/// assert_eq!(m.counter("probe.sent"), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the counter `name` by one (creating it at zero).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.entry_counter(name) += delta;
    }

    fn entry_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_owned(), 0);
        }
        self.counters.get_mut(name).expect("counter just inserted")
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "gauge {name} set to non-finite {value}");
        self.gauges.insert(name.to_owned(), value);
    }

    /// Raises the gauge `name` to `value` if `value` exceeds the
    /// current reading (high-water-mark semantics; creates the gauge
    /// if absent).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn max_gauge(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "gauge {name} set to non-finite {value}");
        match self.gauges.get_mut(name) {
            Some(g) if *g >= value => {}
            Some(g) => *g = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// default bucket layout if absent.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn observe(&mut self, name: &str, value: f64) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_owned(), Histogram::default());
        }
        self.histograms
            .get_mut(name)
            .expect("histogram just inserted")
            .record(value);
    }

    /// Merges an externally built histogram into the histogram `name`
    /// (creating a same-shaped empty one if absent).
    ///
    /// # Panics
    ///
    /// Panics if an existing histogram under `name` has a different
    /// bucket layout.
    pub fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_owned(), hist.clone());
            return;
        }
        self.histograms
            .get_mut(name)
            .expect("histogram just checked")
            .merge(hist);
    }

    /// Reads the counter `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Borrows the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Returns `true` if no metric has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the maximum (high-water mark across tasks), histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, delta) in &other.counters {
            *self.entry_counter(name) += delta;
        }
        for (name, value) in &other.gauges {
            self.max_gauge(name, *value);
        }
        for (name, hist) in &other.histograms {
            self.merge_histogram(name, hist);
        }
    }

    /// Appends the registry as a JSON object
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("counters").object(|w| {
                for (name, v) in &self.counters {
                    w.key(name).u64(*v);
                }
            });
            w.key("gauges").object(|w| {
                for (name, v) in &self.gauges {
                    w.key(name).f64(*v);
                }
            });
            w.key("histograms").object(|w| {
                for (name, h) in &self.histograms {
                    h.write_json(w.key(name));
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("absent"), 0);
        m.inc("x");
        m.add("x", 9);
        assert_eq!(m.counter("x"), 10);
    }

    #[test]
    fn max_gauge_keeps_high_water_mark() {
        let mut m = MetricsRegistry::new();
        m.max_gauge("depth", 3.0);
        m.max_gauge("depth", 1.0);
        assert_eq!(m.gauge("depth"), Some(3.0));
        m.max_gauge("depth", 7.5);
        assert_eq!(m.gauge("depth"), Some(7.5));
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        a.inc("c");
        a.set_gauge("g", 1.0);
        a.observe("h", 10.0);
        let mut b = MetricsRegistry::new();
        b.add("c", 4);
        b.set_gauge("g", 5.0);
        b.observe("h", 20.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(5.0));
        assert_eq!(a.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn json_export_is_sorted_by_name() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.inc("m.mid");
        let mut w = JsonWriter::new();
        m.write_json(&mut w);
        let s = w.finish();
        let a = s.find("a.first").expect("a.first present");
        let mid = s.find("m.mid").expect("m.mid present");
        let z = s.find("z.last").expect("z.last present");
        assert!(a < mid && mid < z, "{s}");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_gauge_panics() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", f64::INFINITY);
    }
}
