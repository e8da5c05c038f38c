//! Trace statistics.
//!
//! Summarizes a merged trace: volume, per-cache load spread, measured
//! popularity skew, and update share. Used by `ecg stats` and for
//! validating that generated workloads have the shape they were
//! configured for.

use crate::trace::TraceEvent;

/// Summary statistics of a merged trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total request events.
    pub requests: u64,
    /// Total update events.
    pub updates: u64,
    /// Trace span in milliseconds (last event time; 0 for empty).
    pub span_ms: f64,
    /// Number of distinct caches that received at least one request.
    pub active_caches: usize,
    /// Number of distinct documents requested at least once.
    pub distinct_docs: usize,
    /// Requests at the busiest cache.
    pub max_cache_load: u64,
    /// Requests at the quietest *active* cache.
    pub min_cache_load: u64,
    /// Fraction of requests going to the most-requested document — a
    /// cheap skew indicator.
    pub top_doc_share: f64,
    /// Fraction of requests covered by the 10 most-requested documents.
    pub top10_share: f64,
}

impl TraceStats {
    /// Computes statistics over a trace (any order; events need not be
    /// sorted).
    pub fn compute(trace: &[TraceEvent]) -> TraceStats {
        use std::collections::HashMap;
        let mut requests = 0u64;
        let mut updates = 0u64;
        let mut span_ms = 0.0f64;
        let mut per_cache: HashMap<usize, u64> = HashMap::new();
        let mut per_doc: HashMap<usize, u64> = HashMap::new();
        for event in trace {
            span_ms = span_ms.max(event.time_ms());
            match event {
                TraceEvent::Request(r) => {
                    requests += 1;
                    *per_cache.entry(r.cache).or_default() += 1;
                    *per_doc.entry(r.doc.index()).or_default() += 1;
                }
                TraceEvent::Update(_) => updates += 1,
            }
        }
        let mut doc_counts: Vec<u64> = per_doc.values().copied().collect();
        doc_counts.sort_unstable_by(|a, b| b.cmp(a));
        let share = |top: usize| -> f64 {
            if requests == 0 {
                0.0
            } else {
                doc_counts.iter().take(top).sum::<u64>() as f64 / requests as f64
            }
        };
        TraceStats {
            requests,
            updates,
            span_ms,
            active_caches: per_cache.len(),
            distinct_docs: per_doc.len(),
            max_cache_load: per_cache.values().copied().max().unwrap_or(0),
            min_cache_load: per_cache.values().copied().min().unwrap_or(0),
            top_doc_share: share(1),
            top10_share: share(10),
        }
    }

    /// Ratio of busiest to quietest active cache load, or `None` if no
    /// cache received requests.
    pub fn load_imbalance(&self) -> Option<f64> {
        if self.min_cache_load == 0 {
            None
        } else {
            Some(self.max_cache_load as f64 / self.min_cache_load as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::documents::DocId;
    use crate::requests::Request;
    use crate::updates::Update;
    use crate::{CatalogConfig, RequestConfig, SportingEventConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn req(time_ms: f64, cache: usize, doc: usize) -> TraceEvent {
        TraceEvent::Request(Request {
            time_ms,
            cache,
            doc: DocId(doc),
        })
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::compute(&[]);
        assert_eq!(s.requests, 0);
        assert_eq!(s.updates, 0);
        assert_eq!(s.span_ms, 0.0);
        assert_eq!(s.load_imbalance(), None);
        assert_eq!(s.top_doc_share, 0.0);
    }

    #[test]
    fn hand_built_trace_counts() {
        let trace = vec![
            req(1.0, 0, 5),
            req(2.0, 0, 5),
            req(3.0, 1, 7),
            TraceEvent::Update(Update {
                time_ms: 9.0,
                doc: DocId(5),
            }),
        ];
        let s = TraceStats::compute(&trace);
        assert_eq!(s.requests, 3);
        assert_eq!(s.updates, 1);
        assert_eq!(s.span_ms, 9.0);
        assert_eq!(s.active_caches, 2);
        assert_eq!(s.distinct_docs, 2);
        assert_eq!(s.max_cache_load, 2);
        assert_eq!(s.min_cache_load, 1);
        assert_eq!(s.load_imbalance(), Some(2.0));
        assert!((s.top_doc_share - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.top10_share, 1.0);
    }

    #[test]
    fn skew_indicator_tracks_zipf_exponent() {
        let mut rng = StdRng::seed_from_u64(1);
        let cat = CatalogConfig::default().documents(500).generate(&mut rng);
        let stats_for = |s_exp: f64, rng: &mut StdRng| -> TraceStats {
            let reqs = RequestConfig::default()
                .zipf_exponent(s_exp)
                .similarity(1.0)
                .rate_per_sec_per_cache(10.0)
                .generate(&cat, 5, 60_000.0, rng);
            let trace: Vec<TraceEvent> = reqs.into_iter().map(TraceEvent::Request).collect();
            TraceStats::compute(&trace)
        };
        let flat = stats_for(0.3, &mut rng);
        let steep = stats_for(1.3, &mut rng);
        assert!(
            steep.top10_share > flat.top10_share,
            "steep {} vs flat {}",
            steep.top10_share,
            flat.top10_share
        );
    }

    #[test]
    fn preset_workload_stats_are_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = SportingEventConfig::default()
            .caches(10)
            .documents(300)
            .duration_ms(60_000.0)
            .generate(&mut rng);
        let s = TraceStats::compute(&w.merged_trace());
        assert_eq!(s.requests, w.requests.len() as u64);
        assert_eq!(s.updates, w.updates.len() as u64);
        assert_eq!(s.active_caches, 10);
        assert!(s.span_ms <= 60_000.0);
        assert!(s.top10_share > 0.2, "sporting preset should be skewed");
    }
}
