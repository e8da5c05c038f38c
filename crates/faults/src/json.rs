//! Deterministic JSON serialization of simulation reports.
//!
//! Written through the workspace's one JSON writer
//! ([`ecg_obs::json`]): fixed key order, shortest round-trip floats,
//! no whitespace. Two equal [`SimReport`]s always serialize to
//! byte-identical strings, which is what the determinism tests and the
//! ablation result files rely on.

use ecg_obs::json::JsonWriter;
use ecg_sim::{DegradationMetrics, SimReport, WindowAggregate};

/// Serializes `report` to a deterministic single-line JSON object.
///
/// # Examples
///
/// ```
/// use ecg_faults::report_to_json;
/// use ecg_sim::{simulate, GroupMap, RunContext, SimPlan};
/// use ecg_topology::fixtures::paper_figure1;
/// use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let rtt = paper_figure1();
/// let mut rng = StdRng::seed_from_u64(1);
/// let catalog = CatalogConfig::default().documents(50).generate(&mut rng);
/// let requests = RequestConfig::default().generate(&catalog, 6, 5_000.0, &mut rng);
/// let trace = merge_streams(&requests, &[]);
/// let plan = SimPlan::new(&rtt, &catalog, &trace);
/// let report = simulate(&plan, &GroupMap::one_group(6), &mut RunContext::serial())?;
/// let json = report_to_json(&report);
/// assert!(json.starts_with("{\"requests\":"));
/// # Ok::<(), ecg_sim::SimError>(())
/// ```
pub fn report_to_json(report: &SimReport) -> String {
    let mut w = JsonWriter::new();
    write_report(&mut w, report);
    w.finish()
}

/// Writes `report` — the object [`report_to_json`] returns — as the
/// next value of a larger document.
pub fn write_report(w: &mut JsonWriter, report: &SimReport) {
    let m = &report.metrics;
    w.object(|w| {
        w.key("requests").u64(m.total_requests());
        w.key("avg_latency_ms").f64(report.average_latency_ms());
        w.key("p50_latency_ms")
            .opt_f64(m.latency_percentile_ms(0.5));
        w.key("p95_latency_ms")
            .opt_f64(m.latency_percentile_ms(0.95));
        w.key("p99_latency_ms")
            .opt_f64(m.latency_percentile_ms(0.99));
        w.key("group_hit_rate").opt_f64(m.group_hit_rate());
        w.key("origin_fetches").u64(report.origin_fetches);
        w.key("origin_updates").u64(report.origin_updates);
        w.key("peer_bytes").u64(m.peer_bytes);
        w.key("origin_bytes").u64(m.origin_bytes);
        w.key("control_messages").u64(m.control_messages);
        w.key("invalidations_sent").u64(m.invalidations_sent);
        w.key("stale_served").u64(m.stale_served);

        let s = &report.cache_stats;
        w.key("cache_stats").object(|w| {
            w.key("lookups").u64(s.lookups);
            w.key("fresh_hits").u64(s.fresh_hits);
            w.key("stale_hits").u64(s.stale_hits);
            w.key("misses").u64(s.misses);
            w.key("insertions").u64(s.insertions);
            w.key("evictions").u64(s.evictions);
            w.key("bytes_evicted").u64(s.bytes_evicted);
        });

        write_degradation(w.key("degradation"), &m.degradation);

        w.key("per_cache").array(|w| {
            for a in m.per_cache() {
                w.object(|w| {
                    w.key("requests").u64(a.requests);
                    w.key("mean_latency_ms")
                        .f64(a.mean_latency_ms().unwrap_or(0.0));
                    w.key("latency_max_ms").f64(a.latency_max_ms);
                    w.key("local_hits").u64(a.local_hits);
                    w.key("peer_hits").u64(a.peer_hits);
                    w.key("origin_fetches").u64(a.origin_fetches);
                });
            }
        });
    });
}

fn write_degradation(w: &mut JsonWriter, d: &DegradationMetrics) {
    w.object(|w| {
        write_window(w.key("healthy"), &d.healthy);
        write_window(w.key("degraded"), &d.degraded);
        w.key("failovers").u64(d.failovers);
        w.key("peer_queries_skipped").u64(d.peer_queries_skipped);
        w.key("crashes").u64(d.crashes);
        w.key("recoveries").u64(d.recoveries);
        w.key("retirements").u64(d.retirements);
        w.key("degraded_fraction").opt_f64(d.degraded_fraction());
        w.key("degradation_penalty_ms")
            .opt_f64(d.degradation_penalty_ms());
        w.key("bucket_width_ms").f64(d.bucket_width_ms());
        w.key("timeline").array(|w| {
            for b in d.timeline() {
                w.object(|w| {
                    w.key("start_ms").f64(b.start_ms);
                    write_window(w.key("healthy"), &b.healthy);
                    write_window(w.key("degraded"), &b.degraded);
                });
            }
        });
    });
}

fn write_window(w: &mut JsonWriter, a: &WindowAggregate) {
    w.object(|w| {
        w.key("requests").u64(a.requests);
        w.key("mean_latency_ms")
            .f64(a.mean_latency_ms().unwrap_or(0.0));
        w.key("latency_max_ms").f64(a.latency_max_ms);
        w.key("group_hits").u64(a.group_hits);
        w.key("stale_served").u64(a.stale_served);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_obs::json::{parse, JsonValue};
    use ecg_sim::{simulate, GroupMap, RunContext, SimPlan};
    use ecg_topology::fixtures::paper_figure1;
    use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn sample_report() -> SimReport {
        let rtt = paper_figure1();
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = CatalogConfig::default().documents(80).generate(&mut rng);
        let requests = RequestConfig::default().generate(&catalog, 6, 10_000.0, &mut rng);
        let trace = merge_streams(&requests, &[]);
        let plan = SimPlan::new(&rtt, &catalog, &trace);
        simulate(&plan, &GroupMap::one_group(6), &mut RunContext::serial())
            .expect("simulation succeeds")
    }

    #[test]
    fn serialization_is_deterministic() {
        let report = sample_report();
        assert_eq!(report_to_json(&report), report_to_json(&report.clone()));
    }

    #[test]
    fn json_is_well_formed_and_carries_headline_numbers() {
        let report = sample_report();
        let doc = parse(&report_to_json(&report)).expect("the document parses");
        let num = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64);
        assert_eq!(
            num(&doc, "requests"),
            Some(report.metrics.total_requests() as f64)
        );
        assert_eq!(
            num(&doc, "origin_fetches"),
            Some(report.origin_fetches as f64)
        );
        assert_eq!(
            num(&doc, "avg_latency_ms"),
            Some(report.average_latency_ms())
        );
        let healthy = doc.get("degradation").and_then(|d| d.get("healthy"));
        assert_eq!(
            healthy.and_then(|h| num(h, "requests")),
            Some(report.metrics.degradation.healthy.requests as f64)
        );
        let per_cache = doc.get("per_cache").and_then(JsonValue::as_arr);
        assert_eq!(per_cache.map(<[_]>::len), Some(6));
    }

    #[test]
    fn fault_free_report_has_zero_degradation_counters() {
        let report = sample_report();
        let json = report_to_json(&report);
        assert!(json.contains("\"failovers\":0"));
        assert!(json.contains("\"crashes\":0"));
        assert!(json.contains("\"degraded_fraction\":0"));
    }
}
