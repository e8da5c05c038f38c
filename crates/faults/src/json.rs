//! Deterministic JSON serialization of simulation reports.
//!
//! The workspace has no serde, so this is a tiny hand-rolled emitter:
//! fixed key order, `{}`-formatted numbers (shortest round-trip for
//! floats), no whitespace variability. Two equal [`SimReport`]s always
//! serialize to byte-identical strings, which is what the determinism
//! tests and the ablation result files rely on.

use std::fmt::Write as _;

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
    let m = &report.metrics;
    let mut out = String::with_capacity(1024);
    out.push('{');
    push_u64(&mut out, "requests", m.total_requests());
    push_f64(&mut out, "avg_latency_ms", report.average_latency_ms());
    push_opt_f64(&mut out, "p50_latency_ms", m.latency_percentile_ms(0.5));
    push_opt_f64(&mut out, "p95_latency_ms", m.latency_percentile_ms(0.95));
    push_opt_f64(&mut out, "p99_latency_ms", m.latency_percentile_ms(0.99));
    push_opt_f64(&mut out, "group_hit_rate", m.group_hit_rate());
    push_u64(&mut out, "origin_fetches", report.origin_fetches);
    push_u64(&mut out, "origin_updates", report.origin_updates);
    push_u64(&mut out, "peer_bytes", m.peer_bytes);
    push_u64(&mut out, "origin_bytes", m.origin_bytes);
    push_u64(&mut out, "control_messages", m.control_messages);
    push_u64(&mut out, "invalidations_sent", m.invalidations_sent);
    push_u64(&mut out, "stale_served", m.stale_served);

    let s = &report.cache_stats;
    push_raw(
        &mut out,
        "cache_stats",
        &format!(
            "{{\"lookups\":{},\"fresh_hits\":{},\"stale_hits\":{},\"misses\":{},\
             \"insertions\":{},\"evictions\":{},\"bytes_evicted\":{}}}",
            s.lookups,
            s.fresh_hits,
            s.stale_hits,
            s.misses,
            s.insertions,
            s.evictions,
            s.bytes_evicted
        ),
    );

    push_raw(&mut out, "degradation", &degradation_json(&m.degradation));

    let per_cache: Vec<String> = m
        .per_cache()
        .iter()
        .map(|a| {
            format!(
                "{{\"requests\":{},\"mean_latency_ms\":{},\"latency_max_ms\":{},\
                 \"local_hits\":{},\"peer_hits\":{},\"origin_fetches\":{}}}",
                a.requests,
                f(a.mean_latency_ms().unwrap_or(0.0)),
                f(a.latency_max_ms),
                a.local_hits,
                a.peer_hits,
                a.origin_fetches
            )
        })
        .collect();
    push_raw(&mut out, "per_cache", &format!("[{}]", per_cache.join(",")));

    // Strip the trailing comma the pushers leave behind.
    out.pop();
    out.push('}');
    out
}

fn degradation_json(d: &DegradationMetrics) -> String {
    let timeline: Vec<String> = d
        .timeline()
        .iter()
        .map(|b| {
            format!(
                "{{\"start_ms\":{},\"healthy\":{},\"degraded\":{}}}",
                f(b.start_ms),
                window_json(&b.healthy),
                window_json(&b.degraded)
            )
        })
        .collect();
    let mut out = String::with_capacity(256);
    out.push('{');
    push_raw(&mut out, "healthy", &window_json(&d.healthy));
    push_raw(&mut out, "degraded", &window_json(&d.degraded));
    push_u64(&mut out, "failovers", d.failovers);
    push_u64(&mut out, "peer_queries_skipped", d.peer_queries_skipped);
    push_u64(&mut out, "crashes", d.crashes);
    push_u64(&mut out, "recoveries", d.recoveries);
    push_u64(&mut out, "retirements", d.retirements);
    push_opt_f64(&mut out, "degraded_fraction", d.degraded_fraction());
    push_opt_f64(
        &mut out,
        "degradation_penalty_ms",
        d.degradation_penalty_ms(),
    );
    push_f64(&mut out, "bucket_width_ms", d.bucket_width_ms());
    push_raw(&mut out, "timeline", &format!("[{}]", timeline.join(",")));
    out.pop();
    out.push('}');
    out
}

fn window_json(w: &WindowAggregate) -> String {
    format!(
        "{{\"requests\":{},\"mean_latency_ms\":{},\"latency_max_ms\":{},\
         \"group_hits\":{},\"stale_served\":{}}}",
        w.requests,
        f(w.mean_latency_ms().unwrap_or(0.0)),
        f(w.latency_max_ms),
        w.group_hits,
        w.stale_served
    )
}

/// Formats a float as a JSON number (JSON has no NaN/Infinity; they
/// become null, which the emitters above never actually produce).
/// Shared with the plan serializer in [`crate::plan`].
pub(crate) fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    let _ = write!(out, "\"{key}\":{v},");
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, "\"{key}\":{},", f(v));
}

fn push_opt_f64(out: &mut String, key: &str, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, key, v),
        None => {
            let _ = write!(out, "\"{key}\":null,");
        }
    }
}

fn push_raw(out: &mut String, key: &str, v: &str) {
    let _ = write!(out, "\"{key}\":{v},");
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let json = report_to_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(
            !json.contains(",}") && !json.contains(",]"),
            "no dangling commas"
        );
        assert!(json.contains(&format!("\"requests\":{}", report.metrics.total_requests())));
        assert!(json.contains(&format!("\"origin_fetches\":{}", report.origin_fetches)));
        assert!(json.contains("\"degradation\":{\"healthy\":"));
        assert!(json.contains("\"per_cache\":["));
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
