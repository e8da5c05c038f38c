//! The names, units and directions of every metric the benchmark
//! prints. `BENCHMARK.json` at the repository root lists the same, and a
//! test below keeps the two in step; `README.md` says which end-to-end
//! metric each per-layer metric should move, and on which workload.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, from the untraced run. Timings are
/// medians over the passes of a run; the three simulated metrics repeat
/// exactly at a fixed seed and vary only with the inputs a seed draws.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("chain_cpu_ms", "ms", Lower, 0.25),
    e2e("form_caches_per_cpu_s", "caches/s", Higher, 0.25),
    e2e("replay_requests_per_cpu_s", "requests/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("avg_latency_ms", "sim_ms", Lower, 0.10),
    e2e("group_hit_rate", "ratio", Higher, 0.10),
    e2e("gic_ms", "sim_ms", Lower, 0.10),
];

/// Single layers, from the traced run. Times are per pass, medians over
/// the traced passes. A 0 means the workload's chain does not call that
/// layer from outside.
pub const PER_LAYER: &[Metric] = &[
    layer("topology.generate_ms", "ms", Lower),
    layer("topology.apsp_ms", "ms", Lower),
    layer("topology.rtt_calls", "count", Lower),
    layer("workload.generate_ms", "ms", Lower),
    layer("workload.merge_trace_ms", "ms", Lower),
    layer("workload.events", "count", Lower),
    layer("workload.stream_ns_per_request", "ns", Lower),
    layer("core.landmarks_ms", "ms", Lower),
    layer("core.landmarks_probes", "count", Lower),
    layer("coords.features_ms", "ms", Lower),
    layer("coords.probes_sent", "count", Lower),
    layer("coords.ns_per_probe", "ns", Lower),
    layer("clustering.kmeans_ms", "ms", Lower),
    layer("clustering.iterations", "count", Lower),
    layer("clustering.tree_build_ms", "ms", Lower),
    layer("clustering.ns_per_point_iter", "ns", Lower),
    layer("clustering.gic_eval_ms", "ms", Lower),
    layer("core.form_oneshot_ms", "ms", Lower),
    layer("core.form_self_ms", "ms", Lower),
    layer("core.reform_partial_ms", "ms", Lower),
    layer("core.reform_full_ms", "ms", Lower),
    layer("sim.groupmap_ms", "ms", Lower),
    layer("sim.simulate_ms", "ms", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("cache.ns_per_op", "ns", Lower),
    layer("cache.local_hit_ratio", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    layer("replay.plan_ms", "ms", Lower),
    layer("replay.shards_ms", "ms", Lower),
    layer("replay.merge_ms", "ms", Lower),
    layer("replay.shards", "count", Higher),
    layer("replay.shard_events", "count", Lower),
    layer("replay.ns_per_event", "ns", Lower),
    layer("replay.sharded_vs_mono", "ratio", Lower),
    layer("replay.epochs_ms", "ms", Lower),
    layer("replay.epochs", "count", Lower),
    layer("faults.plan_ms", "ms", Lower),
    layer("faults.events", "count", Lower),
    layer("lifecycle.run_ms", "ms", Lower),
    layer("lifecycle.windows", "count", Lower),
    layer("lifecycle.ms_per_window", "ms", Lower),
    layer("lifecycle.repairs", "count", Lower),
    layer("lifecycle.partial_reforms", "count", Lower),
    layer("lifecycle.full_reforms", "count", Lower),
    layer("par.threads", "count", Higher),
    layer("par.form_speedup", "ratio", Higher),
    layer("par.replay_speedup", "ratio", Higher),
    layer("par.chain_speedup", "ratio", Higher),
    layer("obs.observed_overhead_pct", "%", Lower),
    layer("core.form_allocs", "count", Lower),
    layer("core.form_alloc_mb", "MiB", Lower),
    layer("sim.allocs", "count", Lower),
    layer("replay.allocs", "count", Lower),
    layer("replay.alloc_mb", "MiB", Lower),
    layer("lifecycle.allocs", "count", Lower),
    layer("chain.peak_live_mb", "MiB", Lower),
    layer("chain.wall_ms", "ms", Lower),
    layer("chain.wall_tail_ms", "ms", Lower),
    layer("chain.wall_tail_pct", "%", Higher),
    layer("chain.form_wall_ms", "ms", Lower),
    layer("chain.replay_wall_ms", "ms", Lower),
    layer("chain.setup_wall_s", "s", Lower),
    layer("chain.warmup_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.stepwise_matches_oneshot", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::WORKLOADS;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a Json {
        entry
            .get(key)
            .unwrap_or_else(|| panic!("no {key} in {entry:?}"))
    }

    fn assert_listed(listed: &Json, table: &[Metric]) {
        let Json::Arr(listed) = listed else {
            panic!("not an array: {listed:?}")
        };
        assert_eq!(listed.len(), table.len());
        for (entry, metric) in listed.iter().zip(table) {
            assert_eq!(field(entry, "name"), &Json::Str(metric.name.into()));
            assert_eq!(field(entry, "unit"), &Json::Str(metric.unit.into()));
            assert_eq!(
                field(entry, "better"),
                &Json::Str(metric.better.as_str().into())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), metric.bound);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_listed(field(&doc, "end_to_end"), END_TO_END);
        assert_listed(field(&doc, "per_layer"), PER_LAYER);

        let Json::Arr(workloads) = field(&doc, "workloads") else {
            panic!("workloads is not an array")
        };
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), &Json::Str(workload.name.into()));
            assert_eq!(field(entry, "why"), &Json::Str(workload.why.into()));
            assert!(workload.why.len() <= 200, "{}", workload.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_schema() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
