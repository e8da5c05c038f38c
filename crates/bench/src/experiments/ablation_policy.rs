//! Ablation: cache replacement policy.
//!
//! The paper's caches run the Cache Clouds utility-based replacement
//! scheme. This ablation swaps the policy (utility, LRU, LFU, GDSF)
//! under identical SDSL groups and workload, reporting latency, group
//! hit rate, and origin offload.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_policy [--metrics-out <path>]`.

use crate::{f2, Run, Scenario, Table};
use ecg_cache::PolicyKind;
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 200;
    let duration_ms = 180_000.0;
    let k = 20;

    run.line(format_args!(
        "Ablation: replacement policy ({caches} caches, K = {k}, SDSL θ = 1)\n"
    ));
    let scenario = Scenario::build(caches, duration_ms, 777);
    let mut rng = StdRng::seed_from_u64(88);
    let outcome = form(
        &FormPlan::new(scenario.network.rtt_matrix(), &SchemeConfig::sdsl(k, 1.0)),
        &mut FormContext::new().observe(run.obs()),
        &mut rng,
    )
    .expect("group formation");

    let mut table = Table::new([
        "policy",
        "latency_ms",
        "group_hit_rate",
        "origin_fetches",
        "evictions",
    ]);
    for policy in [
        PolicyKind::Utility,
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Gdsf,
    ] {
        let config = scenario.sim_config(duration_ms).policy(policy);
        let report = scenario.simulate_groups(outcome.groups(), config, run.obs());
        table.row([
            policy.name().to_string(),
            f2(report.average_latency_ms()),
            format!(
                "{:.1}%",
                100.0 * report.metrics.group_hit_rate().unwrap_or(0.0)
            ),
            report.origin_fetches.to_string(),
            report.cache_stats.evictions.to_string(),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: the utility policy (which factors in fetch cost and \
         update rate) at or near the best latency; LRU/LFU competitive; \
         the exact ordering is workload-dependent.",
    );
}
