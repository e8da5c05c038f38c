//! Ablation: workload sensitivity of the SDSL advantage.
//!
//! The paper's trace is one sporting-event site. This ablation replays
//! the SL-vs-SDSL comparison on two different dynamic-content profiles
//! — the Olympics-like sporting preset (high skew, flash crowd, hot
//! dynamic set) and a news-site preset (long tail, diurnal cycle, tiny
//! hot set) — to check the conclusion is not an artifact of one
//! workload shape.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_workload [--metrics-out <path>]`.

use crate::{f2, mean, Run, Table};
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_sim::{simulate, GroupMap, RunContext, SimConfig, SimPlan};
use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
use ecg_workload::{NewsSiteConfig, SportingEventConfig, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 150;
    let duration_ms = 180_000.0;
    let k = 15;
    let form_seeds = [1u64, 2, 3];

    run.line(format_args!(
        "Ablation: workload profile ({caches} caches, K = {k})\n"
    ));
    let mut rng = StdRng::seed_from_u64(2_026);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");

    // Two workload profiles on the same network.
    let sporting = SportingEventConfig::default()
        .caches(caches)
        .documents(1_500)
        .duration_ms(duration_ms)
        .generate(&mut rng);
    let news = NewsSiteConfig::default()
        .caches(caches)
        .documents(4_000)
        .duration_ms(duration_ms)
        .generate(&mut rng);
    let profiles: Vec<(&str, &ecg_workload::DocumentCatalog, Vec<TraceEvent>)> = vec![
        ("sporting_event", &sporting.catalog, sporting.merged_trace()),
        ("news_site", &news.catalog, news.merged_trace()),
    ];

    let config = SimConfig::default()
        .cache_capacity_bytes(512 * 1024)
        .warmup_ms(duration_ms / 6.0);
    let mut table = Table::new([
        "workload",
        "SL_ms",
        "SDSL_ms",
        "SDSL_gain",
        "group_hit_rate",
    ]);
    for (name, catalog, trace) in &profiles {
        let mut latencies = [Vec::new(), Vec::new()];
        let mut hit_rates = Vec::new();
        for &seed in &form_seeds {
            for (slot, scheme) in [SchemeConfig::sl(k), SchemeConfig::sdsl(k, 1.0)]
                .into_iter()
                .enumerate()
            {
                let mut form_rng = StdRng::seed_from_u64(seed);
                let outcome = form(
                    &FormPlan::new(network.rtt_matrix(), &scheme),
                    &mut FormContext::new().observe(run.obs()),
                    &mut form_rng,
                )
                .expect("formation");
                let map = GroupMap::new(caches, outcome.groups().to_vec()).expect("groups");
                let plan = SimPlan::new(network.rtt_matrix(), catalog, trace).config(config);
                let mut ctx = RunContext::serial().observe(run.obs());
                let report = simulate(&plan, &map, &mut ctx).expect("simulation");
                latencies[slot].push(report.average_latency_ms());
                if slot == 1 {
                    hit_rates.push(report.metrics.group_hit_rate().unwrap_or(0.0));
                }
            }
        }
        let (sl, sdsl) = (mean(&latencies[0]), mean(&latencies[1]));
        table.row([
            name.to_string(),
            f2(sl),
            f2(sdsl),
            format!("{:.1}%", 100.0 * (sl - sdsl) / sl),
            format!("{:.1}%", 100.0 * mean(&hit_rates)),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: SDSL ahead on both profiles; the long-tail news \
         workload has lower hit rates overall (bigger catalog, milder \
         skew), shrinking every scheme's absolute benefit.",
    );
}
