//! Ablation: origin server placement.
//!
//! The paper assumes the origin's location is "pre-decided". This
//! ablation asks how much it matters: the same caches and workload with
//! the origin on a backbone (transit) node vs. buried in a stub domain,
//! comparing SL and SDSL. A stub-homed origin stretches most
//! cache-to-origin paths, which should (a) raise absolute latencies and
//! (b) *increase* SDSL's edge, since server distances become more
//! heterogeneous.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_origin [--metrics-out <path>]`.

use crate::{f2, mean, Run, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use ecg_sim::{simulate, GroupMap, RunContext, SimConfig, SimPlan};
use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
use ecg_workload::SportingEventConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 200;
    let duration_ms = 120_000.0;
    let k = 20;
    let form_seeds = [1u64, 2, 3];

    run.line(format_args!(
        "Ablation: origin placement ({caches} caches, K = {k})\n"
    ));
    let mut table = Table::new(["origin", "mean_origin_rtt", "SL_ms", "SDSL_ms", "SDSL_gain"]);
    for (label, placement) in [
        ("transit", OriginPlacement::TransitNode),
        ("stub", OriginPlacement::StubNode),
    ] {
        let mut rng = StdRng::seed_from_u64(4_040);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let network = EdgeNetwork::place(&topo, caches, placement, &mut rng).expect("placement");
        let workload = SportingEventConfig::default()
            .caches(caches)
            .documents(1_500)
            .duration_ms(duration_ms)
            .generate(&mut rng);
        let trace = workload.merged_trace();
        let config = SimConfig::default()
            .cache_capacity_bytes(512 * 1024)
            .warmup_ms(duration_ms / 6.0);

        let mut latencies = [Vec::new(), Vec::new()];
        for &seed in &form_seeds {
            for (slot, scheme) in [SchemeConfig::sl(k), SchemeConfig::sdsl(k, 1.0)]
                .into_iter()
                .enumerate()
            {
                let mut form_rng = StdRng::seed_from_u64(seed);
                let outcome = GfCoordinator::new(scheme)
                    .form_groups_observed(&network, &mut form_rng, run.obs())
                    .expect("group formation");
                let map = GroupMap::new(caches, outcome.groups().to_vec()).expect("valid groups");
                let plan =
                    SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace).config(config);
                let mut ctx = RunContext::serial().observe(run.obs());
                let report = simulate(&plan, &map, &mut ctx).expect("simulation");
                latencies[slot].push(report.average_latency_ms());
            }
        }
        let (sl, sdsl) = (mean(&latencies[0]), mean(&latencies[1]));
        table.row([
            label.to_string(),
            f2(network.mean_origin_rtt()),
            f2(sl),
            f2(sdsl),
            format!("{:.1}%", 100.0 * (sl - sdsl) / sl),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: SDSL helps in both placements; the stub-homed origin \
         typically has more heterogeneous cache-to-origin distances, which \
         widens SDSL's edge.",
    );
}
