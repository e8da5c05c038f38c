//! Ablation: freshness maintenance protocol.
//!
//! The paper's intro motivates cache cooperation partly by
//! "collaborative document freshness maintenance"; its simulator uses
//! the authors' Cache Clouds machinery. This ablation compares three
//! freshness protocols under identical SDSL groups and an update-heavy
//! workload:
//!
//! * **invalidate-on-access** — staleness found lazily (our default),
//! * **origin multicast** — push invalidations, zero staleness,
//! * **TTL lease (30 s)** — serve within the lease, cheapest upstream.
//!
//! Reported: latency, origin load, push-message volume, and the
//! client-visible staleness each protocol trades.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_freshness [--metrics-out <path>]`.

use crate::{f2, Run, Scenario, Table};
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_sim::FreshnessProtocol;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(run: &mut Run) {
    let caches = 150;
    let duration_ms = 180_000.0;
    let k = 15;

    run.line(format_args!(
        "Ablation: freshness protocol ({caches} caches, K = {k}, SDSL θ = 1)\n"
    ));
    let scenario = Scenario::build(caches, duration_ms, 313);
    let mut rng = StdRng::seed_from_u64(14);
    let outcome = form(
        &FormPlan::new(scenario.network.rtt_matrix(), &SchemeConfig::sdsl(k, 1.0)),
        &mut FormContext::new().observe(run.obs()),
        &mut rng,
    )
    .expect("group formation");

    let mut table = Table::new([
        "protocol",
        "latency_ms",
        "origin_fetches",
        "invalidations",
        "stale_served",
        "stale_rate",
    ]);
    for (name, protocol) in [
        (
            "invalidate_on_access",
            FreshnessProtocol::InvalidateOnAccess,
        ),
        ("origin_multicast", FreshnessProtocol::OriginMulticast),
        (
            "ttl_lease_30s",
            FreshnessProtocol::TtlLease { ttl_ms: 30_000.0 },
        ),
    ] {
        let config = scenario.sim_config(duration_ms).freshness(protocol);
        let report = scenario.simulate_groups(outcome.groups(), config, run.obs());
        let total = report.metrics.total_requests().max(1);
        table.row([
            name.to_string(),
            f2(report.average_latency_ms()),
            report.origin_fetches.to_string(),
            report.metrics.invalidations_sent.to_string(),
            report.metrics.stale_served.to_string(),
            format!(
                "{:.2}%",
                100.0 * report.metrics.stale_served as f64 / total as f64
            ),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: multicast has zero staleness at the cost of push \
         traffic; the TTL lease cuts origin fetches but serves stale \
         versions; invalidate-on-access pays neither push messages nor \
         staleness, taking the misses instead.",
    );
}
