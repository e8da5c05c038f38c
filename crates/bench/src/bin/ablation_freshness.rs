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
//! ```text
//! cargo run --release -p ecg-bench --bin ablation_freshness [--metrics-out <path>]
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_bench::{f2, MetricsSink, Scenario, Table};
use ecg_core::{GfCoordinator, SchemeConfig};
use ecg_sim::FreshnessProtocol;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut sink = MetricsSink::from_args();
    let mut obs = sink.collect();
    let caches = 150;
    let duration_ms = 180_000.0;
    let k = 15;

    println!("Ablation: freshness protocol ({caches} caches, K = {k}, SDSL θ = 1)\n");
    let scenario = Scenario::build(caches, duration_ms, 313);
    let mut rng = StdRng::seed_from_u64(14);
    let outcome = GfCoordinator::new(SchemeConfig::sdsl(k, 1.0))
        .form_groups_observed(&scenario.network, &mut rng, obs.as_mut())
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
        let report = scenario.simulate_groups(outcome.groups(), config, obs.as_mut());
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
    table.print();
    println!(
        "\nexpected: multicast has zero staleness at the cost of push \
         traffic; the TTL lease cuts origin fetches but serves stale \
         versions; invalidate-on-access pays neither push messages nor \
         staleness, taking the misses instead."
    );
    sink.absorb(obs);
    sink.write();
}
