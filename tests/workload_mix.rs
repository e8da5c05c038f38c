//! Workload-mix assertions at scale.
//!
//! Runs flash-crowd and diurnal request mixes over N = 10 000 caches —
//! streamed, on `ecg-par`'s scoped threads — and checks the merged report's
//! invariants: sane hit rates, ordered latency percentiles, and the
//! load shifts each modulation is supposed to cause. Nothing here pins
//! exact values — these are the structural properties any correct
//! replay of these mixes must exhibit.

use edge_cache_groups::prelude::*;
use edge_cache_groups::workload::{generate_updates, RateModulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CACHES: usize = 10_000;
const GROUP_SIZE: usize = 50;
const DURATION_MS: f64 = 5_000.0;
const RATE_PER_SEC: f64 = 1.5;
const SEED: u64 = 42;

/// Streams one modulated workload through the simulator, pooled.
/// Topology, groups, catalog, updates, and master seed are identical
/// across calls — only the rate modulation differs.
fn replay_mix(modulation: RateModulation) -> SimReport {
    let net = SyntheticRttConfig::default().generate(CACHES + 1, SEED);
    let groups: Vec<Vec<CacheId>> = (0..CACHES)
        .collect::<Vec<_>>()
        .chunks(GROUP_SIZE)
        .map(|c| c.iter().map(|&i| CacheId(i)).collect())
        .collect();
    let map = GroupMap::new(CACHES, groups).expect("groups");
    let mut rng = StdRng::seed_from_u64(SEED);
    let catalog = CatalogConfig::default().documents(1_500).generate(&mut rng);
    let updates = generate_updates(&catalog, DURATION_MS, &mut rng);
    let master: u64 = rng.gen();
    let workload = StreamedWorkload::new(
        RequestConfig::default()
            .rate_per_sec_per_cache(RATE_PER_SEC)
            .modulation(modulation),
        master,
        DURATION_MS,
    )
    .updates(&updates);
    let plan = SimPlan::streamed(&net, &catalog, &workload)
        .config(SimConfig::default().warmup_ms(DURATION_MS / 6.0));
    simulate(&plan, &map, &mut RunContext::pooled()).expect("replay")
}

#[test]
fn flash_crowd_and_diurnal_mixes_hold_invariants_at_scale() {
    let constant = replay_mix(RateModulation::Constant);
    let flash = replay_mix(RateModulation::FlashCrowd {
        start_ms: 1_000.0,
        end_ms: 3_000.0,
        multiplier: 4.0,
    });
    let diurnal = replay_mix(RateModulation::Diurnal {
        period_ms: DURATION_MS,
        amplitude: 0.5,
    });

    for (name, report) in [
        ("constant", &constant),
        ("flash", &flash),
        ("diurnal", &diurnal),
    ] {
        let requests = report.metrics.total_requests();
        assert!(
            requests > 40_000,
            "{name}: expected a large-N request volume, got {requests}"
        );
        let hit = report.metrics.group_hit_rate().expect("requests recorded");
        assert!(
            (0.25..1.0).contains(&hit),
            "{name}: implausible group hit rate {hit}"
        );
        let avg = report.average_latency_ms();
        assert!(
            avg.is_finite() && avg > 0.0,
            "{name}: implausible average latency {avg}"
        );
        let p50 = report.metrics.latency_percentile_ms(0.5).expect("p50");
        let p95 = report.metrics.latency_percentile_ms(0.95).expect("p95");
        let p99 = report.metrics.latency_percentile_ms(0.99).expect("p99");
        assert!(
            p50 <= p95 && p95 <= p99,
            "{name}: latency percentiles out of order ({p50} / {p95} / {p99})"
        );
        assert!(
            report.origin_fetches > 0 && report.origin_updates > 0,
            "{name}: origin never touched"
        );
    }

    // A 4x surge over 2 of 5 seconds must raise the measured volume
    // well past the constant run's...
    let (constant_reqs, flash_reqs, diurnal_reqs) = (
        constant.metrics.total_requests() as f64,
        flash.metrics.total_requests() as f64,
        diurnal.metrics.total_requests() as f64,
    );
    assert!(
        flash_reqs > 1.5 * constant_reqs,
        "flash crowd did not surge: {flash_reqs} vs {constant_reqs}"
    );
    // ...while a symmetric day/night swing over one full period leaves
    // the total roughly unchanged.
    let swing = (diurnal_reqs - constant_reqs).abs() / constant_reqs;
    assert!(
        swing < 0.2,
        "diurnal total drifted {swing:.2}x from the constant run"
    );
}
