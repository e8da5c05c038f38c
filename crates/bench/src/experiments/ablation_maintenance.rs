//! Ablation: incremental maintenance vs. periodic re-formation.
//!
//! The paper forms groups once. Under churn an operator chooses
//! between re-running the scheme (accurate, expensive: full landmark
//! probing) and admitting newcomers incrementally (cheap: each probes
//! only the existing landmarks). This experiment admits waves of new
//! caches and tracks the interaction-cost drift of incremental
//! maintenance against a freshly re-formed grouping at every step.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_maintenance [--metrics-out <path>]`.

use crate::{f2, Run, Table};
use ecg_coords::ProbeConfig;
use ecg_core::{GfCoordinator, GroupMaintainer, SchemeConfig};
use ecg_topology::{CacheId, EdgeNetwork, OriginPlacement, TransitStubConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(run: &mut Run) {
    let initial = 100;
    let waves = 6;
    let joins_per_wave = 15;
    let k = 12;

    run.line(format_args!(
        "Ablation: incremental admission vs re-formation \
         ({initial} caches + {waves} waves x {joins_per_wave} joins, K = {k})\n"
    ));
    let mut rng = StdRng::seed_from_u64(55);
    let topo = TransitStubConfig::for_caches(initial).generate(&mut rng);
    let mut network = EdgeNetwork::place(&topo, initial, OriginPlacement::TransitNode, &mut rng)
        .expect("placement");
    let coordinator = GfCoordinator::new(SchemeConfig::sdsl(k, 1.0));
    let outcome = coordinator
        .form_groups_observed(&network, &mut rng, run.obs())
        .expect("initial formation");
    let mut maintainer = GroupMaintainer::new(&network, outcome, ProbeConfig::default());

    let gic_of = |groups: &[Vec<CacheId>], network: &EdgeNetwork| -> f64 {
        let idx: Vec<Vec<usize>> = groups
            .iter()
            .map(|g| g.iter().map(|c| c.index()).collect())
            .collect();
        ecg_clustering::average_group_interaction_cost(&idx, |a, b| {
            network.cache_to_cache(CacheId(a), CacheId(b))
        })
    };

    let mut table = Table::new([
        "wave",
        "caches",
        "incremental_gic",
        "reformed_gic",
        "drift",
        "reform_probe_cost",
    ]);
    for wave in 1..=waves {
        // Newcomers appear near random existing caches (new rack in an
        // existing PoP), plus occasional truly remote ones.
        for _ in 0..joins_per_wave {
            let n = network.cache_count();
            let anchor = CacheId(rng.gen_range(0..n));
            let remote = rng.gen_bool(0.2);
            let rtts: Vec<f64> = (0..n)
                .map(|i| {
                    if remote {
                        rng.gen_range(80.0..250.0)
                    } else if CacheId(i) == anchor {
                        rng.gen_range(0.5..2.0)
                    } else {
                        network.cache_to_cache(anchor, CacheId(i)) + rng.gen_range(0.5..2.0)
                    }
                })
                .collect();
            let to_origin = if remote {
                rng.gen_range(80.0..250.0)
            } else {
                network.cache_to_origin(anchor) + rng.gen_range(0.5..2.0)
            };
            network = network.with_added_cache(to_origin, &rtts);
            maintainer
                .admit_observed(&network, &mut rng, run.obs())
                .expect("admission");
        }

        let incremental = gic_of(maintainer.groups(), &network);
        // A fair re-formation takes the best of several K-means seeds
        // (what an operator would do, since clustering is cheap next to
        // the probing it requires).
        let mut best: Option<(f64, u64)> = None;
        for attempt in 0..5u64 {
            let mut reform_rng = StdRng::seed_from_u64(900 + wave as u64 * 10 + attempt);
            let outcome = coordinator
                .form_groups_observed(&network, &mut reform_rng, run.obs())
                .expect("re-formation");
            let gic = gic_of(outcome.groups(), &network);
            if best.is_none_or(|(b, _)| gic < b) {
                best = Some((gic, outcome.probes_sent()));
            }
        }
        let (reformed, probes) = best.expect("attempts ran");
        table.row([
            wave.to_string(),
            network.cache_count().to_string(),
            f2(incremental),
            f2(reformed),
            f2(maintainer.drift(&network).expect("drift")),
            probes.to_string(),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: incremental admission holds up remarkably well — the \
         drift column grows slowly — while every re-formation pays the \
         full landmark probing bill again (last column, per attempt). \
         Re-form when drift crosses your threshold, not on a timer.",
    );
}
