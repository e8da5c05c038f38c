//! Ablation: resilient formation under probe loss and cache faults.
//!
//! The paper forms groups over a healthy, fully measurable network. This
//! experiment injects formation-time faults — a crashed cache, a
//! two-cache correlated stub-domain outage, a couple of black-holed
//! probe links — and sweeps probe loss, forming SL groups with the
//! resilience layer off (legacy pipeline: lost and dead probes poison
//! the feature matrix with the timeout sentinel) and on (bounded
//! retries, landmark failover, masked clustering, quarantine). The
//! clustering-accuracy metric is the paper's average group interaction
//! cost (GIC); the resilient pipeline should hold it near the fault-free
//! value while the legacy pipeline drifts as loss rises.
//!
//! Each cell averages several formation seeds so the comparison is not
//! hostage to one K-means draw. Per-cell health totals (retries,
//! give-ups, landmark failovers, quarantined caches, masked feature
//! cells) are written alongside the GIC into
//! `results/ablation_resilience.json`.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_resilience [--metrics-out <path>]`.

use crate::{f2, interaction_cost_ms, mean, Run, Table};
use ecg_coords::ProbeConfig;
use ecg_core::{GfCoordinator, ResilienceConfig, SchemeConfig};
use ecg_faults::FormationFaults;
use ecg_obs::json::JsonWriter;
use ecg_topology::{CacheId, EdgeNetwork, OriginPlacement, TransitStubConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 60;
const GROUPS: usize = 8;
const LOSS_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];
const REPEATS: u64 = 5;
const NETWORK_SEED: u64 = 91;

struct Cell {
    loss: f64,
    resilient: bool,
}

#[derive(Default)]
struct CellResult {
    gic_ms: Vec<f64>,
    retries: u64,
    gave_up: u64,
    failovers: usize,
    dead_landmarks: usize,
    quarantined: usize,
    masked_cells: usize,
}

pub fn run(run: &mut Run) {
    let mut rng = StdRng::seed_from_u64(NETWORK_SEED);
    let topo = TransitStubConfig::for_caches(CACHES).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, CACHES, OriginPlacement::TransitNode, &mut rng)
        .expect("scenario placement");

    // The fault set, fixed across every cell: one lone crash, one
    // correlated outage (the first stub domain hosting exactly two
    // caches), and two black-holed probe links.
    let outage = (0..topo.stub_domains().len())
        .map(|d| FormationFaults::new().stub_domain_outage(&topo, &network, d))
        .find(|f| f.crash_count() == 2)
        .expect("some stub domain hosts exactly two caches");
    let faults = outage
        .crash(CacheId(7))
        .blackhole(CacheId(1), CacheId(2))
        .blackhole_to_origin(CacheId(11));
    let crashed: Vec<usize> = faults.crashed_caches().map(|c| c.index()).collect();
    let probe_faults = faults.to_probe_faults();

    run.line(format_args!(
        "Ablation: formation resilience ({CACHES} caches, K = {GROUPS}, \
         crashed caches {crashed:?}, 2 black-holed links, {REPEATS} seeds \
         per cell)\n"
    ));

    let cells: Vec<Cell> = LOSS_RATES
        .iter()
        .flat_map(|&loss| {
            [false, true]
                .into_iter()
                .map(move |resilient| Cell { loss, resilient })
        })
        .collect();

    let results = run.cells(cells, |cell, cell_obs| {
        let mut config =
            SchemeConfig::sl(GROUPS).probe(ProbeConfig::default().loss_rate(cell.loss));
        if cell.resilient {
            config = config.resilience(ResilienceConfig::default());
        }
        let coordinator = GfCoordinator::new(config);

        let mut result = CellResult::default();
        for seed in 0..REPEATS {
            let mut form_rng = StdRng::seed_from_u64(3_000 + seed);
            let outcome = coordinator
                .form_groups_faulted_observed(
                    &network,
                    &probe_faults,
                    &mut form_rng,
                    cell_obs.as_mut(),
                )
                .expect("faulted formation");
            result.gic_ms.push(interaction_cost_ms(&outcome, &network));
            if let Some(health) = outcome.health() {
                result.retries += health.probe_retries;
                result.gave_up += health.probe_gave_up;
                result.failovers += health.landmark_failovers;
                result.dead_landmarks += health.dead_landmarks.len();
                result.quarantined += health.quarantined.len();
                result.masked_cells += health.masked_cells;
            }
        }
        result
    });

    let mut table = Table::new([
        "loss",
        "resilience",
        "gic_ms",
        "retries",
        "gave_up",
        "failovers",
        "quarantined",
        "masked",
    ]);
    let labelled = || {
        LOSS_RATES
            .iter()
            .flat_map(|&loss| [(loss, false), (loss, true)])
            .zip(&results)
    };
    for ((loss, resilient), r) in labelled() {
        let gic = mean(&r.gic_ms);
        table.row([
            format!("{loss:.1}"),
            if resilient { "on" } else { "off" }.into(),
            f2(gic),
            if resilient {
                r.retries.to_string()
            } else {
                "-".into()
            },
            if resilient {
                r.gave_up.to_string()
            } else {
                "-".into()
            },
            if resilient {
                r.failovers.to_string()
            } else {
                "-".into()
            },
            if resilient {
                r.quarantined.to_string()
            } else {
                "-".into()
            },
            if resilient {
                r.masked_cells.to_string()
            } else {
                "-".into()
            },
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: with resilience off, every lost or dead probe lands \
         in the feature matrix as the 1000 ms timeout sentinel, so GIC \
         climbs with loss; with resilience on, retries scrub the loss, \
         dead landmarks fail over, and the crashed caches are quarantined \
         instead of clustered on garbage, holding GIC near its fault-free \
         value.",
    );

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("caches").usize(CACHES);
        w.key("groups").usize(GROUPS);
        w.key("repeats").u64(REPEATS);
        w.key("crashed_caches").array(|w| {
            for &c in &crashed {
                w.usize(c);
            }
        });
        w.key("cells").array(|w| {
            for ((loss, resilient), r) in labelled() {
                w.object(|w| {
                    w.key("loss_rate").f64(loss);
                    w.key("resilience").bool(resilient);
                    w.key("mean_gic_ms").f64(mean(&r.gic_ms));
                    w.key("gic_ms").array(|w| {
                        for &g in &r.gic_ms {
                            w.f64(g);
                        }
                    });
                    w.key("probe_retries").u64(r.retries);
                    w.key("probe_gave_up").u64(r.gave_up);
                    w.key("landmark_failovers").usize(r.failovers);
                    w.key("dead_landmarks").usize(r.dead_landmarks);
                    w.key("quarantined").usize(r.quarantined);
                    w.key("masked_cells").usize(r.masked_cells);
                });
            }
        });
    });
    run.document("full cells", "ablation_resilience.json", w.finish());
}
