//! Ablation: churn tolerance of the formed groupings.
//!
//! The paper evaluates group formation over a healthy network. This
//! experiment injects churn — random cache crashes and recoveries, a
//! slice of them permanent retirements — and compares how SL, SDSL, and
//! a random grouping degrade as the churn rate rises: average latency
//! split into healthy and degraded windows, failovers to the origin,
//! and (for the maintained schemes) the interaction-cost drift after
//! replaying the same churn through incremental retire/readmit
//! maintenance.
//!
//! Besides the usual text table, the full per-cell simulation reports
//! are written to `results/ablation_churn.json` for downstream
//! analysis.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_churn [--metrics-out <path>]`.

use crate::{f2, Run, Scenario, Table};
use ecg_coords::ProbeConfig;
use ecg_core::{form, FormContext, FormPlan, GroupMaintainer, SchemeConfig};
use ecg_faults::json::write_report;
use ecg_faults::{ChurnConfig, ChurnDriver, FaultPlan};
use ecg_obs::json::JsonWriter;
use ecg_sim::{simulate, GroupMap, RunContext, SimReport};
use ecg_topology::CacheId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CACHES: usize = 60;
const GROUPS: usize = 8;
const DURATION_MS: f64 = 120_000.0;
const MEAN_DOWNTIME_MS: f64 = 15_000.0;
const RETIREMENT_FRACTION: f64 = 0.1;
const CHURN_RATES: [f64; 4] = [0.0, 2.0, 6.0, 12.0];

type Scheme = (&'static str, Vec<Vec<CacheId>>, Option<GroupMaintainer>);

struct Cell {
    scheme: &'static str,
    churn_per_hour: f64,
    groups: Vec<Vec<CacheId>>,
    maintainer: Option<GroupMaintainer>,
    plan: FaultPlan,
}

struct CellResult {
    scheme: &'static str,
    churn_per_hour: f64,
    report: SimReport,
    max_drift: Option<f64>,
}

/// A size-balanced random partition — the "no scheme" baseline.
fn random_groups(caches: usize, k: usize, rng: &mut StdRng) -> Vec<Vec<CacheId>> {
    let mut ids: Vec<CacheId> = (0..caches).map(CacheId).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut groups = vec![Vec::new(); k];
    for (i, id) in ids.into_iter().enumerate() {
        groups[i % k].push(id);
    }
    groups
}

pub fn run(run: &mut Run) {
    run.line(format_args!(
        "Ablation: grouping under churn ({CACHES} caches, K = {GROUPS}, \
         {:.0} s, mean downtime {:.0} s, {:.0}% retirements)\n",
        DURATION_MS / 1000.0,
        MEAN_DOWNTIME_MS / 1000.0,
        100.0 * RETIREMENT_FRACTION
    ));

    let scenario = Scenario::build(CACHES, DURATION_MS, 77);
    let config = scenario.sim_config(DURATION_MS);

    let mut rng = StdRng::seed_from_u64(78);
    let sl = form(
        &FormPlan::new(scenario.network.rtt_matrix(), &SchemeConfig::sl(GROUPS)),
        &mut FormContext::new().observe(run.obs()),
        &mut rng,
    )
    .expect("SL formation");
    let sdsl = form(
        &FormPlan::new(
            scenario.network.rtt_matrix(),
            &SchemeConfig::sdsl(GROUPS, 1.0),
        ),
        &mut FormContext::new().observe(run.obs()),
        &mut rng,
    )
    .expect("SDSL formation");
    let random = random_groups(CACHES, GROUPS, &mut rng);

    let schemes: Vec<Scheme> = vec![
        (
            "SL",
            sl.groups().to_vec(),
            Some(GroupMaintainer::new(
                &scenario.network,
                sl,
                ProbeConfig::default(),
            )),
        ),
        (
            "SDSL",
            sdsl.groups().to_vec(),
            Some(GroupMaintainer::new(
                &scenario.network,
                sdsl,
                ProbeConfig::default(),
            )),
        ),
        ("random", random, None),
    ];

    // One plan per churn rate, shared by all three schemes so every
    // scheme faces the identical outage sequence.
    let mut cells = Vec::new();
    for &rate in &CHURN_RATES {
        let plan = ChurnConfig::default()
            .crashes_per_hour_per_cache(rate)
            .mean_downtime_ms(MEAN_DOWNTIME_MS)
            .retirement_fraction(RETIREMENT_FRACTION)
            .generate(
                CACHES,
                DURATION_MS,
                &mut StdRng::seed_from_u64(1_000 + rate as u64),
            );
        for (scheme, groups, maintainer) in &schemes {
            cells.push(Cell {
                scheme,
                churn_per_hour: rate,
                groups: groups.clone(),
                maintainer: maintainer.clone(),
                plan: plan.clone(),
            });
        }
    }

    let results = run.cells(cells, |cell, cell_obs| {
        let map = GroupMap::new(CACHES, cell.groups.clone()).expect("valid partition");
        let schedule = cell.plan.schedule();
        let plan = scenario.plan(config).faults(&schedule);
        let mut ctx = RunContext::serial().observe(cell_obs.as_mut());
        let report = simulate(&plan, &map, &mut ctx).expect("simulation succeeds");
        let max_drift = cell.maintainer.map(|m| {
            let mut driver = ChurnDriver::new(m);
            driver
                .apply(
                    &scenario.network,
                    &cell.plan,
                    &mut StdRng::seed_from_u64(2_000 + cell.churn_per_hour as u64),
                    cell_obs.as_mut(),
                )
                .expect("churn replay succeeds");
            driver.max_drift()
        });
        CellResult {
            scheme: cell.scheme,
            churn_per_hour: cell.churn_per_hour,
            report,
            max_drift,
        }
    });

    let mut table = Table::new([
        "churn/hr",
        "scheme",
        "avg_ms",
        "healthy_ms",
        "degraded_ms",
        "degraded%",
        "hit%",
        "failovers",
        "max_drift",
    ]);
    for r in &results {
        let deg = &r.report.metrics.degradation;
        table.row([
            format!("{:.0}", r.churn_per_hour),
            r.scheme.to_string(),
            f2(r.report.average_latency_ms()),
            deg.healthy.mean_latency_ms().map_or("-".into(), f2),
            deg.degraded.mean_latency_ms().map_or("-".into(), f2),
            format!("{:.1}", 100.0 * deg.degraded_fraction().unwrap_or(0.0)),
            format!(
                "{:.1}",
                100.0 * r.report.metrics.group_hit_rate().unwrap_or(0.0)
            ),
            deg.failovers.to_string(),
            r.max_drift.map_or("-".into(), f2),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: with no churn all schemes match their fault-free \
         latency; as churn grows, degraded-window latency and failovers \
         climb while the latency-aware groupings (SL, SDSL) keep their \
         healthy-window latency and drift near 1 — random grouping has \
         the same failover count but a worse latency floor to fall back \
         to.",
    );

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("caches").usize(CACHES);
        w.key("groups").usize(GROUPS);
        w.key("duration_ms").f64(DURATION_MS);
        w.key("mean_downtime_ms").f64(MEAN_DOWNTIME_MS);
        w.key("retirement_fraction").f64(RETIREMENT_FRACTION);
        w.key("cells").array(|w| {
            for r in &results {
                w.object(|w| {
                    w.key("scheme").str(r.scheme);
                    w.key("churn_per_hour_per_cache").f64(r.churn_per_hour);
                    w.key("max_drift").opt_f64(r.max_drift);
                    write_report(w.key("report"), &r.report);
                });
            }
        });
    });
    run.document("full reports", "ablation_churn.json", w.finish());
}
