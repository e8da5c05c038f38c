//! Ablation: re-formation policies under continuous churn.
//!
//! The lifecycle supervisor keeps a grouping formed as caches crash,
//! recover, and retire. This experiment sweeps its re-formation policy
//! — `static` (never act), `repair` (re-seat only), `eager`, and
//! `balanced` — against rising churn rates, then replays the same
//! sporting-event trace *epoch by epoch*: each serving interval of the
//! supervisor's timeline is simulated under its own grouping and the
//! segments are merged, so the latency numbers reflect exactly what
//! clients would have seen across every re-formation.
//!
//! Besides the usual text table, the full per-cell timelines and
//! simulation reports are written to `results/ablation_lifecycle.json`.
//!
//! Run with `cargo run --release -p ecg-bench -- run ablation_lifecycle [--metrics-out <path>]`.

use crate::{f2, Run, Scenario, Table};
use ecg_core::SchemeConfig;
use ecg_faults::json::write_report;
use ecg_faults::{ChurnConfig, FaultPlan};
use ecg_lifecycle::{
    FormationSupervisor, FormationTimeline, ReformDecision, ReformPolicy, SupervisorConfig,
};
use ecg_obs::json::JsonWriter;
use ecg_sim::{simulate_epochs, ReplayEpoch, RunContext, SimReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CACHES: usize = 60;
const GROUPS: usize = 8;
const DURATION_MS: f64 = 120_000.0;
const STEP_MS: f64 = 10_000.0;
const MEAN_DOWNTIME_MS: f64 = 15_000.0;
const RETIREMENT_FRACTION: f64 = 0.1;
const CHURN_RATES: [f64; 3] = [0.0, 6.0, 24.0];
const POLICIES: [&str; 4] = ["static", "repair", "eager", "balanced"];

struct Cell {
    policy: &'static str,
    churn_per_hour: f64,
    plan: FaultPlan,
}

struct CellResult {
    policy: &'static str,
    churn_per_hour: f64,
    timeline: FormationTimeline,
    report: SimReport,
}

pub fn run(run: &mut Run) {
    run.line(format_args!(
        "Ablation: lifecycle re-formation policies under churn \
         ({CACHES} caches, K = {GROUPS}, {:.0} s, {:.0} s windows, \
         mean downtime {:.0} s, {:.0}% retirements)\n",
        DURATION_MS / 1000.0,
        STEP_MS / 1000.0,
        MEAN_DOWNTIME_MS / 1000.0,
        100.0 * RETIREMENT_FRACTION
    ));

    let scenario = Scenario::build(CACHES, DURATION_MS, 81);
    let config = scenario.sim_config(DURATION_MS);

    // One churn plan per rate, shared by all policies so every policy
    // faces the identical outage sequence.
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
        for policy in POLICIES {
            cells.push(Cell {
                policy,
                churn_per_hour: rate,
                plan: plan.clone(),
            });
        }
    }

    let results = run.cells(cells, |cell, cell_obs| {
        let policy: ReformPolicy = cell.policy.parse().expect("known policy preset");
        let supervisor = FormationSupervisor::new(
            SupervisorConfig::new(SchemeConfig::sl(GROUPS))
                .step_ms(STEP_MS)
                .policy(policy),
        );
        let schedule = cell.plan.schedule();
        let mut rng = StdRng::seed_from_u64(2_000 + cell.churn_per_hour as u64);
        let timeline = supervisor
            .run(
                &scenario.network,
                &schedule,
                DURATION_MS,
                &mut rng,
                cell_obs.as_mut(),
            )
            .expect("supervised run succeeds");
        let epochs: Vec<ReplayEpoch> = timeline
            .epoch_spans()
            .map(|(start, groups)| ReplayEpoch::new(start, groups.clone()))
            .collect();
        let plan = scenario.plan(config).faults(&schedule);
        // Serial: this is one cell of the sweep's own `Run::cells`.
        let mut ctx = RunContext::serial().observe(cell_obs.as_mut());
        let report = simulate_epochs(&plan, &epochs, &mut ctx).expect("epoch replay succeeds");
        CellResult {
            policy: cell.policy,
            churn_per_hour: cell.churn_per_hour,
            timeline,
            report,
        }
    });

    let mut table = Table::new([
        "churn/hr",
        "policy",
        "epochs",
        "repairs",
        "partial",
        "full",
        "max_drift",
        "avg_ms",
        "hit%",
        "failovers",
    ]);
    for r in &results {
        let t = &r.timeline;
        table.row([
            format!("{:.0}", r.churn_per_hour),
            r.policy.to_string(),
            t.epochs().len().to_string(),
            t.decision_count(ReformDecision::Repair).to_string(),
            t.decision_count(ReformDecision::PartialReform).to_string(),
            t.decision_count(ReformDecision::FullReform).to_string(),
            f2(t.max_drift()),
            f2(r.report.average_latency_ms()),
            format!(
                "{:.1}",
                100.0 * r.report.metrics.group_hit_rate().unwrap_or(0.0)
            ),
            r.report.metrics.degradation.failovers.to_string(),
        ]);
    }
    table.print(run);
    run.line(
        "\nexpected: with no churn every policy keeps a single epoch and \
         identical latency; under churn the acting policies re-form — \
         more epochs, drift pinned near 1 while the static baseline \
         drifts — and balanced spends fewer re-formations than eager. \
         Average latency is *higher* for the acting policies: every \
         epoch switch cold-restarts the caches in replay, so the \
         re-warm cost of each re-formation is charged honestly against \
         its tighter grouping.",
    );

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("caches").usize(CACHES);
        w.key("groups").usize(GROUPS);
        w.key("duration_ms").f64(DURATION_MS);
        w.key("step_ms").f64(STEP_MS);
        w.key("mean_downtime_ms").f64(MEAN_DOWNTIME_MS);
        w.key("retirement_fraction").f64(RETIREMENT_FRACTION);
        w.key("cells").array(|w| {
            for r in &results {
                w.object(|w| {
                    w.key("policy").str(r.policy);
                    w.key("churn_per_hour_per_cache").f64(r.churn_per_hour);
                    r.timeline.write_json(w.key("timeline"));
                    write_report(w.key("report"), &r.report);
                });
            }
        });
    });
    run.document(
        "full timelines and reports",
        "ablation_lifecycle.json",
        w.finish(),
    );
}
