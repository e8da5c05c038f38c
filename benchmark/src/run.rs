//! One run of one workload in this process: the untraced run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer ones.

use crate::alloc;
use crate::clock::{timed, Cost};
use crate::json::{self, Json};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, tail, Tail};
use crate::trace::Tracer;
use crate::workloads::{Counts, Inputs, Pass, StageCosts, Workload};
use crate::{adapter, DEFAULT_SEED};
use std::time::{Duration, Instant};

/// Times the untraced run sets up (inputs from the seed, plus one chain
/// pass) to report a median `setup_s`.
const SETUPS: usize = 5;
/// Fewest passes a timing median is taken over, however short the run.
const MIN_PASSES: usize = 3;
/// Fewest passes at one thread behind the `par.*_speedup` metrics, and
/// through the `_observed` twins behind `obs.observed_overhead_pct`;
/// a workload with more instances runs one pass of each.
const SIDE_PASSES: usize = 3;
const MIB: f64 = (1u64 << 20) as f64;

/// One reported number. Timings carry the sample count behind their
/// median and the tail percentile of `stats::tail`.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    pub tail: Option<Tail>,
}

impl Value {
    fn single(name: &'static str, value: f64) -> Self {
        Value {
            name,
            value,
            samples: 1,
            tail: None,
        }
    }

    fn count(name: &'static str, value: u64) -> Self {
        Value::single(name, value as f64)
    }

    /// Median of `samples`, or 0 for a layer the workload never calls.
    fn median_of(name: &'static str, samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Value::single(name, 0.0);
        }
        Value {
            name,
            value: median(samples),
            samples: samples.len(),
            tail: tail(samples),
        }
    }
}

pub struct RunReport {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// One message per failed pass or check; empty on a correct run.
    pub failures: Vec<String>,
    pub values: Vec<Value>,
    /// Wall-clock medians of the untraced run: what a user waited, for
    /// the report only. No bound rests on them (see `clock`).
    pub wall: Vec<(&'static str, f64)>,
    /// Every measured pass of the untraced run, in order, so that any
    /// other statistic can be taken from the report file.
    pub passes: Vec<StageCosts>,
    pub counts: Counts,
    pub spans: Option<Json>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn table(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        let metrics = self.table().iter().zip(&self.values).map(|(m, v)| {
            (
                m.name,
                Json::obj([
                    ("value", Json::F64(v.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything the run knows, for the report file.
    pub fn to_json(&self) -> Json {
        let metrics = self.table().iter().zip(&self.values).map(|(m, v)| {
            let mut fields = vec![
                ("value".to_string(), Json::F64(v.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
                ("better".to_string(), Json::Str(m.better.as_str().into())),
                ("samples".to_string(), Json::U64(v.samples as u64)),
            ];
            if let Some(bound) = m.bound {
                fields.push(("bound".into(), Json::F64(bound)));
            }
            if let Some(t) = v.tail {
                fields.push(("tail_pct".into(), Json::F64(t.level_pct)));
                fields.push(("tail".into(), Json::F64(t.value)));
            }
            (m.name, Json::Obj(fields))
        });
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("failed_share", Json::F64(failed_share)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "wall",
                Json::obj(self.wall.iter().map(|&(k, v)| (k, Json::F64(v)))),
            ),
            (
                "counts",
                Json::obj(self.counts.named().map(|(k, v)| (k, Json::U64(v)))),
            ),
            (
                "passes",
                Json::Arr(
                    self.passes
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("form_cpu_ms", Json::F64(c.form.cpu_ms)),
                                ("replay_cpu_ms", Json::F64(c.replay.cpu_ms)),
                                ("chain_cpu_ms", Json::F64(c.chain.cpu_ms)),
                                ("chain_wall_ms", Json::F64(c.chain.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One line per metric: name, value, unit, direction, and for a
    /// timing its sample count and tail.
    pub fn print(&self) {
        println!(
            "{} ({}, seed {}, {} threads): {} passes, {} failed",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.threads,
            self.attempted,
            self.failed
        );
        for (m, v) in self.table().iter().zip(&self.values) {
            let mut line = format!(
                "  {:<32} {:>16.4} {:<10} {} is better",
                m.name,
                v.value,
                m.unit,
                m.better.as_str()
            );
            if let Some(bound) = m.bound {
                line.push_str(&format!(", bound {:.0}%", bound * 100.0));
            }
            if v.samples > 1 {
                line.push_str(&format!(", median of {}", v.samples));
            }
            if let Some(t) = v.tail {
                line.push_str(&format!(", p{:.0} {:.4}", t.level_pct, t.value));
            }
            println!("{line}");
        }
        for (name, value) in &self.wall {
            println!("  {name:<32} {value:>16.4} (wall clock, not bounded)");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Compares every pass with the first pass of its instance, and counts
/// passes and failures.
struct Checker {
    /// The first pass of each instance.
    references: Vec<Option<Pass>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(workload: &Workload) -> Self {
        Checker {
            references: (0..workload.instances).map(|_| None).collect(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts `pass`. Returns what it cost if it succeeded and repeats
    /// its instance's first pass (which it becomes, if there is none).
    fn admit(&mut self, instance: usize, pass: Result<Pass, String>) -> Option<StageCosts> {
        self.attempted += 1;
        let verdict = pass.and_then(|pass| match &self.references[instance] {
            Some(first) if pass.counts != first.counts => Err(format!(
                "counts {:?} differ from the instance's first pass {:?}",
                pass.counts, first.counts
            )),
            Some(first) if pass.report != first.report => {
                Err("simulation report differs from the instance's first pass".to_string())
            }
            Some(_) => Ok(pass.costs),
            None => {
                let costs = pass.costs;
                self.references[instance] = Some(pass);
                Ok(costs)
            }
        });
        verdict
            .map_err(|why| {
                self.failed += 1;
                self.failures.push(format!(
                    "pass {} (instance {instance}): {why}",
                    self.attempted - 1
                ));
            })
            .ok()
    }

    /// Instance 0's first pass, once there is one.
    fn reference(&self) -> Result<&Pass, String> {
        self.references[0]
            .as_ref()
            .ok_or_else(|| self.failures.join("; "))
    }

    /// The first pass of every instance, once all have one.
    fn first_passes(&self) -> Result<Vec<&Pass>, String> {
        self.references
            .iter()
            .map(|r| r.as_ref().ok_or_else(|| self.failures.join("; ")))
            .collect()
    }
}

/// Stage costs of admitted passes.
#[derive(Default)]
struct Timings(Vec<StageCosts>);

impl Timings {
    fn push(&mut self, costs: Option<StageCosts>) {
        self.0.extend(costs);
    }

    fn all(&self, of: impl Fn(&StageCosts) -> f64) -> Vec<f64> {
        self.0.iter().map(of).collect()
    }

    /// Median over the passes; an error if none was admitted.
    fn median(&self, of: impl Fn(&StageCosts) -> f64) -> Result<f64, String> {
        if self.0.is_empty() {
            return Err("no pass succeeded".into());
        }
        Ok(median(&self.all(of)))
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks instance 0's counts against the ones `expected.json` pins for
/// the default seed; any other seed has nothing pinned.
fn check_expected(workload: &str, seed: u64, counts: &Counts, failures: &mut Vec<String>) {
    if seed != DEFAULT_SEED {
        return;
    }
    let expected = json::parse(include_str!("../expected.json"))
        .map_err(|e| format!("expected.json: {e}"))
        .and_then(|doc| {
            if doc.get("seed").and_then(Json::as_u64) != Some(DEFAULT_SEED) {
                return Err("expected.json is not for the default seed".to_string());
            }
            doc.get(workload)
                .cloned()
                .ok_or_else(|| format!("expected.json has no {workload}"))
        });
    match expected {
        Ok(expected) => {
            for (name, got) in counts.named() {
                let want = expected.get(name).and_then(Json::as_u64);
                if want != Some(got) {
                    failures.push(format!("{name} = {got}, expected.json pins {want:?}"));
                }
            }
        }
        Err(e) => failures.push(e),
    }
}

/// Every value must be a finite number, and an end-to-end one positive.
fn check_values(report: &mut RunReport) {
    let table = report.table();
    assert_eq!(
        table.len(),
        report.values.len(),
        "one value per listed metric"
    );
    for (m, v) in table.iter().zip(&report.values) {
        assert_eq!(m.name, v.name, "values in the order of the metric table");
        if !v.value.is_finite() || (m.bound.is_some() && v.value <= 0.0) {
            report.failures.push(format!(
                "{} = {} is not a usable measurement",
                m.name, v.value
            ));
        }
    }
}

/// Calls `pass` with 0, 1, 2, … until `seconds` have gone by, at least
/// [`MIN_PASSES`] times and at least once per instance.
fn for_seconds(
    seconds: u64,
    instances: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES.max(instances) || start.elapsed() < budget {
        pass(passes)?;
        passes += 1;
    }
    Ok(())
}

/// The three simulated metrics, each the median over the instances'
/// first passes.
fn simulated(workload: &Workload, inputs: &Inputs, checker: &Checker) -> Result<[f64; 3], String> {
    let firsts = checker.first_passes()?;
    let summaries: Vec<_> = firsts
        .iter()
        .map(|p| adapter::summarize(&p.report))
        .collect();
    let over = |values: Vec<f64>| median(&values);
    Ok([
        over(summaries.iter().map(|s| s.avg_latency_ms).collect()),
        over(summaries.iter().map(|s| s.group_hit_rate).collect()),
        over(
            firsts
                .iter()
                .map(|p| workload.gic_ms(inputs, &p.groups))
                .collect(),
        ),
    ])
}

/// The untraced run: one-shot entry points only, counting allocator off.
pub fn untraced(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    threads: usize,
) -> Result<RunReport, String> {
    let mut checker = Checker::new(workload);

    // Set-up, several times over: seed to first result.
    let mut setups: Vec<Cost> = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        // The previous inputs go first, so two sets never coexist.
        drop(inputs.take());
        let (built, cost) = timed(|| {
            let (built, _) = workload.build_inputs(seed)?;
            let first = workload.chain(&built, seed, 0, None);
            Ok::<_, String>((built, first))
        });
        let (built, first) = built?;
        setups.push(cost);
        checker.admit(0, first);
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUPS > 0");
    checker.reference()?;

    // The measured closed loop: the next pass starts when this returns.
    let mut timings = Timings::default();
    for_seconds(seconds, workload.instances, |pass| {
        let instance = pass % workload.instances;
        timings.push(checker.admit(instance, workload.chain(&inputs, seed, instance, None)));
        Ok(())
    })?;
    let peak_rss_mb = peak_rss_mb()?;

    let chain_cpu = timings.all(|c| c.chain.cpu_ms);
    let form_cpu_s = timings.median(|c| c.form.cpu_ms)? / 1e3;
    let replay_cpu_s = timings.median(|c| c.replay.cpu_ms)? / 1e3;
    let [avg_latency_ms, group_hit_rate, gic_ms] = simulated(workload, &inputs, &checker)?;
    let reference = checker.reference()?;
    let requests = reference.counts.requests as f64;
    let counts = reference.counts.clone();
    let cross_checks = workload.cross_checks(&inputs, reference, seed);
    let mut failures = checker.failures;
    failures.extend(cross_checks);
    check_expected(workload.name, seed, &counts, &mut failures);

    let per_pass = |name, value| Value {
        name,
        value,
        samples: chain_cpu.len(),
        tail: None,
    };
    let cpu_s: Vec<f64> = setups.iter().map(|c| c.cpu_ms / 1e3).collect();
    let wall_s: Vec<f64> = setups.iter().map(|c| c.wall_ms / 1e3).collect();
    let mut report = RunReport {
        workload: workload.name,
        traced: false,
        seed,
        threads,
        attempted: checker.attempted,
        failed: checker.failed,
        failures,
        values: vec![
            Value::median_of("setup_s", &cpu_s),
            Value::median_of("chain_cpu_ms", &chain_cpu),
            per_pass("form_caches_per_cpu_s", workload.caches as f64 / form_cpu_s),
            per_pass("replay_requests_per_cpu_s", requests / replay_cpu_s),
            Value::single("peak_rss_mb", peak_rss_mb),
            Value::single("avg_latency_ms", avg_latency_ms),
            Value::single("group_hit_rate", group_hit_rate),
            Value::single("gic_ms", gic_ms),
        ],
        wall: vec![
            ("setup_wall_s", median(&wall_s)),
            ("chain_wall_ms", timings.median(|c| c.chain.wall_ms)?),
            ("form_wall_ms", timings.median(|c| c.form.wall_ms)?),
            ("replay_wall_ms", timings.median(|c| c.replay.wall_ms)?),
        ],
        passes: timings.0,
        counts,
        spans: None,
    };
    check_values(&mut report);
    Ok(report)
}

/// What the traced loop gathers pass by pass.
#[derive(Default)]
struct TracedLoop {
    traced: Timings,
    untraced: Timings,
    /// Per traced pass: probing ns per probe, K-means ns per point and
    /// iteration. Both vary with the instance, so they are taken pass by
    /// pass, not from medians.
    ns_per_probe: Vec<f64>,
    ns_per_point_iter: Vec<f64>,
    stepwise_matches: bool,
}

/// The traced run: the layers called step by step inside spans, an
/// untraced pass after every traced one for the tracing overhead, one
/// pass under the counting allocator, and the side measurements.
pub fn traced(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    threads: usize,
) -> Result<RunReport, String> {
    let mut checker = Checker::new(workload);
    let ((inputs, setup), setup_cost) = {
        let (built, cost) = timed(|| workload.build_inputs(seed));
        (built?, cost)
    };
    let (warmup, warmup_cost) = timed(|| workload.chain(&inputs, seed, 0, None));
    checker.admit(0, warmup);
    checker.reference()?;

    // One traced pass with the allocator counting; its times are not
    // used, since counting costs time. Its steps are instance 0's.
    alloc::start();
    let counted = workload.chain_traced(&inputs, seed, 0, &mut Tracer::new());
    let peak_live = alloc::stop();
    let (_, steps) = counted?;

    let mut tracer = Tracer::new();
    let n = workload.caches as f64;
    let mut gathered = TracedLoop {
        stepwise_matches: true,
        ..TracedLoop::default()
    };
    for_seconds(seconds, workload.instances, |pass| {
        let instance = pass % workload.instances;
        tracer.set_pass(pass);
        let (stepwise, steps) = workload.chain_traced(&inputs, seed, instance, &mut tracer)?;
        let last_ms = |name| tracer.durations_ms(name).last().copied().unwrap_or(0.0);
        if steps.features_probes > 0 {
            gathered
                .ns_per_probe
                .push(last_ms("coords.features") * 1e6 / steps.features_probes as f64);
            gathered.ns_per_point_iter.push(
                last_ms("clustering.kmeans") * 1e6 / (n * stepwise.counts.kmeans_iterations as f64),
            );
        }
        let oneshot = workload.chain(&inputs, seed, instance, None)?;
        gathered.stepwise_matches &= stepwise.groups == oneshot.groups;
        gathered.traced.push(checker.admit(instance, Ok(stepwise)));
        gathered.untraced.push(checker.admit(instance, Ok(oneshot)));
        Ok(())
    })?;
    let TracedLoop {
        traced,
        untraced,
        ns_per_probe,
        ns_per_point_iter,
        stepwise_matches,
    } = gathered;

    // The plain single-threaded baseline, then the `_observed` twins
    // recording into a bundle; one pass of each instance.
    let side_passes = SIDE_PASSES.max(workload.instances);
    let mut single = Timings::default();
    adapter::set_threads(Some(1));
    for pass in 0..side_passes {
        let instance = pass % workload.instances;
        single.push(checker.admit(instance, workload.chain(&inputs, seed, instance, None)));
    }
    adapter::set_threads(Some(threads));
    let mut observed = Timings::default();
    for pass in 0..side_passes {
        let instance = pass % workload.instances;
        let mut obs = adapter::Obs::new();
        let pass = workload.chain(&inputs, seed, instance, Some(&mut obs));
        observed.push(checker.admit(instance, pass));
    }

    let reference = checker.reference()?;
    let side = workload.side_measurements(&inputs, reference, seed)?;
    let counts = reference.counts.clone();
    let local_hit_ratio = adapter::summarize(&reference.report).local_hit_ratio;
    let chain_stages = reference.stages;
    let mut failures = std::mem::take(&mut checker.failures);
    if !stepwise_matches {
        failures.push("step-by-step formation differs from the one-shot entry point".into());
    }
    check_expected(workload.name, seed, &counts, &mut failures);

    let span = |name| tracer.durations_ms(name);
    let chain_cpu_ms = untraced.median(|c| c.chain.cpu_ms)?;
    let chain_wall = untraced.all(|c| c.chain.wall_ms);
    let simulate_ms = Value::median_of("sim.simulate_ms", &span("sim.simulate"));
    let run_ms = Value::median_of("lifecycle.run_ms", &span("lifecycle.run"));
    let replay_wall_ms = traced.median(|c| c.replay.wall_ms)?;
    let formed = workload.forms_from_scratch();
    // Zero where the divisor is: the layer did no such work.
    let per = |total: f64, units: f64| if units > 0.0 { total / units } else { 0.0 };
    let simulated = simulate_ms.value > 0.0;
    // `paper-500` replays through `simulate`; its sharded-engine numbers
    // come from the side run over the same trace.
    let side_sharded = !side.sharded_ms.is_empty();
    let (stages, shard_events, sharded_ms) = if side_sharded {
        (
            side.sharded_stages,
            side.sharded_events,
            median(&side.sharded_ms),
        )
    } else {
        (chain_stages, counts.events, replay_wall_ms)
    };
    let sharded = stages.shards > 0;
    let speedup =
        |of: fn(&StageCosts) -> f64| Ok::<_, String>(single.median(of)? / untraced.median(of)?);
    let chain_tail = tail(&chain_wall).unwrap_or(Tail {
        level_pct: 50.0,
        value: median(&chain_wall),
    });

    let values = vec![
        Value::single("topology.generate_ms", setup.topology_generate_ms),
        Value::single("topology.apsp_ms", setup.topology_apsp_ms),
        Value::count("topology.rtt_calls", side.rtt_calls),
        Value::single("workload.generate_ms", setup.workload_generate_ms),
        Value::single("workload.merge_trace_ms", setup.workload_merge_trace_ms),
        Value::count("workload.events", setup.workload_events),
        Value::single("workload.stream_ns_per_request", side.stream_ns_per_request),
        Value::median_of("core.landmarks_ms", &span("core.landmarks")),
        Value::count("core.landmarks_probes", steps.landmarks_probes),
        Value::median_of("coords.features_ms", &span("coords.features")),
        Value::count("coords.probes_sent", steps.features_probes),
        Value::median_of("coords.ns_per_probe", &ns_per_probe),
        Value::median_of("clustering.kmeans_ms", &span("clustering.kmeans")),
        Value::count("clustering.iterations", counts.kmeans_iterations),
        Value::single("clustering.tree_build_ms", steps.tree_build_ms),
        Value::median_of("clustering.ns_per_point_iter", &ns_per_point_iter),
        Value::single("clustering.gic_eval_ms", side.gic_eval_ms),
        Value::median_of(
            "core.form_oneshot_ms",
            &when(formed, untraced.all(|c| c.form.wall_ms)),
        ),
        // What the coordinator itself costs around its three steps.
        Value::median_of("core.form_self_ms", &tracer.self_ms("form")),
        Value::median_of("core.reform_partial_ms", &side.reform_partial_ms),
        Value::median_of("core.reform_full_ms", &side.reform_full_ms),
        Value::median_of("sim.groupmap_ms", &untraced.all(|c| c.groupmap.wall_ms)),
        Value::count("sim.events", when(simulated, counts.events)),
        Value::single(
            "sim.ns_per_event",
            per(simulate_ms.value * 1e6, counts.events as f64),
        ),
        Value::single("cache.ns_per_op", side.cache_ns_per_op),
        Value::single("cache.local_hit_ratio", local_hit_ratio),
        Value::count("cache.evictions", side.cache_evictions),
        Value::single("replay.plan_ms", stages.plan_ms),
        Value::single("replay.shards_ms", stages.shards_ms),
        Value::single("replay.merge_ms", stages.merge_ms),
        Value::count("replay.shards", stages.shards),
        Value::count("replay.shard_events", when(sharded, shard_events)),
        Value::single(
            "replay.ns_per_event",
            per(when(sharded, sharded_ms * 1e6), shard_events as f64),
        ),
        Value::single(
            "replay.sharded_vs_mono",
            per(when(side_sharded, sharded_ms), simulate_ms.value),
        ),
        Value::median_of("replay.epochs_ms", &span("replay.epochs")),
        Value::count("replay.epochs", when(!formed, counts.epochs)),
        Value::single("faults.plan_ms", setup.faults_plan_ms),
        Value::count("faults.events", setup.faults_events),
        Value::count("lifecycle.windows", counts.windows),
        Value::single(
            "lifecycle.ms_per_window",
            per(run_ms.value, counts.windows as f64),
        ),
        Value::count("lifecycle.repairs", counts.repairs),
        Value::count("lifecycle.partial_reforms", counts.partial_reforms),
        Value::count("lifecycle.full_reforms", counts.full_reforms),
        Value::count("par.threads", threads as u64),
        Value::single("par.form_speedup", speedup(|c| c.form.wall_ms)?),
        Value::single("par.replay_speedup", speedup(|c| c.replay.wall_ms)?),
        Value::single("par.chain_speedup", speedup(|c| c.chain.wall_ms)?),
        Value::single(
            "obs.observed_overhead_pct",
            100.0 * (observed.median(|c| c.chain.cpu_ms)? / chain_cpu_ms - 1.0),
        ),
        Value::count("core.form_allocs", when(formed, steps.form_alloc.allocs)),
        Value::single(
            "core.form_alloc_mb",
            when(formed, steps.form_alloc.bytes as f64 / MIB),
        ),
        Value::count("sim.allocs", when(simulated, steps.replay_alloc.allocs)),
        Value::count("replay.allocs", when(!simulated, steps.replay_alloc.allocs)),
        Value::single(
            "replay.alloc_mb",
            when(!simulated, steps.replay_alloc.bytes as f64 / MIB),
        ),
        Value::count("lifecycle.allocs", when(!formed, steps.form_alloc.allocs)),
        Value::single("chain.peak_live_mb", peak_live as f64 / MIB),
        Value::median_of("chain.wall_ms", &chain_wall),
        Value::single("chain.wall_tail_ms", chain_tail.value),
        Value::single("chain.wall_tail_pct", chain_tail.level_pct),
        Value::median_of("chain.form_wall_ms", &untraced.all(|c| c.form.wall_ms)),
        Value::median_of("chain.replay_wall_ms", &untraced.all(|c| c.replay.wall_ms)),
        Value::single(
            "chain.setup_wall_s",
            (setup_cost.wall_ms + warmup_cost.wall_ms) / 1e3,
        ),
        Value::single("chain.warmup_ms", warmup_cost.wall_ms),
        Value::single(
            "trace.overhead_pct",
            100.0 * (traced.median(|c| c.chain.cpu_ms)? / chain_cpu_ms - 1.0),
        ),
        Value::count(
            "trace.stepwise_matches_oneshot",
            u64::from(stepwise_matches),
        ),
        simulate_ms,
        run_ms,
    ];

    let mut report = RunReport {
        workload: workload.name,
        traced: true,
        seed,
        threads,
        attempted: checker.attempted,
        failed: checker.failed,
        failures,
        values: in_table_order(values),
        wall: Vec::new(),
        passes: Vec::new(),
        counts,
        spans: Some(tracer.to_json()),
    };
    check_values(&mut report);
    Ok(report)
}

/// `value` where the workload has the layer, else the type's zero.
fn when<T: Default>(on: bool, value: T) -> T {
    if on {
        value
    } else {
        T::default()
    }
}

/// Puts the traced run's values in the order `PER_LAYER` lists them.
fn in_table_order(values: Vec<Value>) -> Vec<Value> {
    let mut slots: Vec<Option<Value>> = values.into_iter().map(Some).collect();
    PER_LAYER
        .iter()
        .map(|m| {
            slots
                .iter_mut()
                .find(|slot| slot.as_ref().is_some_and(|v| v.name == m.name))
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("the traced run has no value for {}", m.name))
        })
        .collect()
}
