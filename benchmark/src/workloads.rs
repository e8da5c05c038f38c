//! The four workloads: their inputs, and one pass of the chain
//! formation → `GroupMap` → replay over them, untraced (one-shot entry
//! points only) and traced (the same layers called step by step inside
//! spans).

use crate::adapter::{
    self, Churn, EdgeInputs, FaultSchedule, FormSpec, Formed, GroupMap, Groups, Obs, ReplayStages,
    Replayed, RttSource, SimReport, SyntheticInputs,
};
use crate::alloc;
use crate::clock::{timed, Cost, Stopwatch};
use crate::trace::Tracer;

enum Kind {
    /// Placed transit-stub network, dense RTT matrix, materialized
    /// trace: `form_groups` then the monolithic `simulate`.
    Paper,
    /// Implicit RTT oracle, streamed requests: `form_groups_scaled` then
    /// `replay_streamed`.
    Synthetic { rate_per_sec_per_cache: f64 },
    /// The paper network under churn: `FormationSupervisor::run` then
    /// `replay_epochs`.
    Lifecycle(Churn),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the benchmark has this workload; copied into BENCHMARK.json.
    pub why: &'static str,
    kind: Kind,
    pub caches: usize,
    documents: usize,
    duration_ms: f64,
    form: FormSpec,
    /// How many instances of the workload a run cycles through, pass by
    /// pass. All share the network, catalog and traffic; each has its own
    /// formation RNG and churn plan. One formation over 500 caches is a
    /// small sample — where K-means lands moves simulated latency by
    /// ±10 % — so the small workloads report medians over several.
    pub instances: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-500",
        why: "The goldens' configuration: matrix-backed paper formation and the monolithic \
              event loop; sim does ~98% of the chain, probing dominates the small formation.",
        kind: Kind::Paper,
        caches: 500,
        documents: 1_500,
        duration_ms: 120_000.0,
        form: FormSpec {
            groups: 25,
            landmarks: 25,
            plset_multiplier: 4,
            theta: Some(1.0),
            kmeans_iterations: 100,
            minibatch: None,
        },
        instances: 8,
    },
    Workload {
        name: "form-100k",
        why: "Formation-bound: 15 full-batch Lloyd iterations at k=1000 through the KD-tree do \
              most of the chain and the short streamed replay little, so K-means work shows here.",
        kind: Kind::Synthetic {
            rate_per_sec_per_cache: 0.5,
        },
        caches: 100_000,
        documents: 1_500,
        duration_ms: 2_400.0,
        form: FormSpec {
            groups: 1_000,
            landmarks: 8,
            plset_multiplier: 4,
            theta: Some(1.0),
            kmeans_iterations: 15,
            minibatch: None,
        },
        instances: 1,
    },
    Workload {
        name: "replay-50k",
        why: "Replay-bound: 1.2M streamed requests over uneven mini-batch-formed groups; replay \
              shards do ~80% of the chain, so replay-engine work shows here and K-means does not.",
        kind: Kind::Synthetic {
            rate_per_sec_per_cache: 2.0,
        },
        caches: 50_000,
        documents: 1_500,
        duration_ms: 12_000.0,
        form: FormSpec {
            groups: 500,
            landmarks: 8,
            plset_multiplier: 4,
            theta: Some(1.0),
            kmeans_iterations: 15,
            minibatch: Some((2_048, 40)),
        },
        instances: 1,
    },
    Workload {
        name: "lifecycle-500",
        why: "The same layers used differently: repair, partial and full re-formation under \
              faulted probing, then epoch-segmented cold-restart replay under the fault schedule.",
        kind: Kind::Lifecycle(Churn {
            crashes_per_hour_per_cache: 24.0,
            mean_downtime_ms: 15_000.0,
            retirement_fraction: 0.1,
        }),
        caches: 500,
        documents: 1_500,
        duration_ms: 120_000.0,
        form: FormSpec {
            groups: 25,
            landmarks: 25,
            plset_multiplier: 4,
            theta: None,
            kmeans_iterations: 100,
            minibatch: None,
        },
        instances: 8,
    },
];

pub enum Inputs {
    /// `paper-500`.
    Edge(EdgeInputs),
    /// `form-100k`, `replay-50k`.
    Synthetic(SyntheticInputs),
    /// `lifecycle-500`: the network and trace, and one churn plan per
    /// instance.
    Churned(EdgeInputs, Vec<FaultSchedule>),
}

impl Inputs {
    fn rtt(&self) -> &dyn RttSource {
        match self {
            Inputs::Edge(edge) | Inputs::Churned(edge, _) => edge.rtt(),
            Inputs::Synthetic(synthetic) => &synthetic.rtt,
        }
    }
}

/// Per-layer wall time of building the inputs, in ms, with the sizes
/// built.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCost {
    pub topology_generate_ms: f64,
    pub topology_apsp_ms: f64,
    pub workload_generate_ms: f64,
    pub workload_merge_trace_ms: f64,
    pub workload_events: u64,
    pub faults_plan_ms: f64,
    pub faults_events: u64,
}

/// What a derived seed is for. The network and the document catalog are
/// fixtures of a workload, drawn from [`FIXTURE_SEED`]; the run's seed
/// draws the traffic, and per instance the churn plan and the RNG of the
/// formation algorithms. (A seed that also redrew the origin's position
/// or the document sizes would move simulated latency by ±20 %, and no
/// bound on it could then tell a regression from a reseeding.)
#[derive(Clone, Copy)]
enum Purpose {
    Network,
    Catalog,
    Traffic,
    Churn,
    Formation,
    Reform,
}

const FIXTURE_SEED: u64 = 7;

fn seed_for(seed: u64, purpose: Purpose) -> u64 {
    adapter::derive_seed(seed, purpose as u64)
}

fn instance_seed(seed: u64, purpose: Purpose, instance: usize) -> u64 {
    adapter::derive_seed(seed_for(seed, purpose), instance as u64)
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Builds every input of the workload: the fixtures, and from `seed`
    /// the traffic and churn.
    pub fn build_inputs(&self, seed: u64) -> Result<(Inputs, SetupCost), String> {
        let mut cost = SetupCost::default();
        let mut catalog_rng = adapter::rng(seed_for(FIXTURE_SEED, Purpose::Catalog));
        let mut traffic_rng = adapter::rng(seed_for(seed, Purpose::Traffic));
        let network_seed = seed_for(FIXTURE_SEED, Purpose::Network);

        if let Kind::Synthetic {
            rate_per_sec_per_cache,
        } = self.kind
        {
            let (rtt, took) = timed(|| adapter::synthetic_oracle(self.caches, network_seed));
            cost.topology_generate_ms = took.wall_ms;
            let ((catalog, updates, master), took) = timed(|| {
                let catalog = adapter::catalog_default(self.documents, &mut catalog_rng);
                let (updates, master) =
                    adapter::traffic_streamed(&catalog, self.duration_ms, &mut traffic_rng);
                (catalog, updates, master)
            });
            cost.workload_generate_ms = took.wall_ms;
            cost.workload_events = updates.len() as u64;
            let synthetic = SyntheticInputs {
                rtt,
                catalog,
                updates,
                master,
                rate_per_sec_per_cache,
                duration_ms: self.duration_ms,
            };
            return Ok((Inputs::Synthetic(synthetic), cost));
        }

        let mut network_rng = adapter::rng(network_seed);
        let (topology, took) = timed(|| adapter::topology_generate(self.caches, &mut network_rng));
        cost.topology_generate_ms = took.wall_ms;
        let (network, took) =
            timed(|| adapter::topology_place(&topology, self.caches, &mut network_rng));
        cost.topology_apsp_ms = took.wall_ms;

        let ((catalog, requests, updates), took) = timed(|| {
            let catalog = adapter::catalog_sporting(self.documents, &mut catalog_rng);
            let (requests, updates) = adapter::traffic_sporting(
                &catalog,
                self.caches,
                self.duration_ms,
                &mut traffic_rng,
            );
            (catalog, requests, updates)
        });
        cost.workload_generate_ms = took.wall_ms;
        let (trace, took) = timed(|| adapter::merge_trace(&requests, &updates));
        cost.workload_merge_trace_ms = took.wall_ms;
        cost.workload_events = trace.len() as u64;
        let edge = EdgeInputs {
            network: network?,
            catalog,
            trace,
            duration_ms: self.duration_ms,
        };

        let Kind::Lifecycle(churn) = &self.kind else {
            return Ok((Inputs::Edge(edge), cost));
        };
        let (schedules, took) = timed(|| {
            (0..self.instances)
                .map(|instance| {
                    let mut rng = adapter::rng(instance_seed(seed, Purpose::Churn, instance));
                    adapter::faults_plan(churn, self.caches, self.duration_ms, &mut rng)
                })
                .collect::<Vec<_>>()
        });
        cost.faults_plan_ms = took.wall_ms / self.instances as f64;
        cost.faults_events = adapter::fault_events(&schedules[0]);
        Ok((Inputs::Churned(edge, schedules), cost))
    }
}

/// Counts a pass produces; every pass of a run must repeat the first
/// pass of its instance, and at the default seed instance 0's are pinned
/// in `expected.json`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    pub requests: u64,
    /// Events replayed: the trace length, or requests plus shared
    /// updates summed over shards.
    pub events: u64,
    pub probes: u64,
    pub kmeans_iterations: u64,
    pub epochs: u64,
    pub windows: u64,
    pub repairs: u64,
    pub partial_reforms: u64,
    pub full_reforms: u64,
}

impl Counts {
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("requests", self.requests),
            ("events", self.events),
            ("probes", self.probes),
            ("kmeans_iterations", self.kmeans_iterations),
            ("epochs", self.epochs),
            ("windows", self.windows),
            ("repairs", self.repairs),
            ("partial_reforms", self.partial_reforms),
            ("full_reforms", self.full_reforms),
        ]
    }
}

/// What each stage of a pass cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCosts {
    pub form: Cost,
    pub groupmap: Cost,
    pub replay: Cost,
    pub chain: Cost,
}

/// One pass of the chain: what it cost and what it produced.
pub struct Pass {
    pub costs: StageCosts,
    /// The grouping the replay stage starts with.
    pub groups: Groups,
    pub report: SimReport,
    pub counts: Counts,
    /// Zero where the replay stage is the monolithic `simulate`.
    pub stages: ReplayStages,
}

/// What only a traced pass knows: per-step counts of the formation it
/// called step by step, and what the form and replay stages allocated
/// (zero unless the allocator is counting).
#[derive(Debug, Clone, Copy, Default)]
pub struct Steps {
    pub landmarks_probes: u64,
    pub features_probes: u64,
    pub tree_build_ms: f64,
    pub form_alloc: alloc::Snapshot,
    pub replay_alloc: alloc::Snapshot,
}

/// `groups` must be `k` non-empty groups; that they cover the caches
/// exactly once is `GroupMap::new`'s check.
fn check_group_count(groups: &Groups, k: usize) -> Result<(), String> {
    let empty = groups.iter().filter(|g| g.is_empty()).count();
    if groups.len() != k || empty > 0 {
        return Err(format!(
            "formation returned {} groups ({empty} empty), expected {k} non-empty",
            groups.len()
        ));
    }
    Ok(())
}

impl Workload {
    /// One untraced pass of `instance` through the one-shot entry points.
    /// With `obs` the `_observed` twins record into it; the result is the
    /// same.
    pub fn chain(
        &self,
        inputs: &Inputs,
        seed: u64,
        instance: usize,
        mut obs: Option<&mut Obs>,
    ) -> Result<Pass, String> {
        let form_seed = instance_seed(seed, Purpose::Formation, instance);
        match inputs {
            Inputs::Edge(edge) => self.formed_chain(
                obs,
                |obs| adapter::form_paper(&edge.network, &self.form, form_seed, obs),
                |map, obs| adapter::simulate(edge, map, obs),
            ),
            // The scaled pipeline has no observed twin.
            Inputs::Synthetic(synthetic) => self.formed_chain(
                obs,
                |_| adapter::form_scaled(&synthetic.rtt, &self.form, form_seed),
                |map, obs| adapter::replay_streamed(synthetic, map, obs),
            ),
            Inputs::Churned(edge, schedules) => {
                let schedule = &schedules[instance];
                let chain = Stopwatch::start();
                let (timeline, form) = timed(|| {
                    let k = self.form.groups;
                    adapter::supervise(edge, schedule, k, form_seed, obs.as_deref_mut())
                });
                let timeline = timeline?;
                let (epochs, groupmap) = timed(|| adapter::timeline_epochs(&timeline));
                let (replayed, replay) =
                    timed(|| adapter::replay_epochs(edge, schedule, &epochs, obs));
                let costs = StageCosts {
                    form,
                    groupmap,
                    replay,
                    chain: chain.elapsed(),
                };
                self.lifecycle_pass(&timeline, &epochs, replayed?, costs)
            }
        }
    }

    /// Formation → `GroupMap::new` → replay, for the workloads that form
    /// from scratch.
    fn formed_chain(
        &self,
        mut obs: Option<&mut Obs>,
        form: impl FnOnce(Option<&mut Obs>) -> Result<Formed, String>,
        replay: impl FnOnce(&GroupMap, Option<&mut Obs>) -> Result<Replayed, String>,
    ) -> Result<Pass, String> {
        let chain = Stopwatch::start();
        let (formed, form) = timed(|| form(obs.as_deref_mut()));
        let formed = formed?;
        let (map, groupmap) = timed(|| adapter::group_map(self.caches, formed.groups.clone()));
        let map = map?;
        let (replayed, replay) = timed(|| replay(&map, obs));
        let costs = StageCosts {
            form,
            groupmap,
            replay,
            chain: chain.elapsed(),
        };
        let counts = Counts {
            probes: formed.probes,
            kmeans_iterations: formed.kmeans_iterations,
            ..Counts::default()
        };
        self.formed_pass(formed.groups, counts, replayed?, costs)
    }

    fn formed_pass(
        &self,
        groups: Groups,
        counts: Counts,
        replayed: Replayed,
        costs: StageCosts,
    ) -> Result<Pass, String> {
        check_group_count(&groups, self.form.groups)?;
        Ok(Pass {
            costs,
            counts: Counts {
                requests: adapter::summarize(&replayed.report).requests,
                events: replayed.events,
                epochs: replayed.epochs,
                ..counts
            },
            groups,
            report: replayed.report,
            stages: replayed.stages,
        })
    }

    fn lifecycle_pass(
        &self,
        timeline: &adapter::FormationTimeline,
        epochs: &[adapter::ReplayEpoch],
        replayed: Replayed,
        costs: StageCosts,
    ) -> Result<Pass, String> {
        let groups = adapter::check_epochs(epochs, self.caches, self.form.groups)?;
        let (windows, repairs, partial_reforms, full_reforms) =
            adapter::timeline_decisions(timeline);
        Ok(Pass {
            costs,
            counts: Counts {
                requests: adapter::summarize(&replayed.report).requests,
                events: replayed.events,
                epochs: replayed.epochs,
                windows,
                repairs,
                partial_reforms,
                full_reforms,
                ..Counts::default()
            },
            groups,
            report: replayed.report,
            stages: replayed.stages,
        })
    }

    /// The formation of [`Workload::chain`] called one layer at a time,
    /// with the same RNG in the same order as the one-shot entry point,
    /// each step in its own span.
    fn form_stepwise(
        &self,
        rtt: &dyn RttSource,
        form_seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(Groups, Counts, Steps), String> {
        let scaled = matches!(self.kind, Kind::Synthetic { .. });
        let prober = adapter::prober(rtt);
        let mut rng = adapter::rng(form_seed);
        let selection = tracer.time("core.landmarks", || {
            adapter::select_landmarks_step(&prober, &self.form, scaled, &mut rng)
        })?;
        let landmarks_probes = adapter::probes_sent(&prober);
        let points = tracer.time("coords.features", || {
            adapter::build_features_step(&prober, &selection, scaled, &mut rng)
        });
        adapter::tree_build_ms();
        let clustering = tracer.time("clustering.kmeans", || {
            adapter::kmeans_step(&points, &self.form, &mut rng)
        })?;
        let tree_build_ms = adapter::tree_build_ms();
        let probes = adapter::probes_sent(&prober);
        Ok((
            adapter::clustering_groups(&clustering),
            Counts {
                probes,
                kmeans_iterations: adapter::clustering_iterations(&clustering),
                ..Counts::default()
            },
            Steps {
                landmarks_probes,
                features_probes: probes - landmarks_probes,
                tree_build_ms,
                ..Steps::default()
            },
        ))
    }

    /// One traced pass: `chain` → {`form` → its three steps |
    /// `lifecycle.run`}, `sim.groupmap`, {`replay` → `sim.simulate` or
    /// the engine's own stages | `replay.epochs` → the engine's stages}.
    /// An error leaves spans open; the traced run ends on it.
    pub fn chain_traced(
        &self,
        inputs: &Inputs,
        seed: u64,
        instance: usize,
        tracer: &mut Tracer,
    ) -> Result<(Pass, Steps), String> {
        let form_seed = instance_seed(seed, Purpose::Formation, instance);
        match inputs {
            Inputs::Edge(edge) => {
                self.formed_chain_traced(edge.rtt(), form_seed, tracer, |map, tracer| {
                    tracer.time("sim.simulate", || adapter::simulate(edge, map, None))
                })
            }
            Inputs::Synthetic(synthetic) => {
                self.formed_chain_traced(&synthetic.rtt, form_seed, tracer, |map, _| {
                    adapter::replay_streamed(synthetic, map, None)
                })
            }
            Inputs::Churned(edge, schedules) => {
                let schedule = &schedules[instance];
                let mut stage = StagedTracer::enter(tracer);
                let timeline = stage.run("lifecycle.run", |_| {
                    adapter::supervise(edge, schedule, self.form.groups, form_seed, None)
                })?;
                let epochs = stage.run("sim.groupmap", |_| adapter::timeline_epochs(&timeline));
                let replayed = stage.run("replay.epochs", |_| {
                    adapter::replay_epochs(edge, schedule, &epochs, None)
                })?;
                let (costs, steps) = stage.exit(&replayed.stages, Steps::default());
                let pass = self.lifecycle_pass(&timeline, &epochs, replayed, costs)?;
                Ok((pass, steps))
            }
        }
    }

    fn formed_chain_traced(
        &self,
        rtt: &dyn RttSource,
        form_seed: u64,
        tracer: &mut Tracer,
        replay: impl FnOnce(&GroupMap, &mut Tracer) -> Result<Replayed, String>,
    ) -> Result<(Pass, Steps), String> {
        let mut stage = StagedTracer::enter(tracer);
        let (groups, counts, steps) =
            stage.run("form", |tracer| self.form_stepwise(rtt, form_seed, tracer))?;
        let map = stage.run("sim.groupmap", |_| {
            adapter::group_map(self.caches, groups.clone())
        })?;
        let replayed = stage.run("replay", |tracer| replay(&map, tracer))?;
        let (costs, steps) = stage.exit(&replayed.stages, steps);
        let pass = self.formed_pass(groups, counts, replayed, costs)?;
        Ok((pass, steps))
    }

    /// Whether the chain forms from scratch through the scheme's own
    /// entry points (`lifecycle-500` forms inside the supervisor).
    pub fn forms_from_scratch(&self) -> bool {
        !matches!(self.kind, Kind::Lifecycle(_))
    }
}

/// The three stages of one traced pass under a `chain` span: each stage
/// in a span of its own, with its cost on both clocks and what it
/// allocated.
struct StagedTracer<'a> {
    tracer: &'a mut Tracer,
    chain_span: usize,
    chain: Stopwatch,
    costs: Vec<Cost>,
    allocs: Vec<alloc::Snapshot>,
    last_span: usize,
}

impl<'a> StagedTracer<'a> {
    fn enter(tracer: &'a mut Tracer) -> Self {
        let chain_span = tracer.enter("chain");
        StagedTracer {
            tracer,
            chain_span,
            chain: Stopwatch::start(),
            costs: Vec::with_capacity(3),
            allocs: Vec::with_capacity(3),
            last_span: chain_span,
        }
    }

    fn run<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = alloc::snapshot();
        self.last_span = self.tracer.enter(name);
        let (out, cost) = timed(|| f(self.tracer));
        self.tracer.exit(self.last_span);
        self.costs.push(cost);
        self.allocs.push(alloc::snapshot().since(before));
        out
    }

    /// Closes the `chain` span after the third stage, and lays the stage
    /// times a sharded engine measured itself under the replay span.
    fn exit(self, stages: &ReplayStages, steps: Steps) -> (StageCosts, Steps) {
        let chain = self.chain.elapsed();
        self.tracer.exit(self.chain_span);
        if stages.shards > 0 {
            self.tracer.synthesize(
                self.last_span,
                &[
                    ("replay.plan", stages.plan_ms),
                    ("replay.shards", stages.shards_ms),
                    ("replay.merge", stages.merge_ms),
                ],
            );
        }
        let [form, groupmap, replay] = self.costs[..] else {
            unreachable!("a traced pass has three stages")
        };
        let costs = StageCosts {
            form,
            groupmap,
            replay,
            chain,
        };
        let steps = Steps {
            form_alloc: self.allocs[0],
            replay_alloc: self.allocs[2],
            ..steps
        };
        (costs, steps)
    }
}

/// Measurements the traced run takes beside the chain, one layer at a
/// time. Zero where the workload has nothing to measure.
#[derive(Debug, Default)]
pub struct Side {
    /// RTT reads one from-scratch formation makes against its source.
    pub rtt_calls: u64,
    pub gic_eval_ms: f64,
    pub stream_ns_per_request: f64,
    pub cache_ns_per_op: f64,
    pub cache_evictions: u64,
    /// `replay_sharded` over the trace `simulate` replays: wall ms of
    /// each repetition, and the stages and events of the last.
    pub sharded_ms: Vec<f64>,
    pub sharded_stages: ReplayStages,
    pub sharded_events: u64,
    pub reform_partial_ms: Vec<f64>,
    pub reform_full_ms: Vec<f64>,
}

const SIDE_REPEATS: usize = 3;
/// Caches of a streamed workload materialized for the `workload` and
/// `cache` layer measurements.
const STREAM_SLICE: usize = 1_000;
/// The cache layer is driven until it has served this many lookups.
const CACHE_OPS: u64 = 200_000;

impl Workload {
    /// Average group interaction cost of `groups` on this workload's
    /// network, in ms.
    pub fn gic_ms(&self, inputs: &Inputs, groups: &Groups) -> f64 {
        adapter::gic_ms(groups, inputs.rtt())
    }

    /// Checks across engines and thread counts, beside the per-pass
    /// ones, on instance 0's first pass. Returns one message per failed
    /// check.
    pub fn cross_checks(&self, inputs: &Inputs, reference: &Pass, seed: u64) -> Vec<String> {
        let mut failures = Vec::new();
        // K runs of consecutive cache ids ignore the network; any formed
        // grouping must cost less.
        let contiguous = adapter::contiguous_groups(self.caches, self.form.groups);
        let (formed, contiguous) = (
            self.gic_ms(inputs, &reference.groups),
            self.gic_ms(inputs, &contiguous),
        );
        if formed >= contiguous {
            failures.push(format!(
                "formed grouping costs {formed} ms, no less than contiguous chunks at {contiguous} ms"
            ));
        }
        match inputs {
            Inputs::Edge(edge) => {
                let sharded = adapter::group_map(self.caches, reference.groups.clone())
                    .and_then(|map| adapter::replay_sharded(edge, &map));
                match sharded {
                    Ok(sharded) if sharded.report == reference.report => {}
                    Ok(_) => failures.push("replay_sharded differs from simulate".into()),
                    Err(e) => failures.push(format!("replay_sharded: {e}")),
                }
            }
            Inputs::Synthetic(_) if adapter::threads() > 1 => {
                let threads = adapter::threads();
                adapter::set_threads(Some(1));
                let single = self.chain(inputs, seed, 0, None);
                adapter::set_threads(Some(threads));
                match single {
                    Ok(single)
                        if single.report == reference.report
                            && single.counts == reference.counts
                            && single.groups == reference.groups => {}
                    Ok(_) => failures.push(format!("1 thread differs from {threads} threads")),
                    Err(e) => failures.push(format!("pass at 1 thread: {e}")),
                }
            }
            _ => {}
        }
        failures
    }

    /// `reference` is instance 0's first pass.
    pub fn side_measurements(
        &self,
        inputs: &Inputs,
        reference: &Pass,
        seed: u64,
    ) -> Result<Side, String> {
        let mut side = Side::default();
        let form_seed = instance_seed(seed, Purpose::Formation, 0);

        if self.forms_from_scratch() {
            let counting = adapter::CountingRtt::new(inputs.rtt());
            self.form_stepwise(&counting, form_seed, &mut Tracer::new())?;
            side.rtt_calls = counting.calls();
        }
        side.gic_eval_ms = timed(|| self.gic_ms(inputs, &reference.groups)).1.wall_ms;

        let (catalog, requests) = match inputs {
            Inputs::Edge(edge) | Inputs::Churned(edge, _) => {
                (&edge.catalog, adapter::requests_of(&edge.trace))
            }
            Inputs::Synthetic(synthetic) => {
                let (requests, took) =
                    timed(|| adapter::stream_materialize(synthetic, STREAM_SLICE));
                side.stream_ns_per_request = took.wall_ms * 1e6 / requests.len() as f64;
                (&synthetic.catalog, requests)
            }
        };
        let per_cache = adapter::requests_per_cache(&requests);
        let (mut lookups, mut drive_ms) = (0, 0.0);
        while lookups < CACHE_OPS {
            let (drives, took) = timed(|| {
                per_cache
                    .iter()
                    .map(|requests| adapter::cache_drive(catalog, requests))
                    .collect::<Vec<_>>()
            });
            if lookups == 0 {
                side.cache_evictions = drives.iter().map(|d| d.evictions).sum();
            }
            lookups += drives.iter().map(|d| d.lookups).sum::<u64>();
            drive_ms += took.wall_ms;
        }
        side.cache_ns_per_op = drive_ms * 1e6 / lookups as f64;

        if let Inputs::Edge(edge) = inputs {
            let map = adapter::group_map(self.caches, reference.groups.clone())?;
            for _ in 0..SIDE_REPEATS {
                let (sharded, took) = timed(|| adapter::replay_sharded(edge, &map));
                let sharded = sharded?;
                side.sharded_ms.push(took.wall_ms);
                side.sharded_stages = sharded.stages;
                side.sharded_events = sharded.events;
            }
        }
        if let Inputs::Edge(edge) | Inputs::Churned(edge, _) = inputs {
            let reform_seed = seed_for(seed, Purpose::Reform);
            let (network, retire) = (&edge.network, self.caches / 10);
            for _ in 0..SIDE_REPEATS {
                let mut fixture = adapter::reform_fixture(network, &self.form, form_seed, retire)?;
                let (partial, took) =
                    timed(|| adapter::reform_partial(&mut fixture, network, reform_seed));
                partial?;
                side.reform_partial_ms.push(took.wall_ms);
                let (full, took) =
                    timed(|| adapter::reform_full(fixture, network, &self.form, reform_seed));
                full?;
                side.reform_full_ms.push(took.wall_ms);
            }
        }
        Ok(side)
    }
}
