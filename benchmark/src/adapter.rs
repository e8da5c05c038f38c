//! The only file that calls into the repository's crates: one function
//! per span the benchmark times. A change to a crate's API ports the
//! benchmark by editing this file alone.
//!
//! Node numbering follows the crates: in every RTT source node 0 is the
//! origin and node `i + 1` is cache `i`.

use ecg_cache::{DocumentCache, PolicyKind};
use ecg_clustering::{
    average_group_interaction_cost, kmeans_variant, server_distance_weights, take_tree_build_ms,
    Initializer, KmeansConfig, KmeansVariant, MiniBatchConfig,
};
use ecg_coords::{build_feature_matrix, build_feature_matrix_par, ProbeConfig};
use ecg_core::{
    select_landmarks, select_landmarks_par, GfCoordinator, GroupMaintainer, GroupingOutcome,
    LandmarkSelector, SchemeConfig,
};
use ecg_faults::ChurnConfig;
use ecg_lifecycle::{FormationSupervisor, ReformDecision, SupervisorConfig};
use ecg_replay::{
    replay_epochs_observed, replay_sharded_observed, replay_streamed_observed, ReplayConfig,
    ReplayTimings, StreamedWorkload,
};
use ecg_sim::{simulate_observed, LatencyModel, SimConfig};
use ecg_topology::{OriginPlacement, SyntheticRttConfig, TransitStubConfig};
use ecg_workload::{
    generate_updates, merge_streams, CatalogConfig, RequestConfig, SportingEventConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// The types the rest of the benchmark names; it calls nothing on them.
pub use ecg_lifecycle::FormationTimeline;
pub use ecg_obs::Obs;
pub use ecg_par::derive_seed;
pub use ecg_replay::ReplayEpoch;
pub use ecg_sim::{FaultSchedule, GroupMap, SimReport};
pub use ecg_topology::RttSource;

use ecg_clustering::{Clustering, FeatureMatrix};
use ecg_coords::Prober;
use ecg_core::LandmarkSelection;
use ecg_topology::{CacheId, EdgeNetwork, SyntheticRtt, TransitStubTopology};
use ecg_workload::{DocumentCatalog, Request, TraceEvent, Update};

pub type Groups = Vec<Vec<CacheId>>;

/// Every layer error is reported by its message; the benchmark only
/// counts the pass as failed.
fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------- par

pub fn set_threads(threads: Option<usize>) {
    ecg_par::set_max_threads(threads);
}

pub fn threads() -> usize {
    ecg_par::max_threads()
}

// ------------------------------------------------- topology, workload

pub fn topology_generate(caches: usize, rng: &mut StdRng) -> TransitStubTopology {
    TransitStubConfig::for_caches(caches).generate(rng)
}

/// Places the caches and runs all-pairs shortest paths for the dense
/// RTT matrix.
pub fn topology_place(
    topology: &TransitStubTopology,
    caches: usize,
    rng: &mut StdRng,
) -> Result<EdgeNetwork, String> {
    EdgeNetwork::place(topology, caches, OriginPlacement::TransitNode, rng).map_err(msg)
}

pub fn synthetic_oracle(caches: usize, seed: u64) -> SyntheticRtt {
    SyntheticRttConfig::default().generate(caches + 1, seed)
}

/// The sporting-event preset of the paper workloads.
fn sporting(caches: usize, documents: usize, duration_ms: f64) -> SportingEventConfig {
    SportingEventConfig::default()
        .caches(caches)
        .documents(documents)
        .duration_ms(duration_ms)
}

pub fn catalog_sporting(documents: usize, rng: &mut StdRng) -> DocumentCatalog {
    sporting(1, documents, 1.0).catalog_config().generate(rng)
}

/// Requests and origin updates of the sporting-event preset over
/// `catalog`.
pub fn traffic_sporting(
    catalog: &DocumentCatalog,
    caches: usize,
    duration_ms: f64,
    rng: &mut StdRng,
) -> (Vec<Request>, Vec<Update>) {
    let requests = sporting(caches, catalog.len(), duration_ms)
        .request_config()
        .generate(catalog, caches, duration_ms, rng);
    let updates = generate_updates(catalog, duration_ms, rng);
    (requests, updates)
}

pub fn merge_trace(requests: &[Request], updates: &[Update]) -> Vec<TraceEvent> {
    merge_streams(requests, updates)
}

pub fn catalog_default(documents: usize, rng: &mut StdRng) -> DocumentCatalog {
    CatalogConfig::default().documents(documents).generate(rng)
}

/// Update log and request master seed of a streamed workload.
pub fn traffic_streamed(
    catalog: &DocumentCatalog,
    duration_ms: f64,
    rng: &mut StdRng,
) -> (Vec<Update>, u64) {
    let updates = generate_updates(catalog, duration_ms, rng);
    (updates, rng.gen())
}

pub struct Churn {
    pub crashes_per_hour_per_cache: f64,
    pub mean_downtime_ms: f64,
    pub retirement_fraction: f64,
}

pub fn fault_events(schedule: &FaultSchedule) -> u64 {
    schedule.len() as u64
}

pub fn faults_plan(
    churn: &Churn,
    caches: usize,
    duration_ms: f64,
    rng: &mut StdRng,
) -> FaultSchedule {
    ChurnConfig::default()
        .crashes_per_hour_per_cache(churn.crashes_per_hour_per_cache)
        .mean_downtime_ms(churn.mean_downtime_ms)
        .retirement_fraction(churn.retirement_fraction)
        .generate(caches, duration_ms, rng)
        .schedule()
}

/// A placed network with its materialized trace: what `paper-500` and
/// `lifecycle-500` run on.
pub struct EdgeInputs {
    pub network: EdgeNetwork,
    pub catalog: DocumentCatalog,
    pub trace: Vec<TraceEvent>,
    pub duration_ms: f64,
}

impl EdgeInputs {
    /// 512 KiB utility caches, the first sixth of the trace as warm-up:
    /// the configuration of the repository's goldens.
    fn sim(&self) -> SimConfig {
        SimConfig::default()
            .cache_capacity_bytes(512 * 1024)
            .warmup_ms(self.duration_ms / 6.0)
    }

    fn replay(&self, schedule: &FaultSchedule) -> ReplayConfig {
        ReplayConfig::new()
            .sim(self.sim())
            .schedule(schedule.clone())
    }

    pub fn rtt(&self) -> &dyn RttSource {
        self.network.rtt_matrix()
    }
}

/// An implicit RTT oracle with a streamed workload: what `form-100k`
/// and `replay-50k` run on.
pub struct SyntheticInputs {
    pub rtt: SyntheticRtt,
    pub catalog: DocumentCatalog,
    pub updates: Vec<Update>,
    pub master: u64,
    pub rate_per_sec_per_cache: f64,
    pub duration_ms: f64,
}

impl SyntheticInputs {
    fn workload(&self) -> StreamedWorkload<'_> {
        StreamedWorkload::new(
            RequestConfig::default().rate_per_sec_per_cache(self.rate_per_sec_per_cache),
            self.master,
            self.duration_ms,
        )
        .updates(&self.updates)
    }

    fn sim(&self) -> SimConfig {
        SimConfig::default().warmup_ms(self.duration_ms / 6.0)
    }
}

// ---------------------------------------------------------- formation

/// The formation parameters of a workload. The one-shot entry points
/// get them as a `SchemeConfig`; the traced run passes the same values
/// to the layers one step at a time.
#[derive(Debug, Clone, Copy)]
pub struct FormSpec {
    pub groups: usize,
    pub landmarks: usize,
    pub plset_multiplier: usize,
    /// SDSL's θ; `None` is SL.
    pub theta: Option<f64>,
    pub kmeans_iterations: usize,
    /// `(batch size, iterations)` of mini-batch K-means; `None` is
    /// full-batch Lloyd.
    pub minibatch: Option<(usize, usize)>,
}

impl FormSpec {
    fn scheme(&self) -> SchemeConfig {
        match self.theta {
            Some(theta) => SchemeConfig::sdsl(self.groups, theta),
            None => SchemeConfig::sl(self.groups),
        }
        .landmarks(self.landmarks)
        .plset_multiplier(self.plset_multiplier)
        .kmeans_max_iterations(self.kmeans_iterations)
        .kmeans_variant(self.variant())
    }

    fn variant(&self) -> KmeansVariant {
        match self.minibatch {
            Some((batch, iterations)) => KmeansVariant::MiniBatch(
                MiniBatchConfig::default()
                    .batch_size(batch)
                    .iterations(iterations),
            ),
            None => KmeansVariant::Lloyd,
        }
    }
}

/// What the benchmark reads off a formed grouping.
pub struct Formed {
    pub groups: Groups,
    pub probes: u64,
    pub kmeans_iterations: u64,
}

impl Formed {
    fn of(outcome: &GroupingOutcome) -> Self {
        Formed {
            groups: outcome.groups().to_vec(),
            probes: outcome.probes_sent(),
            kmeans_iterations: outcome.kmeans_iterations() as u64,
        }
    }
}

/// `GfCoordinator::form_groups`: the matrix-backed paper pipeline.
pub fn form_paper(
    network: &EdgeNetwork,
    spec: &FormSpec,
    seed: u64,
    obs: Option<&mut Obs>,
) -> Result<Formed, String> {
    GfCoordinator::new(spec.scheme())
        .form_groups_observed(network, &mut rng(seed), obs)
        .map(|outcome| Formed::of(&outcome))
        .map_err(msg)
}

/// `GfCoordinator::form_groups_scaled`: the large-N pipeline over any
/// RTT source.
pub fn form_scaled(rtt: &dyn RttSource, spec: &FormSpec, seed: u64) -> Result<Formed, String> {
    GfCoordinator::new(spec.scheme())
        .form_groups_scaled(rtt, &mut rng(seed))
        .map(|formed| Formed::of(&formed.outcome))
        .map_err(msg)
}

/// The prober both pipelines build over their RTT source.
pub fn prober(rtt: &dyn RttSource) -> Prober<'_> {
    Prober::new(rtt, ProbeConfig::default())
}

pub fn probes_sent(prober: &Prober<'_>) -> u64 {
    prober.probes_sent()
}

/// Formation step 1. `scaled` picks the entry point the scaled pipeline
/// uses (`select_landmarks_par`), as for the two steps below.
pub fn select_landmarks_step(
    prober: &Prober<'_>,
    spec: &FormSpec,
    scaled: bool,
    rng: &mut StdRng,
) -> Result<LandmarkSelection, String> {
    let (l, m) = (
        spec.landmarks.min(prober.node_count()),
        spec.plset_multiplier,
    );
    let selector = LandmarkSelector::GreedyMaxMin;
    if scaled {
        select_landmarks_par(prober, selector, l, m, rng)
    } else {
        select_landmarks(prober, selector, l, m, rng)
    }
    .map_err(msg)
}

/// Formation step 2: one feature row per cache.
pub fn build_features_step(
    prober: &Prober<'_>,
    selection: &LandmarkSelection,
    scaled: bool,
    rng: &mut StdRng,
) -> FeatureMatrix {
    let nodes: Vec<usize> = (1..prober.node_count()).collect();
    if scaled {
        build_feature_matrix_par(prober, &nodes, &selection.landmarks, rng)
    } else {
        build_feature_matrix(prober, &nodes, &selection.landmarks, rng)
    }
}

/// Formation step 3: seeding weights from feature column 0 (the measured
/// server distance), then K-means through the configured engine.
pub fn kmeans_step(
    points: &FeatureMatrix,
    spec: &FormSpec,
    rng: &mut StdRng,
) -> Result<Clustering, String> {
    let initializer = match spec.theta {
        Some(theta) => {
            let server_distances: Vec<f64> = points.iter_rows().map(|row| row[0]).collect();
            Initializer::Weighted(server_distance_weights(&server_distances, theta))
        }
        None => Initializer::RandomRepresentative,
    };
    let config = KmeansConfig::new(spec.groups).max_iterations(spec.kmeans_iterations);
    kmeans_variant(points, config, &spec.variant(), &initializer, rng).map_err(msg)
}

/// Drains the calling thread's KD-tree build clock, in ms.
pub fn tree_build_ms() -> f64 {
    take_tree_build_ms()
}

pub fn clustering_iterations(clustering: &Clustering) -> u64 {
    clustering.iterations() as u64
}

pub fn clustering_groups(clustering: &Clustering) -> Groups {
    clustering
        .clusters()
        .into_iter()
        .map(|members| members.into_iter().map(CacheId).collect())
        .collect()
}

/// `k` equal runs of consecutive cache ids: the grouping that ignores
/// the network, which any formed grouping must beat.
pub fn contiguous_groups(caches: usize, k: usize) -> Groups {
    let ids: Vec<CacheId> = (0..caches).map(CacheId).collect();
    ids.chunks(caches.div_ceil(k)).map(<[_]>::to_vec).collect()
}

/// Average group interaction cost in ms: the mean over groups of the
/// mean pairwise cost of moving an 8 KiB document between members.
pub fn gic_ms(groups: &[Vec<CacheId>], rtt: &dyn RttSource) -> f64 {
    let model = LatencyModel::default();
    let indices: Vec<Vec<usize>> = groups
        .iter()
        .map(|g| g.iter().map(|c| c.index()).collect())
        .collect();
    average_group_interaction_cost(&indices, |a, b| {
        model.interaction_cost(rtt.rtt_ms(a + 1, b + 1), 8.0 * 1024.0)
    })
}

/// Counts the RTT reads formation makes against its source.
#[derive(Debug)]
pub struct CountingRtt<'a> {
    inner: &'a dyn RttSource,
    calls: AtomicU64,
}

impl<'a> CountingRtt<'a> {
    pub fn new(inner: &'a dyn RttSource) -> Self {
        CountingRtt {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }
}

impl RttSource for CountingRtt<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        // Relaxed: a statistic, read after the formation has returned.
        self.calls.fetch_add(1, Relaxed);
        self.inner.rtt_ms(a, b)
    }
}

// ------------------------------------------------- group map, replay

pub fn group_map(caches: usize, groups: Groups) -> Result<GroupMap, String> {
    GroupMap::new(caches, groups).map_err(msg)
}

/// Stage times the sharded engines measure themselves, in ms; all zero
/// for the monolithic loop, which has no stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStages {
    pub plan_ms: f64,
    pub shards_ms: f64,
    pub merge_ms: f64,
    pub shards: u64,
}

/// What a replay stage hands back, whichever engine ran it.
pub struct Replayed {
    pub report: SimReport,
    /// Events fed to the engine: the trace length, or requests plus
    /// shared updates summed over shards.
    pub events: u64,
    pub epochs: u64,
    pub stages: ReplayStages,
}

impl Replayed {
    fn sharded(report: SimReport, t: ReplayTimings, shards: usize, events: u64) -> Self {
        Replayed {
            report,
            events,
            epochs: 1,
            stages: ReplayStages {
                plan_ms: t.plan_ms,
                shards_ms: t.shards_ms,
                merge_ms: t.merge_ms,
                shards: shards as u64,
            },
        }
    }
}

/// The monolithic event loop.
pub fn simulate(
    inputs: &EdgeInputs,
    map: &GroupMap,
    obs: Option<&mut Obs>,
) -> Result<Replayed, String> {
    simulate_observed(
        &inputs.network,
        map,
        &inputs.catalog,
        &inputs.trace,
        inputs.sim(),
        obs,
    )
    .map(|report| Replayed {
        report,
        events: inputs.trace.len() as u64,
        epochs: 1,
        stages: ReplayStages::default(),
    })
    .map_err(msg)
}

/// The per-group sharded engine over the same materialized trace.
pub fn replay_sharded(inputs: &EdgeInputs, map: &GroupMap) -> Result<Replayed, String> {
    replay_sharded_observed(
        &inputs.network,
        map,
        &inputs.catalog,
        &inputs.trace,
        &inputs.replay(&FaultSchedule::new()),
        None,
    )
    .map(|r| Replayed::sharded(r.report, r.timings, r.shards, r.shard_events))
    .map_err(msg)
}

/// The sharded engine with per-shard regenerated request streams.
pub fn replay_streamed(
    inputs: &SyntheticInputs,
    map: &GroupMap,
    obs: Option<&mut Obs>,
) -> Result<Replayed, String> {
    replay_streamed_observed(
        &inputs.rtt,
        map,
        &inputs.catalog,
        &inputs.workload(),
        &ReplayConfig::new().sim(inputs.sim()),
        obs,
    )
    .map(|r| Replayed::sharded(r.report, r.timings, r.shards, r.shard_events))
    .map_err(msg)
}

/// Materializes the streamed workload over its first `caches` caches and
/// returns the requests.
pub fn stream_materialize(inputs: &SyntheticInputs, caches: usize) -> Vec<Request> {
    requests_of(&inputs.workload().materialize_trace(&inputs.catalog, caches))
}

pub fn requests_of(trace: &[TraceEvent]) -> Vec<Request> {
    trace
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Request(r) => Some(*r),
            TraceEvent::Update(_) => None,
        })
        .collect()
}

/// Splits requests by the cache they arrive at, in cache order.
pub fn requests_per_cache(requests: &[Request]) -> Vec<Vec<Request>> {
    let caches = requests.iter().map(|r| r.cache + 1).max().unwrap_or(0);
    let mut per_cache = vec![Vec::new(); caches];
    for r in requests {
        per_cache[r.cache].push(*r);
    }
    per_cache
}

/// The figures of a report the benchmark publishes. Reports themselves
/// are only ever compared whole.
pub struct ReportSummary {
    pub requests: u64,
    pub avg_latency_ms: f64,
    pub group_hit_rate: f64,
    /// Fresh local hits over lookups, summed over every cache.
    pub local_hit_ratio: f64,
}

pub fn summarize(report: &SimReport) -> ReportSummary {
    ReportSummary {
        requests: report.metrics.total_requests(),
        avg_latency_ms: report.average_latency_ms(),
        group_hit_rate: report.metrics.group_hit_rate().unwrap_or(0.0),
        local_hit_ratio: report.cache_stats.hit_rate().unwrap_or(0.0),
    }
}

// ---------------------------------------------------------- lifecycle

/// `FormationSupervisor::run` over a fault schedule: SL with the
/// `balanced` policy and 10 s maintenance windows.
pub fn supervise(
    inputs: &EdgeInputs,
    schedule: &FaultSchedule,
    groups: usize,
    seed: u64,
    obs: Option<&mut Obs>,
) -> Result<FormationTimeline, String> {
    FormationSupervisor::new(SupervisorConfig::new(SchemeConfig::sl(groups)))
        .run_observed(
            &inputs.network,
            schedule,
            inputs.duration_ms,
            &mut rng(seed),
            obs,
        )
        .map_err(msg)
}

pub fn timeline_epochs(timeline: &FormationTimeline) -> Vec<ReplayEpoch> {
    timeline
        .epoch_spans()
        .map(|(start_ms, groups)| ReplayEpoch::new(start_ms, groups.clone()))
        .collect()
}

/// Every epoch must cover all `caches`; down and retired caches serve as
/// singletons, so an epoch has at least `k` groups. Returns the first
/// epoch's grouping.
pub fn check_epochs(epochs: &[ReplayEpoch], caches: usize, k: usize) -> Result<Groups, String> {
    for (i, epoch) in epochs.iter().enumerate() {
        let (covered, groups) = (epoch.groups.cache_count(), epoch.groups.group_count());
        if covered != caches || groups < k {
            return Err(format!("epoch {i}: {groups} groups over {covered} caches"));
        }
    }
    epochs
        .first()
        .map(|epoch| epoch.groups.groups().to_vec())
        .ok_or_else(|| "timeline has no epochs".to_string())
}

/// `(windows, repairs, partial re-forms, full re-forms)`.
pub fn timeline_decisions(timeline: &FormationTimeline) -> (u64, u64, u64, u64) {
    let count = |d| timeline.decision_count(d) as u64;
    (
        timeline.decisions().len() as u64,
        count(ReformDecision::Repair),
        count(ReformDecision::PartialReform),
        count(ReformDecision::FullReform),
    )
}

pub fn replay_epochs(
    inputs: &EdgeInputs,
    schedule: &FaultSchedule,
    epochs: &[ReplayEpoch],
    obs: Option<&mut Obs>,
) -> Result<Replayed, String> {
    replay_epochs_observed(
        &inputs.network,
        epochs,
        &inputs.catalog,
        &inputs.trace,
        &inputs.replay(schedule),
        obs,
    )
    .map(|r| Replayed {
        epochs: r.epochs as u64,
        ..Replayed::sharded(r.report, r.timings, r.shards, r.shard_events)
    })
    .map_err(msg)
}

/// A maintained grouping that has lost members, ready to re-form.
pub struct ReformFixture {
    maintainer: GroupMaintainer,
    degraded_groups: Vec<usize>,
    dead_landmarks: Vec<usize>,
}

/// Forms `spec` on `network`, then retires the first `retire` caches. A
/// retirement that would empty its group is skipped, as the supervisor
/// skips it.
pub fn reform_fixture(
    network: &EdgeNetwork,
    spec: &FormSpec,
    seed: u64,
    retire: usize,
) -> Result<ReformFixture, String> {
    let outcome = GfCoordinator::new(spec.scheme())
        .form_groups(network, &mut rng(seed))
        .map_err(msg)?;
    let mut maintainer = GroupMaintainer::new(network, outcome, ProbeConfig::default());
    let mut degraded_groups = Vec::new();
    let mut dead_landmarks = Vec::new();
    for cache in (0..retire).map(CacheId) {
        if let Ok(retired) = maintainer.retire(cache) {
            degraded_groups.push(retired.group);
            if retired.was_landmark {
                dead_landmarks.push(cache.index() + 1);
            }
        }
    }
    degraded_groups.sort_unstable();
    degraded_groups.dedup();
    Ok(ReformFixture {
        maintainer,
        degraded_groups,
        dead_landmarks,
    })
}

/// `GroupMaintainer::reform_partial` over the groups that lost members.
pub fn reform_partial(
    fixture: &mut ReformFixture,
    network: &EdgeNetwork,
    seed: u64,
) -> Result<(), String> {
    fixture
        .maintainer
        .reform_partial(
            network,
            &fixture.degraded_groups,
            &fixture.dead_landmarks,
            &mut rng(seed),
        )
        .map(drop)
        .map_err(msg)
}

/// `GroupMaintainer::reform`: the scheme again from scratch.
pub fn reform_full(
    fixture: ReformFixture,
    network: &EdgeNetwork,
    spec: &FormSpec,
    seed: u64,
) -> Result<(), String> {
    fixture
        .maintainer
        .reform(&GfCoordinator::new(spec.scheme()), network, &mut rng(seed))
        .map(drop)
        .map_err(msg)
}

// -------------------------------------------------------------- cache

/// `(lookups, evictions)` of a cache driven by [`cache_drive`].
pub struct CacheDrive {
    pub lookups: u64,
    pub evictions: u64,
}

/// Drives one fresh 512 KiB utility `DocumentCache` with one cache's
/// requests: lookup, then insert on a miss; no origin updates.
pub fn cache_drive(catalog: &DocumentCatalog, requests: &[Request]) -> CacheDrive {
    let mut cache = DocumentCache::new(512 * 1024, PolicyKind::Utility);
    for r in requests {
        if !cache.lookup(r.doc, 0, r.time_ms).is_hit() {
            let doc = catalog.document(r.doc);
            cache.insert(
                r.doc,
                0,
                doc.size_bytes,
                50.0,
                doc.update_rate_per_sec,
                r.time_ms,
            );
        }
    }
    let stats = cache.stats();
    CacheDrive {
        lookups: stats.lookups,
        evictions: stats.evictions,
    }
}
