//! The SL and SDSL group formation schemes.
//!
//! Both schemes share the same three-step pipeline, run by [`form`]
//! (the paper's *Group Formation-Coordinator*):
//!
//! 1. **Landmark selection** (§3.1) — [`crate::landmarks`].
//! 2. **Position estimation** (§3.2) — landmark feature vectors, or the
//!    GNP Euclidean embedding for the Figure-7 comparison.
//! 3. **Clustering** (§3.3 / §4.1) — K-means; SL seeds the initial
//!    centers uniformly, SDSL with probability
//!    `Pr(Ec_j) ∝ 1 / Dist(Ec_j, Os)^θ`.

use crate::health::{FormationHealth, ResilienceConfig};
use crate::landmarks::{cache_count, select, LandmarkError, LandmarkSelection, LandmarkSelector};
use ecg_clustering::{
    kmeans_capped, kmeans_masked, kmeans_variant, server_distance_weights, take_tree_build_ms,
    AssignMode, CapError, Initializer, KmeansConfig, KmeansError, KmeansVariant,
};
use ecg_coords::{
    build_features, embed_network, run_vivaldi, Draws, FeatureMask, FeatureMatrix, GnpConfig,
    GnpCoordinates, ProbeConfig, ProbeFaults, Prober, VivaldiConfig,
};
use ecg_obs::Obs;
use ecg_topology::{CacheId, RttSource};
use rand::Rng;
use std::fmt;
use std::time::Instant;

/// How node positions are represented for clustering (§3.2 vs §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Representation {
    /// The paper's simple feature vectors: measured RTTs to each
    /// landmark. The default.
    #[default]
    FeatureVectors,
    /// GNP Euclidean-space coordinates — the computationally expensive
    /// comparator of Figure 7.
    Gnp(GnpConfig),
    /// Decentralized Vivaldi coordinates (Dabek et al., cited in the
    /// paper's related work). Landmark-free: every cache refines
    /// spring-model coordinates against random peers, so the landmark
    /// set is used only for SDSL's server distances. An extension, not
    /// in the paper's evaluation.
    Vivaldi(VivaldiConfig),
}

/// How the K-means initial centers are drawn — the only difference
/// between SL and SDSL.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GroupInit {
    /// Uniform over caches (SL, §3.3): "any cache may be selected to an
    /// initial cluster center with equal probability".
    #[default]
    Uniform,
    /// Server-distance-biased (SDSL, §4.1):
    /// `Pr(Ec_j) ∝ 1 / Dist(Ec_j, Os)^θ`. Higher `theta` means more
    /// sensitivity to server distance.
    ServerDistance {
        /// The sensitivity exponent θ.
        theta: f64,
    },
    /// k-means++ seeding — not in the paper; available for the
    /// initialization ablation.
    KmeansPlusPlus,
}

impl GroupInit {
    /// The K-means initializer this rule stands for, over the measured
    /// server distances of the caches being clustered.
    fn initializer(self, server_distances_ms: &[f64]) -> Initializer {
        match self {
            GroupInit::Uniform => Initializer::RandomRepresentative,
            GroupInit::ServerDistance { theta } => {
                Initializer::Weighted(server_distance_weights(server_distances_ms, theta))
            }
            GroupInit::KmeansPlusPlus => Initializer::KmeansPlusPlus,
        }
    }
}

/// Full configuration of a group formation run.
///
/// # Examples
///
/// ```
/// use ecg_core::SchemeConfig;
///
/// let sl = SchemeConfig::sl(10);
/// let sdsl = SchemeConfig::sdsl(10, 1.0);
/// assert_eq!(sl.groups(), 10);
/// assert_ne!(sl, sdsl);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    landmarks: usize,
    plset_multiplier: usize,
    groups: usize,
    probe: ProbeConfig,
    selector: LandmarkSelector,
    representation: Representation,
    init: GroupInit,
    kmeans_max_iterations: usize,
    kmeans_variant: KmeansVariant,
    forced_assign: Option<AssignMode>,
    max_group_size: Option<usize>,
    resilience: Option<ResilienceConfig>,
}

impl SchemeConfig {
    /// The SL scheme with `k` groups and the paper's defaults: 25
    /// landmarks, PLSet multiplier `M = 4`, greedy max–min selection,
    /// feature vectors, uniform K-means seeding.
    pub fn sl(k: usize) -> Self {
        SchemeConfig {
            landmarks: 25,
            plset_multiplier: 4,
            groups: k,
            probe: ProbeConfig::default(),
            selector: LandmarkSelector::GreedyMaxMin,
            representation: Representation::FeatureVectors,
            init: GroupInit::Uniform,
            kmeans_max_iterations: 100,
            kmeans_variant: KmeansVariant::Lloyd,
            forced_assign: None,
            max_group_size: None,
            resilience: None,
        }
    }

    /// The SDSL scheme: SL plus server-distance-sensitive seeding with
    /// exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    pub fn sdsl(k: usize, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative"
        );
        SchemeConfig {
            init: GroupInit::ServerDistance { theta },
            ..SchemeConfig::sl(k)
        }
    }

    /// Sets the number of landmarks `L`.
    pub fn landmarks(mut self, l: usize) -> Self {
        self.landmarks = l;
        self
    }

    /// Sets the PLSet multiplier `M`.
    pub fn plset_multiplier(mut self, m: usize) -> Self {
        self.plset_multiplier = m;
        self
    }

    /// Sets the probing model.
    pub fn probe(mut self, probe: ProbeConfig) -> Self {
        self.probe = probe;
        self
    }

    /// Sets the landmark selector.
    pub fn selector(mut self, selector: LandmarkSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the position representation.
    pub fn representation(mut self, representation: Representation) -> Self {
        self.representation = representation;
        self
    }

    /// Sets the K-means initialization rule directly.
    pub fn init(mut self, init: GroupInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the K-means iteration cap.
    pub fn kmeans_max_iterations(mut self, iters: usize) -> Self {
        self.kmeans_max_iterations = iters;
        self
    }

    /// Selects the K-means engine: full-batch Lloyd (the default — the
    /// paper's algorithm, what every historical experiment output ran)
    /// or the deterministic mini-batch variant for large `N`. Every
    /// plan honours it; it yields to a
    /// [`SchemeConfig::max_group_size`] cap and to a degraded feature
    /// mask, which have one engine each.
    pub fn kmeans_variant(mut self, variant: KmeansVariant) -> Self {
        self.kmeans_variant = variant;
        self
    }

    /// Runs every K-means assignment scan on `engine`, whatever K is:
    /// the hook the end-to-end tree == blocked test and `ecg-bench time scale`'s
    /// fixed grid (its crossover cells included) reach both engines
    /// through. Unforced, the scans
    /// take the KD-tree from `ecg_clustering::TREE_AUTO_MIN_K` groups
    /// up; the grouping is the same bits either way.
    #[doc(hidden)]
    pub fn force_assign(mut self, engine: AssignMode) -> Self {
        self.forced_assign = Some(engine);
        self
    }

    /// Caps every group at `max` members (an extension beyond the
    /// paper): clustering switches to the size-constrained K-means of
    /// [`ecg_clustering::balanced`].
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn max_group_size(mut self, max: usize) -> Self {
        assert!(max > 0, "group size cap must be positive");
        self.max_group_size = Some(max);
        self
    }

    /// Enables resilient formation, under every plan: probe retries
    /// under the configured policy, landmark failover when a PLSet node
    /// is detected dead, masked clustering over the observed feature
    /// cells, and quarantine of caches below the observation floor.
    /// The outcome then carries a [`FormationHealth`] report.
    ///
    /// On a fault-free network a resilient run produces a bit-identical
    /// grouping to a plain one (it draws from the RNG in exactly the
    /// same sequence), so enabling resilience cannot perturb healthy
    /// runs.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// The resilience configuration, if enabled.
    pub fn resilience_config(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref()
    }

    /// Number of groups `K`.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

/// Error from [`form`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeError {
    /// Landmark selection failed.
    Landmarks(LandmarkError),
    /// Clustering failed.
    Clustering(KmeansError),
    /// Zero groups were requested.
    NoGroups,
    /// More groups than caches were requested.
    TooManyGroups {
        /// Groups requested.
        groups: usize,
        /// Caches available.
        caches: usize,
    },
    /// The configured group-size cap cannot hold all caches.
    CapTooTight {
        /// Groups requested.
        groups: usize,
        /// Per-group cap.
        max_group_size: usize,
        /// Caches to place.
        caches: usize,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::Landmarks(e) => write!(f, "landmark selection failed: {e}"),
            SchemeError::Clustering(e) => write!(f, "clustering failed: {e}"),
            SchemeError::NoGroups => write!(f, "cannot form zero groups"),
            SchemeError::TooManyGroups { groups, caches } => {
                write!(f, "cannot form {groups} groups from {caches} caches")
            }
            SchemeError::CapTooTight {
                groups,
                max_group_size,
                caches,
            } => write!(
                f,
                "{groups} groups capped at {max_group_size} cannot hold {caches} caches"
            ),
        }
    }
}

impl std::error::Error for SchemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemeError::Landmarks(e) => Some(e),
            SchemeError::Clustering(e) => Some(e),
            SchemeError::NoGroups
            | SchemeError::TooManyGroups { .. }
            | SchemeError::CapTooTight { .. } => None,
        }
    }
}

impl From<LandmarkError> for SchemeError {
    fn from(e: LandmarkError) -> Self {
        SchemeError::Landmarks(e)
    }
}

impl From<KmeansError> for SchemeError {
    fn from(e: KmeansError) -> Self {
        SchemeError::Clustering(e)
    }
}

impl From<CapError> for SchemeError {
    fn from(e: CapError) -> Self {
        match e {
            CapError::InsufficientCapacity {
                points: caches,
                k,
                max_size,
            } => SchemeError::CapTooTight {
                groups: k,
                max_group_size: max_size,
                caches,
            },
            CapError::Kmeans(inner) => SchemeError::Clustering(inner),
        }
    }
}

/// The result of forming cooperative groups.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingOutcome {
    groups: Vec<Vec<CacheId>>,
    assignments: Vec<usize>,
    landmarks: LandmarkSelection,
    server_distances_ms: Vec<f64>,
    probes_sent: u64,
    kmeans_iterations: usize,
    centers: FeatureMatrix,
    points: FeatureMatrix,
    health: Option<FormationHealth>,
}

impl GroupingOutcome {
    /// The cooperative groups: `K` disjoint, non-empty, ascending-sorted
    /// member lists covering every cache.
    pub fn groups(&self) -> &[Vec<CacheId>] {
        &self.groups
    }

    /// Group index of each cache, in cache order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Group index of one cache.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub fn group_of(&self, cache: CacheId) -> usize {
        self.assignments[cache.index()]
    }

    /// The landmark selection used.
    pub fn landmarks(&self) -> &LandmarkSelection {
        &self.landmarks
    }

    /// Measured cache-to-origin RTTs (ms), in cache order — the server
    /// distances SDSL weights by.
    pub fn server_distances_ms(&self) -> &[f64] {
        &self.server_distances_ms
    }

    /// Total probe packets the run sent — the scheme's measurement
    /// overhead.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// K-means iterations until termination.
    pub fn kmeans_iterations(&self) -> usize {
        self.kmeans_iterations
    }

    /// Final cluster centers in position space (feature-vector or GNP
    /// coordinates, per the configured representation), one matrix row
    /// per group. Used by [`crate::maintenance`] to admit new caches
    /// without re-clustering.
    pub fn centers(&self) -> &FeatureMatrix {
        &self.centers
    }

    /// The per-cache position estimates that were clustered, one matrix
    /// row per cache, in cache order.
    pub fn points(&self) -> &FeatureMatrix {
        &self.points
    }

    /// The resilience layer's health report — `Some` exactly when the
    /// run was configured with [`SchemeConfig::resilience`].
    pub fn health(&self) -> Option<&FormationHealth> {
        self.health.as_ref()
    }

    /// Average group interaction cost of the grouping under a pairwise
    /// cost function — the paper's clustering accuracy metric (§2).
    pub fn average_interaction_cost(&self, cost: impl Fn(CacheId, CacheId) -> f64 + Sync) -> f64 {
        let as_indices: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|g| g.iter().map(|c| c.index()).collect())
            .collect();
        ecg_clustering::average_group_interaction_cost(&as_indices, |a, b| {
            cost(CacheId(a), CacheId(b))
        })
    }
}

/// **What** a formation run computes: the RTT source it probes, the
/// scheme, the probe faults injected into it and the draw discipline.
/// Starts with no faults and one shared RNG stream.
///
/// The source is any [`RttSource`] spanning `[origin, caches…]` (node 0
/// is the origin, node `i + 1` cache `i`); a caller holding an
/// [`EdgeNetwork`](ecg_topology::EdgeNetwork) passes
/// [`EdgeNetwork::rtt_matrix`](ecg_topology::EdgeNetwork::rtt_matrix).
#[derive(Debug, Clone, Copy)]
pub struct FormPlan<'a> {
    source: &'a dyn RttSource,
    config: &'a SchemeConfig,
    faults: Option<&'a ProbeFaults>,
    per_row: bool,
}

impl<'a> FormPlan<'a> {
    /// A plan forming `config`'s groups over `source`.
    pub fn new(source: &'a dyn RttSource, config: &'a SchemeConfig) -> Self {
        FormPlan {
            source,
            config,
            faults: None,
            per_row: false,
        }
    }

    /// Injects probe faults (crashed nodes, black-holed links — see
    /// [`ecg_coords::ProbeFaults`]). Without a
    /// [`SchemeConfig::resilience`] configuration the pipeline behaves
    /// exactly like a non-resilient deployment under failure: dead links
    /// report the probe timeout as their RTT, so crashed caches look
    /// maximally far and poison landmark selection and feature vectors —
    /// the baseline the resilience ablation measures against. With
    /// resilience enabled, probes are retried, dead landmarks fail over,
    /// unobserved feature cells are masked out of clustering, and the
    /// outcome carries a [`FormationHealth`]. An empty fault set is the
    /// fault-free run, bit for bit.
    pub fn faults(mut self, faults: &'a ProbeFaults) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Runs every batch of probes under [`Draws::PerRow`] — derived
    /// per-row RNG streams on [`ecg_par`] workers — instead of one
    /// shared stream, so the result depends only on the seed, never the
    /// thread count, at any N. Once probes are noisy it is not
    /// draw-compatible with a shared-stream run, and it records nothing
    /// into a bundle (see [`FormContext::observe`]).
    pub fn per_row(mut self) -> Self {
        self.per_row = true;
        self
    }
}

/// Per-stage wall-clock of the last formation run, in milliseconds;
/// all zero before the first. Purely observational — the pipeline never
/// branches on the clock, so timings cannot perturb results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FormStats {
    /// Landmark selection (PLSet probing + greedy fill).
    pub landmarks_ms: f64,
    /// Feature-matrix construction (cache-to-landmark probing).
    pub features_ms: f64,
    /// K-means clustering (whichever [`KmeansVariant`] ran).
    pub clustering_ms: f64,
    /// Of `clustering_ms`, the time spent (re)building the KD-tree
    /// over centers — 0 when the scans ran on the blocked kernel (below
    /// `ecg_clustering::TREE_AUTO_MIN_K` groups). The remainder of
    /// `clustering_ms` is queries and center updates.
    pub tree_build_ms: f64,
    /// End-to-end formation time.
    pub total_ms: f64,
}

/// **How** a formation run is watched: an optional observability
/// bundle to record into, and the [`FormStats`] of the last run made
/// with it.
#[derive(Debug, Default)]
pub struct FormContext<'o> {
    obs: Option<&'o mut Obs>,
    stats: FormStats,
}

impl<'o> FormContext<'o> {
    /// A context recording into no bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the run's telemetry into `obs` when one is supplied:
    /// `scheme.landmarks` / `scheme.positions` phase spans whose work is
    /// the probe packets each step sent, a `scheme.clustering` span
    /// whose work is the K-means iteration count, the `kmeans.*`
    /// per-iteration stats (full-batch Lloyd only), the per-probe
    /// `probe.*` counters, `scheme.*` counters, and one
    /// `scheme`/`formed` trace event; a resilient run adds
    /// `landmarks.dead` / `landmarks.failovers` and
    /// `scheme.quarantined` / `scheme.failovers`. Instrumentation never
    /// draws from the RNG, so the grouping is identical either way.
    ///
    /// A [`FormPlan::per_row`] run measures on worker threads and
    /// records nothing: the bundle comes back as it went in.
    pub fn observe(mut self, obs: Option<&'o mut Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Stage times of the last run made with this context.
    pub fn stats(&self) -> FormStats {
        self.stats
    }
}

/// Forms `plan`'s cooperative groups: the one formation pipeline —
/// landmarks → positions → quarantine → K-means → groups — over a
/// freshly built prober (its counters are read as the run's). What
/// differs between plans is data handed down to
/// [`Prober::measure_batch`], not paths: the retry policy (from
/// [`SchemeConfig::resilience`]; without one every cell comes back
/// observed, so nothing below is ever masked, quarantined or failed
/// over) and the draw discipline, which also carries the run's
/// telemetry bundle when there is one.
///
/// # Errors
///
/// Returns [`SchemeError`] if zero groups are requested, the source is
/// too small for the requested landmarks or groups, or clustering
/// fails; if quarantine leaves fewer participating caches than groups,
/// a [`SchemeError::TooManyGroups`] reports the post-quarantine count.
///
/// # Examples
///
/// ```
/// use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
/// use ecg_topology::{fixtures::paper_figure1, EdgeNetwork};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
/// let config = SchemeConfig::sl(3).landmarks(3).plset_multiplier(2);
/// let plan = FormPlan::new(network.rtt_matrix(), &config);
/// let mut rng = StdRng::seed_from_u64(1);
/// let outcome = form(&plan, &mut FormContext::new(), &mut rng)?;
/// assert_eq!(outcome.groups().len(), 3);
/// # Ok::<(), ecg_core::SchemeError>(())
/// ```
pub fn form<R: Rng + ?Sized>(
    plan: &FormPlan<'_>,
    ctx: &mut FormContext<'_>,
    rng: &mut R,
) -> Result<GroupingOutcome, SchemeError> {
    let FormContext { obs, stats } = ctx;
    *stats = FormStats::default();
    let cfg = plan.config;
    let faults = plan.faults.cloned().unwrap_or_default();
    let prober = &Prober::with_faults(plan.source, cfg.probe, faults);
    let mut draws = if plan.per_row {
        Draws::PerRow
    } else {
        Draws::Shared(obs.as_deref_mut())
    };
    if cfg.groups == 0 {
        return Err(SchemeError::NoGroups);
    }
    let policy = cfg.resilience.as_ref().map(ResilienceConfig::retry_policy);
    let n = cache_count(prober)?;
    if cfg.groups > n {
        return Err(SchemeError::TooManyGroups {
            groups: cfg.groups,
            caches: n,
        });
    }
    let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();

    // Stage 1: landmark selection (with failure detection and
    // failover under a retry policy).
    let selected = select(
        prober,
        cfg.selector,
        cfg.landmarks.min(n + 1),
        cfg.plset_multiplier,
        policy,
        &mut draws,
        rng,
    )?;
    let landmark_probes = prober.probes_sent();
    if let Some(o) = draws.obs() {
        o.phases
            .span("scheme.landmarks")
            .add_work(landmark_probes as f64);
    }
    let landmarks_ms = ms_since(started);

    // Stage 2: position estimation. Cache Ec_i is node i + 1.
    // Masking applies to the paper's feature vectors; the embedding
    // representations keep their own estimators (which substitute
    // the timeout sentinel for failed measurements) under a
    // fully-observed mask.
    let positions_started = Instant::now();
    let nodes: Vec<usize> = (1..=n).collect();
    let landmarks = &selected.selection.landmarks;
    let (points, mask, server_distances_ms) = match cfg.representation {
        Representation::FeatureVectors => {
            let (fm, mask) = build_features(prober, &nodes, landmarks, policy, &mut draws, rng);
            let dists = server_distances(&fm, &mask, prober.config().timeout());
            (fm, mask, dists)
        }
        Representation::Gnp(gnp) => {
            let coords = embed_network(gnp, prober, &nodes, landmarks, rng);
            embedded(&coords, prober, &nodes, &mut draws, rng)
        }
        Representation::Vivaldi(vivaldi) => {
            let states = run_vivaldi(vivaldi, prober, &nodes, rng);
            let coords: Vec<GnpCoordinates> = states.iter().map(|s| s.coords()).collect();
            embedded(&coords, prober, &nodes, &mut draws, rng)
        }
    };
    if let Some(o) = draws.obs() {
        o.phases
            .span("scheme.positions")
            .add_work((prober.probes_sent() - landmark_probes) as f64);
    }
    let features_ms = ms_since(positions_started);

    // Stage 3: quarantine. A cache below the observation floor
    // carries too little positional signal to cluster; it is routed
    // to its nearest observed landmark's group instead. The floor
    // is clamped to the feature dimension so a fully-observed row
    // is never quarantined.
    let floor = cfg.resilience.map_or(1, |r| r.min_observed());
    let floor = floor.min(mask.dim()).max(1);
    let quarantined: Vec<usize> = (0..n).filter(|&i| mask.observed_count(i) < floor).collect();
    let kept = || (0..n).filter(|i| quarantined.binary_search(i).is_err());
    if n - quarantined.len() < cfg.groups {
        return Err(SchemeError::TooManyGroups {
            groups: cfg.groups,
            caches: n - quarantined.len(),
        });
    }
    let subset;
    let (kept_points, kept_mask, kept_dists) = if quarantined.is_empty() {
        (&points, &mask, &server_distances_ms)
    } else {
        let mut kp = FeatureMatrix::new(points.dim());
        let mut km = FeatureMask::new(mask.dim());
        for i in kept() {
            kp.push_row(points.row(i));
            km.push_row(mask.row(i));
        }
        let kd: Vec<f64> = kept().map(|i| server_distances_ms[i]).collect();
        subset = (kp, km, kd);
        (&subset.0, &subset.1, &subset.2)
    };

    // Stage 4: clustering of the participating caches with the
    // scheme's initialization. The tree-build accumulator is
    // drained before the stage so the after-read covers exactly
    // this clustering's rebuilds.
    let _ = take_tree_build_ms();
    let clustering_started = Instant::now();
    let initializer = cfg.init.initializer(kept_dists);
    let mut kmeans_config = KmeansConfig::new(cfg.groups).max_iterations(cfg.kmeans_max_iterations);
    if let Some(engine) = cfg.forced_assign {
        kmeans_config = kmeans_config.force_assign(engine);
    }
    // `kmeans_masked` on a fully observed mask is `kmeans`; the
    // mini-batch variant has no masked form.
    let clustering = match (cfg.max_group_size, &cfg.kmeans_variant) {
        (Some(cap), _) => kmeans_capped(
            kept_points,
            kept_mask,
            kmeans_config,
            &initializer,
            cap,
            rng,
        )?,
        (None, variant @ KmeansVariant::MiniBatch(_)) if kept_mask.is_fully_observed() => {
            kmeans_variant(kept_points, kmeans_config, variant, &initializer, rng)?
        }
        (None, _) => kmeans_masked(
            kept_points,
            kept_mask,
            kmeans_config,
            &initializer,
            rng,
            draws.obs(),
        )?,
    };
    if let Some(o) = draws.obs() {
        o.phases
            .span("scheme.clustering")
            .add_work(clustering.iterations() as f64);
    }
    let clustering_ms = ms_since(clustering_started);
    let tree_build_ms = take_tree_build_ms();

    // Map the kept-subset assignments back to cache order, then
    // place each quarantined cache with its nearest observed
    // landmark's cache (group 0 if it observed no landmark cache at
    // all).
    let mut assignments = vec![usize::MAX; n];
    for (i, &g) in kept().zip(clustering.assignments()) {
        assignments[i] = g;
    }
    for &i in &quarantined {
        let nearest = (1..mask.dim())
            .filter(|&j| mask.is_observed(i, j))
            .min_by(|&a, &b| points.row(i)[a].total_cmp(&points.row(i)[b]));
        assignments[i] = nearest
            .and_then(|j| {
                let lm_cache = landmarks.get(j)?.checked_sub(1)?;
                let g = assignments[lm_cache];
                (g != usize::MAX).then_some(g)
            })
            .unwrap_or(0);
    }
    let mut groups: Vec<Vec<CacheId>> = vec![Vec::new(); cfg.groups];
    for (i, &g) in assignments.iter().enumerate() {
        groups[g].push(CacheId(i));
    }

    let probes_sent = prober.probes_sent();
    let kmeans_iterations = clustering.iterations();
    let health = cfg.resilience.map(|_| FormationHealth {
        probe_retries: prober.retries(),
        probe_gave_up: prober.gave_up(),
        backoff_ms: prober.backoff_ms(),
        dead_landmarks: selected.dead_nodes,
        landmark_failovers: selected.replaced.len(),
        masked_cells: mask.masked_cells(),
        quarantined: quarantined.into_iter().map(CacheId).collect(),
    });
    if let Some(o) = draws.obs() {
        o.metrics.inc("scheme.runs");
        o.metrics.add("scheme.probes_sent", probes_sent);
        let mut formed = vec![
            ("groups", cfg.groups.into()),
            ("probes_sent", probes_sent.into()),
            ("kmeans_iterations", kmeans_iterations.into()),
        ];
        if let Some(h) = &health {
            let failovers = h.landmark_failovers as u64;
            o.metrics
                .add("landmarks.dead", h.dead_landmarks.len() as u64);
            o.metrics.add("landmarks.failovers", failovers);
            o.metrics
                .add("scheme.quarantined", h.quarantined.len() as u64);
            o.metrics.add("scheme.failovers", failovers);
            formed.push(("degraded", u64::from(h.is_degraded()).into()));
        }
        o.trace
            .push(kmeans_iterations as f64, "scheme", "formed", formed);
    }

    *stats = FormStats {
        landmarks_ms,
        features_ms,
        clustering_ms,
        tree_build_ms,
        total_ms: ms_since(started),
    };
    Ok(GroupingOutcome {
        groups,
        assignments,
        landmarks: selected.selection,
        server_distances_ms,
        probes_sent,
        kmeans_iterations,
        centers: clustering.centers().clone(),
        points,
        health,
    })
}

/// The server distances SDSL weights by, off the feature matrix:
/// `landmarks[0]` is always the origin, so component 0 of every feature
/// vector *is* the measured server distance — reused for free. A cache
/// that never reached the origin falls back to the mean observed server
/// distance (the timeout if nobody reached it) so the weights stay
/// finite.
fn server_distances(points: &FeatureMatrix, mask: &FeatureMask, timeout: f64) -> Vec<f64> {
    let n = points.len();
    let reached = |i: &usize| mask.is_observed(*i, 0);
    let count = (0..n).filter(reached).count();
    let sum: f64 = (0..n).filter(reached).map(|i| points.row(i)[0]).sum();
    let fallback = if count == 0 {
        timeout
    } else {
        sum / count as f64
    };
    let distance = |i| {
        if reached(&i) {
            points.row(i)[0]
        } else {
            fallback
        }
    };
    (0..n).map(distance).collect()
}

/// Packs embedding coordinates (GNP, Vivaldi) into the pipeline's
/// position triple: the matrix, a fully-observed mask, and the server
/// distances — which an embedding does not yield, so each cache
/// measures the origin once more.
fn embedded<R: Rng + ?Sized>(
    coords: &[GnpCoordinates],
    prober: &Prober<'_>,
    nodes: &[usize],
    draws: &mut Draws<'_>,
    rng: &mut R,
) -> (FeatureMatrix, FeatureMask, Vec<f64>) {
    let dim = coords.first().map_or(0, |c| c.as_slice().len());
    let mut fm = FeatureMatrix::with_capacity(coords.len(), dim);
    for c in coords {
        fm.push_row(c.as_slice());
    }
    let mask = FeatureMask::all_observed(fm.len(), dim);
    let to_origin = |r: usize, _| (nodes[r], 0);
    let (dists, _) = prober.measure_batch(nodes.len(), 1, to_origin, None, draws, rng);
    (fm, mask, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_topology::fixtures::paper_figure1;
    use ecg_topology::{EdgeNetwork, RttMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure1_network() -> EdgeNetwork {
        EdgeNetwork::from_rtt_matrix(paper_figure1())
    }

    /// `form` over the network's matrix on one shared stream, unobserved.
    fn form_on(
        net: &EdgeNetwork,
        cfg: &SchemeConfig,
        rng: &mut StdRng,
    ) -> Result<GroupingOutcome, SchemeError> {
        form(
            &FormPlan::new(net.rtt_matrix(), cfg),
            &mut FormContext::new(),
            rng,
        )
    }

    /// [`form_on`] with `faults` injected.
    fn form_faulted(
        net: &EdgeNetwork,
        cfg: &SchemeConfig,
        faults: &ProbeFaults,
        rng: &mut StdRng,
    ) -> Result<GroupingOutcome, SchemeError> {
        let plan = FormPlan::new(net.rtt_matrix(), cfg).faults(faults);
        form(&plan, &mut FormContext::new(), rng)
    }

    /// `form` over any source under per-row draws, unobserved.
    fn form_per_row(
        source: &dyn RttSource,
        cfg: &SchemeConfig,
        rng: &mut StdRng,
    ) -> Result<GroupingOutcome, SchemeError> {
        let plan = FormPlan::new(source, cfg).per_row();
        form(&plan, &mut FormContext::new(), rng)
    }

    fn noiseless(cfg: SchemeConfig) -> SchemeConfig {
        cfg.probe(ProbeConfig::noiseless())
    }

    #[test]
    fn sl_forms_k_disjoint_covering_groups() {
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2));
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        assert_eq!(outcome.groups().len(), 3);
        let mut all: Vec<usize> = outcome
            .groups()
            .iter()
            .flatten()
            .map(|c| c.index())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        // assignments agree with groups.
        for (g, members) in outcome.groups().iter().enumerate() {
            for &c in members {
                assert_eq!(outcome.group_of(c), g);
            }
        }
    }

    #[test]
    fn sl_recovers_figure1_natural_pairs() {
        // The Figure 1 network has three obvious 4ms pairs
        // ({Ec0,Ec1}, {Ec2,Ec3}, {Ec4,Ec5}) — the grouping the paper's
        // Figure 2 walkthrough produces. K-means is seed-dependent, but
        // a majority of seeds should land exactly there.
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2));
        let seeds = 30;
        let mut exact = 0;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = form_on(&net, &cfg, &mut rng).unwrap();
            let mut sorted: Vec<Vec<usize>> = outcome
                .groups()
                .iter()
                .map(|g| g.iter().map(|c| c.index()).collect())
                .collect();
            sorted.sort();
            if sorted == vec![vec![0, 1], vec![2, 3], vec![4, 5]] {
                exact += 1;
                // When the pairs are found, the mean pairwise cost within
                // each group is exactly the 4ms pair RTT.
                let cost = outcome.average_interaction_cost(|a, b| net.cache_to_cache(a, b));
                assert!((cost - 4.0).abs() < 1e-9, "GIC {cost}");
            }
        }
        assert!(
            exact * 2 > seeds,
            "pairs found on only {exact}/{seeds} seeds"
        );
    }

    #[test]
    fn server_distances_match_ground_truth_when_noiseless() {
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2));
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        for (i, &d) in outcome.server_distances_ms().iter().enumerate() {
            assert_eq!(d, net.cache_to_origin(CacheId(i)));
        }
    }

    /// A 12-cache network in four 3-cache sites at increasing distance
    /// from the origin (10, 40, 70, 100 ms). Intra-site RTT is 2 ms.
    fn gradient_network() -> EdgeNetwork {
        let site_dist = [10.0, 40.0, 70.0, 100.0];
        let m = RttMatrix::from_fn(13, |i, j| {
            if i == 0 || j == 0 {
                // Origin to cache: the cache's site distance.
                let c = i.max(j) - 1;
                site_dist[c / 3]
            } else {
                let (a, b) = (i - 1, j - 1);
                if a / 3 == b / 3 {
                    2.0
                } else {
                    // Inter-site: through the origin's vicinity.
                    site_dist[a / 3] + site_dist[b / 3]
                }
            }
        });
        EdgeNetwork::from_rtt_matrix(m)
    }

    #[test]
    fn sdsl_places_smaller_groups_near_origin() {
        let net = gradient_network();
        let cfg = noiseless(SchemeConfig::sdsl(6, 3.0).landmarks(5).plset_multiplier(2));
        // Average, over seeds, the size of the group containing the
        // nearest cache vs. the one containing the farthest cache.
        let (mut near_sum, mut far_sum) = (0.0, 0.0);
        let seeds = 40;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = form_on(&net, &cfg, &mut rng).unwrap();
            let near_group = outcome.group_of(CacheId(0));
            let far_group = outcome.group_of(CacheId(11));
            near_sum += outcome.groups()[near_group].len() as f64;
            far_sum += outcome.groups()[far_group].len() as f64;
        }
        let (near, far) = (near_sum / seeds as f64, far_sum / seeds as f64);
        assert!(
            near < far,
            "near-origin mean group size {near} vs far {far}"
        );
    }

    #[test]
    fn sdsl_theta_zero_behaves_like_sl_distribution() {
        // θ = 0 gives uniform weights: same initializer family as SL.
        let net = gradient_network();
        let sl = noiseless(SchemeConfig::sl(4).landmarks(5).plset_multiplier(2));
        let sdsl0 = noiseless(SchemeConfig::sdsl(4, 0.0).landmarks(5).plset_multiplier(2));
        // Not bit-identical (different RNG consumption), but the average
        // interaction costs over seeds should be statistically close.
        let avg = |cfg: &SchemeConfig| -> f64 {
            (0..30)
                .map(|seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    form_on(&net, cfg, &mut rng)
                        .unwrap()
                        .average_interaction_cost(|a, b| net.cache_to_cache(a, b))
                })
                .sum::<f64>()
                / 30.0
        };
        let (a, b) = (avg(&sl), avg(&sdsl0));
        assert!((a - b).abs() / a.max(b) < 0.35, "sl {a} vs sdsl(0) {b}");
    }

    #[test]
    fn gnp_representation_also_forms_valid_groups() {
        let net = figure1_network();
        let cfg = noiseless(
            SchemeConfig::sl(3)
                .landmarks(3)
                .plset_multiplier(2)
                .representation(Representation::Gnp(
                    ecg_coords::GnpConfig::default().dimensions(2).restarts(2),
                )),
        );
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        assert_eq!(outcome.groups().len(), 3);
        let total: usize = outcome.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn vivaldi_representation_also_forms_valid_groups() {
        let net = figure1_network();
        let cfg = noiseless(
            SchemeConfig::sl(3)
                .landmarks(3)
                .plset_multiplier(2)
                .representation(Representation::Vivaldi(
                    ecg_coords::VivaldiConfig::default()
                        .dimensions(2)
                        .rounds(150),
                )),
        );
        let mut rng = StdRng::seed_from_u64(12);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        assert_eq!(outcome.groups().len(), 3);
        let total: usize = outcome.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        // Points are the 2-D Vivaldi coordinates.
        assert_eq!(outcome.points().dim(), 2);
        assert_eq!(outcome.points().len(), 6);
    }

    #[test]
    fn too_many_groups_is_an_error() {
        let net = figure1_network();
        let cfg = SchemeConfig::sl(10).landmarks(3);
        let mut rng = StdRng::seed_from_u64(0);
        let err = form_on(&net, &cfg, &mut rng).unwrap_err();
        assert_eq!(
            err,
            SchemeError::TooManyGroups {
                groups: 10,
                caches: 6
            }
        );
        assert!(err.to_string().contains("10 groups"));
    }

    #[test]
    fn zero_groups_are_an_error_before_any_probe() {
        let net = figure1_network();
        for cfg in [SchemeConfig::sl(0), SchemeConfig::sdsl(0, 1.5)] {
            let err = form_on(&net, &cfg.landmarks(3), &mut StdRng::seed_from_u64(0)).unwrap_err();
            assert_eq!(err, SchemeError::NoGroups);
            assert!(err.to_string().contains("zero groups"), "{err}");
        }
        let mut obs = Obs::new();
        let cfg = SchemeConfig::sl(0);
        let mut ctx = FormContext::new().observe(Some(&mut obs));
        form(
            &FormPlan::new(net.rtt_matrix(), &cfg),
            &mut ctx,
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap_err();
        assert_eq!(obs.metrics.counter("probe.sent"), 0);
        assert!(obs.trace.is_empty());
    }

    #[test]
    fn scaled_pipeline_rejects_zero_groups() {
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(11, 1);
        for cfg in [SchemeConfig::sl(0), SchemeConfig::sdsl(0, 1.5)] {
            let err =
                form_per_row(&net, &cfg.landmarks(4), &mut StdRng::seed_from_u64(0)).unwrap_err();
            assert_eq!(err, SchemeError::NoGroups);
        }
    }

    #[test]
    fn a_loose_cap_clusters_the_observed_cells_like_the_uncapped_run() {
        // Black-holed probe paths leave masked cells whose placeholder
        // is 0 ms. A cap of N never binds, so the capped formation must
        // measure the observed cells only, exactly like the uncapped
        // (masked) one — not read a placeholder as a 0 ms measurement.
        use crate::health::ResilienceConfig;
        let net = figure1_network();
        let base = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2))
            .resilience(ResilienceConfig::default());
        let faults = ecg_coords::ProbeFaults::new()
            .blackhole(1, 5)
            .blackhole(2, 6)
            .blackhole(3, 1)
            .blackhole(4, 6)
            .blackhole(6, 3);
        let form = |cfg: SchemeConfig, seed: u64| {
            form_faulted(&net, &cfg, &faults, &mut StdRng::seed_from_u64(seed)).unwrap()
        };
        let mut masked_runs = 0;
        for seed in 0..20u64 {
            let uncapped = form(base.clone(), seed);
            let capped = form(base.clone().max_group_size(6), seed);
            let health = uncapped.health().expect("resilient run");
            masked_runs += usize::from(health.masked_cells > 0);
            assert_eq!(capped.groups(), uncapped.groups(), "seed {seed}");
            assert_eq!(capped.centers(), uncapped.centers(), "seed {seed}");
            assert_eq!(capped.kmeans_iterations(), uncapped.kmeans_iterations());
        }
        assert!(masked_runs > 0, "no run had a masked cell");
    }

    #[test]
    fn landmark_count_is_capped_at_network_size() {
        // L = 25 default exceeds 6 caches + origin: capped, not an error.
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(2));
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        assert_eq!(outcome.landmarks().landmarks.len(), 7);
    }

    #[test]
    fn probe_accounting_is_exposed() {
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(2).landmarks(3).plset_multiplier(2));
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = form_on(&net, &cfg, &mut rng).unwrap();
        // Selection probes + 6 caches × 3 landmarks feature probes.
        assert!(outcome.probes_sent() >= 18);
    }

    #[test]
    fn group_size_cap_is_enforced() {
        let net = figure1_network();
        let cfg = noiseless(
            SchemeConfig::sl(3)
                .landmarks(3)
                .plset_multiplier(2)
                .max_group_size(2),
        );
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = form_on(&net, &cfg, &mut rng).unwrap();
            let sizes: Vec<usize> = outcome.groups().iter().map(Vec::len).collect();
            assert!(sizes.iter().all(|&s| s == 2), "seed {seed}: {sizes:?}");
        }
    }

    #[test]
    fn impossible_cap_is_an_error() {
        let net = figure1_network();
        let cfg = noiseless(
            SchemeConfig::sl(2)
                .landmarks(3)
                .plset_multiplier(2)
                .max_group_size(2),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let err = form_on(&net, &cfg, &mut rng).unwrap_err();
        assert_eq!(
            err,
            SchemeError::CapTooTight {
                groups: 2,
                max_group_size: 2,
                caches: 6
            }
        );
        assert!(err.to_string().contains("capped at 2"));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn sdsl_rejects_bad_theta() {
        let _ = SchemeConfig::sdsl(3, f64::NAN);
    }

    #[test]
    fn resilient_pipeline_is_bit_identical_on_healthy_network() {
        use crate::health::ResilienceConfig;
        let net = figure1_network();
        let base = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2));
        let plain = base.clone();
        let resilient = base.resilience(ResilienceConfig::default());
        for seed in 0..25u64 {
            let a = form_on(&net, &plain, &mut StdRng::seed_from_u64(seed)).unwrap();
            let b = form_on(&net, &resilient, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(a.groups(), b.groups(), "seed {seed}");
            assert_eq!(a.assignments(), b.assignments());
            assert_eq!(a.landmarks(), b.landmarks());
            assert_eq!(a.probes_sent(), b.probes_sent());
            assert_eq!(a.server_distances_ms(), b.server_distances_ms());
            assert_eq!(a.points().as_flat(), b.points().as_flat());
            assert!(a.health().is_none());
            let health = b.health().expect("resilient run reports health");
            assert!(health.is_healthy(), "seed {seed}: {health}");
            assert_eq!(health.probe_retries, 0);
        }
    }

    #[test]
    fn faulted_run_without_resilience_reports_no_health() {
        // The baseline the resilience ablation measures against: faults
        // poison the measurements, but the pipeline neither panics nor
        // reports anything.
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2));
        let faults = ecg_coords::ProbeFaults::new().node_down(3);
        let outcome = form_faulted(&net, &cfg, &faults, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(outcome.health().is_none());
        assert_eq!(outcome.groups().len(), 3);
    }

    #[test]
    fn resilient_pipeline_quarantines_a_crashed_cache() {
        use crate::health::ResilienceConfig;
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2))
            .resilience(ResilienceConfig::default());
        // Node 3 = Ec2 crashes: every probe to it dies, so its feature
        // row has zero observed cells and it must be quarantined (and,
        // if it was drawn into the PLSet, failed over).
        let faults = ecg_coords::ProbeFaults::new().node_down(3);
        for seed in 0..10u64 {
            let outcome =
                form_faulted(&net, &cfg, &faults, &mut StdRng::seed_from_u64(seed)).unwrap();
            let health = outcome.health().expect("health report");
            assert!(health.is_degraded(), "seed {seed}");
            assert_eq!(health.quarantined, vec![CacheId(2)], "seed {seed}");
            assert!(health.masked_cells >= outcome.landmarks().landmarks.len());
            assert!(!outcome.landmarks().landmarks.contains(&3), "dead landmark");
            // Still a partition of all six caches into three groups.
            let mut all: Vec<usize> = outcome
                .groups()
                .iter()
                .flatten()
                .map(|c| c.index())
                .collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn resilient_pipeline_retries_through_loss() {
        use crate::health::ResilienceConfig;
        let net = figure1_network();
        let cfg = SchemeConfig::sl(3)
            .landmarks(3)
            .plset_multiplier(2)
            .probe(ProbeConfig::noiseless().loss_rate(0.45))
            .resilience(ResilienceConfig::default());
        let mut retried = 0u64;
        for seed in 0..20u64 {
            let outcome = form_on(&net, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            let health = outcome.health().expect("health report");
            retried += health.probe_retries;
            assert!(health.backoff_ms >= health.probe_retries * 50);
        }
        assert!(retried > 0, "45% loss never triggered a retry");
    }

    #[test]
    fn scaled_pipeline_forms_valid_groups_with_timings() {
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(301, 9);
        let cfg = noiseless(SchemeConfig::sl(10).landmarks(8).plset_multiplier(4));
        let plan = FormPlan::new(&net, &cfg).per_row();
        let mut ctx = FormContext::new();
        let outcome = &form(&plan, &mut ctx, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(outcome.groups().len(), 10);
        let mut all: Vec<usize> = outcome
            .groups()
            .iter()
            .flatten()
            .map(|c| c.index())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<_>>());
        assert!(outcome.groups().iter().all(|g| !g.is_empty()));
        assert!(outcome.health().is_none());
        // Feature dim == landmark count; component 0 is the measured
        // (noiseless: exact) server distance.
        assert_eq!(outcome.points().dim(), 8);
        for (i, &d) in outcome.server_distances_ms().iter().enumerate() {
            assert_eq!(d, net.rtt_ms(i + 1, 0));
        }
        let t = ctx.stats();
        assert!(t.landmarks_ms >= 0.0 && t.features_ms >= 0.0 && t.clustering_ms >= 0.0);
        assert!(t.total_ms >= t.clustering_ms);
    }

    #[test]
    fn stats_are_zero_before_a_run_and_populated_after() {
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(2_001, 4);
        let cfg = SchemeConfig::sl(100).landmarks(8);
        for plan in [
            FormPlan::new(&net, &cfg),
            FormPlan::new(&net, &cfg).per_row(),
        ] {
            let mut ctx = FormContext::new();
            assert_eq!(ctx.stats(), FormStats::default());
            form(&plan, &mut ctx, &mut StdRng::seed_from_u64(1)).unwrap();
            let t = ctx.stats();
            for stage in [t.landmarks_ms, t.features_ms, t.clustering_ms] {
                assert!(stage > 0.0, "{t:?}");
            }
            // k = 100 takes the KD-tree, so the clustering stage rebuilt it.
            assert!(
                t.tree_build_ms > 0.0 && t.tree_build_ms <= t.clustering_ms,
                "{t:?}"
            );
            assert!(t.total_ms >= t.landmarks_ms + t.features_ms + t.clustering_ms);
            // A failed run leaves none of the last run's times behind.
            let zero = SchemeConfig::sl(0);
            form(
                &FormPlan::new(&net, &zero),
                &mut ctx,
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap_err();
            assert_eq!(ctx.stats(), FormStats::default());
        }
    }

    #[test]
    fn a_per_row_plan_records_nothing_into_a_bundle() {
        let net = figure1_network();
        let cfg = SchemeConfig::sdsl(3, 1.0).landmarks(3).plset_multiplier(2);
        let plan = FormPlan::new(net.rtt_matrix(), &cfg).per_row();
        let mut obs = Obs::new();
        let mut ctx = FormContext::new().observe(Some(&mut obs));
        let observed = form(&plan, &mut ctx, &mut StdRng::seed_from_u64(6)).unwrap();
        assert_eq!(obs.to_json(), Obs::new().to_json());
        let plain = form(
            &plan,
            &mut FormContext::new(),
            &mut StdRng::seed_from_u64(6),
        );
        assert_eq!(plain.unwrap(), observed);
    }

    #[test]
    fn scaled_pipeline_is_thread_count_invariant_for_both_variants() {
        use ecg_clustering::{KmeansVariant, MiniBatchConfig};
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(401, 77);
        for variant in [
            KmeansVariant::Lloyd,
            KmeansVariant::MiniBatch(MiniBatchConfig::default().batch_size(128).iterations(15)),
        ] {
            let cfg = SchemeConfig::sdsl(8, 1.0)
                .landmarks(6)
                .plset_multiplier(4)
                .kmeans_variant(variant);
            let run_at = |threads: usize| {
                ecg_par::set_max_threads(Some(threads));
                let formed = form_per_row(&net, &cfg, &mut StdRng::seed_from_u64(21)).unwrap();
                ecg_par::set_max_threads(None);
                formed
            };
            let at1 = run_at(1);
            let at4 = run_at(4);
            assert_eq!(at1.assignments(), at4.assignments(), "{variant:?}");
            assert_eq!(
                at1.centers().as_flat(),
                at4.centers().as_flat(),
                "{variant:?}"
            );
            assert_eq!(at1.landmarks(), at4.landmarks(), "{variant:?}");
            assert_eq!(
                at1.points().as_flat(),
                at4.points().as_flat(),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn scaled_pipeline_rejects_too_many_groups() {
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(11, 1);
        let cfg = SchemeConfig::sl(50).landmarks(4);
        let err = form_per_row(&net, &cfg, &mut StdRng::seed_from_u64(0)).unwrap_err();
        assert_eq!(
            err,
            SchemeError::TooManyGroups {
                groups: 50,
                caches: 10
            }
        );
    }

    #[test]
    fn zero_node_source_is_a_typed_error() {
        // `RttMatrix::zeros(0)` has not even an origin; `node_count() - 1`
        // used to overflow on it (debug) or wrap into a misleading
        // `TooFewLandmarks { requested: 0 }` (release).
        let cfg = SchemeConfig::sl(1);
        let err =
            form_per_row(&RttMatrix::zeros(0), &cfg, &mut StdRng::seed_from_u64(0)).unwrap_err();
        assert_eq!(err, SchemeError::Landmarks(LandmarkError::NoOrigin));
        assert!(err.to_string().contains("no origin"), "{err}");
    }

    #[test]
    fn scaled_pipeline_honours_the_representation() {
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(41, 5);
        let cfg = SchemeConfig::sdsl(4, 1.0)
            .landmarks(5)
            .plset_multiplier(2)
            .representation(Representation::Gnp(
                ecg_coords::GnpConfig::default().dimensions(2).restarts(1),
            ));
        let run_at = |threads: usize| {
            ecg_par::set_max_threads(Some(threads));
            let formed = form_per_row(&net, &cfg, &mut StdRng::seed_from_u64(2));
            ecg_par::set_max_threads(None);
            formed.unwrap()
        };
        let at1 = run_at(1);
        assert_eq!(
            at1.points().dim(),
            2,
            "GNP coordinates, not feature vectors"
        );
        assert_eq!(at1.server_distances_ms().len(), 40);
        assert_eq!(run_at(4), at1);
    }

    #[test]
    fn observed_form_groups_matches_plain_and_records_pipeline() {
        let net = figure1_network();
        let cfg = noiseless(SchemeConfig::sdsl(3, 1.0).landmarks(3).plset_multiplier(2));
        let plain = form_on(&net, &cfg, &mut StdRng::seed_from_u64(11)).unwrap();
        let mut obs = Obs::new();
        let observed = form(
            &FormPlan::new(net.rtt_matrix(), &cfg),
            &mut FormContext::new().observe(Some(&mut obs)),
            &mut StdRng::seed_from_u64(11),
        )
        .unwrap();

        // Instrumentation must not perturb the pipeline.
        assert_eq!(plain.assignments(), observed.assignments());
        assert_eq!(plain.probes_sent(), observed.probes_sent());
        assert_eq!(plain.kmeans_iterations(), observed.kmeans_iterations());

        assert_eq!(obs.metrics.counter("scheme.runs"), 1);
        assert_eq!(
            obs.metrics.counter("scheme.probes_sent"),
            observed.probes_sent()
        );
        assert_eq!(obs.metrics.counter("kmeans.runs"), 1);
        assert_eq!(
            obs.metrics.counter("kmeans.iterations"),
            observed.kmeans_iterations() as u64
        );

        // The landmark + position spans together account for every probe
        // the coordinator sent (clustering sends none).
        let roots = obs.phases.roots();
        let names: Vec<&str> = roots.iter().map(|n| n.name()).collect();
        for phase in ["scheme.landmarks", "scheme.positions", "scheme.clustering"] {
            assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
        }
        let probe_work: f64 = roots
            .iter()
            .filter(|n| matches!(n.name(), "scheme.landmarks" | "scheme.positions"))
            .map(|n| n.work())
            .sum();
        assert_eq!(probe_work, observed.probes_sent() as f64);

        let last = obs.trace.events().last().expect("trace has events");
        assert_eq!((last.component, last.kind), ("scheme", "formed"));
    }
}
