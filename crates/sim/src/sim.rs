//! The event loop, its configuration and its report.
//!
//! Replays a merged workload trace against a cooperative edge cache
//! network and records the paper's client-side metric (average cache
//! latency) plus hit-rate and traffic breakdowns. [`crate::simulate`]
//! hands its inputs to the group-major driver (`crate::driver`), which
//! calls the event loop here — `kernel` — once per group, over that
//! group's caches alone: local cache `i` is the group's `i`-th member.
//! What the loop decides is held to an independent reference simulator,
//! the spec in the crate's integration tests (`tests/spec`), which
//! replays the whole trace in one loop with member-order scans.
//!
//! ## Cooperative miss handling
//!
//! On a local miss (or stale copy), the cache queries **all** its group
//! peers in parallel, ICP-style:
//!
//! * fanning the query out costs per-member processing time
//!   (`peers × peer_query_cost`), so group interaction overhead grows
//!   with group size — the paper's efficiency/effectiveness trade-off;
//! * if some peer holds a fresh copy, the nearest fresh holder's hit
//!   reply carries the document body (the piggyback optimization
//!   cooperative caches use to avoid a second round trip), so
//!   `latency = fanout + rtt(c, p*) + size/bw`;
//! * if no peer holds it, the cache has waited for the *slowest* peer's
//!   negative reply before giving up — this is exactly how group spread
//!   hurts far-flung groups — and then pays the origin fetch:
//!   `latency = fanout + max_p rtt(c, p) + rtt(c, Os) + processing + size/bw`.
//!
//! Requests do not queue (each is served analytically from the latency
//! model); contention effects are out of scope, as in the paper's
//! latency-oriented evaluation.
//!
//! ## What a request costs the simulator
//!
//! The protocol above floods the group; the event loop does not. It
//! answers the same questions from state it keeps current instead of
//! walking the member list:
//!
//! * *who is alive* — a count of the group's down members, adjusted at
//!   fault events, gives the fan-out size and the healthy/degraded
//!   split in O(1);
//! * *who can answer* — the document's holder bits (`HolderIndex`)
//!   ANDed with the requester's peer mask: `words_per_doc` ANDs rule a
//!   group out, and otherwise the alive holders are tried nearest first
//!   — equal-RTT ties going to the lower local id, the earlier position
//!   in the group's member list, as in a member-order scan — one cache
//!   probe each, until one has a servable copy;
//! * *how long the last negative reply takes* — each cache's slowest
//!   alive-peer RTT, memoised and recomputed only after a crash,
//!   recovery or retirement in the group (one epoch bump per fault);
//!   while no member is down it is the maximum of the requester's
//!   contiguous matrix row.
//!
//! Per kernel run, [`dense_layout`] picks how, with the same holder and
//! `sim.holder.*` tallies either way: **sparse** ([`Lookup::Ranked`])
//! ranks the alive holders collected from the set bits; **dense**
//! ([`Lookup::NearestFirst`]) walks the requester's peers, sorted by the
//! key once per run, over caches addressed by document id
//! ([`DocumentCache::with_doc_index`]). Tests force either through the
//! one hidden hook, [`crate::RunContext::force_lookup`]. Multicast
//! invalidation walks the document's holder bits. The run's events are
//! never copied: [`crate::event::GroupWalk`] reads every group's share
//! through a small block of records, merged with the fault list.

use crate::event::{fault_order, Event};
use crate::fault::{FaultError, FaultKind, FaultSchedule};
use crate::groups::GroupMap;
use crate::holders::{HolderIndex, PeerMasks};
use crate::latency::LatencyModel;
use crate::metrics::{DegradationMetrics, MetricsRecorder, ServedBy};
use crate::origin::OriginServer;
use crate::place::{Candidate, PeerHitAction, PlacementKind};
use crate::time::SimTime;
use ecg_cache::{CacheStats, DocumentCache, LookupOutcome, PolicyKind};
use ecg_obs::Obs;
use ecg_topology::{CacheId, EdgeNetwork};
use ecg_workload::{DocId, DocumentCatalog};
use std::fmt;

/// How cached copies learn about origin updates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FreshnessProtocol {
    /// Staleness is detected lazily at access time: every lookup and
    /// peer probe carries the origin's current version and an older
    /// copy counts as a miss. The default, and the model the headline
    /// experiments use.
    #[default]
    InvalidateOnAccess,
    /// The origin pushes an invalidation to every cache holding the
    /// document the moment it updates (idealized multicast: instant,
    /// reliable). Clients never see stale data; each invalidation is a
    /// control message.
    OriginMulticast,
    /// TTL leases: a cached copy is served for `ttl_ms` after it was
    /// fetched *regardless* of origin updates. Cheapest in messages,
    /// but clients may be served stale versions — counted in
    /// [`MetricsRecorder::stale_served`].
    TtlLease {
        /// Lease duration in milliseconds.
        ttl_ms: f64,
    },
}

/// How a kernel run's cooperative misses find a peer copy: the value of
/// the hidden [`crate::RunContext::force_lookup`] hook. Both lookups
/// produce the same report and the same `sim.holder.*` counters.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Rank the alive holders the document's holder bits name: the
    /// sparse layout.
    Ranked,
    /// Walk the requester's peers nearest first over caches addressed
    /// by document id: the dense layout.
    NearestFirst,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    cache_capacity_bytes: u64,
    policy: PolicyKind,
    warmup_ms: f64,
    freshness: FreshnessProtocol,
    placement: PlacementKind,
}

impl Default for SimConfig {
    /// 1 MiB per cache, utility-based replacement (the paper's setting),
    /// no warm-up exclusion.
    fn default() -> Self {
        SimConfig {
            cache_capacity_bytes: 1 << 20,
            policy: PolicyKind::Utility,
            warmup_ms: 0.0,
            freshness: FreshnessProtocol::InvalidateOnAccess,
            placement: PlacementKind::SingleHolder,
        }
    }
}

impl SimConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-cache capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn cache_capacity_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "capacity must be positive");
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Sets the replacement policy used by every cache.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Excludes the first `ms` of the trace from the metrics (caches
    /// still warm up during it).
    pub fn warmup_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "warmup must be >= 0");
        self.warmup_ms = ms;
        self
    }

    /// Sets the freshness protocol.
    ///
    /// # Panics
    ///
    /// Panics if a TTL lease is configured with a non-positive TTL.
    pub fn freshness(mut self, protocol: FreshnessProtocol) -> Self {
        if let FreshnessProtocol::TtlLease { ttl_ms } = protocol {
            assert!(
                ttl_ms.is_finite() && ttl_ms > 0.0,
                "lease ttl must be positive"
            );
        }
        self.freshness = protocol;
        self
    }

    /// Sets the in-group placement/replication policy (see
    /// [`crate::place`]). The default [`PlacementKind::SingleHolder`] is
    /// short-circuited entirely, so baseline runs are bit-identical to
    /// builds that predate placement support.
    pub fn placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }
}

/// Error from [`crate::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The group map covers a different number of caches than the
    /// network.
    CacheCountMismatch {
        /// Caches in the network.
        network: usize,
        /// Caches in the group map.
        groups: usize,
    },
    /// A trace request targets a cache outside the network.
    RequestCacheOutOfRange {
        /// The offending cache index.
        cache: usize,
    },
    /// A trace event references a document outside the catalog.
    DocOutOfRange {
        /// The offending document index.
        doc: usize,
    },
    /// A trace event's `time_ms` is negative, NaN, or infinite.
    EventTimeInvalid {
        /// Position of the offending event in the trace.
        index: usize,
    },
    /// A trace event's `time_ms` lies at or past the run horizon: 2¹⁸
    /// degradation-timeline buckets of 10 s, about 30 simulated days.
    /// The timeline is dense from time zero at 88 bytes a bucket, so the
    /// horizon is what bounds the memory a single far-future timestamp
    /// can make a run allocate (22 MiB per timeline at the very most).
    /// Fault times past the horizon are [`FaultError::BadTime`].
    EventTimeBeyondHorizon {
        /// Position of the offending event in the trace.
        index: usize,
    },
    /// The fault schedule failed validation.
    Fault(FaultError),
    /// A workload that generates its requests from the document catalog
    /// (a streamed replay) was given a catalog with no documents, so
    /// there is nothing to request.
    EmptyCatalog,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CacheCountMismatch { network, groups } => write!(
                f,
                "group map covers {groups} caches but the network has {network}"
            ),
            SimError::RequestCacheOutOfRange { cache } => {
                write!(f, "trace request targets unknown cache {cache}")
            }
            SimError::DocOutOfRange { doc } => {
                write!(f, "trace references unknown document {doc}")
            }
            SimError::EventTimeInvalid { index } => write!(
                f,
                "trace event {index} has a time that is not a finite non-negative ms value"
            ),
            SimError::EventTimeBeyondHorizon { index } => write!(
                f,
                "trace event {index} lies past the run horizon of 2^18 timeline buckets"
            ),
            SimError::Fault(e) => write!(f, "invalid fault schedule: {e}"),
            SimError::EmptyCatalog => {
                write!(
                    f,
                    "generated workload needs a catalog with at least one document"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-request metrics (latencies, outcome breakdowns).
    pub metrics: MetricsRecorder,
    /// Aggregated cache statistics across all edge caches.
    pub cache_stats: CacheStats,
    /// Updates the origin applied.
    pub origin_updates: u64,
    /// Fetches the origin served.
    pub origin_fetches: u64,
}

impl SimReport {
    /// Network-wide average cache latency in ms — the paper's headline
    /// client metric. Zero if the run recorded no requests.
    pub fn average_latency_ms(&self) -> f64 {
        self.metrics.mean_latency_ms().unwrap_or(0.0)
    }
}

impl fmt::Display for SimReport {
    /// A compact multi-line human summary (used by the `ecg` CLI).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requests          {}", self.metrics.total_requests())?;
        writeln!(f, "avg latency       {:.2} ms", self.average_latency_ms())?;
        for (label, p) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            if let Some(v) = self.metrics.latency_percentile_ms(p) {
                writeln!(f, "{label} latency       {v:.2} ms")?;
            }
        }
        writeln!(
            f,
            "group hit rate    {:.1}%",
            100.0 * self.metrics.group_hit_rate().unwrap_or(0.0)
        )?;
        writeln!(f, "origin fetches    {}", self.origin_fetches)?;
        writeln!(f, "origin updates    {}", self.origin_updates)?;
        writeln!(f, "stale served      {}", self.metrics.stale_served)?;
        writeln!(f, "peer bytes        {}", self.metrics.peer_bytes)?;
        write!(f, "control messages  {}", self.metrics.control_messages)?;
        if self.metrics.saw_placement() {
            write!(
                f,
                "\nreplicas          {} created, {} suppressed",
                self.metrics.replicas_created, self.metrics.replicas_suppressed
            )?;
            write!(f, "\nremote placements {}", self.metrics.remote_placements)?;
        }
        let deg = &self.metrics.degradation;
        if deg.saw_faults() {
            write!(
                f,
                "\nfaults            {} crashes, {} recoveries, {} retirements",
                deg.crashes, deg.recoveries, deg.retirements
            )?;
            write!(f, "\nfailovers         {}", deg.failovers)?;
            write!(
                f,
                "\ndegraded reqs     {} ({:.1}%)",
                deg.degraded.requests,
                100.0 * deg.degraded_fraction().unwrap_or(0.0)
            )?;
            if let Some(penalty) = deg.degradation_penalty_ms() {
                write!(f, "\ndegraded penalty  {penalty:.2} ms")?;
            }
        }
        Ok(())
    }
}

/// The checks every run makes before it reads the trace: the map covers
/// the network, the schedule is valid.
pub(crate) fn check_inputs(
    cache_count: usize,
    groups: &GroupMap,
    schedule: &FaultSchedule,
) -> Result<(), SimError> {
    if groups.cache_count() != cache_count {
        return Err(SimError::CacheCountMismatch {
            network: cache_count,
            groups: groups.cache_count(),
        });
    }
    Ok(schedule.validate(cache_count)?)
}

/// What one kernel run hands the driver: its report plus the
/// observability tallies the driver flushes once per run.
#[derive(Debug)]
pub(crate) struct GroupOutcome {
    pub(crate) report: SimReport,
    pub(crate) tallies: Tallies,
}

impl GroupOutcome {
    /// Ends a simulation whose every kernel run `self` covers, in run
    /// order: flushes the telemetry of the run — `config` over a trace
    /// of `trace_len` events under `schedule` — into `obs` when one is
    /// supplied, and yields the report.
    pub(crate) fn finish(
        self,
        obs: Option<&mut Obs>,
        config: SimConfig,
        schedule: &FaultSchedule,
        trace_len: usize,
    ) -> SimReport {
        if let Some(o) = obs {
            let placement = !config.placement.is_single_holder();
            self.tallies
                .flush(o, &self.report.metrics, schedule, trace_len, placement);
        }
        self.report
    }
}

/// Integer bumps the kernel keeps unconditionally — cheap enough not to
/// depend on an [`Obs`] being present — summed over the runs of one
/// simulation and flushed by [`Tallies::flush`].
#[derive(Debug, Default)]
pub(crate) struct Tallies {
    /// Per group, in run order (one row per kernel run): requests served
    /// locally, by a peer, by the origin — warm-up included.
    group_outcomes: Vec<[u64; 3]>,
    failovers: u64,
    /// `sim.holder.{group_checks, ruled_out, bit_tests}`.
    holder: [u64; 3],
    place_decisions: u64,
    /// `place.replica_count`: entry `h` counts the placement decisions
    /// that saw `h` holders among their candidates (empty without an
    /// active placement policy). The flushed histogram bins counts, so
    /// it does not depend on the order decisions were made in.
    replica_counts: Vec<u64>,
    /// Timestamp of the last processed event, ms.
    last_event_ms: f64,
    /// Trace events fed to the kernel (faults excluded).
    pub(crate) trace_events: u64,
    /// Kernel runs that took the dense layout (never flushed).
    pub(crate) dense_runs: usize,
}

impl Tallies {
    /// Appends a later run's tallies: group rows in run order, counters
    /// summed, the later of the two last-event times.
    pub(crate) fn absorb(&mut self, other: Tallies) {
        self.group_outcomes.extend(other.group_outcomes);
        self.failovers += other.failovers;
        for (mine, theirs) in self.holder.iter_mut().zip(other.holder) {
            *mine += theirs;
        }
        self.place_decisions += other.place_decisions;
        if self.replica_counts.len() < other.replica_counts.len() {
            self.replica_counts.resize(other.replica_counts.len(), 0);
        }
        for (mine, theirs) in self.replica_counts.iter_mut().zip(other.replica_counts) {
            *mine += theirs;
        }
        self.last_event_ms = self.last_event_ms.max(other.last_event_ms);
        self.trace_events += other.trace_events;
        self.dense_runs += other.dense_runs;
    }

    /// Writes one simulation's telemetry into `o` — the document
    /// [`crate::simulate`] describes. `self` covers every kernel run in
    /// run order and `metrics` is the merged recorder, so the bytes do
    /// not depend on how many kernel runs produced them or where;
    /// the fault events come from the global `schedule` in firing
    /// order, once, whichever groups replayed them.
    fn flush(
        &self,
        o: &mut Obs,
        metrics: &MetricsRecorder,
        schedule: &FaultSchedule,
        trace_len: usize,
        placement: bool,
    ) {
        for (at, idx) in fault_order(schedule) {
            let (kind, field) = match schedule.events()[idx].kind {
                FaultKind::CacheDown { cache } => ("cache_down", ("cache", cache.index().into())),
                FaultKind::CacheUp { cache } => ("cache_up", ("cache", cache.index().into())),
                FaultKind::CacheRetire { cache } => {
                    ("cache_retire", ("cache", cache.index().into()))
                }
            };
            o.metrics.inc("sim.fault_events");
            o.trace.push(at.as_ms(), "sim", kind, vec![field]);
        }
        let mut totals = [0u64; 3];
        for (g, counts) in self.group_outcomes.iter().enumerate() {
            for (slot, name) in ["local_hits", "peer_hits", "coop_misses"]
                .iter()
                .enumerate()
            {
                o.metrics
                    .add(&format!("sim.group.{g:03}.{name}"), counts[slot]);
                totals[slot] += counts[slot];
            }
        }
        o.metrics.add("sim.local_hits", totals[0]);
        o.metrics.add("sim.peer_hits", totals[1]);
        o.metrics.add("sim.coop_misses", totals[2]);
        o.metrics.add("sim.failovers", self.failovers);
        o.metrics
            .add("sim.control_messages", metrics.control_messages);
        o.metrics.add("sim.stale_served", metrics.stale_served);
        o.metrics.add("sim.holder.group_checks", self.holder[0]);
        o.metrics.add("sim.holder.ruled_out", self.holder[1]);
        o.metrics.add("sim.holder.bit_tests", self.holder[2]);
        // Events are only consumed, so the pending-event high-water
        // mark is the run's event count.
        o.metrics
            .max_gauge("sim.queue.max_depth", (trace_len + schedule.len()) as f64);
        o.metrics
            .merge_histogram("sim.latency_ms", metrics.latency_histogram());
        if placement {
            o.metrics.add("place.decisions", self.place_decisions);
            o.metrics
                .add("place.replicas_created", metrics.replicas_created);
            o.metrics
                .add("place.replicas_suppressed", metrics.replicas_suppressed);
            o.metrics
                .add("place.remote_placements", metrics.remote_placements);
            for (holders, &decisions) in self.replica_counts.iter().enumerate() {
                for _ in 0..decisions {
                    o.metrics.observe("place.replica_count", holders as f64);
                }
            }
        }
        let mut span = o.phases.span("sim");
        span.add_work(self.last_event_ms);
        if placement {
            let mut place_span = span.child("place");
            place_span.add_work(self.place_decisions as f64);
        }
    }
}

/// The event loop: replays `events` — one group's share of a trace
/// ([`crate::event::GroupWalk`]), `trace_events` of them from the trace —
/// against the group's `n` members, the caches of `network`. Inputs are
/// already validated (a walk only exists for a valid trace, `schedule`
/// passed [`FaultSchedule::validate`]). It writes no telemetry itself:
/// everything observable comes back as [`Tallies`], so a run observes
/// the same whichever thread ran it. `lookup` says how cooperative misses find a copy;
/// the report is the same bits whichever it is.
///
/// Everything the run keeps besides its events comes out of `store`
/// (see [`KernelStore`]), reset to the run's layout first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel(
    network: &EdgeNetwork,
    n: usize,
    catalog: &DocumentCatalog,
    events: impl Iterator<Item = (SimTime, Event)>,
    trace_events: usize,
    config: SimConfig,
    schedule: &FaultSchedule,
    lookup: Lookup,
    store: &mut KernelStore,
) -> GroupOutcome {
    debug_assert_eq!(network.cache_count(), n);
    let dense = lookup == Lookup::NearestFirst;
    let KernelStore {
        caches: pool,
        origin,
        index: idx,
        masks,
        recorder,
    } = store;

    let (capacity, policy) = (config.cache_capacity_bytes, config.policy);
    let layout = dense.then_some(catalog.len());
    if pool.len() < n {
        pool.resize_with(n, || DocumentCache::new(capacity, policy));
    }
    let caches = &mut pool[..n];
    for cache in caches.iter_mut() {
        cache.reset(capacity, policy, layout);
    }
    let origin = origin.get_or_insert_with(|| OriginServer::new(catalog));
    origin.reset(catalog);
    let mut metrics = recorder.take().unwrap_or_else(|| MetricsRecorder::new(0));
    metrics.reset(n);
    // Degradation accumulates apart and is folded into the recorder
    // after the loop, as the driver folds each group's recorder into
    // the run's: every f64 sum is then one group's chain.
    let mut degradation = DegradationMetrics::default();
    let model = LatencyModel;
    let warmup = SimTime::from_ms(config.warmup_ms);

    // Fault state. `live.down[c]` covers both transient crashes and
    // permanent retirements; `retired[c]` keeps a retired cache from
    // recovering.
    // Crashed caches lose their contents immediately; their stats so far
    // are folded into `lost_stats` so the report still covers them.
    let mut live = Liveness::new(n);
    let mut retired = vec![false; n];
    let mut lost_stats = CacheStats::default();

    // Holder index: mirrors cache membership so the cooperative-miss
    // path tests a bit instead of probing every peer's cache map. Kept
    // in sync on insert/evict/invalidate/crash below.
    idx.reset(catalog.len(), n);
    masks.reset(n);
    let peer_order = dense.then(|| PeerOrder::new(network));
    // Eviction scratch reused across every insert in the event loop.
    let mut evicted_scratch: Vec<DocId> = Vec::new();
    // The alive holders of one sparse cooperative lookup, each under its
    // nearest-first key; reused the same way, and sized once for the
    // group's peers rather than grown lookup by lookup.
    let mut holder_scratch: Vec<(HolderKey, CacheId)> = Vec::with_capacity(n.saturating_sub(1));

    // The group's placement policy. `None` for the single-holder
    // baseline: the historical copy flow (replicate on peer hit, cache
    // at the requester on origin fetch) is hard-coded below, so the
    // baseline pays no candidate assembly and stays bit-identical to
    // builds that predate placement support. Placement is an in-group
    // mechanism — candidates only ever span one group — so a policy's
    // state (rate estimators, RNG decision counters) is a pure function
    // of its own group's events (the property group-major runs rely
    // on). With the policy goes the `Tallies::replica_counts` row it
    // feeds: one slot per possible holder count, 0..=n.
    let mut placement = (!config.placement.is_single_holder())
        .then(|| (config.placement.build(catalog.len()), vec![0u64; n + 1]));
    // Candidate scratch reused across every placement decision.
    let mut candidates_scratch: Vec<Candidate> = Vec::new();
    let mut place_decisions = 0u64;

    // Local hits all cost the model's constant, so the latency
    // distribution gets them in one sample of this multiplicity after
    // the loop: its bins only count, whatever the order.
    let mut local_hits_recorded = 0u64;

    // Observability tallies (see `Tallies`).
    let mut group_outcome = [0u64; 3];
    let mut obs_failovers = 0u64;
    let mut holder_group_checks = 0u64;
    let mut holder_ruled_out = 0u64;
    let mut holder_bit_tests = 0u64;
    let mut last_event_ms = 0.0f64;

    let freshness = config.freshness;
    for (now, event) in events {
        last_event_ms = now.as_ms();
        match event {
            Event::Fault { idx: fault } => {
                match schedule.events()[fault].kind {
                    FaultKind::CacheDown { cache } => {
                        let c = cache.index();
                        if !live.down[c] {
                            live.set_down(cache, true);
                            degradation.crashes += 1;
                            lost_stats += caches[c].stats();
                            caches[c].reset(capacity, policy, layout);
                            idx.clear_cache(cache);
                        }
                    }
                    FaultKind::CacheUp { cache } => {
                        let c = cache.index();
                        if live.down[c] && !retired[c] {
                            // Cold restart: contents were purged at the
                            // crash, so the cache rejoins empty.
                            live.set_down(cache, false);
                            degradation.recoveries += 1;
                        }
                    }
                    FaultKind::CacheRetire { cache } => {
                        let c = cache.index();
                        if !retired[c] {
                            retired[c] = true;
                            degradation.retirements += 1;
                            if !live.down[c] {
                                live.set_down(cache, true);
                                lost_stats += caches[c].stats();
                                caches[c].reset(capacity, policy, layout);
                                idx.clear_cache(cache);
                            }
                        }
                    }
                }
            }
            Event::OriginUpdate { doc } => {
                origin.apply_update(doc);
                if freshness == FreshnessProtocol::OriginMulticast {
                    // Idealized push invalidation: drop every copy now;
                    // one control message per holding cache, which the
                    // index names.
                    for holder in idx.holders(doc) {
                        if caches[holder.index()].remove(doc).is_some() {
                            metrics.invalidations_sent += 1;
                        }
                    }
                    idx.clear_doc(doc);
                }
            }
            Event::ClientRequest { cache, doc } => {
                let now_ms = now.as_ms();
                let current_version = origin.version(doc);
                let size = catalog.document(doc).size_bytes;
                let update_rate = catalog.document(doc).update_rate_per_sec;

                // A request is "degraded" when its group is not whole:
                // some member (including the home cache) down or retired.
                let group_degraded = live.down_count > 0;

                if live.down[cache.index()] {
                    // Home cache is dead: the client times out on it and
                    // fails over straight to the origin. Nothing is
                    // cached.
                    let _ = origin.serve_fetch(doc);
                    metrics.origin_bytes += size;
                    let rtt_origin = network.cache_to_origin(cache);
                    let latency = model.failover_penalty() + model.origin_fetch(rtt_origin, size);
                    obs_failovers += 1;
                    if now >= warmup {
                        metrics.record(cache, latency, ServedBy::Origin);
                        degradation.failovers += 1;
                        degradation.record(now_ms, latency, false, false, true);
                    }
                    continue;
                }

                // Local lookup: Some(served version) on a hit. A stale
                // or expired copy is dropped by the lookup itself, so
                // the holder index sheds the bit alongside it.
                let local_hit: Option<u64> = match freshness {
                    FreshnessProtocol::InvalidateOnAccess | FreshnessProtocol::OriginMulticast => {
                        match caches[cache.index()].lookup(doc, current_version, now_ms) {
                            LookupOutcome::Hit => Some(current_version),
                            LookupOutcome::Stale => {
                                idx.clear(doc, cache);
                                None
                            }
                            LookupOutcome::Miss => None,
                        }
                    }
                    FreshnessProtocol::TtlLease { ttl_ms } => {
                        let served = caches[cache.index()].lookup_ttl(doc, now_ms, ttl_ms);
                        if served.is_none() {
                            // Either absent or just dropped as expired;
                            // clearing an unset bit is a no-op.
                            idx.clear(doc, cache);
                        }
                        served
                    }
                };

                if local_hit.is_some() {
                    if let Some((policy, _)) = placement.as_mut() {
                        // Pure popularity signal for the rate estimator.
                        policy.on_local_hit(doc, now_ms);
                    }
                }

                let (latency, served_by, served_version) = match local_hit {
                    Some(v) => (model.local_hit(), ServedBy::Local, v),
                    None => {
                        // Nearest peer holding a servable copy, if any,
                        // and how many peers are alive to be queried.
                        // Down peers never are: the failure detector has
                        // already dropped them from the membership view,
                        // so the group degrades to the survivors. The
                        // requester is alive, so every down member is a
                        // peer.
                        let alive = n - 1 - live.down_count;
                        let mut holder: Option<(CacheId, f64, u64)> = None;
                        holder_group_checks += 1;
                        // Only the servable holder smallest in `(rtt,
                        // id)` is ever used, so probe in that order
                        // and stop at the first servable copy; a stale or
                        // expired one falls through to the next nearest.
                        // Probe and peer-serve bookkeeping are one search
                        // of the holder's cache.
                        let serve = |holder: &mut DocumentCache| {
                            serve_from_peer(holder, freshness, doc, current_version, now_ms)
                        };
                        // Matrix node 0 is the origin; cache `c` is node
                        // `c + 1`.
                        let rtts = &network.rtt_matrix().row(cache.index() + 1)[1..];
                        let mut may_hold = false;
                        match &peer_order {
                            // Dense: the requester's peers are already in
                            // that order.
                            Some(order) => {
                                may_hold = idx.any_among(doc, masks.mask(cache));
                                let words = idx.doc_words(doc);
                                let held = |&p: &usize| words[p / 64] >> (p % 64) & 1 != 0;
                                holder = order
                                    .row(cache)
                                    .take_while(|_| may_hold)
                                    .filter(|p| held(p) && !live.down[*p])
                                    .find_map(|p| {
                                        let v = serve(&mut caches[p])?;
                                        Some((CacheId(p), rtts[p], v))
                                    });
                            }
                            // Sparse: collect the alive holders — the
                            // nearest of all is known by the time they are
                            // collected — and rank.
                            None => {
                                holder_scratch.clear();
                                let mut nearest = (0, FARTHEST);
                                idx.for_each_holder_among(doc, masks.mask(cache), |p| {
                                    may_hold = true;
                                    if !live.down[p.index()] {
                                        let key = holder_key(rtts[p.index()], p.index());
                                        if key < nearest.1 {
                                            nearest = (holder_scratch.len(), key);
                                        }
                                        holder_scratch.push((key, p));
                                    }
                                });
                                while !holder_scratch.is_empty() {
                                    let (_, p) = holder_scratch.swap_remove(nearest.0);
                                    if let Some(v) = serve(&mut caches[p.index()]) {
                                        holder = Some((p, rtts[p.index()], v));
                                        break;
                                    }
                                    nearest = (0, FARTHEST);
                                    for (i, &(key, _)) in holder_scratch.iter().enumerate() {
                                        if key < nearest.1 {
                                            nearest = (i, key);
                                        }
                                    }
                                }
                            }
                        }
                        // The counters keep a member-order scan's meaning:
                        // a lookup that some peer may answer bit-tests
                        // every alive peer.
                        holder_ruled_out += u64::from(!may_hold);
                        if may_hold {
                            holder_bit_tests += alive as u64;
                        }
                        degradation.peer_queries_skipped += live.down_count as u64;
                        // One query out and one reply back per peer; the
                        // fan-out itself costs per-member processing time.
                        metrics.control_messages += 2 * alive as u64;
                        let fanout = model.query_fanout(alive);

                        match holder {
                            Some((peer, rtt, v)) => {
                                metrics.peer_bytes += size;
                                // Hit reply piggybacks the body: fan-out
                                // plus one RTT plus serialization.
                                let latency = fanout + model.transfer(rtt, size);
                                // Single-holder keeps the historical
                                // demand replication unconditionally;
                                // an active policy decides whether the
                                // requester keeps the copy.
                                let mut keep_replica = true;
                                if let Some((policy, replica_counts)) = placement.as_mut() {
                                    build_candidates(
                                        &mut candidates_scratch,
                                        network,
                                        caches,
                                        idx,
                                        &live.down,
                                        cache,
                                        doc,
                                    );
                                    place_decisions += 1;
                                    replica_counts
                                        [candidates_scratch.iter().filter(|c| c.holds).count()] +=
                                        1;
                                    match policy.on_peer_hit(doc, now_ms, &candidates_scratch, peer)
                                    {
                                        PeerHitAction::Replicate => {
                                            metrics.replicas_created += 1;
                                        }
                                        PeerHitAction::ServeRemote => {
                                            keep_replica = false;
                                            metrics.replicas_suppressed += 1;
                                        }
                                    }
                                }
                                if keep_replica {
                                    insert_tracked(
                                        &mut caches[cache.index()],
                                        idx,
                                        &mut evicted_scratch,
                                        cache,
                                        doc,
                                        v,
                                        size,
                                        latency,
                                        update_rate,
                                        now_ms,
                                    );
                                }
                                (latency, ServedBy::Peer, v)
                            }
                            None => {
                                let fetched_version = origin.serve_fetch(doc);
                                metrics.origin_bytes += size;
                                let rtt_origin = network.cache_to_origin(cache);
                                // The requester gave up only once the
                                // slowest alive peer had said no.
                                let slowest_reply = live.slowest_reply(cache, network);
                                let latency =
                                    fanout + slowest_reply + model.origin_fetch(rtt_origin, size);
                                // Single-holder caches at the requester;
                                // an active policy may divert the new
                                // copy to a better-placed member (the
                                // requester still serves the client).
                                let mut target = cache;
                                if let Some((policy, replica_counts)) = placement.as_mut() {
                                    build_candidates(
                                        &mut candidates_scratch,
                                        network,
                                        caches,
                                        idx,
                                        &live.down,
                                        cache,
                                        doc,
                                    );
                                    place_decisions += 1;
                                    replica_counts
                                        [candidates_scratch.iter().filter(|c| c.holds).count()] +=
                                        1;
                                    target =
                                        policy.on_origin_fetch(doc, now_ms, &candidates_scratch);
                                    if target != cache {
                                        // Off-path push of the body to
                                        // the chosen member: cooperation
                                        // traffic plus one transfer
                                        // message (no reply awaited, so
                                        // the client latency is
                                        // unchanged).
                                        metrics.remote_placements += 1;
                                        metrics.peer_bytes += size;
                                        metrics.control_messages += 1;
                                    }
                                }
                                insert_tracked(
                                    &mut caches[target.index()],
                                    idx,
                                    &mut evicted_scratch,
                                    target,
                                    doc,
                                    fetched_version,
                                    size,
                                    latency,
                                    update_rate,
                                    now_ms,
                                );
                                (latency, ServedBy::Origin, fetched_version)
                            }
                        }
                    }
                };
                let outcome_slot = match served_by {
                    ServedBy::Local => 0,
                    ServedBy::Peer => 1,
                    ServedBy::Origin => 2,
                };
                group_outcome[outcome_slot] += 1;
                if now >= warmup {
                    let stale = served_version < current_version;
                    if served_by == ServedBy::Local {
                        metrics.record_unbinned(cache, latency, served_by);
                        local_hits_recorded += 1;
                    } else {
                        metrics.record(cache, latency, served_by);
                    }
                    if stale {
                        metrics.stale_served += 1;
                    }
                    degradation.record(
                        now_ms,
                        latency,
                        served_by != ServedBy::Origin,
                        stale,
                        group_degraded,
                    );
                }
            }
        }
    }

    metrics.bin_latencies(model.local_hit(), local_hits_recorded);

    metrics.degradation.merge_from(&degradation);

    if cfg!(debug_assertions) {
        // The index must mirror cache membership exactly at all times;
        // check the final state in debug builds.
        for (c, cache) in caches.iter().enumerate() {
            for d in 0..catalog.len() {
                // Any cached copy has version >= 0, so this is a pure
                // presence test.
                debug_assert_eq!(
                    idx.holds(DocId(d), CacheId(c)),
                    cache.holds_fresh(DocId(d), 0),
                    "holder index out of sync for doc {d} at cache {c}"
                );
            }
        }
    }

    let cache_stats = caches
        .iter()
        .map(|c| c.stats())
        .fold(lost_stats, |acc, s| acc + s);
    GroupOutcome {
        report: SimReport {
            metrics,
            cache_stats,
            origin_updates: origin.updates_applied(),
            origin_fetches: origin.fetches_served(),
        },
        tallies: Tallies {
            group_outcomes: vec![group_outcome],
            failovers: obs_failovers,
            holder: [holder_group_checks, holder_ruled_out, holder_bit_tests],
            place_decisions,
            replica_counts: placement.map(|(_, counts)| counts).unwrap_or_default(),
            last_event_ms,
            trace_events: trace_events as u64,
            dense_runs: usize::from(dense),
        },
    }
}

/// What a kernel run takes from its caller instead of allocating, so a
/// thread that runs one group after another pays for these buffers once
/// rather than once per group: the caches, the origin's version table,
/// the holder index and peer masks, and the recorder of an earlier run
/// that this thread has folded into the run's result and handed back
/// (a run finding none allocates one). A run takes its `n` caches from the front of the pool (grown to `n` if shorter) and
/// resets every piece to its own layout before the first event —
/// [`DocumentCache::reset`], [`OriginServer::reset`],
/// [`HolderIndex::reset`], [`PeerMasks::reset`],
/// [`MetricsRecorder::reset`] — so nothing it reports depends on what
/// an earlier run left here.
#[derive(Debug, Default)]
pub(crate) struct KernelStore {
    caches: Vec<DocumentCache>,
    origin: Option<OriginServer>,
    index: HolderIndex,
    masks: PeerMasks,
    /// A folded run's recorder, for the next run to reset.
    pub(crate) recorder: Option<MetricsRecorder>,
}

/// The traffic rule: a run of `members` caches fed `requests` requests
/// over `docs` documents is dense iff `requests ≥ members · max(members
/// − 1, ⌈docs / 8⌉)`. The terms pay for the peer orders (`4 · m(m − 1)`
/// bytes) and the document-addressed tables (`4 · m · docs`) out of the
/// run's own requests, at most 36 bytes each (DESIGN.md, Performance).
pub(crate) fn dense_layout(members: usize, requests: usize, docs: usize) -> bool {
    let per_member = members.saturating_sub(1).max(docs.div_ceil(8));
    requests >= members.saturating_mul(per_member)
}

/// Every cache's peers — the group's other members — nearest first by
/// [`holder_key`]: the order a dense run's lookups try them in. Cache
/// `c`'s row is the `n − 1` entries from `c × (n − 1)`.
struct PeerOrder {
    peers: Vec<u32>,
    stride: usize,
}

impl PeerOrder {
    fn new(network: &EdgeNetwork) -> Self {
        let n = network.cache_count();
        let stride = n.saturating_sub(1);
        let mut peers = Vec::with_capacity(n * stride);
        let id = |p: usize| u32::try_from(p).expect("a run has < 2^32 caches");
        for c in 0..n {
            let (rtts, row) = (&network.rtt_matrix().row(c + 1)[1..], peers.len());
            peers.extend((0..n).filter(|&p| p != c).map(id));
            // Keys are distinct (ids are), so the order is total.
            peers[row..].sort_unstable_by_key(|&p| holder_key(rtts[p as usize], p as usize));
        }
        PeerOrder { peers, stride }
    }

    /// `cache`'s peers, nearest first.
    fn row(&self, cache: CacheId) -> impl Iterator<Item = usize> + '_ {
        let row = &self.peers[cache.index() * self.stride..][..self.stride];
        row.iter().map(|&p| p as usize)
    }
}

/// Which of the group's caches are down, and how many, plus what the
/// miss path derives from it. Adjusted only at fault events, so a
/// request reads the group's health without walking the member list.
struct Liveness {
    /// `down[c]`: crashed and not yet recovered, or retired.
    down: Vec<bool>,
    /// Members currently down.
    down_count: usize,
    /// Bumped whenever a member goes down or comes back; starts at 1 so
    /// a zeroed memo stamp means "never computed".
    epoch: u64,
    /// Per cache: the epoch its slowest alive-peer RTT was computed at,
    /// and that RTT.
    slowest_memo: Vec<(u64, f64)>,
}

impl Liveness {
    fn new(caches: usize) -> Self {
        Liveness {
            down: vec![false; caches],
            down_count: 0,
            epoch: 1,
            slowest_memo: vec![(0, 0.0); caches],
        }
    }

    /// Records that `cache` went down or came back. Callers check the
    /// transition is real.
    fn set_down(&mut self, cache: CacheId, down: bool) {
        debug_assert_ne!(self.down[cache.index()], down);
        self.down[cache.index()] = down;
        if down {
            self.down_count += 1;
        } else {
            self.down_count -= 1;
        }
        self.epoch += 1;
    }

    /// The RTT from `cache` to its slowest alive peer (0 with none):
    /// how long a group-wide miss waits for the last negative reply.
    /// Computed only when a fault has changed the group since the last
    /// call for this cache. While the group is whole its replies are the
    /// requester's matrix row itself, read in one contiguous pass of
    /// four independent maxima (a maximum is exact and order-free, so
    /// the value does not depend on the split); otherwise the alive
    /// members' entries are gathered from the row. The requester need
    /// not be skipped: its own RTT is the zero diagonal, and it is
    /// alive.
    fn slowest_reply(&mut self, cache: CacheId, network: &EdgeNetwork) -> f64 {
        let (stamp, memo) = self.slowest_memo[cache.index()];
        if stamp == self.epoch {
            return memo;
        }
        // Matrix node 0 is the origin; cache `c` is node `c + 1`.
        let row = &network.rtt_matrix().row(cache.index() + 1)[1..];
        let slowest = if self.down_count == 0 {
            let mut lanes = [0.0f64; 4];
            let quads = row.chunks_exact(4);
            for &reply in quads.remainder() {
                lanes[0] = later_of(lanes[0], reply);
            }
            for quad in quads {
                for (lane, &reply) in lanes.iter_mut().zip(quad) {
                    *lane = later_of(*lane, reply);
                }
            }
            later_of(later_of(lanes[0], lanes[1]), later_of(lanes[2], lanes[3]))
        } else {
            row.iter()
                .zip(&self.down)
                .filter(|(_, &down)| !down)
                .fold(0.0, |slowest, (&reply, _)| later_of(slowest, reply))
        };
        self.slowest_memo[cache.index()] = (self.epoch, slowest);
        slowest
    }
}

/// The later of two replies' RTTs: `f64::max` for the finite,
/// non-negative values a matrix holds, as a compare and select. With no
/// NaN to handle, the lanes of [`Liveness::slowest_reply`] stay in
/// vector registers (`max` is ≈ 4× slower there).
#[inline]
fn later_of(slowest: f64, reply: f64) -> f64 {
    if reply > slowest {
        reply
    } else {
        slowest
    }
}

/// What a cooperative lookup orders a document's holders by: RTT from
/// the requester, then local id — the group's member-list position, the
/// tie-break a member-order scan gets for free. The RTT is held as its
/// bit pattern, which for the finite non-negative values a matrix
/// holds orders exactly as the number does, so picking the nearest is
/// integer comparisons the compiler turns into selects rather than
/// branches on effectively random floats.
type HolderKey = (u64, usize);

/// Past every holder's key: where a search for the nearest starts.
const FARTHEST: HolderKey = (u64::MAX, usize::MAX);

/// The [`HolderKey`] of holder `id` at `rtt_ms`.
#[inline]
fn holder_key(rtt_ms: f64, id: usize) -> HolderKey {
    debug_assert!(rtt_ms.is_finite() && rtt_ms >= 0.0);
    // Adding zero folds a negative zero into the positive one.
    ((rtt_ms + 0.0).to_bits(), id)
}

/// The version `holder` would serve for `doc` under the freshness
/// protocol, if it holds a servable copy — the peer-side probe of a
/// cooperative lookup — and, when there is one, the bookkeeping of
/// serving it to a peer: under the version-checked protocols
/// [`DocumentCache::note_peer_serve`] is the probe too, so the holder's
/// cache is searched once.
fn serve_from_peer(
    holder: &mut DocumentCache,
    freshness: FreshnessProtocol,
    doc: DocId,
    current_version: u64,
    now_ms: f64,
) -> Option<u64> {
    match freshness {
        FreshnessProtocol::InvalidateOnAccess | FreshnessProtocol::OriginMulticast => holder
            .note_peer_serve(doc, current_version, now_ms)
            .then_some(current_version),
        FreshnessProtocol::TtlLease { ttl_ms } => {
            let version = holder.holds_unexpired(doc, now_ms, ttl_ms)?;
            holder.note_peer_serve(doc, version, now_ms);
            Some(version)
        }
    }
}

/// Assembles the candidate list a placement decision sees: the
/// requester first (RTT 0), then its *alive* group peers (every other
/// cache of the run) in group order. The policy interface takes the
/// whole list, so an active placement policy still costs one member
/// walk per decision. `holds` is presence (fresh or stale), read from
/// the holder index, which mirrors cache membership exactly.
#[allow(clippy::too_many_arguments)]
fn build_candidates(
    out: &mut Vec<Candidate>,
    network: &EdgeNetwork,
    caches: &[DocumentCache],
    index: &HolderIndex,
    down: &[bool],
    cache: CacheId,
    doc: DocId,
) {
    out.clear();
    let holds = |c: CacheId| index.holds(doc, c);
    out.push(Candidate {
        cache,
        rtt_ms: 0.0,
        used_bytes: caches[cache.index()].used_bytes(),
        holds: holds(cache),
    });
    for p in (0..caches.len()).map(CacheId) {
        if p == cache || down[p.index()] {
            continue;
        }
        out.push(Candidate {
            cache: p,
            rtt_ms: network.cache_to_cache(cache, p),
            used_bytes: caches[p.index()].used_bytes(),
            holds: holds(p),
        });
    }
}

/// Inserts a fetched copy into `cache_store`, keeping the holder index
/// in sync with the insert and any policy evictions it triggers.
/// `evicted` is caller-owned scratch reused across the whole event loop.
#[allow(clippy::too_many_arguments)]
fn insert_tracked(
    cache_store: &mut DocumentCache,
    index: &mut HolderIndex,
    evicted: &mut Vec<DocId>,
    home: CacheId,
    doc: DocId,
    version: u64,
    size_bytes: u64,
    fetch_cost_ms: f64,
    update_rate_per_sec: f64,
    now_ms: f64,
) {
    let cached = cache_store.insert_with_evicted(
        doc,
        version,
        size_bytes,
        fetch_cost_ms,
        update_rate_per_sec,
        now_ms,
        evicted,
    );
    for &victim in evicted.iter() {
        index.clear(victim, home);
    }
    if cached {
        index.set(doc, home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, RunContext, SimPlan};
    use ecg_topology::fixtures::paper_figure1;
    use ecg_workload::{merge_streams, CatalogConfig, DocId, Request, TraceEvent, Update};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network() -> EdgeNetwork {
        EdgeNetwork::from_rtt_matrix(paper_figure1())
    }

    /// The entry point under `schedule`, run as `ctx` says.
    fn sim_in(
        mut ctx: RunContext<'_>,
        net: &EdgeNetwork,
        groups: &GroupMap,
        cat: &DocumentCatalog,
        trace: &[TraceEvent],
        config: SimConfig,
        schedule: &FaultSchedule,
    ) -> Result<SimReport, SimError> {
        let plan = SimPlan::new(net.rtt_matrix(), cat, trace)
            .config(config)
            .faults(schedule);
        simulate(&plan, groups, &mut ctx)
    }

    /// The entry point on the caller's thread, under `schedule`.
    fn sim_observed(
        net: &EdgeNetwork,
        groups: &GroupMap,
        cat: &DocumentCatalog,
        trace: &[TraceEvent],
        config: SimConfig,
        schedule: &FaultSchedule,
        obs: Option<&mut Obs>,
    ) -> Result<SimReport, SimError> {
        let ctx = RunContext::serial().observe(obs);
        sim_in(ctx, net, groups, cat, trace, config, schedule)
    }

    fn sim_faulted(
        net: &EdgeNetwork,
        groups: &GroupMap,
        cat: &DocumentCatalog,
        trace: &[TraceEvent],
        config: SimConfig,
        schedule: &FaultSchedule,
    ) -> Result<SimReport, SimError> {
        sim_observed(net, groups, cat, trace, config, schedule, None)
    }

    fn sim(
        net: &EdgeNetwork,
        groups: &GroupMap,
        cat: &DocumentCatalog,
        trace: &[TraceEvent],
        config: SimConfig,
    ) -> Result<SimReport, SimError> {
        sim_faulted(net, groups, cat, trace, config, &FaultSchedule::new())
    }

    fn catalog(n: usize) -> DocumentCatalog {
        CatalogConfig::default()
            .documents(n)
            .dynamic_fraction(0.0)
            .generate(&mut StdRng::seed_from_u64(0))
    }

    fn request(time_ms: f64, cache: usize, doc: usize) -> TraceEvent {
        TraceEvent::Request(Request {
            time_ms,
            cache,
            doc: DocId(doc),
        })
    }

    fn update(time_ms: f64, doc: usize) -> TraceEvent {
        TraceEvent::Update(Update {
            time_ms,
            doc: DocId(doc),
        })
    }

    #[test]
    fn the_layout_rule_holds_at_its_boundaries() {
        // need = m · max(m − 1, ⌈D / 8⌉): the group term, then the
        // catalog term, binding.
        for (m, docs, need) in [(20, 1_500, 20 * 188), (30, 80, 30 * 29), (4, 17, 4 * 3)] {
            assert!(!dense_layout(m, need - 1, docs), "{m} {docs}");
            assert!(dense_layout(m, need, docs), "{m} {docs}");
        }
        // One member has no peers to order: only the tables count.
        assert!(!dense_layout(1, 187, 1_500));
        assert!(dense_layout(1, 188, 1_500));
        assert!(dense_layout(1, 0, 0));
        // An empty share is sparse unless there is nothing to build.
        assert!(!dense_layout(2, 0, 1));
        assert!(!dense_layout(3, 0, 0));
        // No overflow on absurd sizes.
        assert!(!dense_layout(usize::MAX, usize::MAX - 1, usize::MAX));
    }

    #[test]
    fn first_request_misses_second_hits() {
        let net = network();
        let cat = catalog(10);
        let trace = vec![request(0.0, 0, 3), request(100.0, 0, 3)];
        let report = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
        )
        .unwrap();
        let agg = report.metrics.per_cache()[0];
        assert_eq!(agg.requests, 2);
        assert_eq!(agg.origin_fetches, 1);
        assert_eq!(agg.local_hits, 1);
        assert_eq!(report.origin_fetches, 1);
    }

    #[test]
    fn group_peer_serves_second_cache() {
        let net = network();
        let cat = catalog(10);
        // Ec0 fetches doc 3 from the origin; Ec1 (same group) then gets
        // it from Ec0 instead of the origin.
        let groups = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let trace = vec![request(0.0, 0, 3), request(100.0, 1, 3)];
        let report = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        assert_eq!(report.metrics.per_cache()[1].peer_hits, 1);
        assert_eq!(report.origin_fetches, 1);
        assert!(report.metrics.peer_bytes > 0);
        // Two control messages for Ec0's miss (1 peer), two for Ec1's.
        assert_eq!(report.metrics.control_messages, 4);
    }

    #[test]
    fn peer_hit_is_faster_than_origin_for_nearby_peer() {
        // Ec0–Ec1 RTT is 4ms while Ec0–origin is 12ms, so a peer hit at
        // Ec1 must beat an origin fetch.
        let net = network();
        let cat = catalog(10);
        let groups = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let trace_peer = vec![request(0.0, 1, 3), request(100.0, 0, 3)];
        let report = sim(&net, &groups, &cat, &trace_peer, SimConfig::default()).unwrap();
        let peer_latency = report.metrics.per_cache()[0].latency_sum_ms;

        let trace_alone = vec![request(0.0, 0, 3)];
        let report2 = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace_alone,
            SimConfig::default(),
        )
        .unwrap();
        let origin_latency = report2.metrics.per_cache()[0].latency_sum_ms;
        assert!(
            peer_latency < origin_latency,
            "peer {peer_latency} vs origin {origin_latency}"
        );
    }

    #[test]
    fn update_invalidates_cached_copy() {
        let net = network();
        let cat = catalog(10);
        let trace = vec![request(0.0, 0, 2), update(50.0, 2), request(100.0, 0, 2)];
        let report = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
        )
        .unwrap();
        // Both requests had to hit the origin: the second found a stale
        // copy.
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.origin_updates, 1);
        assert_eq!(report.cache_stats.stale_hits, 1);
    }

    #[test]
    fn group_wide_miss_pays_slowest_peer_wait() {
        let net = network();
        let cat = catalog(10);
        // Ec0 in a group with the far Ec2 (17ms) and near Ec1 (4ms):
        // a full miss waits for the slowest reply (17ms) on top of the
        // origin fetch.
        let groups = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1), CacheId(2)],
                vec![CacheId(3), CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let trace = vec![request(0.0, 0, 5)];
        let report = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        let solo = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
        )
        .unwrap();
        let grouped_latency = report.metrics.per_cache()[0].latency_sum_ms;
        let solo_latency = solo.metrics.per_cache()[0].latency_sum_ms;
        // Extra cost = slowest negative reply (17 ms) + 2-peer fan-out.
        let fanout = LatencyModel.query_fanout(2);
        assert!((grouped_latency - solo_latency - 17.0 - fanout).abs() < 1e-6);
    }

    #[test]
    fn warmup_excludes_early_requests_from_metrics() {
        let net = network();
        let cat = catalog(10);
        let trace = vec![request(0.0, 0, 1), request(2_000.0, 0, 1)];
        let report = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default().warmup_ms(1_000.0),
        )
        .unwrap();
        // Only the second request is recorded — and it hits.
        assert_eq!(report.metrics.total_requests(), 1);
        assert_eq!(report.metrics.per_cache()[0].local_hits, 1);
        // But the cache stats still saw both.
        assert_eq!(report.cache_stats.lookups, 2);
    }

    #[test]
    fn mismatched_groups_are_rejected() {
        let net = network();
        let cat = catalog(5);
        let err = sim(
            &net,
            &GroupMap::singletons(4),
            &cat,
            &[],
            SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::CacheCountMismatch {
                network: 6,
                groups: 4
            }
        );
    }

    #[test]
    fn bad_trace_references_are_rejected() {
        let net = network();
        let cat = catalog(5);
        let groups = GroupMap::singletons(6);
        let err = sim(
            &net,
            &groups,
            &cat,
            &[request(0.0, 9, 0)],
            SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::RequestCacheOutOfRange { cache: 9 });
        let err = sim(
            &net,
            &groups,
            &cat,
            &[request(0.0, 0, 99)],
            SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::DocOutOfRange { doc: 99 });
        let err = sim(
            &net,
            &groups,
            &cat,
            &[update(0.0, 99)],
            SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::DocOutOfRange { doc: 99 });
    }

    #[test]
    fn hostile_event_times_are_rejected_not_panicked_on() {
        let net = network();
        let cat = catalog(5);
        let groups = GroupMap::singletons(6);
        for bad in [f64::NAN, -0.5, f64::INFINITY, f64::NEG_INFINITY] {
            for hostile in [request(bad, 0, 0), update(bad, 0)] {
                let trace = [request(1.0, 0, 0), hostile];
                let err = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap_err();
                assert_eq!(err, SimError::EventTimeInvalid { index: 1 }, "{bad}");
                assert!(err.to_string().contains("event 1"), "{err}");
            }
        }
    }

    #[test]
    fn shuffled_trace_replays_like_the_sorted_trace() {
        let net = network();
        let (cat, sorted) = churny_trace(17, 60_000.0);
        let mut schedule = FaultSchedule::new();
        schedule.push(20_000.0, FaultKind::CacheDown { cache: CacheId(1) });
        schedule.push(40_000.0, FaultKind::CacheUp { cache: CacheId(1) });
        // Reversing blocks of 7 keeps equal-time events (none here share
        // a µs) trivially stable and leaves the trace far from ordered.
        let mut shuffled = sorted.clone();
        for block in shuffled.chunks_mut(7) {
            block.reverse();
        }
        assert_ne!(shuffled, sorted);
        let config = SimConfig::default().cache_capacity_bytes(64 << 10);
        let groups = GroupMap::one_group(6);
        let a = sim_faulted(&net, &groups, &cat, &sorted, config, &schedule).unwrap();
        let b = sim_faulted(&net, &groups, &cat, &shuffled, config, &schedule).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slowest_reply_memo_is_refreshed_by_every_membership_fault() {
        // Ec0 shares a group with the near Ec1 (4 ms) and the far Ec2
        // (17 ms). Each request is a group-wide miss on a new document,
        // so its latency shows which peers Ec0 waited for.
        let net = network();
        let cat = catalog(10);
        let groups = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1), CacheId(2)],
                vec![CacheId(3), CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let mut schedule = FaultSchedule::new();
        schedule.push(50.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(150.0, FaultKind::CacheUp { cache: CacheId(2) });
        schedule.push(250.0, FaultKind::CacheRetire { cache: CacheId(2) });
        let trace = [
            request(0.0, 0, 1),   // whole group: waits for Ec2
            request(100.0, 0, 2), // Ec2 crashed: waits for Ec1 only
            request(200.0, 0, 3), // Ec2 back: waits for Ec2 again
            request(300.0, 0, 4), // Ec2 retired: Ec1 only
        ];
        let expected = [(2usize, 17.0), (1, 4.0), (2, 17.0), (1, 4.0)];
        let model = LatencyModel;
        for lookup in [Lookup::Ranked, Lookup::NearestFirst] {
            let config = SimConfig::default();
            // Latency of request k = Ec0's latency sum over the first
            // k + 1 requests minus the sum over the first k.
            let sum_after = |k: usize| {
                let ctx = RunContext::serial().force_lookup(lookup);
                sim_in(ctx, &net, &groups, &cat, &trace[..k], config, &schedule)
                    .unwrap()
                    .metrics
                    .per_cache()[0]
                    .latency_sum_ms
            };
            for (k, &(alive, slowest)) in expected.iter().enumerate() {
                let size = cat.document(DocId(k + 1)).size_bytes;
                let want = model.query_fanout(alive)
                    + slowest
                    + model.origin_fetch(net.cache_to_origin(CacheId(0)), size);
                let got = sum_after(k + 1) - sum_after(k);
                assert!(
                    (got - want).abs() < 1e-9,
                    "{lookup:?} request {k}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn equal_rtt_holders_tie_break_by_member_list_position() {
        // Every cache pair is 10 ms apart, so any two holders tie. The
        // member list is descending, so the earlier *member* is the
        // higher cache id — the opposite of holder-bit order.
        let net = EdgeNetwork::from_rtt_matrix(ecg_topology::RttMatrix::from_fn(5, |_, _| 10.0));
        let cat = catalog(3);
        let groups = GroupMap::new(4, vec![(0..4).rev().map(CacheId).collect()]).unwrap();
        // Ec1 and Ec2 come to hold docs 0 and 1 with the same recency.
        // Ec0's miss on doc 0 must be served by Ec2 (member position 1,
        // before Ec1's 2), which touches Ec2's copy. Room for two of the
        // three documents then makes Ec2's LRU eviction on doc 2 — doc 1
        // goes, doc 0 stays for a final local hit — show who served.
        let room = (0..3)
            .map(|d| cat.document(DocId(d)).size_bytes)
            .sum::<u64>()
            - 1;
        let trace = vec![
            request(0.0, 1, 0),
            request(10.0, 2, 0),
            request(20.0, 1, 1),
            request(30.0, 2, 1),
            request(40.0, 0, 0),
            request(50.0, 2, 2),
            request(60.0, 2, 0),
        ];
        let run = |lookup| {
            let mut obs = Obs::new();
            let config = SimConfig::default()
                .policy(PolicyKind::Lru)
                .cache_capacity_bytes(room);
            let ctx = RunContext::serial()
                .force_lookup(lookup)
                .observe(Some(&mut obs));
            let schedule = FaultSchedule::new();
            let report = sim_in(ctx, &net, &groups, &cat, &trace, config, &schedule).unwrap();
            (report, obs.metrics.counter("sim.holder.bit_tests"))
        };
        let (indexed, bit_tests) = run(Lookup::Ranked);
        assert_eq!(run(Lookup::NearestFirst), (indexed.clone(), bit_tests));
        assert_eq!(indexed.metrics.per_cache()[0].peer_hits, 1);
        assert_eq!(indexed.metrics.per_cache()[2].local_hits, 1);
        // Three misses saw a holder in the group, each with 3 alive
        // peers to bit-test.
        assert_eq!(bit_tests, 9);
    }

    /// Ec0's group for the nearest-first tests: Ec1 is 4 ms away, Ec3
    /// 14.4 ms and Ec2 17 ms.
    fn four_and_two() -> GroupMap {
        GroupMap::new(
            6,
            vec![(0..4).map(CacheId).collect(), vec![CacheId(4), CacheId(5)]],
        )
        .unwrap()
    }

    /// Runs `trace` over [`four_and_two`] under every lookup, checks
    /// the reports agree and returns one.
    fn agreed_report(trace: &[TraceEvent], freshness: FreshnessProtocol) -> SimReport {
        let (net, cat) = (network(), catalog(10));
        let run = |lookup| {
            let (config, schedule) = (
                SimConfig::default().freshness(freshness),
                FaultSchedule::new(),
            );
            let ctx = RunContext::serial().force_lookup(lookup);
            sim_in(ctx, &net, &four_and_two(), &cat, trace, config, &schedule).unwrap()
        };
        let ranked = run(Lookup::Ranked);
        assert_eq!(ranked, run(Lookup::NearestFirst));
        ranked
    }

    #[test]
    fn stale_nearest_holder_falls_through_to_the_next_nearest() {
        // Ec1 fetches before the update and goes stale; Ec3 refetches
        // from the origin and Ec2 copies it. Ec0 then has three holders
        // and the nearest is the stale one: Ec3 serves, at its RTT.
        let trace = [
            request(0.0, 1, 5),
            update(10.0, 5),
            request(20.0, 3, 5),
            request(30.0, 2, 5),
            request(40.0, 0, 5),
        ];
        let report = agreed_report(&trace, FreshnessProtocol::InvalidateOnAccess);
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.metrics.stale_served, 0);
        let ec0 = report.metrics.per_cache()[0];
        assert_eq!(ec0.peer_hits, 1);
        let model = LatencyModel;
        let size = catalog(10).document(DocId(5)).size_bytes;
        let want = model.query_fanout(3) + model.transfer(14.4, size);
        assert!((ec0.latency_sum_ms - want).abs() < 1e-9);
    }

    #[test]
    fn expired_nearest_lease_falls_through_to_the_next_nearest() {
        // Ec1's lease (100 ms) has run out by the time Ec3 asks, so Ec3
        // fetches version 1 from the origin and Ec2 copies it. The second
        // update leaves those copies stale but within their lease, so
        // Ec0 is served version 1 by Ec3 — not Ec1's expired version 0.
        let trace = [
            request(0.0, 1, 5),
            update(60.0, 5),
            request(120.0, 3, 5),
            request(130.0, 2, 5),
            update(140.0, 5),
            request(150.0, 0, 5),
        ];
        let report = agreed_report(&trace, FreshnessProtocol::TtlLease { ttl_ms: 100.0 });
        assert_eq!(report.origin_fetches, 2);
        // Ec2 was served the then-current version; only Ec0's is behind.
        assert_eq!(report.metrics.stale_served, 1);
        let ec0 = report.metrics.per_cache()[0];
        assert_eq!(ec0.peer_hits, 1);
        let model = LatencyModel;
        let size = catalog(10).document(DocId(5)).size_bytes;
        let want = model.query_fanout(3) + model.transfer(14.4, size);
        assert!((ec0.latency_sum_ms - want).abs() < 1e-9);
    }

    #[test]
    fn all_holders_stale_is_a_group_wide_miss() {
        // Ec1 and Ec3 both hold the pre-update version. Ec0 tries both,
        // then waits out the slowest alive peer (Ec2, 17 ms — not a
        // holder at all) before going to the origin.
        let trace = [
            request(0.0, 1, 5),
            request(10.0, 3, 5),
            update(20.0, 5),
            request(30.0, 0, 5),
        ];
        let report = agreed_report(&trace, FreshnessProtocol::InvalidateOnAccess);
        assert_eq!(report.origin_fetches, 2);
        let ec0 = report.metrics.per_cache()[0];
        assert_eq!(ec0.origin_fetches, 1);
        let model = LatencyModel;
        let size = catalog(10).document(DocId(5)).size_bytes;
        let want = model.query_fanout(3) + 17.0 + model.origin_fetch(12.0, size);
        assert!((ec0.latency_sum_ms - want).abs() < 1e-9);
    }

    #[test]
    fn cooperation_beats_isolation_on_shared_workload() {
        // Dynamic content, shared interest, tight pair groups: after an
        // origin update, the first group member refreshes from the
        // origin and the rest pick the fresh copy up from it — the
        // collaborative-freshness benefit that makes cooperation pay for
        // dynamic content delivery.
        let mut rng = StdRng::seed_from_u64(42);
        let cat = CatalogConfig::default()
            .documents(50)
            .dynamic_fraction(1.0)
            .dynamic_update_rate_per_sec(0.01)
            .generate(&mut rng);
        let net = network();
        let requests = ecg_workload::RequestConfig::default()
            .rate_per_sec_per_cache(5.0)
            .similarity(1.0)
            .generate(&cat, 6, 600_000.0, &mut rng);
        let updates = ecg_workload::generate_updates(&cat, 600_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let config = SimConfig::default().cache_capacity_bytes(1 << 22);

        let paired = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let grouped = sim(&net, &paired, &cat, &trace, config).unwrap();
        let solo = sim(&net, &GroupMap::singletons(6), &cat, &trace, config).unwrap();
        assert!(
            grouped.average_latency_ms() < solo.average_latency_ms(),
            "grouped {} vs solo {}",
            grouped.average_latency_ms(),
            solo.average_latency_ms()
        );
        assert!(grouped.origin_fetches < solo.origin_fetches);
    }

    #[test]
    fn multicast_invalidation_prevents_stale_hits() {
        let net = network();
        let cat = catalog(10);
        let trace = vec![request(0.0, 0, 2), update(50.0, 2), request(100.0, 0, 2)];
        let report = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default().freshness(FreshnessProtocol::OriginMulticast),
        )
        .unwrap();
        // The update pushed the copy out: no stale hit, a clean miss.
        assert_eq!(report.cache_stats.stale_hits, 0);
        assert_eq!(report.cache_stats.misses, 2);
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.metrics.invalidations_sent, 1);
        assert_eq!(report.metrics.stale_served, 0);
    }

    #[test]
    fn ttl_lease_serves_stale_within_lease() {
        let net = network();
        let cat = catalog(10);
        let trace = vec![
            request(0.0, 0, 2),
            update(50.0, 2),
            request(100.0, 0, 2),   // within lease: stale serve
            request(2_000.0, 0, 2), // past lease: refetch
        ];
        let report = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default().freshness(FreshnessProtocol::TtlLease { ttl_ms: 1_000.0 }),
        )
        .unwrap();
        assert_eq!(report.metrics.stale_served, 1);
        assert_eq!(report.origin_fetches, 2);
        let agg = report.metrics.per_cache()[0];
        assert_eq!(agg.local_hits, 1);
    }

    #[test]
    fn ttl_lease_peer_serves_unexpired_copy() {
        let net = network();
        let cat = catalog(10);
        let groups = GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .unwrap();
        let trace = vec![
            request(0.0, 0, 3),
            update(10.0, 3),
            // Ec1 misses locally; Ec0 has an unexpired (stale) copy.
            request(100.0, 1, 3),
        ];
        let report = sim(
            &net,
            &groups,
            &cat,
            &trace,
            SimConfig::default().freshness(FreshnessProtocol::TtlLease { ttl_ms: 5_000.0 }),
        )
        .unwrap();
        assert_eq!(report.metrics.per_cache()[1].peer_hits, 1);
        assert_eq!(report.metrics.stale_served, 1);
        assert_eq!(report.origin_fetches, 1);
    }

    #[test]
    fn protocols_trade_staleness_for_origin_load() {
        // Update-heavy shared workload: multicast minimizes staleness,
        // the TTL lease minimizes origin fetches, invalidate-on-access
        // sits between.
        let net = network();
        let mut rng = StdRng::seed_from_u64(77);
        let cat = CatalogConfig::default()
            .documents(30)
            .dynamic_fraction(1.0)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let requests = ecg_workload::RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .similarity(1.0)
            .generate(&cat, 6, 200_000.0, &mut rng);
        let updates = ecg_workload::generate_updates(&cat, 200_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let groups = GroupMap::one_group(6);

        let run = |freshness: FreshnessProtocol| {
            sim(
                &net,
                &groups,
                &cat,
                &trace,
                SimConfig::default().freshness(freshness),
            )
            .unwrap()
        };
        let lazy = run(FreshnessProtocol::InvalidateOnAccess);
        let push = run(FreshnessProtocol::OriginMulticast);
        let lease = run(FreshnessProtocol::TtlLease { ttl_ms: 60_000.0 });

        assert_eq!(lazy.metrics.stale_served, 0);
        assert_eq!(push.metrics.stale_served, 0);
        assert!(
            lease.metrics.stale_served > 0,
            "lease must serve stale data"
        );
        assert!(
            lease.origin_fetches < lazy.origin_fetches,
            "lease {} vs lazy {}",
            lease.origin_fetches,
            lazy.origin_fetches
        );
        assert!(push.metrics.invalidations_sent > 0);
        assert_eq!(lazy.metrics.invalidations_sent, 0);
    }

    #[test]
    fn deterministic_replay() {
        let net = network();
        let cat = catalog(20);
        let mut rng = StdRng::seed_from_u64(9);
        let requests = ecg_workload::RequestConfig::default().generate(&cat, 6, 30_000.0, &mut rng);
        let updates = ecg_workload::generate_updates(&cat, 30_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let groups = GroupMap::one_group(6);
        let a = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        let b = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    fn pair_groups() -> GroupMap {
        GroupMap::new(
            6,
            vec![
                vec![CacheId(0), CacheId(1)],
                vec![CacheId(2), CacheId(3)],
                vec![CacheId(4), CacheId(5)],
            ],
        )
        .unwrap()
    }

    /// A shared update-heavy workload with tiny caches: plenty of peer
    /// hits, policy evictions, and stale drops.
    fn churny_trace(seed: u64, horizon_ms: f64) -> (DocumentCatalog, Vec<TraceEvent>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = CatalogConfig::default()
            .documents(60)
            .dynamic_fraction(0.8)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let requests = ecg_workload::RequestConfig::default()
            .rate_per_sec_per_cache(5.0)
            .similarity(1.0)
            .generate(&cat, 6, horizon_ms, &mut rng);
        let updates = ecg_workload::generate_updates(&cat, horizon_ms, &mut rng);
        (cat, merge_streams(&requests, &updates))
    }

    #[test]
    fn empty_schedule_reproduces_simulate_exactly() {
        let net = network();
        let cat = catalog(20);
        let mut rng = StdRng::seed_from_u64(5);
        let requests = ecg_workload::RequestConfig::default().generate(&cat, 6, 30_000.0, &mut rng);
        let updates = ecg_workload::generate_updates(&cat, 30_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let groups = pair_groups();
        let base = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        let faulted = sim_faulted(
            &net,
            &groups,
            &cat,
            &trace,
            SimConfig::default(),
            &FaultSchedule::new(),
        )
        .unwrap();
        assert_eq!(base, faulted);
        assert!(!base.metrics.degradation.saw_faults());
        assert_eq!(base.metrics.degradation.degraded.requests, 0);
    }

    #[test]
    fn down_cache_fails_over_to_origin() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(50.0, FaultKind::CacheDown { cache: CacheId(0) });
        // Prime the cache, crash it, then request again: the second
        // request must go to the origin even though the doc was cached.
        let trace = vec![request(0.0, 0, 3), request(100.0, 0, 3)];
        let report = sim_faulted(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.metrics.degradation.failovers, 1);
        assert_eq!(report.metrics.degradation.crashes, 1);
        assert_eq!(report.metrics.degradation.degraded.requests, 1);
        assert_eq!(report.metrics.per_cache()[0].origin_fetches, 2);
        assert_eq!(report.metrics.per_cache()[0].local_hits, 0);
        // The failover paid the 3 ms detection penalty on top of the
        // fetch.
        let healthy_fetch = report.metrics.degradation.healthy.latency_sum_ms;
        let failover = report.metrics.degradation.degraded.latency_sum_ms;
        assert!((failover - healthy_fetch - 3.0).abs() < 1e-9);
    }

    #[test]
    fn crash_purges_contents_and_recovery_is_cold() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(50.0, FaultKind::CacheDown { cache: CacheId(0) });
        schedule.push(60.0, FaultKind::CacheUp { cache: CacheId(0) });
        let trace = vec![request(0.0, 0, 3), request(100.0, 0, 3)];
        let report = sim_faulted(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        // Recovered in time for the second request, but cold: a second
        // origin fetch, not a hit.
        assert_eq!(report.metrics.degradation.failovers, 0);
        assert_eq!(report.metrics.degradation.recoveries, 1);
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.metrics.per_cache()[0].local_hits, 0);
    }

    #[test]
    fn group_degrades_to_survivors() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(50.0, FaultKind::CacheDown { cache: CacheId(0) });
        // Ec0 fetches doc 3; after Ec0 crashes, Ec1's cooperative lookup
        // cannot use it and pays the origin.
        let trace = vec![request(0.0, 0, 3), request(100.0, 1, 3)];
        let report = sim_faulted(
            &net,
            &pair_groups(),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        assert_eq!(report.metrics.per_cache()[1].peer_hits, 0);
        assert_eq!(report.metrics.per_cache()[1].origin_fetches, 1);
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.metrics.degradation.peer_queries_skipped, 1);
        // Ec1's request counts as degraded (a member of its group is
        // down) even though Ec1 itself is healthy.
        assert_eq!(report.metrics.degradation.degraded.requests, 1);
        // Without the fault the same trace is a peer hit.
        let healthy = sim(&net, &pair_groups(), &cat, &trace, SimConfig::default()).unwrap();
        assert_eq!(healthy.metrics.per_cache()[1].peer_hits, 1);
    }

    #[test]
    fn retirement_is_permanent() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(10.0, FaultKind::CacheRetire { cache: CacheId(0) });
        schedule.push(20.0, FaultKind::CacheUp { cache: CacheId(0) });
        let trace = vec![request(100.0, 0, 3)];
        let report = sim_faulted(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        // The CacheUp after retirement is ignored: still failing over.
        assert_eq!(report.metrics.degradation.retirements, 1);
        assert_eq!(report.metrics.degradation.recoveries, 0);
        assert_eq!(report.metrics.degradation.failovers, 1);
    }

    #[test]
    fn fault_timeline_tracks_outage_window() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(10_000.0, FaultKind::CacheDown { cache: CacheId(1) });
        schedule.push(20_000.0, FaultKind::CacheUp { cache: CacheId(1) });
        let trace = vec![
            request(5_000.0, 0, 1),  // healthy bucket 0
            request(15_000.0, 0, 1), // degraded bucket 1 (peer down)
            request(25_000.0, 0, 1), // healthy bucket 2
        ];
        let report = sim_faulted(
            &net,
            &pair_groups(),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        let tl = report.metrics.degradation.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].healthy.requests, 1);
        assert_eq!(tl[0].degraded.requests, 0);
        assert_eq!(tl[1].degraded.requests, 1);
        assert_eq!(tl[2].healthy.requests, 1);
        assert_eq!(tl[2].degraded.requests, 0);
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let net = network();
        let cat = catalog(5);
        let mut schedule = FaultSchedule::new();
        schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(9) });
        let err = sim_faulted(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &[],
            SimConfig::default(),
            &schedule,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::Fault(FaultError::CacheOutOfRange { cache: 9 })
        );
    }

    #[test]
    fn observed_run_matches_plain_and_covers_counters() {
        let net = network();
        let (cat, trace) = churny_trace(21, 60_000.0);
        let mut schedule = FaultSchedule::new();
        schedule.push(10_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(30_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        let groups = pair_groups();
        let config = SimConfig::default().cache_capacity_bytes(64 << 10);
        let plain = sim_faulted(&net, &groups, &cat, &trace, config, &schedule).unwrap();
        let mut obs = Obs::new();
        let observed = sim_observed(
            &net,
            &groups,
            &cat,
            &trace,
            config,
            &schedule,
            Some(&mut obs),
        )
        .unwrap();
        assert_eq!(plain, observed);

        // Per-group counters sum to the totals and the fault events
        // landed in the trace with their sim-time stamps.
        let m = &obs.metrics;
        for name in ["local_hits", "peer_hits", "coop_misses"] {
            let per_group: u64 = (0..groups.group_count())
                .map(|g| m.counter(&format!("sim.group.{g:03}.{name}")))
                .sum();
            assert_eq!(per_group, m.counter(&format!("sim.{name}")), "{name}");
        }
        assert!(m.counter("sim.peer_hits") > 0);
        assert!(m.counter("sim.coop_misses") > 0);
        assert_eq!(m.counter("sim.fault_events"), 2);
        // The holder counters keep the meaning the per-peer loop gave
        // them — one check per miss, one bit test per alive peer of a
        // group that may hold the document — and the values it produced
        // on this fixture.
        assert_eq!(m.counter("sim.holder.group_checks"), 1137);
        assert_eq!(m.counter("sim.holder.ruled_out"), 919);
        assert_eq!(m.counter("sim.holder.bit_tests"), 218);
        assert_eq!(
            m.gauge("sim.queue.max_depth"),
            Some(trace.len() as f64 + 2.0)
        );
        assert!(m.histogram("sim.latency_ms").expect("latency hist").count() > 0);
        let kinds: Vec<&str> = obs.trace.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["cache_down", "cache_up"]);
        assert_eq!(obs.phases.roots()[0].name(), "sim");
    }

    #[test]
    fn explicit_single_holder_matches_default_exactly() {
        let net = network();
        let (cat, trace) = churny_trace(31, 120_000.0);
        let groups = pair_groups();
        let base = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();
        let explicit = sim(
            &net,
            &groups,
            &cat,
            &trace,
            SimConfig::default().placement(PlacementKind::SingleHolder),
        )
        .unwrap();
        assert_eq!(base, explicit);
        assert!(!base.metrics.saw_placement());
        assert_eq!(base.metrics.replicas_created, 0);
    }

    #[test]
    fn adaptive_replication_promotes_hot_documents() {
        let net = network();
        let (cat, trace) = churny_trace(33, 240_000.0);
        let groups = GroupMap::one_group(6);
        let report = sim(
            &net,
            &groups,
            &cat,
            &trace,
            SimConfig::default()
                .cache_capacity_bytes(256 << 10)
                .placement(PlacementKind::adaptive()),
        )
        .unwrap();
        // The Zipf head crosses the promote threshold (replicas kept)
        // while the tail stays single-copy (replicas suppressed).
        assert!(report.metrics.replicas_created > 0, "{report}");
        assert!(report.metrics.replicas_suppressed > 0, "{report}");
        assert!(report.to_string().contains("replicas"), "{report}");
    }

    #[test]
    fn dchoices_diverts_placements_and_replays_identically() {
        let net = network();
        let (cat, trace) = churny_trace(35, 240_000.0);
        let groups = GroupMap::one_group(6);
        let config = SimConfig::default()
            .cache_capacity_bytes(256 << 10)
            .placement(PlacementKind::d_choices());
        let a = sim(&net, &groups, &cat, &trace, config).unwrap();
        let b = sim(&net, &groups, &cat, &trace, config).unwrap();
        assert_eq!(a, b);
        assert!(a.metrics.remote_placements > 0, "{a}");
        // d-choices never replicates on peer hits.
        assert_eq!(a.metrics.replicas_created, 0);
        assert!(a.metrics.replicas_suppressed > 0);
    }

    #[test]
    fn placement_respects_down_members_and_invalidation() {
        let net = network();
        let (cat, trace) = churny_trace(39, 120_000.0);
        let mut schedule = FaultSchedule::new();
        schedule.push(10_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        schedule.push(60_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        for placement in [PlacementKind::adaptive(), PlacementKind::d_choices()] {
            for freshness in [
                FreshnessProtocol::InvalidateOnAccess,
                FreshnessProtocol::OriginMulticast,
            ] {
                let report = sim_faulted(
                    &net,
                    &GroupMap::one_group(6),
                    &cat,
                    &trace,
                    SimConfig::default()
                        .cache_capacity_bytes(128 << 10)
                        .placement(placement)
                        .freshness(freshness),
                    &schedule,
                )
                .unwrap();
                // Version-aware lookups keep every replica consistent:
                // nothing stale is ever served under either protocol,
                // replicas or not.
                assert_eq!(report.metrics.stale_served, 0, "{placement:?}");
                assert!(report.metrics.saw_placement());
            }
        }
    }

    #[test]
    fn placement_obs_counters_cover_decisions() {
        let net = network();
        let (cat, trace) = churny_trace(41, 60_000.0);
        let groups = GroupMap::one_group(6);
        let config = SimConfig::default()
            .cache_capacity_bytes(128 << 10)
            .placement(PlacementKind::adaptive());
        let mut obs = Obs::new();
        let report = sim_observed(
            &net,
            &groups,
            &cat,
            &trace,
            config,
            &FaultSchedule::new(),
            Some(&mut obs),
        )
        .unwrap();
        let m = &obs.metrics;
        assert!(m.counter("place.decisions") > 0);
        assert_eq!(
            m.counter("place.replicas_created"),
            report.metrics.replicas_created
        );
        assert_eq!(
            m.counter("place.replicas_suppressed"),
            report.metrics.replicas_suppressed
        );
        assert_eq!(
            m.counter("place.remote_placements"),
            report.metrics.remote_placements
        );
        let hist = m.histogram("place.replica_count").expect("replica hist");
        assert_eq!(hist.count(), m.counter("place.decisions"));
        let sim_span = &obs.phases.roots()[0];
        assert_eq!(sim_span.name(), "sim");
        assert_eq!(sim_span.children()[0].name(), "place");
        // A baseline observed run emits no placement telemetry at all.
        let mut base_obs = Obs::new();
        let _ = sim_observed(
            &net,
            &groups,
            &cat,
            &trace,
            SimConfig::default(),
            &FaultSchedule::new(),
            Some(&mut base_obs),
        )
        .unwrap();
        assert_eq!(base_obs.metrics.counter("place.decisions"), 0);
        assert!(base_obs.metrics.histogram("place.replica_count").is_none());
        assert!(base_obs.phases.roots()[0].children().is_empty());
    }

    #[test]
    fn faulted_display_reports_degradation() {
        let net = network();
        let cat = catalog(10);
        let mut schedule = FaultSchedule::new();
        schedule.push(50.0, FaultKind::CacheDown { cache: CacheId(0) });
        let trace = vec![request(0.0, 0, 3), request(100.0, 0, 3)];
        let report = sim_faulted(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
            &schedule,
        )
        .unwrap();
        let text = report.to_string();
        assert!(text.contains("failovers"), "{text}");
        assert!(text.contains("1 crashes"), "{text}");
        // A healthy run keeps the original compact summary.
        let healthy = sim(
            &net,
            &GroupMap::singletons(6),
            &cat,
            &trace,
            SimConfig::default(),
        )
        .unwrap();
        assert!(!healthy.to_string().contains("failovers"));
    }
}
