//! The spec: a plain reference simulator for [`ecg_sim::simulate`].
//!
//! It replays the paper's request path (§4) the obvious way, and shares
//! no code with the library's event loop — no holder index, no store,
//! no plan, no per-group walk. What it does share is what the report is
//! made of and what the policies decide: [`MetricsRecorder`] and
//! [`DegradationMetrics`], [`LatencyModel`]'s cost terms,
//! [`DocumentCache`] for storage and replacement (held to a `BTreeMap`
//! model by `ecg-cache`'s own property tests) and the placement policy
//! [`PlacementKind::build`] makes.
//!
//! One loop walks the whole trace and the fault schedule, ordered by
//! time quantised to the µs, then faults before trace events, then
//! position in the input. Per request:
//!
//! * the home cache is down: the client fails over to the origin and
//!   pays the latency model's failover penalty plus the origin fetch;
//! * a servable local copy is a local hit (a stale or expired copy is
//!   dropped by the lookup);
//! * otherwise every alive peer of the group is asked, in member order:
//!   the nearest one with a servable copy (the earlier member on an RTT
//!   tie) serves it after the fan-out, and the requester keeps a
//!   replica unless an active placement policy says otherwise;
//! * with no servable copy the requester waits for the slowest alive
//!   peer's negative reply, then fetches from the origin, and the copy
//!   goes to the requester or wherever an active policy places it.
//!
//! Crashes purge a cache, recovery is cold, retirement is permanent; a
//! request is *degraded* while any member of its group is down.
//! Requests before the warm-up cut-off change state but are not
//! recorded. Each group keeps its own degradation recorder and
//! placement policy; the recorders are folded in group order at the end.
//! A policy sees a group's members by their position in its member list
//! — the ids [`ecg_sim::simulate`] hands it, one group at a time — so a
//! tie it breaks by id breaks the same way in both.
//!
//! Besides the report the spec derives, by their documented meaning,
//! the request-path counters of the observability document
//! ([`Outcome::counters`]).

use ecg_cache::{CacheStats, DocumentCache, LookupOutcome, PolicyKind};
use ecg_obs::Obs;
use ecg_sim::place::{Candidate, PeerHitAction, PlacementPolicy};
use ecg_sim::{
    DegradationMetrics, FaultKind, FaultSchedule, FreshnessProtocol, GroupMap, LatencyModel,
    MetricsRecorder, PlacementKind, ServedBy, SimConfig, SimError, SimReport, SimTime,
};
use ecg_topology::{CacheId, EdgeNetwork};
use ecg_workload::{DocId, DocumentCatalog, TraceEvent};
use std::collections::BTreeMap;

/// The simulator settings of a run, spelled out: [`SimConfig`] keeps
/// its fields private, so a test builds both from one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Per-cache capacity, bytes.
    pub capacity_bytes: u64,
    /// Replacement policy of every cache.
    pub policy: PolicyKind,
    /// Requests before this time are not recorded, ms.
    pub warmup_ms: f64,
    /// How copies learn of updates.
    pub freshness: FreshnessProtocol,
    /// In-group placement.
    pub placement: PlacementKind,
}

impl Default for Settings {
    /// What [`SimConfig::default`] documents: 1 MiB, utility-based
    /// replacement, no warm-up, invalidate on access, single-holder
    /// placement.
    fn default() -> Self {
        Settings {
            capacity_bytes: 1 << 20,
            policy: PolicyKind::Utility,
            warmup_ms: 0.0,
            freshness: FreshnessProtocol::InvalidateOnAccess,
            placement: PlacementKind::SingleHolder,
        }
    }
}

impl Settings {
    /// The same settings as the simulator's configuration.
    pub fn config(&self) -> SimConfig {
        SimConfig::default()
            .cache_capacity_bytes(self.capacity_bytes)
            .policy(self.policy)
            .warmup_ms(self.warmup_ms)
            .freshness(self.freshness)
            .placement(self.placement)
    }
}

/// A spec run: the report, and the request-path counters of the
/// observability document by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// What [`ecg_sim::simulate`] must report, bit for bit.
    pub report: SimReport,
    /// `sim.group.NNN.{local_hits, peer_hits, coop_misses}` per group,
    /// `sim.{local_hits, peer_hits, coop_misses, failovers,
    /// control_messages, stale_served}`, `sim.holder.{group_checks,
    /// ruled_out, bit_tests}` and `place.decisions` — warm-up included.
    pub counters: BTreeMap<String, u64>,
}

impl Outcome {
    /// Every counter whose value in `obs` is not the spec's, as
    /// `(name, observed, spec)`. A counter a run leaves out reads 0.
    pub fn counter_mismatches(&self, obs: &Obs) -> Vec<(String, u64, u64)> {
        let observed = |name: &str| obs.metrics.counter(name);
        self.counters
            .iter()
            .filter(|&(name, &value)| observed(name) != value)
            .map(|(name, &value)| (name.clone(), observed(name), value))
            .collect()
    }
}

/// Request-path tallies, counted over the whole run.
#[derive(Debug, Default)]
struct Tally {
    /// Per group: requests served locally, by a peer, by the origin
    /// (failovers excluded).
    outcomes: Vec<[u64; 3]>,
    failovers: u64,
    /// Cooperative lookups.
    group_checks: u64,
    /// Cooperative lookups where no peer held any copy.
    ruled_out: u64,
    /// Alive peers of every lookup not ruled out.
    bit_tests: u64,
    /// Placement decisions taken.
    decisions: u64,
}

/// Everything a run changes as it goes.
struct World<'a> {
    network: &'a EdgeNetwork,
    groups: &'a GroupMap,
    catalog: &'a DocumentCatalog,
    settings: Settings,
    caches: Vec<DocumentCache>,
    /// The origin's version of every document; versions start at 1.
    versions: Vec<u64>,
    origin_updates: u64,
    origin_fetches: u64,
    down: Vec<bool>,
    retired: Vec<bool>,
    /// Statistics of caches purged by a crash or retirement.
    lost: CacheStats,
    metrics: MetricsRecorder,
    /// Per group.
    degradation: Vec<DegradationMetrics>,
    /// Per group, present under an active placement policy only.
    policies: Option<Vec<Box<dyn PlacementPolicy>>>,
    /// Each cache's position in its group's member list.
    local: Vec<usize>,
    warmup: SimTime,
    tally: Tally,
}

/// Runs the spec: `trace` under `schedule` over `network`, grouped by
/// `groups`, with `settings`.
///
/// # Errors
///
/// What [`ecg_sim::simulate`] documents, in its order: the map does not
/// cover the network, the schedule is invalid, or — the first in trace
/// order — an event names an unknown cache or document, or carries a
/// time that is not finite and non-negative or that lies at or past the
/// horizon of 2¹⁸ timeline buckets.
pub fn run(
    network: &EdgeNetwork,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    trace: &[TraceEvent],
    settings: Settings,
    schedule: &FaultSchedule,
) -> Result<Outcome, SimError> {
    let n = network.cache_count();
    if groups.cache_count() != n {
        return Err(SimError::CacheCountMismatch {
            network: n,
            groups: groups.cache_count(),
        });
    }
    schedule.validate(n)?;
    let order = processing_order(n, catalog.len(), trace, schedule)?;

    let k = groups.group_count();
    let mut local = vec![0; n];
    for members in groups.groups() {
        for (at, m) in members.iter().enumerate() {
            local[m.index()] = at;
        }
    }
    let active = !settings.placement.is_single_holder();
    let mut world = World {
        network,
        groups,
        catalog,
        settings,
        caches: (0..n).map(|_| empty_cache(settings)).collect(),
        versions: vec![1; catalog.len()],
        origin_updates: 0,
        origin_fetches: 0,
        down: vec![false; n],
        retired: vec![false; n],
        lost: CacheStats::default(),
        metrics: MetricsRecorder::new(n),
        degradation: vec![DegradationMetrics::default(); k],
        policies: active.then(|| {
            (0..k)
                .map(|_| settings.placement.build(catalog.len()))
                .collect()
        }),
        local,
        warmup: SimTime::from_ms(settings.warmup_ms),
        tally: Tally {
            outcomes: vec![[0; 3]; k],
            ..Tally::default()
        },
    };
    for (at, step) in order {
        match step {
            Step::Fault(i) => world.fault(schedule.events()[i].kind),
            Step::Trace(i) => match &trace[i] {
                TraceEvent::Request(r) => world.request(at, CacheId(r.cache), r.doc),
                TraceEvent::Update(u) => world.update(u.doc),
            },
        }
    }
    Ok(world.finish())
}

/// One entry of the processing order. At one instant the derived order
/// is the tie-break: faults before trace events, each in input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// The schedule's event at this position.
    Fault(usize),
    /// The trace's event at this position.
    Trace(usize),
}

/// Validates the trace event by event and sorts it, with the schedule,
/// by `(µs, faults first, position)`.
fn processing_order(
    caches: usize,
    docs: usize,
    trace: &[TraceEvent],
    schedule: &FaultSchedule,
) -> Result<Vec<(SimTime, Step)>, SimError> {
    let horizon_ms = DegradationMetrics::default().bucket_width_ms() * f64::from(1u32 << 18);
    let mut order: Vec<(SimTime, Step)> = schedule
        .events()
        .iter()
        .enumerate()
        .map(|(i, fault)| (SimTime::from_ms(fault.time_ms), Step::Fault(i)))
        .collect();
    for (index, event) in trace.iter().enumerate() {
        let doc = match event {
            TraceEvent::Request(r) if r.cache >= caches => {
                return Err(SimError::RequestCacheOutOfRange { cache: r.cache })
            }
            TraceEvent::Request(r) => r.doc,
            TraceEvent::Update(u) => u.doc,
        };
        if doc.index() >= docs {
            return Err(SimError::DocOutOfRange { doc: doc.index() });
        }
        let at =
            SimTime::try_from_ms(event.time_ms()).ok_or(SimError::EventTimeInvalid { index })?;
        if at.as_ms() >= horizon_ms {
            return Err(SimError::EventTimeBeyondHorizon { index });
        }
        order.push((at, Step::Trace(index)));
    }
    order.sort();
    Ok(order)
}

fn empty_cache(settings: Settings) -> DocumentCache {
    DocumentCache::new(settings.capacity_bytes, settings.policy)
}

impl World<'_> {
    fn fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CacheDown { cache } => {
                if !self.down[cache.index()] {
                    self.degradation[self.groups.group_of(cache)].crashes += 1;
                    self.purge(cache);
                }
            }
            FaultKind::CacheUp { cache } => {
                let c = cache.index();
                if self.down[c] && !self.retired[c] {
                    self.down[c] = false;
                    self.degradation[self.groups.group_of(cache)].recoveries += 1;
                }
            }
            FaultKind::CacheRetire { cache } => {
                if !self.retired[cache.index()] {
                    self.retired[cache.index()] = true;
                    self.degradation[self.groups.group_of(cache)].retirements += 1;
                    if !self.down[cache.index()] {
                        self.purge(cache);
                    }
                }
            }
        }
    }

    /// Takes `cache` down and loses its contents.
    fn purge(&mut self, cache: CacheId) {
        let c = cache.index();
        self.down[c] = true;
        self.lost += self.caches[c].stats();
        self.caches[c] = empty_cache(self.settings);
    }

    fn update(&mut self, doc: DocId) {
        self.versions[doc.index()] += 1;
        self.origin_updates += 1;
        if self.settings.freshness == FreshnessProtocol::OriginMulticast {
            for cache in &mut self.caches {
                if cache.remove(doc).is_some() {
                    self.metrics.invalidations_sent += 1;
                }
            }
        }
    }

    /// The version of `doc` `cache` would serve under the freshness
    /// protocol, if it holds a servable copy.
    fn servable(&self, cache: CacheId, doc: DocId, now_ms: f64) -> Option<u64> {
        let current = self.versions[doc.index()];
        let held = &self.caches[cache.index()];
        match self.settings.freshness {
            FreshnessProtocol::TtlLease { ttl_ms } => held.holds_unexpired(doc, now_ms, ttl_ms),
            _ => held.holds_fresh(doc, current).then_some(current),
        }
    }

    /// The origin's reply to a fetch of `doc`: its current version.
    fn origin_fetch(&mut self, doc: DocId) -> u64 {
        self.origin_fetches += 1;
        self.metrics.origin_bytes += self.catalog.document(doc).size_bytes;
        self.versions[doc.index()]
    }

    fn request(&mut self, at: SimTime, cache: CacheId, doc: DocId) {
        let now_ms = at.as_ms();
        let recorded = at >= self.warmup;
        let g = self.groups.group_of(cache);
        let members = &self.groups.groups()[g];
        let current = self.versions[doc.index()];
        let size = self.catalog.document(doc).size_bytes;
        let model = LatencyModel;
        let degraded = members.iter().any(|m| self.down[m.index()]);
        let to_origin = self.network.cache_to_origin(cache);

        if self.down[cache.index()] {
            self.origin_fetch(doc);
            let latency = model.failover_penalty() + model.origin_fetch(to_origin, size);
            self.tally.failovers += 1;
            if recorded {
                self.metrics.record(cache, latency, ServedBy::Origin);
                let deg = &mut self.degradation[g];
                deg.failovers += 1;
                deg.record(now_ms, latency, false, false, true);
            }
            return;
        }

        let home = &mut self.caches[cache.index()];
        let local = match self.settings.freshness {
            FreshnessProtocol::TtlLease { ttl_ms } => home.lookup_ttl(doc, now_ms, ttl_ms),
            _ => (home.lookup(doc, current, now_ms) == LookupOutcome::Hit).then_some(current),
        };
        let (latency, served_by, version) = match local {
            Some(version) => {
                if let Some(policies) = &mut self.policies {
                    policies[g].on_local_hit(doc, now_ms);
                }
                (model.local_hit(), ServedBy::Local, version)
            }
            None => self.ask_the_group(cache, doc, now_ms),
        };

        let slot = match served_by {
            ServedBy::Local => 0,
            ServedBy::Peer => 1,
            ServedBy::Origin => 2,
        };
        self.tally.outcomes[g][slot] += 1;
        if recorded {
            let stale = version < current;
            self.metrics.record(cache, latency, served_by);
            self.metrics.stale_served += u64::from(stale);
            let hit = served_by != ServedBy::Origin;
            self.degradation[g].record(now_ms, latency, hit, stale, degraded);
        }
    }

    /// A cooperative lookup by `cache`, whose local copy of `doc` was
    /// missing or not servable: `(latency, served by, version served)`.
    fn ask_the_group(&mut self, cache: CacheId, doc: DocId, now_ms: f64) -> (f64, ServedBy, u64) {
        let groups = self.groups;
        let g = groups.group_of(cache);
        let members = &groups.groups()[g];
        let document = self.catalog.document(doc);
        let (size, update_rate) = (document.size_bytes, document.update_rate_per_sec);
        let model = LatencyModel;

        // Every alive peer, in member order.
        let (mut alive, mut slowest, mut any_copy) = (0usize, 0.0f64, false);
        let mut nearest: Option<(CacheId, f64, u64)> = None;
        for &peer in members {
            if peer == cache || self.down[peer.index()] {
                continue;
            }
            alive += 1;
            let rtt = self.network.cache_to_cache(cache, peer);
            slowest = slowest.max(rtt);
            any_copy |= self.caches[peer.index()].contains(doc);
            if let Some(version) = self.servable(peer, doc, now_ms) {
                if nearest.is_none_or(|(_, best, _)| rtt < best) {
                    nearest = Some((peer, rtt, version));
                }
            }
        }
        self.tally.group_checks += 1;
        if any_copy {
            self.tally.bit_tests += alive as u64;
        } else {
            self.tally.ruled_out += 1;
        }
        self.degradation[g].peer_queries_skipped += (members.len() - 1 - alive) as u64;
        // One query out and one reply back per alive peer.
        self.metrics.control_messages += 2 * alive as u64;
        let fanout = model.query_fanout(alive);

        match nearest {
            Some((peer, rtt, version)) => {
                // The hit reply carries the body.
                self.caches[peer.index()].note_peer_serve(doc, version, now_ms);
                self.metrics.peer_bytes += size;
                let latency = fanout + model.transfer(rtt, size);
                let holder = CacheId(self.local[peer.index()]);
                let action = self.decide(cache, doc, |policy, candidates| {
                    policy.on_peer_hit(doc, now_ms, candidates, holder)
                });
                let keep = match action {
                    None => true,
                    Some(PeerHitAction::Replicate) => {
                        self.metrics.replicas_created += 1;
                        true
                    }
                    Some(PeerHitAction::ServeRemote) => {
                        self.metrics.replicas_suppressed += 1;
                        false
                    }
                };
                if keep {
                    let home = &mut self.caches[cache.index()];
                    home.insert(doc, version, size, latency, update_rate, now_ms);
                }
                (latency, ServedBy::Peer, version)
            }
            None => {
                let version = self.origin_fetch(doc);
                // The requester gave up once the slowest alive peer said no.
                let to_origin = self.network.cache_to_origin(cache);
                let latency = fanout + slowest + model.origin_fetch(to_origin, size);
                let target = self
                    .decide(cache, doc, |policy, candidates| {
                        policy.on_origin_fetch(doc, now_ms, candidates)
                    })
                    .map_or(cache, |local| members[local.index()]);
                if target != cache {
                    // An off-path push of the body to the chosen member.
                    self.metrics.remote_placements += 1;
                    self.metrics.peer_bytes += size;
                    self.metrics.control_messages += 1;
                }
                let placed = &mut self.caches[target.index()];
                placed.insert(doc, version, size, latency, update_rate, now_ms);
                (latency, ServedBy::Origin, version)
            }
        }
    }

    /// Asks the group's active placement policy, if there is one, about
    /// `doc` at requester `cache`.
    fn decide<T>(
        &mut self,
        cache: CacheId,
        doc: DocId,
        ask: impl FnOnce(&mut dyn PlacementPolicy, &[Candidate]) -> T,
    ) -> Option<T> {
        let candidates = self
            .policies
            .is_some()
            .then(|| self.candidates(cache, doc))?;
        self.tally.decisions += 1;
        let policy = self.policies.as_mut()?[self.groups.group_of(cache)].as_mut();
        Some(ask(policy, &candidates))
    }

    /// What a placement decision about `doc` at requester `cache` sees:
    /// the requester first at RTT 0, then its alive peers in member
    /// order, each by its position in the member list.
    fn candidates(&self, cache: CacheId, doc: DocId) -> Vec<Candidate> {
        let candidate = |member: CacheId, rtt_ms: f64| Candidate {
            cache: CacheId(self.local[member.index()]),
            rtt_ms,
            used_bytes: self.caches[member.index()].used_bytes(),
            holds: self.caches[member.index()].contains(doc),
        };
        let members = &self.groups.groups()[self.groups.group_of(cache)];
        let peers = members
            .iter()
            .filter(|&&peer| peer != cache && !self.down[peer.index()]);
        std::iter::once(candidate(cache, 0.0))
            .chain(peers.map(|&peer| candidate(peer, self.network.cache_to_cache(cache, peer))))
            .collect()
    }

    fn finish(self) -> Outcome {
        let mut metrics = self.metrics;
        metrics.degradation = DegradationMetrics::default();
        for group in &self.degradation {
            metrics.degradation.merge_from(group);
        }
        let cache_stats = self.caches.iter().fold(self.lost, |sum, c| sum + c.stats());

        let tally = self.tally;
        let mut counters = BTreeMap::new();
        let mut totals = [0u64; 3];
        let names = ["local_hits", "peer_hits", "coop_misses"];
        for (g, outcomes) in tally.outcomes.iter().enumerate() {
            for (slot, name) in names.iter().enumerate() {
                counters.insert(format!("sim.group.{g:03}.{name}"), outcomes[slot]);
                totals[slot] += outcomes[slot];
            }
        }
        for (slot, name) in names.iter().enumerate() {
            counters.insert(format!("sim.{name}"), totals[slot]);
        }
        for (name, value) in [
            ("sim.failovers", tally.failovers),
            ("sim.control_messages", metrics.control_messages),
            ("sim.stale_served", metrics.stale_served),
            ("sim.holder.group_checks", tally.group_checks),
            ("sim.holder.ruled_out", tally.ruled_out),
            ("sim.holder.bit_tests", tally.bit_tests),
            ("place.decisions", tally.decisions),
        ] {
            counters.insert(name.to_string(), value);
        }
        Outcome {
            report: SimReport {
                metrics,
                cache_stats,
                origin_updates: self.origin_updates,
                origin_fetches: self.origin_fetches,
            },
            counters,
        }
    }
}
