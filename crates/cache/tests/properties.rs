//! Property-based tests for the document cache.

use ecg_cache::{CacheStats, DocumentCache, Entry, LookupOutcome, PolicyKind};
use ecg_workload::DocId;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A random cache operation for sequence testing.
#[derive(Debug, Clone)]
enum Op {
    Lookup { doc: usize, version: u64 },
    Insert { doc: usize, version: u64, size: u64 },
    Remove { doc: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..20, 1u64..5).prop_map(|(doc, version)| Op::Lookup { doc, version }),
        (0usize..20, 1u64..5, 1u64..600).prop_map(|(doc, version, size)| Op::Insert {
            doc,
            version,
            size
        }),
        (0usize..20).prop_map(|doc| Op::Remove { doc }),
    ]
}

/// An operation against a cache whose documents have a versioned origin.
#[derive(Debug, Clone)]
enum OriginOp {
    /// Insert the document at the origin's *current* version.
    Insert { doc: usize, size: u64 },
    /// The origin publishes a new version of the document.
    Bump { doc: usize },
    /// A client asks for the document at the origin's current version.
    Lookup { doc: usize },
}

fn arb_origin_op() -> impl Strategy<Value = OriginOp> {
    prop_oneof![
        (0usize..20, 1u64..600).prop_map(|(doc, size)| OriginOp::Insert { doc, size }),
        (0usize..20).prop_map(|doc| OriginOp::Bump { doc }),
        (0usize..20).prop_map(|doc| OriginOp::Lookup { doc }),
    ]
}

/// The documented eviction key of `entry` under `policy` (smallest score
/// is evicted first), reimplemented from the policy docs so the test is
/// independent of the crate's internal scoring code.
fn documented_score(policy: PolicyKind, entry: &Entry, now_ms: f64, watermark: f64) -> f64 {
    match policy {
        // LRU: least-recently used.
        PolicyKind::Lru => entry.last_access_ms,
        // LFU: least-frequently used, ties broken by recency (a bounded
        // sub-unit recency term folded into the score).
        PolicyKind::Lfu => {
            entry.access_count as f64 + 0.5 / (1.0 + (now_ms - entry.last_access_ms).max(0.0))
        }
        // Cache Clouds utility: (access_rate × fetch_cost) /
        // (size × (1 + update_rate)), with a 1 s floor on the rate window.
        PolicyKind::Utility => {
            let window_sec = ((now_ms - entry.inserted_ms) / 1_000.0).max(1.0);
            let rate = entry.access_count as f64 / window_sec;
            rate * entry.fetch_cost_ms
                / (entry.size_bytes.max(1) as f64 * (1.0 + entry.update_rate_per_sec))
        }
        // GDSF: H = L + frequency × fetch_cost / size, with the
        // watermark L inflated to the victim's H on each eviction.
        PolicyKind::Gdsf => {
            watermark
                + entry.access_count as f64 * entry.fetch_cost_ms / entry.size_bytes.max(1) as f64
        }
    }
}

/// Predicts the exact victim sequence of inserting `doc` at `size`
/// bytes, from the documented keys alone. Returns the victims in
/// eviction order plus the GDSF watermark after the insert.
fn predict_victims(
    cache: &DocumentCache,
    policy: PolicyKind,
    doc: DocId,
    size: u64,
    now_ms: f64,
    mut watermark: f64,
) -> (Vec<DocId>, f64) {
    if size > cache.capacity_bytes() {
        return (Vec::new(), watermark); // oversized: insert is a no-op
    }
    // Replacing an existing copy frees its bytes before any eviction.
    let mut entries: Vec<(DocId, Entry)> = cache
        .iter()
        .filter(|(d, _)| *d != doc)
        .map(|(d, e)| (d, *e))
        .collect();
    let mut used: u64 = entries.iter().map(|(_, e)| e.size_bytes).sum();
    let mut victims = Vec::new();
    while used + size > cache.capacity_bytes() && !entries.is_empty() {
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, (d, e)) in entries.iter().enumerate() {
            let score = documented_score(policy, e, now_ms, watermark);
            // Deterministic tie-break on the smaller document id.
            if score < best_score || (score == best_score && *d < entries[best].0) {
                best = i;
                best_score = score;
            }
        }
        if policy == PolicyKind::Gdsf {
            watermark = best_score;
        }
        let (victim, entry) = entries.remove(best);
        used -= entry.size_bytes;
        victims.push(victim);
    }
    (victims, watermark)
}

/// The cache as it was stored before the slab: a `BTreeMap` walked in id
/// order, scored with the documented keys. Kept as the reference model
/// the real store is driven against.
struct ModelCache {
    capacity_bytes: u64,
    used_bytes: u64,
    policy: PolicyKind,
    entries: BTreeMap<DocId, Entry>,
    stats: CacheStats,
    watermark: f64,
}

impl ModelCache {
    fn new(capacity_bytes: u64, policy: PolicyKind) -> Self {
        ModelCache {
            capacity_bytes,
            used_bytes: 0,
            policy,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
            watermark: 0.0,
        }
    }

    /// Shared shape of `lookup` and `lookup_ttl`: touch and serve a
    /// copy that `valid` accepts, drop one it rejects.
    fn lookup_by(
        &mut self,
        doc: DocId,
        now_ms: f64,
        valid: impl Fn(&Entry) -> bool,
    ) -> LookupOutcome {
        self.stats.lookups += 1;
        match self.entries.get_mut(&doc) {
            Some(entry) if valid(entry) => {
                entry.touch(now_ms);
                self.stats.fresh_hits += 1;
                LookupOutcome::Hit
            }
            Some(_) => {
                self.remove(doc);
                self.stats.stale_hits += 1;
                LookupOutcome::Stale
            }
            None => {
                self.stats.misses += 1;
                LookupOutcome::Miss
            }
        }
    }

    fn note_peer_serve(&mut self, doc: DocId, current_version: u64, now_ms: f64) -> bool {
        match self.entries.get_mut(&doc) {
            Some(entry) if entry.version >= current_version => {
                entry.touch(now_ms);
                true
            }
            _ => false,
        }
    }

    /// Returns whether `doc` ended up cached, and the victims in order
    /// with the score each was evicted at.
    fn insert(
        &mut self,
        doc: DocId,
        version: u64,
        size: u64,
        (cost, rate): (f64, f64),
        now_ms: f64,
    ) -> (bool, Vec<(DocId, f64)>) {
        let mut victims = Vec::new();
        if size > self.capacity_bytes {
            return (false, victims);
        }
        self.remove(doc);
        while self.used_bytes + size > self.capacity_bytes {
            let mut best: Option<(DocId, f64)> = None;
            for (&d, e) in &self.entries {
                let score = documented_score(self.policy, e, now_ms, self.watermark);
                if best.is_none_or(|(bd, bs)| score < bs || (score == bs && d < bd)) {
                    best = Some((d, score));
                }
            }
            let Some((victim, score)) = best else { break };
            if self.policy == PolicyKind::Gdsf {
                self.watermark = score;
            }
            let evicted = self.remove(victim).expect("victim exists");
            self.stats.evictions += 1;
            self.stats.bytes_evicted += evicted.size_bytes;
            victims.push((victim, score));
        }
        self.entries
            .insert(doc, Entry::new(version, size, cost, rate, now_ms));
        self.used_bytes += size;
        self.stats.insertions += 1;
        (true, victims)
    }

    fn remove(&mut self, doc: DocId) -> Option<Entry> {
        let entry = self.entries.remove(&doc)?;
        self.used_bytes -= entry.size_bytes;
        Some(entry)
    }
}

const FETCH_COST_MS: f64 = 10.0;
const UPDATE_RATE: f64 = 0.1;
/// `(fetch cost, update rate)` of the model test's inserts: mostly the
/// plain pair, so equal utilities meet and the id decides; a cost one
/// `f64` place above it; and values the utility screen does not vouch
/// for — zero and astronomically small or large costs, a rate that
/// swamps the size factor.
const COSTS_AND_RATES: [(f64, f64); 12] = [
    (FETCH_COST_MS, UPDATE_RATE),
    (FETCH_COST_MS, UPDATE_RATE),
    (FETCH_COST_MS, UPDATE_RATE),
    (FETCH_COST_MS, UPDATE_RATE),
    (10.000000000000002, UPDATE_RATE),
    (37.5, 0.0),
    (2.25, 4.0),
    (0.0, UPDATE_RATE),
    (1e-200, UPDATE_RATE),
    (1e200, 0.0),
    (FETCH_COST_MS, 1e300),
    (FETCH_COST_MS, f64::INFINITY),
];
/// Ids the model test draws from.
const MODEL_DOCS: usize = 48;
/// Lease used by the model test's TTL operations.
const MODEL_TTL_MS: f64 = 40.0;

/// One step of the model test. Every public mutator of the cache
/// appears; `tracked` picks `insert_with_evicted` over `insert`.
#[derive(Debug, Clone)]
enum ModelOp {
    Lookup {
        doc: usize,
        version: u64,
    },
    LookupTtl {
        doc: usize,
    },
    Insert {
        doc: usize,
        version: u64,
        size: u64,
        /// Index into [`COSTS_AND_RATES`].
        kind: usize,
        tracked: bool,
    },
    Remove {
        doc: usize,
    },
    PeerServe {
        doc: usize,
        version: u64,
    },
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    // Half the steps insert a small body, so a 2 000-byte cache fills
    // well past eight residents; one in twelve inserts a large one that
    // evicts many at once (or is oversized) and takes the population
    // back under eight; one in a few hundred has no body at all.
    let fields = (
        0u8..12,
        0usize..MODEL_DOCS,
        1u64..5,
        (0u64..120, 700u64..2_100),
        0usize..COSTS_AND_RATES.len(),
        any::<bool>(),
    );
    fields.prop_map(
        |(op, doc, version, (small, large), kind, tracked)| match op {
            0 | 1 => ModelOp::Lookup { doc, version },
            2 => ModelOp::LookupTtl { doc },
            3 => ModelOp::Remove { doc },
            4 => ModelOp::PeerServe { doc, version },
            _ => ModelOp::Insert {
                doc,
                version,
                size: if op == 5 { large } else { small },
                kind,
                tracked,
            },
        },
    )
}

/// A cache of either index form: hashed, or addressed by document id
/// through a table shorter than the ids drawn, so it grows mid-run.
fn cache_of(capacity_bytes: u64, policy: PolicyKind, by_doc: bool) -> DocumentCache {
    if by_doc {
        DocumentCache::with_doc_index(capacity_bytes, policy, 8)
    } else {
        DocumentCache::new(capacity_bytes, policy)
    }
}

/// Everything one step of the model test reports.
#[derive(Debug, PartialEq)]
enum Outcome {
    Lookup(LookupOutcome),
    Served(Option<u64>),
    Inserted(bool, Vec<DocId>),
    Removed(Option<Entry>),
    PeerServed(bool),
}

/// Runs `op` against `cache` at `now`, TTL operations under a lease of
/// `ttl`.
fn apply(cache: &mut DocumentCache, op: &ModelOp, now: f64, ttl: f64) -> Outcome {
    match *op {
        ModelOp::Lookup { doc, version } => Outcome::Lookup(cache.lookup(DocId(doc), version, now)),
        ModelOp::LookupTtl { doc } => Outcome::Served(cache.lookup_ttl(DocId(doc), now, ttl)),
        ModelOp::Insert {
            doc,
            version,
            size,
            kind,
            tracked,
        } => {
            let (cost, rate) = COSTS_AND_RATES[kind];
            let mut evicted = Vec::new();
            let cached = if tracked {
                cache.insert_with_evicted(DocId(doc), version, size, cost, rate, now, &mut evicted)
            } else {
                cache.insert(DocId(doc), version, size, cost, rate, now);
                cache.contains(DocId(doc))
            };
            Outcome::Inserted(cached, evicted)
        }
        ModelOp::Remove { doc } => Outcome::Removed(cache.remove(DocId(doc))),
        ModelOp::PeerServe { doc, version } => {
            Outcome::PeerServed(cache.note_peer_serve(DocId(doc), version, now))
        }
    }
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Lfu),
        Just(PolicyKind::Utility),
        Just(PolicyKind::Gdsf),
    ]
}

/// Fills a utility cache and the model with `residents` — `(doc, size,
/// cost, rate, inserted at)`, in the given order and then reversed, so
/// the slab is laid out both ways, in a cache of either index form —
/// touches a few of them, and evicts everything at `now` with one
/// insert: the burst must be the model's.
fn assert_utility_burst_matches_the_model(residents: &[(usize, u64, f64, f64, f64)], now: f64) {
    let reversed: Vec<_> = residents.iter().rev().copied().collect();
    let mut bursts = Vec::new();
    for (order, by_doc) in [
        (residents, false),
        (&reversed[..], false),
        (residents, true),
    ] {
        let mut cache = cache_of(1 << 20, PolicyKind::Utility, by_doc);
        let mut model = ModelCache::new(1 << 20, PolicyKind::Utility);
        for &(doc, size, cost, rate, at) in order {
            cache.insert(DocId(doc), 1, size, cost, rate, at);
            model.insert(DocId(doc), 1, size, (cost, rate), at);
        }
        for &(doc, ..) in residents.iter().step_by(3) {
            assert!(cache.lookup(DocId(doc), 1, now - 1.0).is_hit());
            assert!(model.lookup_by(DocId(doc), now - 1.0, |_| true).is_hit());
            assert!(cache.note_peer_serve(DocId(doc), 1, now - 0.5));
            assert!(model.note_peer_serve(DocId(doc), 1, now - 0.5));
        }
        let mut evicted = Vec::new();
        cache.insert_with_evicted(DocId(999), 1, 1 << 20, 5.0, 0.0, now, &mut evicted);
        let (_, victims) = model.insert(DocId(999), 1, 1 << 20, (5.0, 0.0), now);
        let expected: Vec<DocId> = victims.iter().map(|&(d, _)| d).collect();
        assert_eq!(evicted, expected);
        assert_eq!(evicted.len(), residents.len());
        assert_eq!(cache.stats(), model.stats);
        bursts.push(evicted);
    }
    // Neither the order the residents went in nor the index form shows
    // in the order they come out.
    assert_eq!(bursts[0], bursts[1]);
    assert_eq!(bursts[0], bursts[2]);
}

#[test]
fn utility_bursts_match_the_model_on_adversarial_residents() {
    // Scores one place apart and exactly equal: id order decides ties.
    let close: Vec<_> = [
        10.0,
        10.0f64.next_up(),
        10.0,
        10.0f64.next_up().next_up(),
        10.0,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, cost)| (40 - i, 500, cost, 0.1, 0.0))
    .collect();
    for now in [10.0, 1_000.0, 123_456.789] {
        assert_utility_burst_matches_the_model(&close, now);
    }
    // Ages just below, at and just above the 1 s floor of the window.
    let now = 90_000.0;
    let ages = [
        0.0,
        999.999_999_999_9,
        1_000.0,
        1_000.000_000_000_1,
        1_001.0,
    ];
    let floor: Vec<_> = ages
        .into_iter()
        .enumerate()
        .map(|(i, age)| (i, 300, 12.0, 0.0, now - age))
        .collect();
    assert_utility_burst_matches_the_model(&floor, now);
    // What the approximate screen does not vouch for, among ordinary
    // residents: no cost, no body, an update rate that swamps the size,
    // magnitudes at the far ends of the range.
    let odd = [
        (0, 400, 0.0, 0.1, 5.0),
        (1, 0, 10.0, 0.1, 6.0),
        (2, 400, 10.0, 1e300, 7.0),
        (3, 400, 10.0, f64::INFINITY, 8.0),
        (4, 400, 1e-250, 0.1, 9.0),
        (5, 400, 1e250, 0.1, 10.0),
        (6, 400, 10.0, 0.1, 11.0),
        (7, 900, 25.0, 0.0, 12.0),
        (8, 0, 0.0, 0.0, 13.0),
    ];
    for now in [20.0, 5_000.0, 1e12] {
        assert_utility_burst_matches_the_model(&odd, now);
        assert_utility_burst_matches_the_model(&odd[5..], now);
    }
}

proptest! {
    #[test]
    fn capacity_is_never_exceeded(
        ops in proptest::collection::vec(arb_op(), 1..200),
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        let mut cache = cache_of(1_000, policy, by_doc);
        for (t, op) in ops.iter().enumerate() {
            let now = t as f64;
            match *op {
                Op::Lookup { doc, version } => {
                    let _ = cache.lookup(DocId(doc), version, now);
                }
                Op::Insert { doc, version, size } => {
                    cache.insert(DocId(doc), version, size, 10.0, 0.1, now);
                }
                Op::Remove { doc } => {
                    let _ = cache.remove(DocId(doc));
                }
            }
            prop_assert!(cache.used_bytes() <= cache.capacity_bytes());
            // used_bytes is consistent with the entry set.
            let sum: u64 = cache.iter().map(|(_, e)| e.size_bytes).sum();
            prop_assert_eq!(sum, cache.used_bytes());
        }
    }

    #[test]
    fn stats_counters_are_consistent(
        ops in proptest::collection::vec(arb_op(), 1..200),
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        let mut cache = cache_of(2_000, policy, by_doc);
        for (t, op) in ops.iter().enumerate() {
            match *op {
                Op::Lookup { doc, version } => {
                    let _ = cache.lookup(DocId(doc), version, t as f64);
                }
                Op::Insert { doc, version, size } => {
                    cache.insert(DocId(doc), version, size, 10.0, 0.1, t as f64);
                }
                Op::Remove { doc } => {
                    let _ = cache.remove(DocId(doc));
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.lookups, s.fresh_hits + s.stale_hits + s.misses);
        prop_assert!(s.insertions >= cache.len() as u64);
        prop_assert!(s.evictions <= s.insertions);
    }

    #[test]
    fn lookup_after_insert_is_hit_at_same_version(
        doc in 0usize..50,
        version in 1u64..100,
        size in 1u64..900,
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        let mut cache = cache_of(1_000, policy, by_doc);
        cache.insert(DocId(doc), version, size, 5.0, 0.0, 0.0);
        prop_assert_eq!(cache.lookup(DocId(doc), version, 1.0), LookupOutcome::Hit);
        // Any newer origin version makes it stale.
        prop_assert_eq!(
            cache.lookup(DocId(doc), version + 1, 2.0),
            LookupOutcome::Stale
        );
    }

    #[test]
    fn stale_versions_are_never_served(
        ops in proptest::collection::vec(arb_origin_op(), 1..200),
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        // Model an origin whose per-document version only moves forward;
        // inserts always carry the version current at insert time. A
        // copy inserted before a bump is stale and must never be
        // reported fresh (or served as a hit) at the new version.
        let mut cache = cache_of(1_500, policy, by_doc);
        let mut origin: [u64; 20] = [1; 20];
        let mut inserted: HashMap<usize, u64> = HashMap::new();
        for (t, op) in ops.iter().enumerate() {
            let now = t as f64;
            match *op {
                OriginOp::Insert { doc, size } => {
                    cache.insert(DocId(doc), origin[doc], size, 10.0, 0.1, now);
                    if size <= cache.capacity_bytes() {
                        inserted.insert(doc, origin[doc]);
                    }
                }
                OriginOp::Bump { doc } => origin[doc] += 1,
                OriginOp::Lookup { doc } => {
                    let outcome = cache.lookup(DocId(doc), origin[doc], now);
                    if outcome == LookupOutcome::Hit {
                        prop_assert_eq!(inserted.get(&doc), Some(&origin[doc]));
                    }
                }
            }
            for (doc, &v) in origin.iter().enumerate() {
                if cache.holds_fresh(DocId(doc), v) {
                    // Fresh implies the copy is the origin's current
                    // version — never an older one.
                    prop_assert_eq!(inserted.get(&doc), Some(&v));
                }
            }
        }
    }

    #[test]
    fn eviction_order_matches_documented_keys(
        ops in proptest::collection::vec(arb_op(), 1..200),
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        // Replays the op sequence, predicting every insert's eviction
        // victims from the policies' *documented* scoring keys computed
        // independently of the implementation (including a shadow GDSF
        // watermark, which the cache keeps private).
        let mut cache = cache_of(1_000, policy, by_doc);
        let mut watermark = 0.0_f64;
        let mut evicted = Vec::new();
        for (t, op) in ops.iter().enumerate() {
            let now = t as f64;
            match *op {
                Op::Lookup { doc, version } => {
                    let _ = cache.lookup(DocId(doc), version, now);
                }
                Op::Insert { doc, version, size } => {
                    let (expected, next_watermark) =
                        predict_victims(&cache, policy, DocId(doc), size, now, watermark);
                    cache.insert_with_evicted(
                        DocId(doc), version, size, 10.0, 0.1, now, &mut evicted,
                    );
                    prop_assert_eq!(&evicted, &expected);
                    watermark = next_watermark;
                }
                Op::Remove { doc } => {
                    let _ = cache.remove(DocId(doc));
                }
            }
        }
    }

    /// Every public mutator, every policy: contents, statistics and
    /// probes equal the model's after each step, and every insert's
    /// victims — whole bursts, in order — are the model's repeated
    /// `(score, DocId)` minimum over all residents. The clock steps by
    /// a drawn amount, so resident ages sit below, at (`step` 250 puts
    /// every fourth insert exactly 1 000 ms back) and above the utility
    /// window's 1 s floor.
    #[test]
    fn slab_store_matches_the_btreemap_model(
        ops in proptest::collection::vec(arb_model_op(), 1..400),
        policy in arb_policy(),
        by_doc in any::<bool>(),
        step in prop_oneof![Just(1.0), Just(250.0), Just(1_000.0 / 3.0), Just(4_000.0)],
    ) {
        let mut cache = cache_of(2_000, policy, by_doc);
        let mut model = ModelCache::new(2_000, policy);
        let mut evicted = Vec::new();
        // Times the population rose past / fell back to eight residents.
        let (mut rose, mut fell) = (0, 0);
        for (t, op) in ops.iter().enumerate() {
            let now = t as f64 * step;
            let resident_before = cache.len();
            match *op {
                ModelOp::Lookup { doc, version } => {
                    let expected = model.lookup_by(DocId(doc), now, |e| e.version >= version);
                    prop_assert_eq!(cache.lookup(DocId(doc), version, now), expected);
                }
                ModelOp::LookupTtl { doc } => {
                    let ttl = MODEL_TTL_MS * step;
                    let served = model
                        .lookup_by(DocId(doc), now, |e| now - e.inserted_ms <= ttl)
                        .is_hit()
                        .then(|| model.entries[&DocId(doc)].version);
                    prop_assert_eq!(cache.lookup_ttl(DocId(doc), now, ttl), served);
                }
                ModelOp::Insert { doc, version, size, kind, tracked } => {
                    let (cost, rate) = COSTS_AND_RATES[kind];
                    let (cached, victims) =
                        model.insert(DocId(doc), version, size, (cost, rate), now);
                    // Scores never rise along a burst: each victim is
                    // the minimum of what the one before it left.
                    for pair in victims.windows(2) {
                        prop_assert!(policy == PolicyKind::Gdsf || pair[0].1 <= pair[1].1);
                    }
                    if tracked {
                        let got = cache.insert_with_evicted(
                            DocId(doc), version, size, cost, rate, now, &mut evicted,
                        );
                        prop_assert_eq!(got, cached);
                        let expected: Vec<DocId> = victims.iter().map(|&(d, _)| d).collect();
                        prop_assert_eq!(&evicted, &expected);
                    } else {
                        cache.insert(DocId(doc), version, size, cost, rate, now);
                    }
                }
                ModelOp::Remove { doc } => {
                    prop_assert_eq!(cache.remove(DocId(doc)), model.remove(DocId(doc)));
                }
                ModelOp::PeerServe { doc, version } => {
                    prop_assert_eq!(
                        cache.note_peer_serve(DocId(doc), version, now),
                        model.note_peer_serve(DocId(doc), version, now)
                    );
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.is_empty(), model.entries.is_empty());
            prop_assert_eq!(cache.used_bytes(), model.used_bytes);
            prop_assert_eq!(cache.stats(), model.stats);
            prop_assert!(cache.iter().eq(model.entries.iter().map(|(&d, e)| (d, e))));
            for d in (0..MODEL_DOCS).map(DocId) {
                let held = model.entries.get(&d);
                prop_assert_eq!(cache.contains(d), held.is_some());
                for version in 1..5 {
                    prop_assert_eq!(
                        cache.holds_fresh(d, version),
                        held.is_some_and(|e| e.version >= version)
                    );
                }
                let ttl = MODEL_TTL_MS * step;
                prop_assert_eq!(
                    cache.holds_unexpired(d, now, ttl),
                    held.filter(|e| now - e.inserted_ms <= ttl).map(|e| e.version)
                );
            }
            rose += usize::from(resident_before <= 8 && cache.len() > 8);
            fell += usize::from(resident_before > 8 && cache.len() <= 8);
        }
        // A long run takes the store across the small-mode threshold in
        // both directions.
        prop_assert!(ops.len() < 200 || (rose > 0 && fell > 0), "rose {rose}, fell {fell}");
    }

    #[test]
    fn eviction_preserves_newly_inserted_doc(
        fill in proptest::collection::vec((1u64..400u64, 1u64..3), 2..20),
        policy in arb_policy(),
        by_doc in any::<bool>(),
    ) {
        let mut cache = cache_of(1_000, policy, by_doc);
        for (i, &(size, version)) in fill.iter().enumerate() {
            cache.insert(DocId(i), version, size, 10.0, 0.0, i as f64);
            // The just-inserted document must survive its own insertion.
            prop_assert!(cache.holds_fresh(DocId(i), version), "doc {i} evicted itself");
        }
    }

    /// A reset cache is a new one: equal at once and op for op after,
    /// over both index forms on either side of the reset and across a
    /// change of capacity and policy. Before the reset every history
    /// starts with 48 inserts of 100 bytes into at most 2 000, so the
    /// hashed index was built and doubled (twenty residents), a by-doc
    /// table grew from 8 slots past 40, and evictions built the utility
    /// score keys or raised the GDSF watermark — whatever the random
    /// rest of the history then did.
    #[test]
    fn a_reset_cache_behaves_like_a_new_one(
        history in proptest::collection::vec(arb_model_op(), 0..300),
        ops in proptest::collection::vec(arb_model_op(), 1..300),
        policies in (arb_policy(), arb_policy()),
        by_doc in (any::<bool>(), any::<bool>()),
        capacities in (prop_oneof![Just(2_000u64), Just(1_200)], prop_oneof![Just(2_000u64), Just(900)]),
    ) {
        let mut reused = cache_of(capacities.0, policies.0, by_doc.0);
        let filling = (0..MODEL_DOCS).map(|doc| ModelOp::Insert {
            doc,
            version: 1,
            size: 100,
            kind: 0,
            tracked: doc % 2 == 0,
        });
        for (t, op) in filling.chain(history).enumerate() {
            apply(&mut reused, &op, t as f64 * 250.0, 10_000.0);
        }
        prop_assert!(reused.stats().evictions > 0);
        let docs = by_doc.1.then_some(8);
        reused.reset(capacities.1, policies.1, docs);
        let mut fresh = cache_of(capacities.1, policies.1, by_doc.1);
        prop_assert_eq!(&reused, &fresh);
        for (t, op) in ops.iter().enumerate() {
            let now = t as f64 * 250.0;
            let ttl = MODEL_TTL_MS * 250.0;
            prop_assert_eq!(apply(&mut reused, op, now, ttl), apply(&mut fresh, op, now, ttl));
            prop_assert_eq!(&reused, &fresh);
            prop_assert_eq!(reused.used_bytes(), fresh.used_bytes());
            for d in (0..MODEL_DOCS).map(DocId) {
                prop_assert_eq!(reused.holds_fresh(d, 2), fresh.holds_fresh(d, 2));
                prop_assert_eq!(reused.holds_unexpired(d, now, ttl), fresh.holds_unexpired(d, now, ttl));
            }
        }
    }
}
