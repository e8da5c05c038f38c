//! The document cache itself: a dense unordered slab of residents found
//! through a small open-addressed index or a table addressed by document
//! id. Nothing observable depends on slab order or index form — eviction
//! minimises the total order `(score, DocId)`,
//! [`DocumentCache::iter`] sorts on demand, equality compares contents.

use crate::entry::Entry;
use crate::policy::{approximate_utilities, select_victim, utility_victim, PolicyKind, UtilityKey};
use crate::stats::CacheStats;
use ecg_workload::DocId;
use std::cell::RefCell;

thread_local! {
    /// The approximate utilities of the cache an insert is evicting
    /// from, parallel to its slab for the duration of that insert: one
    /// buffer per thread, shared by every cache that evicts on it.
    static SCORES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// A fresh copy was found and served.
    Hit,
    /// A copy was found but its version is behind the origin: it was
    /// dropped, and the caller must fetch. Counted separately from
    /// `Miss` so experiments can attribute miss traffic to updates.
    Stale,
    /// No copy was cached.
    Miss,
}

impl LookupOutcome {
    /// Returns `true` only for a fresh hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupOutcome::Hit)
    }
}

/// Up to this many residents are found by scanning the slab; the index
/// is built when one more arrives. A cache that sees a handful of
/// documents therefore costs a single allocation.
const SMALL: usize = 8;

/// Index value of a free position.
const EMPTY: u32 = u32::MAX;

/// Index size when first built: the smallest power of two holding
/// `SMALL + 1` residents at load ≤ ½.
const FIRST_INDEX_LEN: usize = (2 * (SMALL + 1)).next_power_of_two();

/// A document-addressed table grows to any id below this (64 MiB at
/// most); a larger id turns the cache hashed.
const BY_DOC_LIMIT: usize = 1 << 24;

/// The home index position of `doc` in a table of `table_len` (a power
/// of two ≥ 2) positions: the top bits of a fixed multiplicative
/// (Fibonacci) hash. Deliberately not `RandomState` — nothing in a
/// replay may depend on process state.
#[inline]
fn home(doc: DocId, table_len: usize) -> usize {
    debug_assert!(table_len.is_power_of_two() && table_len >= 2);
    let hash = (doc.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hash >> (u64::BITS - table_len.trailing_zeros())) as usize
}

/// A byte-capacity-bounded document cache with a pluggable replacement
/// policy.
///
/// Freshness follows an invalidation-on-access model: every lookup and
/// peer probe carries the origin's *current* version of the document, and
/// a cached copy with an older version is discarded as stale. This stands
/// in for the cooperative freshness machinery of the authors' Cache
/// Clouds system while exercising the same update-driven miss path.
///
/// # Storage
///
/// Residents sit in a dense slab in no particular order (removal is a
/// `swap_remove`). Once more than eight have been resident at once, an
/// open-addressed table of slab slots — power-of-two size at load ≤ ½,
/// linear probing, backward-shift deletion — finds them; it is kept from
/// then on. Insert, lookup and removal are O(1) and the eviction scan is
/// a pass over contiguous memory.
///
/// [`DocumentCache::with_doc_index`] finds residents through a table
/// indexed by document id instead: one load, 4 bytes per document.
///
/// # Examples
///
/// ```
/// use ecg_cache::{DocumentCache, LookupOutcome, PolicyKind};
/// use ecg_workload::DocId;
///
/// let mut cache = DocumentCache::new(10_000, PolicyKind::Lru);
/// assert_eq!(cache.lookup(DocId(1), 1, 0.0), LookupOutcome::Miss);
/// cache.insert(DocId(1), 1, 2_000, 30.0, 0.0, 0.0);
/// assert_eq!(cache.lookup(DocId(1), 1, 1.0), LookupOutcome::Hit);
/// // Origin bumped the version: the copy is stale.
/// assert_eq!(cache.lookup(DocId(1), 2, 2.0), LookupOutcome::Stale);
/// ```
#[derive(Debug, Clone)]
pub struct DocumentCache {
    capacity_bytes: u64,
    used_bytes: u64,
    policy: PolicyKind,
    /// The residents, dense and unordered.
    slab: Vec<(DocId, Entry)>,
    /// Slab slots by hashed document id, or empty while the slab is
    /// scanned instead. Every resident's slot appears exactly once, on
    /// the probe path from its [`home`] with no `EMPTY` before it.
    /// When `by_doc`, slab slots by document id (`EMPTY`, or past the
    /// end, for an absent one).
    index: Vec<u32>,
    by_doc: bool,
    /// [`UtilityKey::of`] every resident, in slab order — or empty: the
    /// keys are built by the first [`PolicyKind::Utility`] eviction
    /// (never, under another policy) and kept in step from then on.
    keys: Vec<UtilityKey>,
    /// The document the last lookup found absent (or dropped as stale
    /// or expired) if nothing has been appended since: the insert that
    /// follows a miss need not search for a copy to replace.
    absent: Option<DocId>,
    stats: CacheStats,
    /// GDSF aging watermark `L`.
    watermark: f64,
}

/// Equal contents, whatever order the slabs happen to be in.
impl PartialEq for DocumentCache {
    fn eq(&self, other: &Self) -> bool {
        self.capacity_bytes == other.capacity_bytes
            && self.used_bytes == other.used_bytes
            && self.policy == other.policy
            && self.stats == other.stats
            && self.watermark == other.watermark
            && self.slab.len() == other.slab.len()
            && self
                .slab
                .iter()
                .all(|(doc, e)| other.entry(*doc) == Some(e))
    }
}

impl DocumentCache {
    /// Creates an empty cache holding at most `capacity_bytes` of
    /// document bodies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes == 0`.
    pub fn new(capacity_bytes: u64, policy: PolicyKind) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        DocumentCache {
            capacity_bytes,
            used_bytes: 0,
            policy,
            slab: Vec::new(),
            index: Vec::new(),
            by_doc: false,
            keys: Vec::new(),
            absent: None,
            stats: CacheStats::default(),
            watermark: 0.0,
        }
    }

    /// [`DocumentCache::new`] finding residents through a table indexed
    /// by document id, sized for ids below `docs` (a larger one grows it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes == 0`.
    pub fn with_doc_index(capacity_bytes: u64, policy: PolicyKind, docs: usize) -> Self {
        let mut cache = Self::new(capacity_bytes, policy);
        cache.reset(capacity_bytes, policy, Some(docs));
        cache
    }

    /// Empties the cache into what [`DocumentCache::new`] (`docs` is
    /// `None`) or [`DocumentCache::with_doc_index`] (`Some(docs)`) would
    /// return, keeping the buffers it has grown: a cache reused for
    /// another run allocates only where that run outgrows them.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes == 0`.
    pub fn reset(&mut self, capacity_bytes: u64, policy: PolicyKind, docs: Option<usize>) {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        self.capacity_bytes = capacity_bytes;
        self.used_bytes = 0;
        self.policy = policy;
        self.slab.clear();
        self.index.clear();
        self.by_doc = docs.is_some();
        if let Some(docs) = docs {
            self.index.resize(docs.min(BY_DOC_LIMIT), EMPTY);
        }
        self.keys.clear();
        self.absent = None;
        self.stats = CacheStats::default();
        self.watermark = 0.0;
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached documents.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The slab slot holding `doc`, if it is resident.
    #[inline]
    fn find(&self, doc: DocId) -> Option<usize> {
        if self.by_doc {
            return match self.index.get(doc.index()) {
                Some(&slot) if slot != EMPTY => Some(slot as usize),
                _ => None,
            };
        }
        if self.index.is_empty() {
            return self.slab.iter().position(|&(d, _)| d == doc);
        }
        let mask = self.index.len() - 1;
        let mut at = home(doc, self.index.len());
        loop {
            let slot = self.index[at];
            if slot == EMPTY {
                return None;
            }
            if self.slab[slot as usize].0 == doc {
                return Some(slot as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// The resident copy of `doc`, if any.
    #[inline]
    fn entry(&self, doc: DocId) -> Option<&Entry> {
        self.find(doc).map(|slot| &self.slab[slot].1)
    }

    /// The index position that names slab slot `slot`, whose resident is
    /// `doc`.
    fn index_position(&self, doc: DocId, slot: usize) -> usize {
        let mask = self.index.len() - 1;
        let mut at = home(doc, self.index.len());
        while self.index[at] as usize != slot {
            assert_ne!(self.index[at], EMPTY, "resident missing from the index");
            at = (at + 1) & mask;
        }
        at
    }

    /// Enters `slot`, whose resident is `doc`, at the first free position
    /// on `doc`'s probe path.
    fn link(&mut self, doc: DocId, slot: usize) {
        let mask = self.index.len() - 1;
        let mut at = home(doc, self.index.len());
        while self.index[at] != EMPTY {
            at = (at + 1) & mask;
        }
        assert!(slot < EMPTY as usize, "too many residents for a u32 slot");
        self.index[at] = slot as u32;
    }

    /// Frees index position `hole` by backward-shift deletion: each later
    /// member of the cluster moves back into the hole unless that would
    /// put it before its home, so no probe path ever crosses an `EMPTY`.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let slot = self.index[at];
            if slot == EMPTY {
                break;
            }
            let home = home(self.slab[slot as usize].0, self.index.len());
            // Movable iff `home` is not cyclically between the hole
            // (exclusive) and `at` (inclusive).
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = at;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Appends a resident known to be absent, building or doubling the
    /// index when the population calls for it, or growing a table too
    /// short for `doc`.
    fn push(&mut self, doc: DocId, entry: Entry) {
        let slot = self.slab.len();
        self.slab.push((doc, entry));
        if !self.keys.is_empty() {
            self.keys.push(UtilityKey::of(&entry));
        }
        self.absent = None;
        debug_assert!(self.keys_in_step(), "score keys out of step after a push");
        if self.by_doc && doc.index() >= BY_DOC_LIMIT {
            self.by_doc = false;
            self.rebuild_index(FIRST_INDEX_LEN.max((2 * self.slab.len()).next_power_of_two()));
        } else if self.by_doc {
            if doc.index() >= self.index.len() {
                let len = (doc.index() + 1).max(2 * self.index.len());
                self.index.resize(len.min(BY_DOC_LIMIT), EMPTY);
            }
            self.index[doc.index()] = u32::try_from(slot).expect("fewer than 2^32 residents");
        } else if self.index.is_empty() {
            if self.slab.len() > SMALL {
                self.rebuild_index(FIRST_INDEX_LEN);
            }
        } else if self.slab.len() * 2 > self.index.len() {
            self.rebuild_index(self.index.len() * 2);
        } else {
            self.link(doc, slot);
        }
    }

    /// Re-enters every resident into a fresh table of `table_len`
    /// positions.
    fn rebuild_index(&mut self, table_len: usize) {
        self.index.clear();
        self.index.resize(table_len, EMPTY);
        for slot in 0..self.slab.len() {
            self.link(self.slab[slot].0, slot);
        }
    }

    /// Removes and returns the resident in slab slot `slot`. The last
    /// resident takes over the slot, and its index entry is re-pointed.
    fn remove_slot(&mut self, slot: usize) -> (DocId, Entry) {
        let last = self.slab.len() - 1;
        if self.by_doc {
            // Re-pointed first, so a removed last resident ends `EMPTY`.
            self.index[self.slab[last].0.index()] = slot as u32;
            self.index[self.slab[slot].0.index()] = EMPTY;
        } else if !self.index.is_empty() {
            self.unlink(self.index_position(self.slab[slot].0, slot));
            if slot != last {
                let moved = self.index_position(self.slab[last].0, last);
                self.index[moved] = slot as u32;
            }
        }
        let removed = self.slab.swap_remove(slot);
        if !self.keys.is_empty() {
            self.keys.swap_remove(slot);
        }
        self.used_bytes -= removed.1.size_bytes;
        debug_assert!(
            self.keys_in_step(),
            "score keys out of step after a removal"
        );
        removed
    }

    /// Records an access to the resident in slab slot `slot`.
    #[inline]
    fn touch(&mut self, slot: usize, now_ms: f64) -> &Entry {
        let entry = &mut self.slab[slot].1;
        entry.touch(now_ms);
        if let Some(key) = self.keys.get_mut(slot) {
            key.touched(entry.access_count);
        }
        debug_assert!(self.keys_in_step(), "score keys out of step after a touch");
        &self.slab[slot].1
    }

    /// Whether the score keys are what a rebuild from the slab gives
    /// (to the bit: a hostile entry may hold a NaN): absent, or
    /// parallel to it.
    fn keys_in_step(&self) -> bool {
        self.keys.is_empty()
            || self
                .slab
                .iter()
                .map(|(_, entry)| UtilityKey::of(entry).bits())
                .eq(self.keys.iter().map(UtilityKey::bits))
    }

    /// Serves a client lookup for `doc`, whose current origin version is
    /// `current_version`, at time `now_ms`.
    ///
    /// A fresh copy is touched (recency/frequency bookkeeping) and
    /// served; a stale copy is dropped and reported as
    /// [`LookupOutcome::Stale`].
    pub fn lookup(&mut self, doc: DocId, current_version: u64, now_ms: f64) -> LookupOutcome {
        self.stats.lookups += 1;
        match self.find(doc) {
            Some(slot) if self.slab[slot].1.version >= current_version => {
                self.touch(slot, now_ms);
                self.stats.fresh_hits += 1;
                LookupOutcome::Hit
            }
            Some(slot) => {
                self.remove_slot(slot);
                self.absent = Some(doc);
                self.stats.stale_hits += 1;
                LookupOutcome::Stale
            }
            None => {
                self.absent = Some(doc);
                self.stats.misses += 1;
                LookupOutcome::Miss
            }
        }
    }

    /// Peer probe: does this cache hold a fresh copy of `doc` at
    /// `current_version`? No statistics or recency are touched — this is
    /// the cooperative-lookup path, not a client request.
    pub fn holds_fresh(&self, doc: DocId, current_version: u64) -> bool {
        self.entry(doc)
            .is_some_and(|e| e.version >= current_version)
    }

    /// Pure presence probe: does this cache hold *any* copy of `doc`,
    /// fresh or stale? No statistics or recency are touched — this is
    /// what the simulator's holder index tracks, so placement policies
    /// see identical replica counts under both peer-lookup strategies.
    pub fn contains(&self, doc: DocId) -> bool {
        self.find(doc).is_some()
    }

    /// Serves a lookup under a TTL lease: a cached copy is valid for
    /// `ttl_ms` after insertion *regardless of origin version* (the
    /// lease model — clients may be served stale data within the
    /// lease). Expired copies are dropped and counted as stale.
    ///
    /// Returns the version served on a hit.
    pub fn lookup_ttl(&mut self, doc: DocId, now_ms: f64, ttl_ms: f64) -> Option<u64> {
        self.stats.lookups += 1;
        match self.find(doc) {
            Some(slot) if now_ms - self.slab[slot].1.inserted_ms <= ttl_ms => {
                let version = self.touch(slot, now_ms).version;
                self.stats.fresh_hits += 1;
                Some(version)
            }
            Some(slot) => {
                self.remove_slot(slot);
                self.absent = Some(doc);
                self.stats.stale_hits += 1;
                None
            }
            None => {
                self.absent = Some(doc);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peer probe under the TTL lease model: returns the version of an
    /// unexpired copy of `doc`, if any. No statistics are touched.
    pub fn holds_unexpired(&self, doc: DocId, now_ms: f64, ttl_ms: f64) -> Option<u64> {
        self.entry(doc)
            .filter(|e| now_ms - e.inserted_ms <= ttl_ms)
            .map(|e| e.version)
    }

    /// Records that this cache served `doc` to a *peer* (cooperative
    /// miss handling): recency/frequency are touched so replacement
    /// policies value documents the group relies on, but client-facing
    /// hit/miss statistics are untouched.
    ///
    /// Returns `true` if a fresh copy was present and touched.
    pub fn note_peer_serve(&mut self, doc: DocId, current_version: u64, now_ms: f64) -> bool {
        match self.find(doc) {
            Some(slot) if self.slab[slot].1.version >= current_version => {
                self.touch(slot, now_ms);
                true
            }
            _ => false,
        }
    }

    /// Inserts (or replaces) a document copy fetched at cost
    /// `fetch_cost_ms`, evicting as needed.
    ///
    /// A document larger than the whole cache is not cached at all (the
    /// standard web-cache rule) — the insert is a no-op.
    pub fn insert(
        &mut self,
        doc: DocId,
        version: u64,
        size_bytes: u64,
        fetch_cost_ms: f64,
        update_rate_per_sec: f64,
        now_ms: f64,
    ) {
        self.insert_impl(
            doc,
            version,
            size_bytes,
            fetch_cost_ms,
            update_rate_per_sec,
            now_ms,
            None,
        );
    }

    /// Like [`insert`](Self::insert), but records every eviction victim's
    /// id into the caller-owned `evicted` buffer (cleared first, so it
    /// can be reused across calls without allocating) and reports whether
    /// `doc` actually ended up cached (`false` only for the oversized
    /// no-op case). Callers that mirror cache contents elsewhere — e.g. a
    /// document→holder index — use this to stay in sync.
    #[allow(clippy::too_many_arguments)] // `insert`'s signature + the eviction buffer
    pub fn insert_with_evicted(
        &mut self,
        doc: DocId,
        version: u64,
        size_bytes: u64,
        fetch_cost_ms: f64,
        update_rate_per_sec: f64,
        now_ms: f64,
        evicted: &mut Vec<DocId>,
    ) -> bool {
        evicted.clear();
        self.insert_impl(
            doc,
            version,
            size_bytes,
            fetch_cost_ms,
            update_rate_per_sec,
            now_ms,
            Some(evicted),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_impl(
        &mut self,
        doc: DocId,
        version: u64,
        size_bytes: u64,
        fetch_cost_ms: f64,
        update_rate_per_sec: f64,
        now_ms: f64,
        evicted_out: Option<&mut Vec<DocId>>,
    ) -> bool {
        if size_bytes > self.capacity_bytes {
            return false;
        }
        // Replacing an existing copy frees its bytes first. This is the
        // insert's only search — skipped when the lookup just before it
        // found no copy: victims leave by slot and the new copy is
        // appended.
        if self.absent != Some(doc) {
            if let Some(slot) = self.find(doc) {
                self.remove_slot(slot);
            }
        }
        if self.used_bytes + size_bytes > self.capacity_bytes {
            SCORES.with_borrow_mut(|scores| {
                self.make_room(size_bytes, now_ms, scores, evicted_out);
            });
        }
        self.push(
            doc,
            Entry::new(
                version,
                size_bytes,
                fetch_cost_ms,
                update_rate_per_sec,
                now_ms,
            ),
        );
        self.used_bytes += size_bytes;
        self.stats.insertions += 1;
        true
    }

    /// Evicts until `size_bytes` more fit. LRU, LFU and GDSF score the
    /// whole slab once per victim. The utility policy makes one
    /// approximate pass over the score keys (built here if this is the
    /// cache's first eviction) into `scores`, and every victim of the
    /// insert is picked from those: `now_ms` is the same for all of
    /// them, and a victim takes its score out with it.
    fn make_room(
        &mut self,
        size_bytes: u64,
        now_ms: f64,
        scores: &mut Vec<f64>,
        mut evicted_out: Option<&mut Vec<DocId>>,
    ) {
        let by_utility = self.policy == PolicyKind::Utility;
        if by_utility {
            if self.keys.len() != self.slab.len() {
                debug_assert!(self.keys.is_empty());
                self.keys.reserve_exact(self.slab.capacity());
                self.keys
                    .extend(self.slab.iter().map(|(_, entry)| UtilityKey::of(entry)));
            }
            approximate_utilities(&self.keys, now_ms, scores);
        }
        while self.used_bytes + size_bytes > self.capacity_bytes {
            let slot = if by_utility {
                let Some(slot) = utility_victim(&self.slab, scores, now_ms) else {
                    break;
                };
                scores.swap_remove(slot);
                slot
            } else {
                let Some((slot, score)) =
                    select_victim(self.policy, &self.slab, now_ms, self.watermark)
                else {
                    break;
                };
                if self.policy == PolicyKind::Gdsf {
                    self.watermark = score;
                }
                slot
            };
            let (victim, evicted) = self.remove_slot(slot);
            self.stats.evictions += 1;
            self.stats.bytes_evicted += evicted.size_bytes;
            if let Some(out) = evicted_out.as_deref_mut() {
                out.push(victim);
            }
        }
    }

    /// Drops the cached copy of `doc` (if any), returning its entry.
    ///
    /// Used for explicit invalidation when an origin update notification
    /// is pushed to the cache.
    pub fn remove(&mut self, doc: DocId) -> Option<Entry> {
        let slot = self.find(doc)?;
        Some(self.remove_slot(slot).1)
    }

    /// Iterates over the cached documents and entries in id order
    /// (sorted on demand: this is for inspection, not the request path).
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Entry)> + '_ {
        let mut residents: Vec<(DocId, &Entry)> = self.slab.iter().map(|(d, e)| (*d, e)).collect();
        residents.sort_unstable_by_key(|&(d, _)| d);
        residents.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn filled(policy: PolicyKind) -> DocumentCache {
        let mut c = DocumentCache::new(1_000, policy);
        c.insert(DocId(0), 1, 400, 10.0, 0.0, 0.0);
        c.insert(DocId(1), 1, 400, 10.0, 0.0, 1.0);
        c
    }

    #[test]
    fn miss_then_hit_then_stale() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
        assert_eq!(c.lookup(DocId(5), 3, 0.0), LookupOutcome::Miss);
        c.insert(DocId(5), 3, 100, 20.0, 0.0, 0.0);
        assert_eq!(c.lookup(DocId(5), 3, 1.0), LookupOutcome::Hit);
        assert!(c.lookup(DocId(5), 3, 1.5).is_hit());
        assert_eq!(c.lookup(DocId(5), 4, 2.0), LookupOutcome::Stale);
        // The stale copy was dropped.
        assert_eq!(c.lookup(DocId(5), 4, 3.0), LookupOutcome::Miss);
        let s = c.stats();
        assert_eq!(s.lookups, 5);
        assert_eq!(s.fresh_hits, 2);
        assert_eq!(s.stale_hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn capacity_is_enforced_by_eviction() {
        let mut c = filled(PolicyKind::Lru);
        assert_eq!(c.used_bytes(), 800);
        c.insert(DocId(2), 1, 400, 10.0, 0.0, 2.0);
        assert!(c.used_bytes() <= 1_000);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().bytes_evicted, 400);
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut c = filled(PolicyKind::Lru);
        // Touch doc 0 so doc 1 becomes the LRU victim.
        assert!(c.lookup(DocId(0), 1, 5.0).is_hit());
        c.insert(DocId(2), 1, 400, 10.0, 0.0, 6.0);
        assert!(c.holds_fresh(DocId(0), 1));
        assert!(!c.holds_fresh(DocId(1), 1));
        assert!(c.holds_fresh(DocId(2), 1));
    }

    #[test]
    fn oversized_document_is_not_cached() {
        let mut c = DocumentCache::new(100, PolicyKind::Lru);
        c.insert(DocId(0), 1, 200, 10.0, 0.0, 0.0);
        assert!(c.is_empty());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn replacing_a_copy_does_not_leak_bytes() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
        c.insert(DocId(0), 1, 400, 10.0, 0.0, 0.0);
        c.insert(DocId(0), 2, 300, 10.0, 0.0, 1.0);
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.len(), 1);
        assert!(c.holds_fresh(DocId(0), 2));
    }

    #[test]
    fn holds_fresh_does_not_mutate_stats() {
        let c = filled(PolicyKind::Lru);
        let before = c.stats();
        assert!(c.holds_fresh(DocId(0), 1));
        assert!(!c.holds_fresh(DocId(0), 9));
        assert!(!c.holds_fresh(DocId(7), 1));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn remove_returns_entry_and_frees_space() {
        let mut c = filled(PolicyKind::Lru);
        let e = c.remove(DocId(0)).expect("present");
        assert_eq!(e.size_bytes, 400);
        assert_eq!(c.used_bytes(), 400);
        assert!(c.remove(DocId(0)).is_none());
    }

    #[test]
    fn utility_policy_keeps_expensive_hot_docs() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Utility);
        // Expensive, hot document.
        c.insert(DocId(0), 1, 400, 200.0, 0.0, 0.0);
        for t in 1..20 {
            assert!(c.lookup(DocId(0), 1, t as f64 * 100.0).is_hit());
        }
        // Cheap cold document.
        c.insert(DocId(1), 1, 400, 1.0, 0.0, 2_000.0);
        // Force an eviction.
        c.insert(DocId(2), 1, 400, 1.0, 0.0, 2_100.0);
        assert!(c.holds_fresh(DocId(0), 1), "hot doc was evicted");
        assert!(!c.holds_fresh(DocId(1), 1));
    }

    #[test]
    fn gdsf_watermark_rises_across_evictions() {
        let mut c = DocumentCache::new(800, PolicyKind::Gdsf);
        c.insert(DocId(0), 1, 400, 10.0, 0.0, 0.0);
        c.insert(DocId(1), 1, 400, 10.0, 0.0, 1.0);
        let w0 = c.watermark;
        c.insert(DocId(2), 1, 400, 10.0, 0.0, 2.0);
        assert!(c.watermark >= w0);
        c.insert(DocId(3), 1, 400, 10.0, 0.0, 3.0);
        assert!(c.watermark > 0.0);
    }

    #[test]
    fn iter_is_id_ordered() {
        let c = filled(PolicyKind::Lru);
        let ids: Vec<DocId> = c.iter().map(|(d, _)| d).collect();
        assert_eq!(ids, vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn ttl_lookup_serves_within_lease_and_expires_after() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
        c.insert(DocId(0), 3, 100, 10.0, 0.0, 1_000.0);
        // Within the lease: served even though the "origin" moved on.
        assert_eq!(c.lookup_ttl(DocId(0), 1_500.0, 1_000.0), Some(3));
        // Past the lease: dropped as stale.
        assert_eq!(c.lookup_ttl(DocId(0), 2_500.0, 1_000.0), None);
        assert_eq!(c.lookup_ttl(DocId(0), 2_600.0, 1_000.0), None); // now a miss
        let s = c.stats();
        assert_eq!(s.fresh_hits, 1);
        assert_eq!(s.stale_hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn holds_unexpired_respects_ttl_without_stats() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
        c.insert(DocId(0), 2, 100, 10.0, 0.0, 0.0);
        let before = c.stats();
        assert_eq!(c.holds_unexpired(DocId(0), 500.0, 1_000.0), Some(2));
        assert_eq!(c.holds_unexpired(DocId(0), 1_500.0, 1_000.0), None);
        assert_eq!(c.holds_unexpired(DocId(9), 0.0, 1_000.0), None);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn note_peer_serve_touches_without_stats() {
        let mut c = filled(PolicyKind::Lru);
        let before = c.stats();
        assert!(c.note_peer_serve(DocId(0), 1, 42.0));
        assert!(!c.note_peer_serve(DocId(0), 2, 43.0)); // stale
        assert!(!c.note_peer_serve(DocId(9), 1, 44.0)); // absent
        assert_eq!(c.stats(), before);
        let entry = c.iter().find(|(d, _)| *d == DocId(0)).expect("present").1;
        assert_eq!(entry.last_access_ms, 42.0);
        assert_eq!(entry.access_count, 2);
    }

    #[test]
    fn insert_with_evicted_reports_victims_and_outcome() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
        let mut evicted = Vec::new();
        assert!(c.insert_with_evicted(DocId(0), 1, 400, 10.0, 0.0, 0.0, &mut evicted));
        assert!(evicted.is_empty());
        assert!(c.insert_with_evicted(DocId(1), 1, 400, 10.0, 0.0, 1.0, &mut evicted));
        assert!(evicted.is_empty());
        // Needs both residents gone to fit.
        assert!(c.insert_with_evicted(DocId(2), 1, 900, 10.0, 0.0, 2.0, &mut evicted));
        assert_eq!(evicted, vec![DocId(0), DocId(1)]);
        // Oversized: no-op, reported as not cached, buffer cleared.
        assert!(!c.insert_with_evicted(DocId(3), 1, 2_000, 10.0, 0.0, 3.0, &mut evicted));
        assert!(evicted.is_empty());
        assert!(c.holds_fresh(DocId(2), 1));
    }

    #[test]
    fn insert_with_evicted_matches_plain_insert() {
        let mut a = DocumentCache::new(1_000, PolicyKind::Gdsf);
        let mut b = DocumentCache::new(1_000, PolicyKind::Gdsf);
        let mut scratch = Vec::new();
        for i in 0..20u64 {
            let size = 150 + (i % 5) * 90;
            let doc = DocId(i as usize);
            a.insert(doc, 1, size, 5.0, 0.1, i as f64);
            b.insert_with_evicted(doc, 1, size, 5.0, 0.1, i as f64, &mut scratch);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = DocumentCache::new(0, PolicyKind::Lru);
    }

    #[test]
    fn equality_and_iteration_ignore_slab_order() {
        // Same contents and history length, residents left in opposite
        // slab order.
        let build = |order: [usize; 2]| {
            let mut c = DocumentCache::new(1_000, PolicyKind::Lru);
            c.insert(DocId(0), 1, 100, 10.0, 0.0, 0.0);
            for d in order {
                c.insert(DocId(d), 1, 100, 10.0, 0.0, d as f64);
            }
            c.remove(DocId(0));
            c
        };
        let (a, b) = (build([1, 2]), build([2, 1]));
        assert_ne!(a.slab, b.slab);
        assert_eq!(a, b);
        assert!(a.iter().eq(b.iter()));
        let mut c = build([1, 2]);
        c.note_peer_serve(DocId(2), 1, 9.0);
        assert_ne!(a, c);
    }

    #[test]
    fn colliding_ids_survive_removal_in_any_order() {
        // One long cluster that wraps past the last index position: ids
        // whose home (at the final table size) is one of the last three
        // or first two positions, plus multiples of the table size.
        const TABLE: usize = 512;
        let mut ids: Vec<DocId> = (1..=40).map(|k| DocId(k * TABLE)).collect();
        ids.extend(
            (0..)
                .map(DocId)
                .filter(|&d| d.0 % TABLE != 0 && (home(d, TABLE) + 3) % TABLE < 5)
                .take(200),
        );
        let mut c = DocumentCache::new(u64::MAX, PolicyKind::Lru);
        for &d in &ids {
            // The version names the document, so a slot re-pointed at
            // the wrong resident shows.
            c.insert(d, d.0 as u64, 1, 1.0, 0.0, 0.0);
        }
        assert_eq!(c.index.len(), TABLE);
        // Fisher–Yates with a fixed seed.
        let mut rng = StdRng::seed_from_u64(14);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        for gone in 0..ids.len() {
            let entry = c.remove(ids[gone]).expect("still resident");
            assert_eq!(entry.version, ids[gone].0 as u64);
            for (i, &d) in ids.iter().enumerate() {
                assert_eq!(c.contains(d), i > gone, "doc {d:?} after {gone} removals");
                assert_eq!(c.holds_fresh(d, d.0 as u64), i > gone);
            }
            assert_eq!(c.len(), ids.len() - gone - 1);
            let linked = c.index.iter().filter(|&&slot| slot != EMPTY).count();
            assert_eq!(linked, c.len());
        }
    }

    #[test]
    fn a_document_addressed_table_grows_for_any_id_and_never_panics() {
        let mut c = DocumentCache::with_doc_index(u64::MAX, PolicyKind::Lru, 4);
        assert_eq!(c.index, [EMPTY; 4]);
        assert!(!c.contains(DocId(3)) && !c.contains(DocId(1_000)));
        let ids = [3, 9, 12, 2, 40];
        for (i, d) in ids.into_iter().enumerate() {
            c.insert(DocId(d), d as u64, 1, 1.0, 0.0, i as f64);
            // Stretched to reach 9, doubled for 12, stretched for 40.
            assert_eq!(c.index.len(), [4, 10, 20, 20, 41][i]);
        }
        // A removal re-points the resident that takes the freed slot.
        c.remove(DocId(3));
        assert_eq!(c.index[3], EMPTY);
        for d in [9, 12, 2, 40] {
            assert!(c.holds_fresh(DocId(d), d as u64), "{d}");
        }
        // An id no table should grow to turns the cache hashed, with
        // every resident still found.
        let unbounded = [BY_DOC_LIMIT, usize::MAX];
        for &d in &unbounded {
            c.insert(DocId(d), 7, 1, 1.0, 0.0, 5.0);
        }
        assert!(!c.by_doc && c.index.len().is_power_of_two());
        for d in [9, 12, 2, 40].into_iter().chain(unbounded) {
            assert!(c.contains(DocId(d)), "{d}");
        }
        let mut hashed = DocumentCache::new(u64::MAX, PolicyKind::Lru);
        for (i, d) in ids.into_iter().enumerate() {
            hashed.insert(DocId(d), d as u64, 1, 1.0, 0.0, i as f64);
        }
        hashed.remove(DocId(3));
        for &d in &unbounded {
            hashed.insert(DocId(d), 7, 1, 1.0, 0.0, 5.0);
        }
        assert_eq!(c, hashed);
    }

    #[test]
    fn a_reset_keeps_the_buffers_and_takes_the_new_layout() {
        let mut c = DocumentCache::with_doc_index(1_000, PolicyKind::Utility, 4);
        for d in 0..40 {
            c.insert(DocId(d), 1, 100, 10.0, 0.0, d as f64);
        }
        assert!(!c.keys.is_empty() && c.index.len() > 4 && c.stats().evictions > 0);
        let buffers =
            |c: &DocumentCache| (c.slab.capacity(), c.index.capacity(), c.keys.capacity());
        let grown = buffers(&c);
        c.reset(2_000, PolicyKind::Lru, None);
        assert_eq!(c, DocumentCache::new(2_000, PolicyKind::Lru));
        assert!(!c.by_doc && c.index.is_empty() && c.keys.is_empty());
        assert_eq!(buffers(&c), grown);
        // Hashed now: scanned up to eight residents, then indexed.
        for d in 0..9 {
            c.insert(DocId(d), 1, 100, 10.0, 0.0, 0.0);
            assert_eq!(c.index.len(), if d < 8 { 0 } else { FIRST_INDEX_LEN });
        }
        c.reset(1_000, PolicyKind::Gdsf, Some(6));
        assert!(c.by_doc && c.is_empty());
        assert_eq!(c.index, [EMPTY; 6]);
        assert_eq!(c, DocumentCache::with_doc_index(1_000, PolicyKind::Gdsf, 6));
    }

    #[test]
    fn score_keys_are_built_by_the_first_utility_eviction_and_kept_in_step() {
        let mut rng = StdRng::seed_from_u64(5);
        for policy in [PolicyKind::Utility, PolicyKind::Lru] {
            let mut c = DocumentCache::new(4_000, policy);
            let mut evicted = Vec::new();
            for step in 0..6_000u32 {
                let now = f64::from(step) * 7.0;
                let doc = DocId(rng.gen_range(0..60));
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let size = rng.gen_range(50..400);
                        let was_empty = c.keys.is_empty();
                        c.insert_with_evicted(doc, 1, size, 20.0, 0.1, now, &mut evicted);
                        if policy == PolicyKind::Utility && !evicted.is_empty() {
                            // Built by the eviction, then extended by
                            // the push that followed it.
                            assert_eq!(c.keys.len(), c.slab.len());
                        } else if was_empty {
                            assert!(c.keys.is_empty(), "keys built without an eviction");
                        }
                    }
                    5 | 6 => drop(c.lookup(doc, rng.gen_range(1..3), now)),
                    7 => drop(c.lookup_ttl(doc, now, 900.0)),
                    8 => drop(c.note_peer_serve(doc, 1, now)),
                    _ => drop(c.remove(doc)),
                }
                assert!(c.keys_in_step(), "step {step}");
                assert!(c.keys.is_empty() || c.keys.len() == c.slab.len());
            }
            assert_eq!(c.keys.is_empty(), policy != PolicyKind::Utility);
            assert!(c.stats().evictions > 100);
        }
    }

    #[test]
    fn a_million_touches_leave_the_key_exact() {
        let mut c = DocumentCache::new(1_000, PolicyKind::Utility);
        for i in 0..4 {
            c.insert(DocId(i), 1, 300, 10.0 + i as f64, 0.0, 0.0);
        }
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.keys.is_empty());
        for t in 0..1_000_000 {
            assert!(c.lookup(DocId(2), 1, 1.0 + f64::from(t) * 0.25).is_hit());
        }
        // The key holds the count itself, not a running sum: nothing
        // has drifted, and the hot document outlives the others.
        assert!(c.keys_in_step());
        let mut evicted = Vec::new();
        c.insert_with_evicted(DocId(9), 1, 900, 10.0, 0.0, 300_000.0, &mut evicted);
        assert_eq!(evicted, [DocId(1), DocId(3), DocId(2)]);
    }

    #[test]
    fn an_insert_after_a_miss_skips_the_search_and_nothing_else_does() {
        let mut c = DocumentCache::new(10_000, PolicyKind::Utility);
        c.insert(DocId(1), 1, 100, 10.0, 0.0, 0.0);
        assert_eq!(c.absent, None);
        assert_eq!(c.lookup(DocId(2), 1, 1.0), LookupOutcome::Miss);
        assert_eq!(c.absent, Some(DocId(2)));
        // Another document arrives first: the memo is spent, and the
        // replaced copy's bytes are still returned.
        c.insert(DocId(1), 2, 150, 10.0, 0.0, 2.0);
        assert_eq!((c.absent, c.len(), c.used_bytes()), (None, 1, 150));
        assert_eq!(c.lookup(DocId(1), 3, 3.0), LookupOutcome::Stale);
        assert_eq!(c.absent, Some(DocId(1)));
        c.insert(DocId(1), 3, 120, 10.0, 0.0, 4.0);
        assert_eq!((c.len(), c.used_bytes()), (1, 120));
        assert_eq!(c.lookup_ttl(DocId(1), 5_000.0, 100.0), None);
        assert_eq!(c.absent, Some(DocId(1)));
        c.insert(DocId(1), 4, 80, 10.0, 0.0, 6.0);
        c.insert(DocId(1), 5, 90, 10.0, 0.0, 7.0);
        assert_eq!((c.len(), c.used_bytes()), (1, 90));
    }

    #[test]
    fn eviction_loop_always_makes_room() {
        // Many small docs then one that needs several evictions.
        let mut c = DocumentCache::new(1_000, PolicyKind::Lfu);
        for i in 0..10 {
            c.insert(DocId(i), 1, 100, 5.0, 0.0, i as f64);
        }
        c.insert(DocId(99), 1, 900, 5.0, 0.0, 50.0);
        assert!(c.used_bytes() <= 1_000);
        assert!(c.holds_fresh(DocId(99), 1));
    }
}
