//! Document→holder index for the cooperative-miss hot path.
//!
//! On every local miss the simulator asks each group peer whether it
//! holds a copy of the requested document. The naive path probes every
//! peer's cache — a lookup into another cache's store per peer per
//! miss, which dominates trace replay for large groups.
//! [`HolderIndex`] mirrors cache *membership* in one compact bitset per
//! document and acts as the group's directory: ANDing the document's
//! words with a precomputed peer mask ([`PeerMasks`]) rules a group out
//! in `words_per_doc` ANDs, and the peers that can answer are the set
//! bits — walked in cache order ([`HolderIndex::for_each_holder_among`])
//! by a sparse run, which ranks them nearest-first, or tested one by one
//! along the requester's nearest-first peer order by a dense run. Either
//! way the simulator stops at the first servable copy, so a miss costs
//! one cache probe per holder tried instead of one per group member.
//! The walk without a mask ([`HolderIndex::holders`]) drives multicast
//! invalidation.
//!
//! The index tracks presence only. Freshness (origin version or TTL
//! lease) is still checked against the holding peer's actual cache
//! entry, so a lookup through the index returns exactly what a full
//! scan would: a set bit for a stale copy simply fails the freshness
//! check, and an absent bit skips a probe that would have returned
//! "not held" anyway.

use ecg_topology::CacheId;
use ecg_workload::DocId;

/// One bitset of holding caches per document.
///
/// The caller (the simulation kernel) is responsible for keeping the
/// index in sync with every membership change: inserts, policy
/// evictions, stale/expired drops, pushed invalidations, and crash
/// purges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct HolderIndex {
    caches: usize,
    words_per_doc: usize,
    bits: Vec<u64>,
}

impl HolderIndex {
    /// Creates an empty index for `docs` documents over `caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    #[cfg(test)]
    pub(crate) fn new(docs: usize, caches: usize) -> Self {
        let mut index = HolderIndex::default();
        index.reset(docs, caches);
        index
    }

    /// Empties the index and re-lays it out for `docs` documents over
    /// `caches` caches, keeping its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `caches == 0`.
    pub(crate) fn reset(&mut self, docs: usize, caches: usize) {
        assert!(caches > 0, "need at least one cache");
        self.caches = caches;
        self.words_per_doc = caches.div_ceil(64);
        self.bits.clear();
        self.bits.resize(docs * self.words_per_doc, 0);
    }

    fn locate(&self, doc: DocId, cache: CacheId) -> (usize, u64) {
        assert!(cache.index() < self.caches, "cache {cache} out of range");
        let word = doc.index() * self.words_per_doc + cache.index() / 64;
        (word, 1u64 << (cache.index() % 64))
    }

    /// Marks `cache` as holding a copy of `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` or `cache` is out of range.
    pub(crate) fn set(&mut self, doc: DocId, cache: CacheId) {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] |= mask;
    }

    /// Marks `cache` as no longer holding `doc`. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `doc` or `cache` is out of range.
    pub(crate) fn clear(&mut self, doc: DocId, cache: CacheId) {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] &= !mask;
    }

    /// Does `cache` hold a copy of `doc` (fresh or not)?
    ///
    /// # Panics
    ///
    /// Panics if `doc` or `cache` is out of range.
    pub(crate) fn holds(&self, doc: DocId, cache: CacheId) -> bool {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] & mask != 0
    }

    /// Drops `cache` from every document's holder set — the crash/purge
    /// path. One strided pass over the bit words.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub(crate) fn clear_cache(&mut self, cache: CacheId) {
        assert!(cache.index() < self.caches, "cache {cache} out of range");
        let mask = !(1u64 << (cache.index() % 64));
        let mut word = cache.index() / 64;
        while word < self.bits.len() {
            self.bits[word] &= mask;
            word += self.words_per_doc;
        }
    }

    /// The raw bit words of `doc`'s holder set: cache `c` is bit `c % 64`
    /// of word `c / 64`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub(crate) fn doc_words(&self, doc: DocId) -> &[u64] {
        let start = doc.index() * self.words_per_doc;
        &self.bits[start..start + self.words_per_doc]
    }

    /// The caches holding a copy of `doc` (fresh or not), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub(crate) fn holders(&self, doc: DocId) -> impl Iterator<Item = CacheId> + '_ {
        let words = self.doc_words(doc).iter().enumerate();
        words.flat_map(|(i, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 != 0)
                .map(move |bit| CacheId(i * 64 + bit))
        })
    }

    /// Whether any cache selected by `mask` (e.g. a [`PeerMasks`] row)
    /// holds `doc`: `words_per_doc` ANDs.
    pub(crate) fn any_among(&self, doc: DocId, mask: &[u64]) -> bool {
        self.doc_words(doc)
            .iter()
            .zip(mask)
            .any(|(a, b)| a & b != 0)
    }

    /// Calls `visit` on each holder of `doc` among the caches selected
    /// by `mask`, ascending: the directory lookup of a sparse run's miss
    /// path. The per-word bit scan compiles to just that.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub(crate) fn for_each_holder_among(
        &self,
        doc: DocId,
        mask: &[u64],
        mut visit: impl FnMut(CacheId),
    ) {
        for (i, (holders, selected)) in self.doc_words(doc).iter().zip(mask).enumerate() {
            let mut word = holders & selected;
            while word != 0 {
                visit(CacheId(i * 64 + word.trailing_zeros() as usize));
                word &= word - 1;
            }
        }
    }

    /// Drops every cache from `doc`'s holder set — the pushed
    /// invalidation path.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub(crate) fn clear_doc(&mut self, doc: DocId) {
        let start = doc.index() * self.words_per_doc;
        self.bits[start..start + self.words_per_doc].fill(0);
    }
}

/// Precomputed per-cache bitmask of that cache's peers — every other
/// cache of the run's one group — laid out to line up word-for-word
/// with [`HolderIndex::doc_words`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PeerMasks {
    words_per: usize,
    masks: Vec<u64>,
}

impl PeerMasks {
    /// Builds the peer masks of one group of `caches` caches.
    #[cfg(test)]
    pub(crate) fn new(caches: usize) -> Self {
        let mut masks = PeerMasks::default();
        masks.reset(caches);
        masks
    }

    /// Rebuilds the masks for one group of `caches` caches, keeping the
    /// buffer.
    pub(crate) fn reset(&mut self, caches: usize) {
        let words_per = caches.div_ceil(64);
        self.words_per = words_per;
        self.masks.clear();
        self.masks.resize(caches * words_per, u64::MAX);
        let tail = caches % 64;
        for (c, row) in self.masks.chunks_exact_mut(words_per.max(1)).enumerate() {
            // Each row is the group's mask minus the cache's own bit.
            if tail != 0 {
                row[words_per - 1] = (1 << tail) - 1;
            }
            row[c / 64] &= !(1 << (c % 64));
        }
    }

    /// The peer mask of `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub(crate) fn mask(&self, cache: CacheId) -> &[u64] {
        let start = cache.index() * self.words_per;
        &self.masks[start..start + self.words_per]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The holders of `doc` among `mask`, as [`HolderIndex::for_each_holder_among`]
    /// visits them.
    fn among(idx: &HolderIndex, doc: DocId, mask: &[u64]) -> Vec<usize> {
        let mut visited = Vec::new();
        idx.for_each_holder_among(doc, mask, |c| visited.push(c.index()));
        assert_eq!(idx.any_among(doc, mask), !visited.is_empty());
        visited
    }

    #[test]
    fn set_clear_holds_roundtrip() {
        let mut idx = HolderIndex::new(4, 130);
        assert!(!idx.holds(DocId(2), CacheId(129)));
        idx.set(DocId(2), CacheId(129));
        idx.set(DocId(2), CacheId(0));
        assert!(idx.holds(DocId(2), CacheId(129)));
        assert!(idx.holds(DocId(2), CacheId(0)));
        assert!(!idx.holds(DocId(3), CacheId(0)));
        assert_eq!(idx.holders(DocId(2)).count(), 2);
        idx.clear(DocId(2), CacheId(0));
        idx.clear(DocId(2), CacheId(0)); // idempotent
        assert!(!idx.holds(DocId(2), CacheId(0)));
        assert!(idx.holders(DocId(2)).eq([CacheId(129)]));
    }

    #[test]
    fn clear_cache_strides_over_all_docs() {
        let mut idx = HolderIndex::new(5, 100);
        for d in 0..5 {
            idx.set(DocId(d), CacheId(70));
            idx.set(DocId(d), CacheId(1));
        }
        idx.clear_cache(CacheId(70));
        for d in 0..5 {
            assert!(!idx.holds(DocId(d), CacheId(70)));
            assert!(idx.holds(DocId(d), CacheId(1)));
        }
    }

    #[test]
    fn peer_masks_select_exactly_the_peers() {
        let masks = PeerMasks::new(70);
        let mut idx = HolderIndex::new(1, 70);
        let peer_holds =
            |idx: &HolderIndex, c: CacheId| !among(idx, DocId(0), masks.mask(c)).is_empty();

        // A copy on a peer is visible through the mask, across words.
        idx.set(DocId(0), CacheId(68));
        assert!(peer_holds(&idx, CacheId(3)));
        // A cache's own copy is not a *peer* copy.
        assert!(!peer_holds(&idx, CacheId(68)));
        // A lone cache has no peers at all.
        let alone = PeerMasks::new(1);
        idx.set(DocId(0), CacheId(0));
        assert!(among(&idx, DocId(0), alone.mask(CacheId(0))).is_empty());
    }

    #[test]
    fn holder_walks_list_set_bits_in_ascending_order() {
        let masks = PeerMasks::new(200);
        let mut idx = HolderIndex::new(2, 200);
        for c in [3, 5, 63, 64, 130, 199] {
            idx.set(DocId(1), CacheId(c));
        }
        let all: Vec<usize> = idx.holders(DocId(1)).map(|c| c.index()).collect();
        assert_eq!(all, vec![3, 5, 63, 64, 130, 199]);
        // Cache 64's peers: every holder but itself.
        assert_eq!(
            among(&idx, DocId(1), masks.mask(CacheId(64))),
            [3, 5, 63, 130, 199]
        );
        assert!(among(&idx, DocId(0), masks.mask(CacheId(64))).is_empty());
        assert_eq!(idx.holders(DocId(0)).count(), 0);

        idx.clear_doc(DocId(1));
        assert_eq!(idx.holders(DocId(1)).count(), 0);
        assert!(among(&idx, DocId(1), masks.mask(CacheId(64))).is_empty());
    }

    #[test]
    fn peer_masks_hold_every_other_cache() {
        for caches in [1, 2, 63, 64, 65, 70, 128, 130] {
            let masks = PeerMasks::new(caches);
            for c in 0..caches {
                let mut expected = vec![0u64; caches.div_ceil(64)];
                for p in (0..caches).filter(|&p| p != c) {
                    expected[p / 64] |= 1 << (p % 64);
                }
                assert_eq!(masks.mask(CacheId(c)), expected.as_slice(), "{caches}: {c}");
            }
        }
    }

    #[test]
    fn a_reset_index_and_reset_masks_are_new_ones() {
        let mut idx = HolderIndex::new(9, 130);
        let mut masks = PeerMasks::new(130);
        for c in [0, 64, 129] {
            idx.set(DocId(8), CacheId(c));
        }
        // Shrunk, then grown back: as new every time.
        for (docs, caches) in [(3, 5), (9, 130), (1, 1)] {
            idx.reset(docs, caches);
            masks.reset(caches);
            assert_eq!(idx, HolderIndex::new(docs, caches));
            assert_eq!(masks, PeerMasks::new(caches));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cache_panics() {
        let mut idx = HolderIndex::new(1, 8);
        idx.set(DocId(0), CacheId(8));
    }
}
