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

use crate::groups::GroupMap;
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

/// Precomputed per-cache bitmask of that cache's group peers, laid out
/// to line up word-for-word with [`HolderIndex::doc_words`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PeerMasks {
    words_per: usize,
    masks: Vec<u64>,
}

impl PeerMasks {
    /// Builds the peer masks for a group partition.
    #[cfg(test)]
    pub(crate) fn from_groups(groups: &GroupMap) -> Self {
        let mut masks = PeerMasks::default();
        masks.reset(groups);
        masks
    }

    /// Rebuilds the masks for a group partition, keeping the buffer.
    pub(crate) fn reset(&mut self, groups: &GroupMap) {
        let n = groups.cache_count();
        let words_per = n.div_ceil(64);
        self.words_per = words_per;
        self.masks.clear();
        self.masks.resize(n * words_per, 0);
        let mut group_mask = vec![0u64; words_per];
        for members in groups.groups() {
            group_mask.fill(0);
            for m in members {
                group_mask[m.index() / 64] |= 1 << (m.index() % 64);
            }
            // Each member's row is the group's mask minus its own bit.
            for m in members {
                let row = &mut self.masks[m.index() * words_per..][..words_per];
                row.copy_from_slice(&group_mask);
                row[m.index() / 64] &= !(1 << (m.index() % 64));
            }
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
        let groups =
            GroupMap::new(70, vec![(0..69).map(CacheId).collect(), vec![CacheId(69)]]).unwrap();
        let masks = PeerMasks::from_groups(&groups);
        let mut idx = HolderIndex::new(1, 70);
        let peer_holds =
            |idx: &HolderIndex, c: CacheId| !among(idx, DocId(0), masks.mask(c)).is_empty();

        // A copy on a peer is visible through the mask.
        idx.set(DocId(0), CacheId(68));
        assert!(peer_holds(&idx, CacheId(3)));
        // A cache's own copy is not a *peer* copy.
        assert!(!peer_holds(&idx, CacheId(68)));
        // The singleton has no peers at all.
        assert!(!peer_holds(&idx, CacheId(69)));

        // A copy on the singleton is invisible to the big group.
        idx.clear(DocId(0), CacheId(68));
        idx.set(DocId(0), CacheId(69));
        assert!(!peer_holds(&idx, CacheId(3)));
    }

    #[test]
    fn holder_walks_list_set_bits_in_ascending_order() {
        let groups = GroupMap::new(
            200,
            vec![
                // Shuffled on purpose: the mask is a set, not a list.
                [130, 3, 64, 199, 63].map(CacheId).to_vec(),
                (0..200)
                    .filter(|c| ![130, 3, 64, 199, 63].contains(c))
                    .map(CacheId)
                    .collect(),
            ],
        )
        .unwrap();
        let masks = PeerMasks::from_groups(&groups);
        let mut idx = HolderIndex::new(2, 200);
        for c in [3, 5, 63, 64, 130, 199] {
            idx.set(DocId(1), CacheId(c));
        }
        let all: Vec<usize> = idx.holders(DocId(1)).map(|c| c.index()).collect();
        assert_eq!(all, vec![3, 5, 63, 64, 130, 199]);
        // Cache 64's peers: its group minus itself; cache 5 is in the
        // other group and never shows.
        assert_eq!(
            among(&idx, DocId(1), masks.mask(CacheId(64))),
            [3, 63, 130, 199]
        );
        assert!(among(&idx, DocId(0), masks.mask(CacheId(64))).is_empty());
        assert_eq!(idx.holders(DocId(0)).count(), 0);

        idx.clear_doc(DocId(1));
        assert_eq!(idx.holders(DocId(1)).count(), 0);
        assert!(among(&idx, DocId(1), masks.mask(CacheId(64))).is_empty());
    }

    #[test]
    fn peer_masks_match_the_member_lists() {
        let groups = GroupMap::new(
            70,
            vec![
                vec![CacheId(69), CacheId(0), CacheId(65)],
                (1..65).chain(66..69).map(CacheId).collect(),
            ],
        )
        .unwrap();
        let masks = PeerMasks::from_groups(&groups);
        for c in (0..70).map(CacheId) {
            let mut expected = vec![0u64; 2];
            for p in groups.peers(c) {
                expected[p.index() / 64] |= 1 << (p.index() % 64);
            }
            assert_eq!(masks.mask(c), expected.as_slice(), "{c}");
        }
    }

    #[test]
    fn a_reset_index_and_reset_masks_are_new_ones() {
        let big = GroupMap::new(130, vec![(0..130).rev().map(CacheId).collect()]).unwrap();
        let small = GroupMap::new(
            5,
            vec![
                vec![CacheId(3), CacheId(0)],
                vec![CacheId(1), CacheId(4), CacheId(2)],
            ],
        )
        .unwrap();
        let mut idx = HolderIndex::new(9, 130);
        let mut masks = PeerMasks::from_groups(&big);
        for c in [0, 64, 129] {
            idx.set(DocId(8), CacheId(c));
        }
        // Shrunk, then grown back: as new every time.
        for (docs, groups) in [(3, &small), (9, &big)] {
            idx.reset(docs, groups.cache_count());
            masks.reset(groups);
            assert_eq!(idx, HolderIndex::new(docs, groups.cache_count()));
            assert_eq!(masks, PeerMasks::from_groups(groups));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cache_panics() {
        let mut idx = HolderIndex::new(1, 8);
        idx.set(DocId(0), CacheId(8));
    }
}
