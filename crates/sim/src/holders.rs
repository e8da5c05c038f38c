//! Document→holder index for the cooperative-miss hot path.
//!
//! On every local miss the simulator asks each group peer whether it
//! holds a copy of the requested document. The naive path probes every
//! peer's cache — a hashed lookup into another cache's store per peer
//! per miss, which dominates trace replay for large groups.
//! [`HolderIndex`] mirrors cache *membership* in one compact bitset per
//! document and acts as the group's directory: ANDing the document's
//! words with a precomputed peer mask ([`PeerMasks`]) and walking the
//! set bits ([`HolderIndex::holders_among`]) names exactly the peers
//! that can answer, so a miss costs `words_per_doc` ANDs plus one RTT
//! read per alive holder and — the simulator tries them nearest-first
//! and stops at the first servable copy — one cache probe per holder
//! tried, instead of one probe per group member. The same walk without
//! a mask ([`HolderIndex::holders`]) drives multicast invalidation.
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
/// The caller (the simulation driver) is responsible for keeping the
/// index in sync with every membership change: inserts, policy
/// evictions, stale/expired drops, pushed invalidations, and crash
/// purges.
///
/// # Examples
///
/// ```
/// use ecg_sim::HolderIndex;
/// use ecg_topology::CacheId;
/// use ecg_workload::DocId;
///
/// let mut idx = HolderIndex::new(10, 70);
/// idx.set(DocId(3), CacheId(65));
/// assert!(idx.holds(DocId(3), CacheId(65)));
/// assert!(!idx.holds(DocId(3), CacheId(0)));
/// idx.clear_cache(CacheId(65));
/// assert_eq!(idx.holder_count(DocId(3)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HolderIndex {
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
    pub fn new(docs: usize, caches: usize) -> Self {
        assert!(caches > 0, "need at least one cache");
        let words_per_doc = caches.div_ceil(64);
        HolderIndex {
            caches,
            words_per_doc,
            bits: vec![0; docs * words_per_doc],
        }
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
    pub fn set(&mut self, doc: DocId, cache: CacheId) {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] |= mask;
    }

    /// Marks `cache` as no longer holding `doc`. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `doc` or `cache` is out of range.
    pub fn clear(&mut self, doc: DocId, cache: CacheId) {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] &= !mask;
    }

    /// Does `cache` hold a copy of `doc` (fresh or not)?
    ///
    /// # Panics
    ///
    /// Panics if `doc` or `cache` is out of range.
    pub fn holds(&self, doc: DocId, cache: CacheId) -> bool {
        let (word, mask) = self.locate(doc, cache);
        self.bits[word] & mask != 0
    }

    /// Drops `cache` from every document's holder set — the crash/purge
    /// path. One strided pass over the bit words.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub fn clear_cache(&mut self, cache: CacheId) {
        assert!(cache.index() < self.caches, "cache {cache} out of range");
        let mask = !(1u64 << (cache.index() % 64));
        let mut word = cache.index() / 64;
        while word < self.bits.len() {
            self.bits[word] &= mask;
            word += self.words_per_doc;
        }
    }

    /// The raw bit words of `doc`'s holder set.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn doc_words(&self, doc: DocId) -> &[u64] {
        let start = doc.index() * self.words_per_doc;
        &self.bits[start..start + self.words_per_doc]
    }

    /// The caches holding a copy of `doc` (fresh or not), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn holders(&self, doc: DocId) -> impl Iterator<Item = CacheId> + '_ {
        set_bits(self.doc_words(doc).iter().copied())
    }

    /// The holders of `doc` among the caches selected by `mask` (e.g. a
    /// [`PeerMasks`] row), ascending: the directory lookup of the miss
    /// path. `words_per_doc` ANDs when it comes up empty.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn holders_among<'a>(
        &'a self,
        doc: DocId,
        mask: &'a [u64],
    ) -> impl Iterator<Item = CacheId> + 'a {
        set_bits(self.doc_words(doc).iter().zip(mask).map(|(a, b)| a & b))
    }

    /// [`holders_among`](Self::holders_among) as a loop: `visit` is
    /// called on each holder in the same order, and the per-word bit
    /// scan compiles to just that — the miss path visits a dozen holders
    /// per lookup.
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
    pub fn clear_doc(&mut self, doc: DocId) {
        let start = doc.index() * self.words_per_doc;
        self.bits[start..start + self.words_per_doc].fill(0);
    }

    /// Number of caches holding a copy of `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn holder_count(&self, doc: DocId) -> usize {
        self.doc_words(doc)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// The caches whose bits are set in `words` (word `i` covers caches
/// `64 i ..`), ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = CacheId> {
    words.enumerate().flat_map(|(i, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                CacheId(i * 64 + bit)
            })
        })
    })
}

/// Precomputed per-cache bitmask of that cache's group peers, laid out
/// to line up word-for-word with [`HolderIndex::doc_words`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerMasks {
    words_per: usize,
    masks: Vec<u64>,
}

impl PeerMasks {
    /// Builds the peer masks for a group partition.
    pub fn from_groups(groups: &GroupMap) -> Self {
        let n = groups.cache_count();
        let words_per = n.div_ceil(64);
        let mut masks = vec![0u64; n * words_per];
        let mut group_mask = vec![0u64; words_per];
        for members in groups.groups() {
            group_mask.fill(0);
            for m in members {
                group_mask[m.index() / 64] |= 1 << (m.index() % 64);
            }
            // Each member's row is the group's mask minus its own bit.
            for m in members {
                let row = &mut masks[m.index() * words_per..][..words_per];
                row.copy_from_slice(&group_mask);
                row[m.index() / 64] &= !(1 << (m.index() % 64));
            }
        }
        PeerMasks { words_per, masks }
    }

    /// The peer mask of `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub fn mask(&self, cache: CacheId) -> &[u64] {
        let start = cache.index() * self.words_per;
        &self.masks[start..start + self.words_per]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_holds_roundtrip() {
        let mut idx = HolderIndex::new(4, 130);
        assert!(!idx.holds(DocId(2), CacheId(129)));
        idx.set(DocId(2), CacheId(129));
        idx.set(DocId(2), CacheId(0));
        assert!(idx.holds(DocId(2), CacheId(129)));
        assert!(idx.holds(DocId(2), CacheId(0)));
        assert!(!idx.holds(DocId(3), CacheId(0)));
        assert_eq!(idx.holder_count(DocId(2)), 2);
        idx.clear(DocId(2), CacheId(0));
        idx.clear(DocId(2), CacheId(0)); // idempotent
        assert!(!idx.holds(DocId(2), CacheId(0)));
        assert_eq!(idx.holder_count(DocId(2)), 1);
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
        let peer_holds = |idx: &HolderIndex, c: CacheId| {
            idx.holders_among(DocId(0), masks.mask(c)).next().is_some()
        };

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
        let peers: Vec<usize> = idx
            .holders_among(DocId(1), masks.mask(CacheId(64)))
            .map(|c| c.index())
            .collect();
        assert_eq!(peers, vec![3, 63, 130, 199]);
        // The loop form visits the same holders in the same order.
        let mut visited = Vec::new();
        idx.for_each_holder_among(DocId(1), masks.mask(CacheId(64)), |c| {
            visited.push(c.index());
        });
        assert_eq!(visited, peers);
        idx.for_each_holder_among(DocId(0), masks.mask(CacheId(64)), |c| {
            panic!("document 0 has no holder, visited {c:?}");
        });
        assert_eq!(idx.holders(DocId(0)).count(), 0);
        assert_eq!(
            idx.holders_among(DocId(0), masks.mask(CacheId(64))).count(),
            0
        );

        idx.clear_doc(DocId(1));
        assert_eq!(idx.holder_count(DocId(1)), 0);
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_cache_panics() {
        let mut idx = HolderIndex::new(1, 8);
        idx.set(DocId(0), CacheId(8));
    }
}
