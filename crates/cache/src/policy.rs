//! Replacement policies.
//!
//! The paper's caches "implement utility-based document placement and
//! replacement schemes" from the authors' Cache Clouds work (ICDCS '05).
//! [`PolicyKind::Utility`] reproduces that scheme's rationale: a
//! document is worth keeping in proportion to how often it is accessed
//! and how expensive it is to re-fetch, and worth less the bigger it is
//! and the more often the origin updates it. LRU, LFU and GDSF are
//! provided as standard baselines.

use crate::entry::Entry;
use ecg_workload::DocId;

/// Which replacement policy a [`DocumentCache`](crate::DocumentCache)
/// uses to choose eviction victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Evict the least-recently used document.
    #[default]
    Lru,
    /// Evict the least-frequently used document (ties broken by
    /// recency).
    Lfu,
    /// Cache Clouds utility-based replacement: evict the document with
    /// the smallest `utility = (access_rate × fetch_cost) /
    /// (size × (1 + update_rate))`.
    Utility,
    /// Greedy-Dual-Size-Frequency: evict the smallest
    /// `H = L + frequency × fetch_cost / size`, inflating the watermark
    /// `L` to the victim's `H` on each eviction.
    Gdsf,
}

impl PolicyKind {
    /// Human-readable policy name, for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Utility => "utility",
            PolicyKind::Gdsf => "gdsf",
        }
    }
}

/// The eviction score of an entry under a policy: the entry with the
/// *smallest* score is evicted first.
///
/// `now_ms` is the current simulation time; `watermark` is the GDSF `L`
/// value (ignored by the other policies).
#[inline]
pub(crate) fn eviction_score(
    policy: PolicyKind,
    entry: &Entry,
    now_ms: f64,
    watermark: f64,
) -> f64 {
    match policy {
        PolicyKind::Lru => entry.last_access_ms,
        PolicyKind::Lfu => {
            // Primary key: frequency; tie-break on recency by folding a
            // bounded recency term into the fraction below 1.
            let recency = 1.0 / (1.0 + (now_ms - entry.last_access_ms).max(0.0));
            entry.access_count as f64 + recency * 0.5
        }
        PolicyKind::Utility => entry.utility(now_ms),
        PolicyKind::Gdsf => {
            watermark
                + entry.access_count as f64 * entry.fetch_cost_ms / entry.size_bytes.max(1) as f64
        }
    }
}

/// Selects the eviction victim among `residents`: the one with the
/// minimum `(score, DocId)`, a total order, so the choice does not
/// depend on the order of the slice. Returns its position and score.
///
/// Returns `None` for an empty slice.
pub(crate) fn select_victim(
    policy: PolicyKind,
    residents: &[(DocId, Entry)],
    now_ms: f64,
    watermark: f64,
) -> Option<(usize, f64)> {
    // The policy is matched once here, not once per resident: each arm
    // scans with `eviction_score` specialised to a constant policy.
    macro_rules! scan {
        ($policy:expr) => {
            min_score(residents, |e| eviction_score($policy, e, now_ms, watermark))
        };
    }
    match policy {
        PolicyKind::Lru => scan!(PolicyKind::Lru),
        PolicyKind::Lfu => scan!(PolicyKind::Lfu),
        PolicyKind::Utility => scan!(PolicyKind::Utility),
        PolicyKind::Gdsf => scan!(PolicyKind::Gdsf),
    }
}

/// The position and score of the minimum `(score, DocId)` in `residents`.
fn min_score(
    residents: &[(DocId, Entry)],
    score_of: impl Fn(&Entry) -> f64,
) -> Option<(usize, f64)> {
    let (first, rest) = residents.split_first()?;
    let mut best = (0, first.0, score_of(&first.1));
    for (at, (doc, entry)) in rest.iter().enumerate() {
        let score = score_of(entry);
        // Deterministic tie-break on DocId keeps runs reproducible.
        if score < best.2 || (score == best.2 && *doc < best.1) {
            best = (at + 1, *doc, score);
        }
    }
    Some((best.0, best.2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;

    fn entry(size: u64, cost: f64, accesses: u64, last_ms: f64, update_rate: f64) -> Entry {
        let mut e = Entry::new(1, size, cost, update_rate, 0.0);
        e.access_count = accesses;
        e.last_access_ms = last_ms;
        e
    }

    /// The victim among `residents`, which must come out the same
    /// whatever order the slice is in.
    fn victim(policy: PolicyKind, residents: &[(DocId, Entry)], now: f64) -> DocId {
        let pick = |residents: &[(DocId, Entry)]| {
            let (at, _) = select_victim(policy, residents, now, 0.0).expect("non-empty");
            residents[at].0
        };
        let reversed: Vec<_> = residents.iter().rev().copied().collect();
        assert_eq!(pick(residents), pick(&reversed));
        pick(residents)
    }

    #[test]
    fn lru_evicts_oldest_access() {
        let m = [
            (DocId(0), entry(100, 10.0, 5, 50.0, 0.0)),
            (DocId(1), entry(100, 10.0, 5, 10.0, 0.0)),
            (DocId(2), entry(100, 10.0, 5, 90.0, 0.0)),
        ];
        assert_eq!(victim(PolicyKind::Lru, &m, 100.0), DocId(1));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let m = [
            (DocId(0), entry(100, 10.0, 9, 50.0, 0.0)),
            (DocId(1), entry(100, 10.0, 2, 99.0, 0.0)),
            (DocId(2), entry(100, 10.0, 5, 10.0, 0.0)),
        ];
        assert_eq!(victim(PolicyKind::Lfu, &m, 100.0), DocId(1));
    }

    #[test]
    fn lfu_breaks_ties_by_recency() {
        let m = [
            (DocId(0), entry(100, 10.0, 3, 90.0, 0.0)),
            (DocId(1), entry(100, 10.0, 3, 10.0, 0.0)),
        ];
        assert_eq!(victim(PolicyKind::Lfu, &m, 100.0), DocId(1));
    }

    #[test]
    fn utility_prefers_evicting_large_cheap_updated_docs() {
        let m = [
            // Small, expensive-to-fetch, static, hot: keep.
            (DocId(0), entry(1_000, 100.0, 20, 90.0, 0.0)),
            // Huge, cheap, frequently updated, cold: evict.
            (DocId(1), entry(1_000_000, 1.0, 1, 90.0, 1.0)),
        ];
        assert_eq!(victim(PolicyKind::Utility, &m, 100.0), DocId(1));
    }

    #[test]
    fn utility_penalizes_update_rate() {
        let m = [
            // Identical except update rate.
            (DocId(0), entry(1_000, 10.0, 5, 50.0, 0.0)),
            (DocId(1), entry(1_000, 10.0, 5, 50.0, 2.0)),
        ];
        assert_eq!(victim(PolicyKind::Utility, &m, 100.0), DocId(1));
    }

    #[test]
    fn gdsf_prefers_evicting_big_cheap_docs() {
        let m = [
            (DocId(0), entry(10, 50.0, 3, 0.0, 0.0)), // tiny, pricey
            (DocId(1), entry(100_000, 50.0, 3, 0.0, 0.0)), // huge
        ];
        assert_eq!(victim(PolicyKind::Gdsf, &m, 100.0), DocId(1));
    }

    #[test]
    fn gdsf_watermark_shifts_scores() {
        let e = entry(100, 10.0, 2, 0.0, 0.0);
        let low = eviction_score(PolicyKind::Gdsf, &e, 0.0, 0.0);
        let high = eviction_score(PolicyKind::Gdsf, &e, 0.0, 5.0);
        assert!((high - low - 5.0).abs() < 1e-12);
    }

    #[test]
    fn equal_scores_go_to_the_smaller_id() {
        let same = entry(100, 10.0, 3, 50.0, 0.0);
        let m = [(DocId(7), same), (DocId(2), same), (DocId(5), same)];
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::Utility,
            PolicyKind::Gdsf,
        ] {
            assert_eq!(victim(policy, &m, 100.0), DocId(2));
        }
    }

    #[test]
    fn empty_entry_set_has_no_victim() {
        assert!(select_victim(PolicyKind::Lru, &[], 0.0, 0.0).is_none());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::Lru.name(), "lru");
        assert_eq!(PolicyKind::Utility.name(), "utility");
        assert_eq!(PolicyKind::Lfu.name(), "lfu");
        assert_eq!(PolicyKind::Gdsf.name(), "gdsf");
    }
}
