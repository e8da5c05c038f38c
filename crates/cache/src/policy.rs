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

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// The inverse of [`PolicyKind::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [Self::Lru, Self::Lfu, Self::Utility, Self::Gdsf]
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("policy must be lru, lfu, utility or gdsf, got {s:?}"))
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

/// Selects the eviction victim among `residents` by scoring every one:
/// the minimum `(score, DocId)`, a total order, so the choice does not
/// depend on the order of the slice. Returns its position and score.
///
/// This scan is the victim selection of LRU, LFU and GDSF. For
/// [`PolicyKind::Utility`] it is the **reference** that
/// [`utility_victim`] — what [`DocumentCache`](crate::DocumentCache)
/// runs — is tested against, bit for bit.
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
    let mut best: Option<(usize, DocId, f64)> = None;
    for (at, (doc, entry)) in residents.iter().enumerate() {
        keep_smaller(&mut best, at, *doc, score_of(entry));
    }
    best.map(|(at, _, score)| (at, score))
}

/// Replaces `best` by `(at, doc, score)` if it is the first candidate or
/// smaller in `(score, DocId)`. The deterministic tie-break on `DocId`
/// keeps runs reproducible.
#[inline]
fn keep_smaller(best: &mut Option<(usize, DocId, f64)>, at: usize, doc: DocId, score: f64) {
    if best.is_none_or(|(_, best_doc, least)| score < least || (score == least && doc < best_doc)) {
        *best = Some((at, doc, score));
    }
}

/// What [`PolicyKind::Utility`]'s score needs of one resident and
/// nothing else, 24 bytes where the resident is 64: the operands of the
/// one-pass *approximate* score [`approximate_utilities`] computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct UtilityKey {
    /// `fetch_cost / (size × (1 + update_rate))`: everything in
    /// [`Entry::utility`] that never changes while the entry is
    /// resident. Zero when the entry lies outside the screen's domain
    /// ([`SCREENED`]), which makes its approximate score zero and sends
    /// the selection to exact evaluation of every resident.
    weight: f64,
    /// [`Entry::inserted_ms`].
    inserted_ms: f64,
    /// [`Entry::access_count`] as the `f64` the exact formula converts
    /// it to: the one field a touch changes.
    accesses: f64,
}

/// The magnitudes the screen vouches for: a fetch cost and a
/// `size × (1 + update_rate)` in this range (and a finite insertion
/// time) keep every intermediate of both formulas a normal `f64`
/// whenever the smallest approximate score is at least
/// [`SCREENED`]`.start()` — see [`utility_victim`].
const SCREENED: std::ops::RangeInclusive<f64> = 1e-60..=1e60;

/// How far above the smallest approximate score a resident's may lie for
/// it to be evaluated exactly. The exact and the approximate formula
/// round the same real quotient 4 and 5 times, so they agree to within
/// `(1 + 2⁻⁵³)⁹ − 1 < 1.1e-15`; the slack leaves six orders of magnitude
/// to spare.
const SLACK: f64 = 1e-9;

impl UtilityKey {
    /// The key of `entry`.
    pub(crate) fn of(entry: &Entry) -> Self {
        let cost = entry.size_bytes.max(1) as f64 * (1.0 + entry.update_rate_per_sec);
        let screened = SCREENED.contains(&entry.fetch_cost_ms)
            && SCREENED.contains(&cost)
            && entry.inserted_ms.is_finite();
        UtilityKey {
            weight: if screened {
                entry.fetch_cost_ms / cost
            } else {
                0.0
            },
            inserted_ms: entry.inserted_ms,
            accesses: entry.access_count as f64,
        }
    }

    /// The key's three fields as bit patterns, for comparing keys that
    /// may hold a NaN.
    pub(crate) fn bits(&self) -> [u64; 3] {
        [self.weight, self.inserted_ms, self.accesses].map(f64::to_bits)
    }

    /// Records that the entry's access count is now `access_count`.
    #[inline]
    pub(crate) fn touched(&mut self, access_count: u64) {
        self.accesses = access_count as f64;
    }
}

/// One branch-free pass over `keys`: `scores[i]` becomes the approximate
/// utility of resident `i` at `now_ms` — one division where
/// [`Entry::utility`] makes three, over 24-byte keys in a loop the
/// compiler vectorises. Every score is a non-negative number, never a
/// NaN: a weight is zero or in `[1e-120, 1e120]`, an access count at
/// most 2⁶⁴, and the window at least 1 (a NaN age counts as the floor,
/// exactly as `f64::max` makes it in the exact formula).
pub(crate) fn approximate_utilities(keys: &[UtilityKey], now_ms: f64, scores: &mut Vec<f64>) {
    scores.clear();
    scores.extend(keys.iter().map(|key| {
        let window_sec = (now_ms - key.inserted_ms) * 0.001;
        let window_sec = if window_sec > 1.0 { window_sec } else { 1.0 };
        key.accesses * key.weight / window_sec
    }));
}

/// The smallest of `scores` (`+∞` when empty), in eight independent
/// lanes so the comparisons do not wait on one another; `min` is exact
/// and order-free, so the lanes do not show in the result.
fn least(scores: &[f64]) -> f64 {
    let smaller = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [f64::INFINITY; 8];
    let octets = scores.chunks_exact(8);
    for &score in octets.remainder() {
        lanes[0] = smaller(lanes[0], score);
    }
    for octet in octets {
        for (lane, &score) in lanes.iter_mut().zip(octet) {
            *lane = smaller(*lane, score);
        }
    }
    lanes.into_iter().fold(f64::INFINITY, smaller)
}

/// The position of the [`PolicyKind::Utility`] victim among `residents`
/// — the one [`select_victim`] returns — from the approximate `scores`
/// of [`approximate_utilities`] at the same `now_ms` (`scores[i]`
/// belongs to `residents[i]`). The victim is among the residents whose
/// approximate score lies within [`SLACK`] of the smallest. Normally
/// that is one resident, and it is the victim without a single exact
/// evaluation; when there are several, [`Entry::utility`] decides
/// among them by the reference's own `(utility, DocId)` order.
///
/// **Why the victim is among them.** Write `T` for a resident's utility
/// as a real number. While every intermediate is a normal `f64`, the
/// exact formula returns `T(1 + δ)⁴` and the approximate one `T(1 + δ)⁵`
/// with `|δ| ≤ 2⁻⁵³` (both start from the same rounded age, size factor
/// and access count), so the two differ by less than `ε = 1.1e-15`
/// relative. The true victim `v` has `exact(v) ≤ exact(i)` for all `i`,
/// hence `approx(v) ≤ approx(i) (1 + ε) / (1 − ε)`: it lies within
/// `SLACK ≫ 2ε` of the smallest approximate score, as does every
/// resident that ties with it exactly.
///
/// **When intermediates are normal.** A resident whose fetch cost or
/// size factor lies outside [`SCREENED`], or whose insertion time is
/// not finite, has weight zero and therefore score zero. So if the
/// smallest score is at least `1e-60`, every resident is inside the
/// domain, and each product and quotient of either formula lies between
/// `1e-180` and `1e200`. Otherwise — a zero or astronomically small
/// utility, an infinite age, a hostile entry — nothing is screened out
/// and every resident is evaluated exactly, in slice order, which *is*
/// the reference scan.
pub(crate) fn utility_victim(
    residents: &[(DocId, Entry)],
    scores: &[f64],
    now_ms: f64,
) -> Option<usize> {
    debug_assert_eq!(residents.len(), scores.len());
    let floor = least(scores);
    let bound = if floor >= *SCREENED.start() {
        floor * (1.0 + SLACK)
    } else {
        f64::INFINITY
    };
    let within = |score: &f64| *score <= bound;
    // Counted without a branch; then found — the scan stops at it.
    if scores.iter().filter(|score| within(score)).count() == 1 {
        return scores.iter().position(within);
    }
    let mut best: Option<(usize, DocId, f64)> = None;
    for (at, (doc, entry)) in residents.iter().enumerate() {
        if within(&scores[at]) {
            keep_smaller(&mut best, at, *doc, entry.utility(now_ms));
        }
    }
    best.map(|(at, ..)| at)
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
        assert!(utility_victim(&[], &[], 0.0).is_none());
    }

    /// Evicts `residents` down to nothing at `now`, victim by victim,
    /// from one approximate pass — a whole burst — and checks every
    /// pick, position and score bits, against the reference scan. Then
    /// the same again with the slab order reversed. Returns how many
    /// exact evaluations the bursts took (a pick with one resident
    /// inside the slack takes none).
    fn assert_bursts_match_the_reference(residents: &[(DocId, Entry)], now: f64) -> usize {
        let mut evaluations = 0;
        let reversed: Vec<_> = residents.iter().rev().copied().collect();
        for order in [residents, &reversed] {
            let mut slab = order.to_vec();
            let keys: Vec<UtilityKey> = slab.iter().map(|(_, e)| UtilityKey::of(e)).collect();
            let mut scores = Vec::new();
            approximate_utilities(&keys, now, &mut scores);
            assert!(
                scores.iter().all(|s| *s >= 0.0),
                "a score is NaN or negative"
            );
            while !slab.is_empty() {
                let floor = least(&scores);
                let screened = floor >= *SCREENED.start();
                let bound = if screened {
                    floor * (1.0 + SLACK)
                } else {
                    f64::INFINITY
                };
                let within = scores.iter().filter(|s| **s <= bound).count();
                evaluations += if within > 1 { within } else { 0 };
                let at = utility_victim(&slab, &scores, now).expect("non-empty");
                let (ref_at, ref_score) =
                    select_victim(PolicyKind::Utility, &slab, now, 0.0).expect("non-empty");
                assert_eq!(at, ref_at, "{:?} for {:?} at {now}", slab[at], slab[ref_at]);
                assert_eq!(slab[at].1.utility(now).to_bits(), ref_score.to_bits());
                slab.swap_remove(at);
                scores.swap_remove(at);
            }
        }
        evaluations
    }

    #[test]
    fn scores_an_ulp_apart_and_exact_ties_pick_the_reference_victim() {
        let base = entry(4_000, 37.5, 3, 0.0, 0.05);
        // Fetch costs one and two places apart, in both id orders.
        let mut near: Vec<(DocId, Entry)> = Vec::new();
        let cost = base.fetch_cost_ms;
        let costs = [
            cost,
            cost.next_up(),
            cost.next_down(),
            cost.next_up().next_up(),
            cost,
            cost.next_down().next_down(),
            cost.next_up(),
        ];
        for (i, fetch_cost_ms) in costs.into_iter().enumerate() {
            near.push((
                DocId(20 - i),
                Entry {
                    fetch_cost_ms,
                    ..base
                },
            ));
        }
        for now in [0.0, 500.0, 1_000.0, 7_777.7, 1e9] {
            assert_bursts_match_the_reference(&near, now);
        }
        // Exactly equal scores: the smaller id goes first, wherever it
        // sits in the slab.
        let ties = [(DocId(9), base), (DocId(3), base), (DocId(5), base)];
        let mut slab = ties.to_vec();
        let keys: Vec<UtilityKey> = slab.iter().map(|(_, e)| UtilityKey::of(e)).collect();
        let mut scores = Vec::new();
        approximate_utilities(&keys, 2_500.0, &mut scores);
        let mut order = Vec::new();
        while let Some(at) = utility_victim(&slab, &scores, 2_500.0) {
            order.push(slab.swap_remove(at).0);
            scores.swap_remove(at);
        }
        assert_eq!(order, [DocId(3), DocId(5), DocId(9)]);
        assert_bursts_match_the_reference(&ties, 2_500.0);
    }

    #[test]
    fn ages_around_the_window_floor_pick_the_reference_victim() {
        // Inserted so that the age at `now` is just below, at, and just
        // above the 1 s floor of the rate window — where `age / 1000`
        // and `age × 0.001` may land on different sides of 1.
        let now = 50_000.0;
        let mut residents = Vec::new();
        for (i, age) in [
            0.0,
            999.0,
            1_000.0f64.next_down(),
            1_000.0,
            1_000.0f64.next_up(),
            1_000.0f64.next_up().next_up(),
            1_000.000_000_1,
            1_001.0,
            -5.0,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = entry(2_000, 40.0, 2, 0.0, 0.0);
            e.inserted_ms = now - age;
            residents.push((DocId(i), e));
        }
        let evaluations = assert_bursts_match_the_reference(&residents, now);
        // Nothing degenerate here: the bursts stayed on the screen.
        assert!(evaluations < 2 * residents.len() * residents.len());
    }

    #[test]
    fn degenerate_entries_fall_through_to_exact_evaluation() {
        let plain = entry(3_000, 25.0, 4, 0.0, 0.1);
        let with = |change: fn(&mut Entry)| {
            let mut e = plain;
            change(&mut e);
            e
        };
        let odd: Vec<Entry> = vec![
            with(|e| e.fetch_cost_ms = 0.0),
            with(|e| e.size_bytes = 0),
            with(|e| e.update_rate_per_sec = 1e300),
            with(|e| e.update_rate_per_sec = f64::INFINITY),
            with(|e| e.update_rate_per_sec = -1.0),
            with(|e| e.update_rate_per_sec = -3.0),
            with(|e| e.fetch_cost_ms = f64::INFINITY),
            with(|e| e.fetch_cost_ms = 1e-200),
            with(|e| e.fetch_cost_ms = 1e200),
            with(|e| e.fetch_cost_ms = -4.0),
            with(|e| e.inserted_ms = f64::NEG_INFINITY),
            with(|e| e.access_count = 0),
            with(|e| e.access_count = 1 << 53),
            with(|e| e.access_count = (1 << 53) + 1),
            with(|e| e.access_count = (1 << 53) + 2),
            with(|e| e.access_count = u64::MAX),
            with(|e| e.size_bytes = u64::MAX),
        ];
        // Each oddity among ordinary residents, then all of them at once.
        let ordinary: Vec<(DocId, Entry)> = (0..6)
            .map(|i| {
                (
                    DocId(100 + i),
                    entry(1_000 + 700 * i as u64, 30.0, 1 + i as u64, 0.0, 0.02),
                )
            })
            .collect();
        for now in [0.0, 4_000.0, 1e15, f64::INFINITY] {
            for (i, e) in odd.iter().enumerate() {
                let mut residents = ordinary.clone();
                residents.insert(i % 6, (DocId(i), *e));
                assert_bursts_match_the_reference(&residents, now);
            }
            let all: Vec<(DocId, Entry)> = odd
                .iter()
                .enumerate()
                .map(|(i, e)| (DocId(i), *e))
                .collect();
            assert_bursts_match_the_reference(&all, now);
        }
        // Counts past 2^53 alone are no oddity: the key holds the same
        // rounded `f64` the exact formula converts to.
        let huge: Vec<(DocId, Entry)> = (0..5u64)
            .map(|i| (DocId(i as usize), with_count(plain, (1 << 53) + i)))
            .collect();
        let evaluations = assert_bursts_match_the_reference(&huge, 9_000.0);
        assert!(
            evaluations <= 2 * (5 + 4 + 3 + 2),
            "{evaluations} evaluations"
        );
    }

    fn with_count(mut e: Entry, count: u64) -> Entry {
        e.access_count = count;
        e
    }

    #[test]
    fn random_residents_pick_the_reference_victim_and_only_ties_are_evaluated() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (mut picks, mut evaluations) = (0, 0);
        for case in 0..400 {
            let n = rng.gen_range(1..90);
            let now: f64 = rng.gen_range(0.0..200_000.0);
            // Every few cases, magnitudes from the edge of the screen's
            // domain and beyond.
            let wild = case % 5 == 0;
            let residents: Vec<(DocId, Entry)> = (0..n)
                .map(|i| {
                    let spread = if wild { rng.gen_range(-70..70) } else { 0 };
                    let mut e = Entry::new(
                        1,
                        rng.gen_range(1..40_000),
                        rng.gen_range(1.0..300.0) * 10f64.powi(spread),
                        rng.gen_range(0.0..2.0),
                        rng.gen_range(0.0..now.max(1.0)),
                    );
                    e.access_count = rng.gen_range(1..50);
                    // Few distinct ids per case, so equal scores meet.
                    (DocId(i * 7 % 97), e)
                })
                .collect();
            let before = evaluations;
            evaluations += assert_bursts_match_the_reference(&residents, now);
            if wild {
                evaluations = before;
            } else {
                picks += 2 * n;
            }
        }
        // Normally no exact evaluation at all: only ties need one.
        assert!(evaluations < picks / 4, "{evaluations} for {picks} picks");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::Lru.name(), "lru");
        assert_eq!(PolicyKind::Utility.name(), "utility");
        assert_eq!(PolicyKind::Lfu.name(), "lfu");
        assert_eq!(PolicyKind::Gdsf.name(), "gdsf");
    }
}
