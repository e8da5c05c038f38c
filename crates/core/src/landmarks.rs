//! Landmark selection (§3.1 of the paper).
//!
//! The quality of the landmark set determines the accuracy of every
//! downstream position estimate, and a good set is *well dispersed*. The
//! SL scheme approximates the dispersal criterion cheaply:
//!
//! 1. The origin server is always a landmark.
//! 2. A random *potential landmark set* (PLSet) of `M × (L-1)` caches is
//!    drawn; only those caches measure their pairwise distances — this
//!    bounds the probing overhead to `O((M·L)²)` instead of `O(N²)`.
//! 3. `L-1` caches are picked from the PLSet greedily, each maximizing
//!    the current `MinDist(LmSet)` (the minimum pairwise distance within
//!    the landmark set) — one pass over the PLSet per pick, on a dense
//!    table of the measured pairs.
//!
//! The module also implements the two comparison selectors of §5.1:
//! uniform random selection, and the adversarial *Min-Dist* selector
//! that greedily *minimizes* `MinDist(LmSet)`.

use ecg_coords::{Draws, Prober, RetryPolicy};
use rand::Rng;
use std::fmt;

/// Strategy for choosing the landmark set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LandmarkSelector {
    /// The SL scheme's greedy max–min dispersal selection from the
    /// PLSet. The default.
    #[default]
    GreedyMaxMin,
    /// Uniform random landmarks (first baseline of Figure 4/5/6).
    Random,
    /// Greedy *minimum* dispersal — the pathological baseline the paper
    /// calls the "minimum distance landmarks selection technique".
    MinDist,
}

impl fmt::Display for LandmarkSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LandmarkSelector::GreedyMaxMin => "greedy (SL)",
            LandmarkSelector::Random => "random",
            LandmarkSelector::MinDist => "min-dist",
        };
        f.write_str(name)
    }
}

/// Error from [`select_landmarks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LandmarkError {
    /// Fewer than two landmarks were requested (the origin alone is not
    /// a frame of reference).
    TooFewLandmarks {
        /// Requested landmark count.
        requested: usize,
    },
    /// The network has fewer caches than `L - 1`.
    TooFewCaches {
        /// Caches available.
        caches: usize,
        /// Landmarks requested.
        landmarks: usize,
    },
    /// `M` must be at least 1.
    BadMultiplier,
    /// The network has no nodes at all, so not even an origin server.
    NoOrigin,
}

impl fmt::Display for LandmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LandmarkError::TooFewLandmarks { requested } => {
                write!(f, "need at least 2 landmarks, requested {requested}")
            }
            LandmarkError::TooFewCaches { caches, landmarks } => write!(
                f,
                "{landmarks} landmarks need {} caches, only {caches} available",
                landmarks - 1
            ),
            LandmarkError::BadMultiplier => write!(f, "PLSet multiplier M must be >= 1"),
            LandmarkError::NoOrigin => write!(f, "the network has no origin node (zero nodes)"),
        }
    }
}

impl std::error::Error for LandmarkError {}

/// Result of landmark selection.
///
/// Node indices follow the prober's matrix: `0` is the origin server,
/// `i + 1` is cache `Ec_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct LandmarkSelection {
    /// The chosen landmark node indices; `landmarks[0] == 0` (the
    /// origin) always.
    pub landmarks: Vec<usize>,
    /// The potential landmark set the greedy phase drew from (empty for
    /// the random selector, which probes nothing).
    pub plset: Vec<usize>,
    /// `MinDist(LmSet)` of the final set under the *measured* distances,
    /// or `None` for the random selector (it never measures) and for a
    /// set that failover shrank to the origin alone (no pair, so no
    /// minimum).
    pub min_dist_ms: Option<f64>,
}

/// Selects `l` landmarks for the network behind `prober`, measuring
/// the PLSet on one shared RNG stream without retries.
///
/// # Errors
///
/// Returns [`LandmarkError`] if `l < 2`, `m < 1`, or the network is too
/// small.
///
/// # Examples
///
/// Reproduces the worked example of Figure 1 (PLSet `{Ec0, Ec1, Ec3,
/// Ec4}`, `L = 3`): the greedy phase picks `Ec0` (12 ms from the origin)
/// then `Ec4`, giving landmarks `{Os, Ec0, Ec4}` with
/// `MinDist = 12 ms` — see this module's tests.
pub fn select_landmarks<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    selector: LandmarkSelector,
    l: usize,
    m: usize,
    rng: &mut R,
) -> Result<LandmarkSelection, LandmarkError> {
    select(prober, selector, l, m, None, &mut Draws::Shared(None), rng).map(|s| s.selection)
}

/// Number of caches behind `prober`: every node but the origin.
pub(crate) fn cache_count(prober: &Prober<'_>) -> Result<usize, LandmarkError> {
    prober
        .node_count()
        .checked_sub(1)
        .ok_or(LandmarkError::NoOrigin)
}

/// Draws `count` distinct caches (node indices `1..=caches`) uniformly
/// — a partial Fisher–Yates shuffle, in draw order.
fn draw_caches<R: Rng + ?Sized>(caches: usize, count: usize, rng: &mut R) -> Vec<usize> {
    let mut indices: Vec<usize> = (1..=caches).collect();
    for i in 0..count {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices
}

/// The one landmark selector. How the PLSet pairs are measured is
/// [`Prober::measure_batch`]'s business — `policy` and `draws` are
/// handed through — and everything else happens once, here.
///
/// Under `policy = Some`, a pair that still fails after the retries
/// reports the probe timeout as its distance (what a run without a
/// policy records for it anyway) and is remembered as failed. A PLSet
/// member with *no* successful pair is declared dead. The greedy phase
/// runs over the full PLSet, after which any dead member that slipped
/// into the landmark set — dead nodes look maximally far, so greedy
/// max–min is actively drawn to them — is evicted and the same max–min
/// step re-elects a replacement from the surviving PLSet. If the PLSet
/// runs out of alive candidates the returned set is shorter than `l`
/// (callers decide whether that is fatal); it always retains the
/// origin — with the origin gone there is no server to form groups
/// around. Without a policy every pair counts as measured, so nothing
/// is ever dead and nothing fails over; on a fault-free network the
/// two draw from `rng` identically and select identically. The
/// `Random` selector probes nothing, so it can detect nothing.
pub(crate) fn select<R: Rng + ?Sized>(
    prober: &Prober<'_>,
    selector: LandmarkSelector,
    l: usize,
    m: usize,
    policy: Option<&RetryPolicy>,
    draws: &mut Draws<'_>,
    rng: &mut R,
) -> Result<ResilientLandmarkSelection, LandmarkError> {
    if l < 2 {
        return Err(LandmarkError::TooFewLandmarks { requested: l });
    }
    if m < 1 {
        return Err(LandmarkError::BadMultiplier);
    }
    let caches = cache_count(prober)?;
    if caches < l - 1 {
        return Err(LandmarkError::TooFewCaches {
            caches,
            landmarks: l,
        });
    }

    if selector == LandmarkSelector::Random {
        // Uniform L-1 caches plus the origin; no measurement phase.
        let mut landmarks = vec![0usize];
        landmarks.extend(draw_caches(caches, l - 1, rng));
        return Ok(ResilientLandmarkSelection {
            selection: LandmarkSelection {
                landmarks,
                plset: Vec::new(),
                min_dist_ms: None,
            },
            dead_nodes: Vec::new(),
            replaced: Vec::new(),
        });
    }

    // Phase 1: draw the PLSet — M·(L-1) distinct caches (capped at N).
    // The potential landmarks then measure their distances to each
    // other and to the origin. From here on a node is its position in
    // `nodes`; a PLSet member none of whose pairs was observed is dead.
    let plset = draw_caches(caches, m.saturating_mul(l - 1).min(caches), rng);
    let nodes: Vec<usize> = std::iter::once(0).chain(plset.iter().copied()).collect();
    let w = nodes.len();
    let pairs: Vec<(usize, usize)> = (0..w)
        .flat_map(|a| (a + 1..w).map(move |b| (a, b)))
        .collect();
    let pair = |p: usize| (nodes[pairs[p].0], nodes[pairs[p].1]);
    let (values, observed) =
        prober.measure_batch(pairs.len(), 1, |p, _| pair(p), policy, draws, rng);
    let mut dist = vec![0.0; w * w];
    let mut alive: Vec<bool> = (0..w).map(|i| i == 0).collect();
    for (&(a, b), (&v, &ok)) in pairs.iter().zip(values.iter().zip(&observed)) {
        let d = if ok { v } else { prober.config().timeout() };
        (dist[a * w + b], dist[b * w + a]) = (d, d);
        (alive[a], alive[b]) = (alive[a] || ok, alive[b] || ok);
    }
    let dist = |a: usize, b: usize| dist[a * w + b];

    // Phase 2: greedy max–min (SL) or min (Min-Dist baseline) over the
    // full PLSet, re-run over the survivors while a dead member holds a
    // slot (at most once: the second pass sees no dead candidate).
    let maximize = selector == LandmarkSelector::GreedyMaxMin;
    let is_dead = |&i: &usize| !alive[i];
    let mut lm_set = vec![0usize];
    let mut remaining: Vec<usize> = (1..w).collect();
    let mut replaced: Vec<usize> = Vec::new();
    loop {
        max_min_fill(&mut lm_set, &mut remaining, l, maximize, dist);
        let evicted = replaced.len();
        replaced.extend(lm_set.iter().copied().filter(is_dead));
        if replaced.len() == evicted {
            break;
        }
        lm_set.retain(|i| !is_dead(i));
        remaining.retain(|i| !is_dead(i));
    }

    let min_dist_ms = pairwise_min_dist(&lm_set, dist);
    let ids = |positions: Vec<usize>| -> Vec<usize> {
        let mut ids: Vec<usize> = positions.into_iter().map(|i| nodes[i]).collect();
        ids.sort_unstable();
        ids
    };
    Ok(ResilientLandmarkSelection {
        selection: LandmarkSelection {
            landmarks: lm_set.iter().map(|&i| nodes[i]).collect(),
            plset,
            min_dist_ms,
        },
        dead_nodes: ids((1..w).filter(is_dead).collect()),
        replaced: ids(replaced),
    })
}

/// The greedy dispersal fill shared by every non-random selector: grow
/// `lm_set` from `remaining` until it has `target` members (or the
/// candidates run out), each step electing the candidate whose minimum
/// distance to the current set is largest (`maximize`) or smallest.
///
/// Candidates are scored by their min distance to the set — equivalent
/// to scoring `MinDist(LmSet ∪ {cand})`, because the set's own MinDist
/// is fixed within a step. Each candidate keeps that score as a running
/// minimum and folds in only the newly elected member, so a step costs
/// one pass over the candidates; `min` is order-free, so the score is
/// exactly the full re-scoring's. Exact-tie scores elect the earliest
/// remaining position (a later candidate must score strictly better).
fn max_min_fill(
    lm_set: &mut Vec<usize>,
    remaining: &mut Vec<usize>,
    target: usize,
    maximize: bool,
    dist: impl Fn(usize, usize) -> f64,
) {
    let better = |a: f64, b: f64| if maximize { a > b } else { a < b };
    let mut to_set = vec![f64::INFINITY; remaining.len()];
    let mut folded = 0; // members of `lm_set` already folded into `to_set`
    while lm_set.len() < target && !remaining.is_empty() {
        for &s in &lm_set[folded..] {
            for (score, &c) in to_set.iter_mut().zip(&*remaining) {
                *score = score.min(dist(s, c));
            }
        }
        folded = lm_set.len();
        let best =
            (1..to_set.len()).fold(0, |b, p| if better(to_set[p], to_set[b]) { p } else { b });
        to_set.swap_remove(best);
        lm_set.push(remaining.swap_remove(best));
    }
}

/// `MinDist(LmSet)` — the minimum pairwise measured distance, or `None`
/// for a set of fewer than two members, which has no pair.
fn pairwise_min_dist(lm_set: &[usize], dist: impl Fn(usize, usize) -> f64) -> Option<f64> {
    let pairs = lm_set
        .iter()
        .enumerate()
        .flat_map(|(a_pos, &a)| lm_set[a_pos + 1..].iter().map(move |&b| (a, b)));
    pairs.map(|(a, b)| dist(a, b)).reduce(f64::min)
}

/// A landmark selection plus what the failure-detection pass saw —
/// nothing, unless the PLSet was measured under a retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientLandmarkSelection {
    /// The (possibly failed-over) landmark selection.
    pub selection: LandmarkSelection,
    /// PLSet members whose *every* pairwise measurement failed after
    /// retries — treated as crashed and barred from the landmark set.
    /// Sorted by node index.
    pub dead_nodes: Vec<usize>,
    /// The subset of `dead_nodes` the greedy phase had initially
    /// elected; each was evicted and replaced (when an alive candidate
    /// remained) by re-running the max–min step. Sorted by node index.
    pub replaced: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_coords::ProbeConfig;
    use ecg_topology::fixtures::paper_figure1;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`select_landmarks`] with the PLSet measured under
    /// [`Draws::PerRow`], as per-row formation measures it.
    fn select_per_row(
        prober: &Prober<'_>,
        selector: LandmarkSelector,
        l: usize,
        m: usize,
        rng: &mut StdRng,
    ) -> Result<LandmarkSelection, LandmarkError> {
        select(prober, selector, l, m, None, &mut Draws::PerRow, rng).map(|s| s.selection)
    }

    /// A prober over the Figure 1 matrix with exact measurements.
    fn prober(m: &ecg_topology::RttMatrix) -> Prober<'_> {
        Prober::new(m, ProbeConfig::noiseless())
    }

    /// A prober with the default noisy measurement model.
    fn prober_noisy(m: &ecg_topology::RttMatrix) -> Prober<'_> {
        Prober::new(m, ProbeConfig::default())
    }

    /// Reproduces the paper's worked example with a forced PLSet. Since
    /// the PLSet draw is random, we search seeds until the PLSet matches
    /// the figure's `{Ec0, Ec1, Ec3, Ec4}` (matrix indices 1, 2, 4, 5).
    #[test]
    fn figure1_worked_example() {
        let m = paper_figure1();
        for seed in 0..5_000u64 {
            let p = prober(&m);
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 3, 2, &mut rng).unwrap();
            let mut plset_sorted = sel.plset.clone();
            plset_sorted.sort_unstable();
            if plset_sorted == vec![1, 2, 4, 5] {
                // Greedy picks Ec0 or Ec4 first (both 12.0 from Os) and
                // the other second: final set {Os, Ec0, Ec4}.
                let mut lms = sel.landmarks.clone();
                lms.sort_unstable();
                assert_eq!(lms, vec![0, 1, 5], "seed {seed}: {:?}", sel.landmarks);
                assert_eq!(sel.min_dist_ms, Some(12.0));
                return;
            }
        }
        panic!("no seed produced the figure's PLSet");
    }

    #[test]
    fn origin_is_always_a_landmark() {
        let m = paper_figure1();
        for selector in [
            LandmarkSelector::GreedyMaxMin,
            LandmarkSelector::Random,
            LandmarkSelector::MinDist,
        ] {
            let p = prober(&m);
            let mut rng = StdRng::seed_from_u64(3);
            let sel = select_landmarks(&p, selector, 3, 2, &mut rng).unwrap();
            assert_eq!(sel.landmarks[0], 0, "{selector}");
            assert_eq!(sel.landmarks.len(), 3);
            // All distinct.
            let mut sorted = sel.landmarks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
    }

    #[test]
    fn greedy_beats_mindist_on_dispersal() {
        let m = paper_figure1();
        let mut greedy_total = 0.0;
        let mut mindist_total = 0.0;
        for seed in 0..20 {
            let p = prober(&m);
            let mut rng = StdRng::seed_from_u64(seed);
            greedy_total += select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 3, 3, &mut rng)
                .unwrap()
                .min_dist_ms
                .unwrap();
            let p = prober(&m);
            let mut rng = StdRng::seed_from_u64(seed);
            mindist_total += select_landmarks(&p, LandmarkSelector::MinDist, 3, 3, &mut rng)
                .unwrap()
                .min_dist_ms
                .unwrap();
        }
        assert!(
            greedy_total > mindist_total,
            "greedy {greedy_total} vs mindist {mindist_total}"
        );
    }

    #[test]
    fn random_selector_probes_nothing() {
        let m = paper_figure1();
        let p = prober(&m);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = select_landmarks(&p, LandmarkSelector::Random, 4, 2, &mut rng).unwrap();
        assert_eq!(p.probes_sent(), 0);
        assert!(sel.plset.is_empty());
        assert_eq!(sel.min_dist_ms, None);
    }

    #[test]
    fn greedy_probing_is_bounded_by_plset() {
        let m = paper_figure1();
        let p = prober(&m);
        let mut rng = StdRng::seed_from_u64(1);
        let l = 3usize;
        let mm = 2usize;
        let _ = select_landmarks(&p, LandmarkSelector::GreedyMaxMin, l, mm, &mut rng).unwrap();
        // PLSet ∪ {Os} has M(L-1)+1 = 5 nodes → 10 pairs, 1 probe each
        // under the noiseless config.
        assert_eq!(p.probes_sent(), 10);
    }

    #[test]
    fn plset_is_capped_at_cache_count() {
        let m = paper_figure1();
        let p = prober(&m);
        let mut rng = StdRng::seed_from_u64(1);
        // M(L-1) = 5*6 = 30 > 6 caches: PLSet covers all caches.
        let sel = select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 7, 5, &mut rng).unwrap();
        assert_eq!(sel.plset.len(), 6);
        assert_eq!(sel.landmarks.len(), 7);
    }

    #[test]
    fn errors_are_reported() {
        let m = paper_figure1();
        let p = prober(&m);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 1, 2, &mut rng),
            Err(LandmarkError::TooFewLandmarks { requested: 1 })
        );
        assert_eq!(
            select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 3, 0, &mut rng),
            Err(LandmarkError::BadMultiplier)
        );
        assert_eq!(
            select_landmarks(&p, LandmarkSelector::GreedyMaxMin, 8, 2, &mut rng),
            Err(LandmarkError::TooFewCaches {
                caches: 6,
                landmarks: 8
            })
        );
        assert!(LandmarkError::BadMultiplier.to_string().contains('M'));
    }

    /// [`select`] on the shared stream under a retry policy.
    fn select_retried(
        p: &Prober<'_>,
        l: usize,
        m: usize,
        policy: &RetryPolicy,
        seed: u64,
    ) -> ResilientLandmarkSelection {
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = &mut Draws::Shared(None);
        select(
            p,
            LandmarkSelector::GreedyMaxMin,
            l,
            m,
            Some(policy),
            draws,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn retry_policy_changes_nothing_on_a_healthy_network() {
        // Noisy probes, no loss, no faults: with or without a policy
        // the selector draws identically and selects identically.
        let m = paper_figure1();
        let policy = RetryPolicy::default();
        for selector in [
            LandmarkSelector::GreedyMaxMin,
            LandmarkSelector::MinDist,
            LandmarkSelector::Random,
        ] {
            for seed in 0..20u64 {
                let run = |policy: Option<&RetryPolicy>| {
                    let p = prober_noisy(&m);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let draws = &mut Draws::Shared(None);
                    let sel = select(&p, selector, 3, 2, policy, draws, &mut rng).unwrap();
                    (sel, rng.gen::<u64>(), p.probes_sent())
                };
                let (plain, retried) = (run(None), run(Some(&policy)));
                assert_eq!(retried, plain, "{selector} seed {seed}");
                assert!(plain.0.dead_nodes.is_empty());
                assert_eq!(plain.0.replaced.len(), 0);
            }
        }
    }

    #[test]
    fn crashed_plset_member_fails_over() {
        use ecg_coords::ProbeFaults;
        let m = paper_figure1();
        // Ec4 (node 5) crashes — one of the figure's natural picks.
        let faults = ProbeFaults::new().node_down(5);
        let p = Prober::with_faults(&m, ProbeConfig::noiseless(), faults);
        // M(L-1) = 10 > 6 caches: the PLSet covers every cache, so the
        // crashed node is guaranteed to be a candidate. Dead nodes look
        // timeout-far, which greedy max–min would elect immediately.
        let sel = select_retried(&p, 3, 5, &RetryPolicy::default(), 1);
        assert_eq!(sel.dead_nodes, vec![5]);
        assert_eq!(sel.replaced, vec![5]);
        assert_eq!(sel.replaced.len(), 1);
        assert_eq!(sel.selection.landmarks.len(), 3);
        assert_eq!(sel.selection.landmarks[0], 0);
        assert!(!sel.selection.landmarks.contains(&5), "dead landmark kept");
        // Without a policy the same run elects the dead node and says
        // nothing about it.
        let p = Prober::with_faults(&m, ProbeConfig::noiseless(), p.faults().clone());
        let plain = select_landmarks(
            &p,
            LandmarkSelector::GreedyMaxMin,
            3,
            5,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        assert!(plain.landmarks.contains(&5));
    }

    #[test]
    fn retried_selection_survives_every_cache_down_but_one() {
        use ecg_coords::ProbeFaults;
        let m = paper_figure1();
        let faults = (2..=6).fold(ProbeFaults::new(), ProbeFaults::node_down);
        let p = Prober::with_faults(&m, ProbeConfig::noiseless(), faults);
        let sel = select_retried(&p, 4, 5, &RetryPolicy::none(), 0);
        // Only the origin and cache 1 survive: the set degrades to two
        // members instead of panicking or electing the dead.
        assert_eq!(sel.selection.landmarks, vec![0, 1]);
        assert_eq!(sel.dead_nodes, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn retried_selection_survives_every_cache_down() {
        use ecg_coords::ProbeFaults;
        let m = paper_figure1();
        let faults = (1..=6).fold(ProbeFaults::new(), ProbeFaults::node_down);
        let p = Prober::with_faults(&m, ProbeConfig::noiseless(), faults);
        let sel = select_retried(&p, 4, 5, &RetryPolicy::none(), 0);
        // The origin alone is left: no pair, so no MinDist.
        assert_eq!(sel.selection.landmarks, vec![0]);
        assert_eq!(sel.dead_nodes, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(sel.replaced.len(), 3);
        assert_eq!(sel.selection.min_dist_ms, None);
    }

    #[test]
    fn zero_node_prober_is_a_typed_error() {
        // `RttMatrix::zeros(0)` is constructible; `node_count() - 1`
        // used to overflow on it.
        let m = ecg_topology::RttMatrix::zeros(0);
        let p = prober(&m);
        for selector in [LandmarkSelector::GreedyMaxMin, LandmarkSelector::Random] {
            let err = select_landmarks(&p, selector, 2, 1, &mut StdRng::seed_from_u64(0));
            assert_eq!(err, Err(LandmarkError::NoOrigin));
            let err = select_per_row(&p, selector, 2, 1, &mut StdRng::seed_from_u64(0));
            assert_eq!(err, Err(LandmarkError::NoOrigin));
        }
        assert!(LandmarkError::NoOrigin.to_string().contains("no origin"));
    }

    #[test]
    fn parallel_matches_sequential_noiseless_over_many_seeds() {
        // A noiseless measurement draws nothing from its RNG, so the
        // derived per-pair streams cannot diverge from the sequential
        // prober loop: the parallel selector must return the *identical*
        // selection for every seed and selector.
        let m = paper_figure1();
        for selector in [
            LandmarkSelector::GreedyMaxMin,
            LandmarkSelector::MinDist,
            LandmarkSelector::Random,
        ] {
            for seed in 0..30u64 {
                let p = prober(&m);
                let seq =
                    select_landmarks(&p, selector, 3, 2, &mut StdRng::seed_from_u64(seed)).unwrap();
                let p = prober(&m);
                let par =
                    select_per_row(&p, selector, 3, 2, &mut StdRng::seed_from_u64(seed)).unwrap();
                assert_eq!(par, seq, "{selector} seed {seed}");
            }
        }
    }

    #[test]
    fn parallel_selection_is_thread_count_invariant_with_noise() {
        // With a noisy probe config the parallel values come from
        // derived per-pair streams — legitimately different from the
        // sequential prober loop, but a pure function of the seed. The
        // selection must not move when the worker count does. (Results
        // are thread-invariant by construction, so flipping the global
        // override cannot perturb concurrently running tests.)
        let m = paper_figure1();
        let run_at = |threads: usize, seed: u64| {
            ecg_par::set_max_threads(Some(threads));
            let p = prober_noisy(&m);
            let sel = select_per_row(
                &p,
                LandmarkSelector::GreedyMaxMin,
                3,
                2,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            ecg_par::set_max_threads(None);
            sel
        };
        for seed in 0..5u64 {
            let at1 = run_at(1, seed);
            let at2 = run_at(2, seed);
            let at8 = run_at(8, seed);
            assert_eq!(at1, at2, "seed {seed}");
            assert_eq!(at1, at8, "seed {seed}");
        }
    }

    #[test]
    fn a_600_member_plset_selects_alike_at_any_thread_count() {
        // l=4, m=200 over a 700-cache synthetic network: 600 candidates,
        // so the PLSet's 180 300 pairs are measured in many spans — and
        // the same winners must be elected at any thread count.
        use ecg_topology::SyntheticRttConfig;
        let net = SyntheticRttConfig.generate(701, 42);
        let run = |threads: Option<usize>| {
            ecg_par::set_max_threads(threads);
            let p = Prober::new(&net, ProbeConfig::noiseless());
            let sel = select_per_row(
                &p,
                LandmarkSelector::GreedyMaxMin,
                4,
                200,
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
            ecg_par::set_max_threads(None);
            sel
        };
        let at1 = run(Some(1));
        let at4 = run(Some(4));
        assert_eq!(at1, at4);
        assert_eq!(at1.plset.len(), 600);
        assert_eq!(at1.landmarks.len(), 4);
        // Sequential oracle over the same seed (noiseless: same values).
        let p = Prober::new(&net, ProbeConfig::noiseless());
        let seq = select_landmarks(
            &p,
            LandmarkSelector::GreedyMaxMin,
            4,
            200,
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        assert_eq!(at1, seq);
    }

    #[test]
    fn incremental_fill_elects_the_full_rescoring_winners() {
        // 1 000 candidates on distances that repeat every 7 values, so
        // exact ties are everywhere and the earliest-position tie-break
        // decides most steps; the second round starts from a set of
        // several members, as a failover re-run does.
        let dist = |a: usize, b: usize| ((a.min(b) * 31 + a.max(b) * 17) % 7) as f64;
        for maximize in [true, false] {
            for start in [vec![0usize], vec![0, 500, 3]] {
                let fresh =
                    || -> Vec<usize> { (1..=1_000).filter(|c| !start.contains(c)).collect() };
                let mut lm_set = start.clone();
                let mut remaining = fresh();
                max_min_fill(&mut lm_set, &mut remaining, 12, maximize, dist);

                let mut flat_set = start.clone();
                let mut flat_remaining = fresh();
                reference::fill(&mut flat_set, &mut flat_remaining, 12, maximize, &dist);
                assert_eq!(lm_set, flat_set, "maximize={maximize}");
                assert_eq!(remaining, flat_remaining, "maximize={maximize}");
            }
        }
    }

    /// The selector as it was before the dense table and the running
    /// minima: node-id pair lookups in a map, and a fill that re-scores
    /// every candidate against the whole set at every step.
    mod reference {
        use super::*;
        use std::collections::HashMap;

        /// One full re-scoring per step; exact ties elect the earliest
        /// remaining position.
        pub(super) fn fill(
            lm_set: &mut Vec<usize>,
            remaining: &mut Vec<usize>,
            target: usize,
            maximize: bool,
            dist: &impl Fn(usize, usize) -> f64,
        ) {
            while lm_set.len() < target && !remaining.is_empty() {
                let score = |pos: usize| {
                    let to_set = lm_set.iter().map(|&s| dist(s, remaining[pos]));
                    to_set.fold(f64::INFINITY, f64::min)
                };
                let best = (0..remaining.len())
                    .max_by(|&a, &b| {
                        let ord = score(a).partial_cmp(&score(b)).unwrap();
                        if maximize { ord } else { ord.reverse() }.then(b.cmp(&a))
                    })
                    .unwrap();
                lm_set.push(remaining.swap_remove(best));
            }
        }

        /// [`select`] for the two greedy selectors on valid arguments.
        pub(super) fn select<R: Rng + ?Sized>(
            prober: &Prober<'_>,
            selector: LandmarkSelector,
            l: usize,
            m: usize,
            policy: Option<&RetryPolicy>,
            draws: &mut Draws<'_>,
            rng: &mut R,
        ) -> ResilientLandmarkSelection {
            let caches = prober.node_count() - 1;
            let plset = draw_caches(caches, (m * (l - 1)).min(caches), rng);
            let mut nodes = vec![0usize];
            nodes.extend_from_slice(&plset);
            let mut pairs = Vec::new();
            for (a_pos, &a) in nodes.iter().enumerate() {
                pairs.extend(nodes[a_pos + 1..].iter().map(|&b| (a, b)));
            }
            let (values, observed) =
                prober.measure_batch(pairs.len(), 1, |p, _| pairs[p], policy, draws, rng);
            let timeout = prober.config().timeout();
            let key = |a: usize, b: usize| (a.min(b), a.max(b));
            let measured: HashMap<(usize, usize), (f64, bool)> = pairs
                .iter()
                .zip(values.iter().zip(&observed))
                .map(|(&(a, b), (&v, &ok))| (key(a, b), (if ok { v } else { timeout }, ok)))
                .collect();
            let dist = |a: usize, b: usize| measured[&key(a, b)].0;
            let mut dead_nodes: Vec<usize> = plset
                .iter()
                .copied()
                .filter(|&n| nodes.iter().all(|&o| o == n || !measured[&key(n, o)].1))
                .collect();
            dead_nodes.sort_unstable();
            let is_dead = |n: &usize| dead_nodes.binary_search(n).is_ok();

            let maximize = selector == LandmarkSelector::GreedyMaxMin;
            let mut lm_set = vec![0usize];
            let mut remaining = plset.clone();
            let mut replaced = Vec::new();
            loop {
                fill(&mut lm_set, &mut remaining, l, maximize, &dist);
                let evicted = replaced.len();
                replaced.extend(lm_set.iter().copied().filter(is_dead));
                if replaced.len() == evicted {
                    break;
                }
                lm_set.retain(|n| !is_dead(n));
                remaining.retain(|n| !is_dead(n));
            }
            replaced.sort_unstable();
            let mut min_dist = f64::INFINITY;
            for (a_pos, &a) in lm_set.iter().enumerate() {
                for &b in &lm_set[a_pos + 1..] {
                    min_dist = min_dist.min(dist(a, b));
                }
            }
            ResilientLandmarkSelection {
                selection: LandmarkSelection {
                    min_dist_ms: (lm_set.len() > 1).then_some(min_dist),
                    landmarks: lm_set,
                    plset,
                },
                dead_nodes,
                replaced,
            }
        }
    }

    #[test]
    fn select_equals_the_full_rescoring_reference() {
        use ecg_coords::ProbeFaults;
        let configs = [
            ProbeConfig::noiseless(),
            ProbeConfig::default(),
            ProbeConfig::default().loss_rate(0.4),
        ];
        let policies = [
            None,
            Some(RetryPolicy::none()),
            Some(RetryPolicy::default()),
        ];
        let mut cases = 0;
        for seed in 0..24u64 {
            // A symmetric matrix on four distinct distances, so exact
            // ties decide many elections, with a fifth of the caches down
            // and a few links black-holed.
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..=28);
            let matrix =
                ecg_topology::RttMatrix::from_fn(n, |_, _| f64::from(rng.gen_range(1..=4u32) * 10));
            let mut faults = ProbeFaults::new();
            for node in 1..n {
                if rng.gen_bool(0.2) {
                    faults = faults.node_down(node);
                }
                if rng.gen_bool(0.1) {
                    faults = faults.blackhole(node, rng.gen_range(0..n));
                }
            }
            let l = rng.gen_range(2..=n.min(7));
            let m = rng.gen_range(1..=4);
            for (config, policy, selector, per_row) in configs.iter().flat_map(|&config| {
                policies.iter().flat_map(move |&policy| {
                    [LandmarkSelector::GreedyMaxMin, LandmarkSelector::MinDist]
                        .into_iter()
                        .flat_map(move |s| {
                            [false, true].map(|per_row| (config, policy, s, per_row))
                        })
                })
            }) {
                let run = |reference: bool| {
                    let p = Prober::with_faults(&matrix, config, faults.clone());
                    let mut rng = StdRng::seed_from_u64(seed + 100);
                    let mut draws = if per_row {
                        Draws::PerRow
                    } else {
                        Draws::Shared(None)
                    };
                    let policy = policy.as_ref();
                    let sel = if reference {
                        reference::select(&p, selector, l, m, policy, &mut draws, &mut rng)
                    } else {
                        select(&p, selector, l, m, policy, &mut draws, &mut rng).unwrap()
                    };
                    let bits = sel.selection.min_dist_ms.map(f64::to_bits);
                    (sel, bits, rng.gen::<u64>(), p.probes_sent())
                };
                let expected = run(true);
                for threads in [1, 2, 8] {
                    ecg_par::set_max_threads(Some(threads));
                    let got = run(false);
                    ecg_par::set_max_threads(None);
                    assert_eq!(
                        got, expected,
                        "seed {seed} n {n} l {l} m {m} {selector} {policy:?} per_row {per_row} \
                         threads {threads}"
                    );
                }
                cases += usize::from(!expected.0.dead_nodes.is_empty());
            }
        }
        // The faults are not vacuous: many runs declared a member dead.
        assert!(cases > 100, "{cases} runs with a dead PLSet member");
    }

    #[test]
    fn selector_display_names() {
        assert_eq!(LandmarkSelector::GreedyMaxMin.to_string(), "greedy (SL)");
        assert_eq!(LandmarkSelector::Random.to_string(), "random");
        assert_eq!(LandmarkSelector::MinDist.to_string(), "min-dist");
    }
}
