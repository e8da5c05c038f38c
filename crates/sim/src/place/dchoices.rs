//! Pourmiri-style proximity-aware power-of-d-choices placement.
//!
//! *Proximity-Aware Balanced Allocations in Cache Networks* (Pourmiri,
//! Mousavi & co-authors) adapts the classic balls-into-bins
//! power-of-d-choices result to cache networks: instead of placing a
//! new object on a uniformly random server (or always on the
//! requester), sample `d` candidate servers from the requester's
//! network vicinity and place on the least-loaded one. The `d`-way
//! comparison yields exponentially better load balance than a single
//! choice, while the proximity bias keeps later accesses cheap.
//!
//! The group-local adaptation here:
//!
//! * on an **origin fetch** the policy samples `d` distinct members of
//!   the candidate list (requester + alive peers), each drawn without
//!   replacement with weight `1 / (1 + rtt_ms)` — nearby members are
//!   favoured but every member stays reachable — and returns the
//!   sampled member with the fewest `used_bytes` (ties broken by lower
//!   RTT, then lower cache id);
//! * on a **peer hit** it serves remotely without replicating, keeping
//!   exactly one balanced copy per document in the group;
//! * every sampling decision seeds a fresh RNG from
//!   `derive_seed(config.seed, decision_counter)`, so the stream
//!   depends only on the decision index — bit-identical replays
//!   regardless of thread count or interleaved experiments.

use super::policy::{Candidate, PeerHitAction, PlacementPolicy};
use ecg_par::derive_seed;
use ecg_topology::CacheId;
use ecg_workload::DocId;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Parameters of [`ProximityDChoices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DChoicesConfig {
    /// Number of candidate members sampled per placement.
    pub d: usize,
    /// Master seed of the per-decision derived RNG streams.
    pub seed: u64,
}

impl Default for DChoicesConfig {
    /// The classic `d = 2` ("power of two choices"), seed 0.
    fn default() -> Self {
        DChoicesConfig { d: 2, seed: 0 }
    }
}

impl DChoicesConfig {
    /// Sets the number of sampled candidates.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn d(mut self, d: usize) -> Self {
        assert!(d > 0, "need at least one choice");
        self.d = d;
        self
    }

    /// Sets the master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Proximity-aware power-of-d-choices placement.
///
/// # Examples
///
/// ```
/// use ecg_sim::place::{Candidate, DChoicesConfig, PlacementPolicy, ProximityDChoices};
/// use ecg_topology::CacheId;
/// use ecg_workload::DocId;
///
/// let mut policy = ProximityDChoices::new(DChoicesConfig::default().d(3));
/// let candidates = vec![
///     Candidate { cache: CacheId(0), rtt_ms: 0.0, used_bytes: 9_000, holds: false },
///     Candidate { cache: CacheId(1), rtt_ms: 2.0, used_bytes: 100, holds: false },
///     Candidate { cache: CacheId(2), rtt_ms: 5.0, used_bytes: 4_000, holds: false },
/// ];
/// // d = 3 over 3 members samples everyone: the least-loaded wins.
/// assert_eq!(policy.on_origin_fetch(DocId(0), 0.0, &candidates), CacheId(1));
/// ```
#[derive(Debug, Clone)]
pub struct ProximityDChoices {
    config: DChoicesConfig,
    /// Decisions taken so far; the index of the next derived RNG stream.
    decisions: u64,
}

impl ProximityDChoices {
    /// Creates the policy.
    pub fn new(config: DChoicesConfig) -> Self {
        ProximityDChoices {
            config,
            decisions: 0,
        }
    }

    /// Samples `min(d, candidates.len())` distinct indices weighted by
    /// `1 / (1 + rtt_ms)` without replacement, then returns the index
    /// of the least-loaded sample (ties: lower RTT, then lower cache
    /// id).
    fn sample_target(&self, rng: &mut StdRng, candidates: &[Candidate]) -> usize {
        let mut weights: Vec<f64> = candidates
            .iter()
            .map(|c| 1.0 / (1.0 + c.rtt_ms.max(0.0)))
            .collect();
        let draws = self.config.d.min(candidates.len());
        let mut best: Option<usize> = None;
        for _ in 0..draws {
            let total: f64 = weights.iter().sum();
            // All remaining weight consumed (can't happen with d <=
            // len, but keep the guard against float underflow).
            if total <= 0.0 {
                break;
            }
            let mut x = rng.gen_range(0.0..total);
            let mut picked = weights.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if *w <= 0.0 {
                    continue;
                }
                if x < *w {
                    picked = i;
                    break;
                }
                x -= *w;
            }
            weights[picked] = 0.0;
            let better = match best {
                None => true,
                Some(b) => {
                    let (cb, cp) = (&candidates[b], &candidates[picked]);
                    (cp.used_bytes, cp.rtt_ms, cp.cache.0) < (cb.used_bytes, cb.rtt_ms, cb.cache.0)
                }
            };
            if better {
                best = Some(picked);
            }
        }
        best.unwrap_or(0)
    }
}

impl PlacementPolicy for ProximityDChoices {
    fn on_local_hit(&mut self, _doc: DocId, _now_ms: f64) {}

    fn on_peer_hit(
        &mut self,
        _doc: DocId,
        _now_ms: f64,
        _candidates: &[Candidate],
        _holder: CacheId,
    ) -> PeerHitAction {
        // Balanced single copies: the placed replica serves the whole
        // group; requests never clone it.
        PeerHitAction::ServeRemote
    }

    fn on_origin_fetch(&mut self, _doc: DocId, _now_ms: f64, candidates: &[Candidate]) -> CacheId {
        let stream = self.decisions;
        self.decisions += 1;
        if candidates.len() == 1 {
            return candidates[0].cache;
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(self.config.seed, stream));
        let target = self.sample_target(&mut rng, candidates);
        candidates[target].cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, rtt: f64, used: u64) -> Candidate {
        Candidate {
            cache: CacheId(id as usize),
            rtt_ms: rtt,
            used_bytes: used,
            holds: false,
        }
    }

    #[test]
    fn peer_hits_never_replicate() {
        let mut p = ProximityDChoices::new(DChoicesConfig::default());
        let c = vec![cand(0, 0.0, 0), cand(1, 3.0, 0)];
        assert_eq!(
            p.on_peer_hit(DocId(0), 0.0, &c, CacheId(1)),
            PeerHitAction::ServeRemote
        );
    }

    #[test]
    fn singleton_group_places_on_requester() {
        let mut p = ProximityDChoices::new(DChoicesConfig::default());
        let c = vec![cand(7, 0.0, 123)];
        assert_eq!(p.on_origin_fetch(DocId(0), 0.0, &c), CacheId(7));
    }

    #[test]
    fn full_sample_picks_least_loaded() {
        // d >= group size: sampling covers everyone, so the pick is
        // deterministic regardless of the RNG draws.
        let mut p = ProximityDChoices::new(DChoicesConfig::default().d(8));
        let c = vec![cand(0, 0.0, 500), cand(1, 9.0, 20), cand(2, 1.0, 300)];
        assert_eq!(p.on_origin_fetch(DocId(0), 0.0, &c), CacheId(1));
    }

    #[test]
    fn load_ties_break_by_rtt_then_id() {
        let mut p = ProximityDChoices::new(DChoicesConfig::default().d(8));
        let c = vec![cand(2, 4.0, 100), cand(0, 0.0, 100), cand(1, 4.0, 100)];
        // All loads equal: requester (rtt 0) wins.
        assert_eq!(p.on_origin_fetch(DocId(0), 0.0, &c), CacheId(0));
        let c = vec![cand(2, 4.0, 100), cand(1, 4.0, 100)];
        // Equal load and RTT: lower cache id wins.
        assert_eq!(p.on_origin_fetch(DocId(0), 0.0, &c), CacheId(1));
    }

    #[test]
    fn decisions_are_replayable() {
        let c = vec![
            cand(0, 0.0, 500),
            cand(1, 2.0, 400),
            cand(2, 6.0, 300),
            cand(3, 12.0, 200),
        ];
        let run = |seed: u64| {
            let mut p = ProximityDChoices::new(DChoicesConfig::default().seed(seed));
            (0..50)
                .map(|i| p.on_origin_fetch(DocId(i), i as f64, &c).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "seed must matter");
    }

    #[test]
    fn proximity_bias_favours_near_members() {
        // With d = 1 the pick is pure proximity-weighted sampling; the
        // rtt-0 requester (weight 1.0) must beat the rtt-99 peer
        // (weight 0.01) almost always.
        let mut p = ProximityDChoices::new(DChoicesConfig::default().d(1));
        let c = vec![cand(0, 0.0, 0), cand(1, 99.0, 0)];
        let near = (0..200)
            .filter(|&i| p.on_origin_fetch(DocId(i), 0.0, &c) == CacheId(0))
            .count();
        assert!(near > 180, "near member picked only {near}/200 times");
    }

    #[test]
    fn spread_beats_requester_only_placement() {
        // Sanity: under repeated fetches with an overloaded requester,
        // d-choices routinely places away from it.
        let mut p = ProximityDChoices::new(DChoicesConfig::default().d(3));
        let c = vec![
            cand(0, 0.0, 1_000_000),
            cand(1, 2.0, 10),
            cand(2, 4.0, 10),
            cand(3, 8.0, 10),
        ];
        let away = (0..100)
            .filter(|&i| p.on_origin_fetch(DocId(i), 0.0, &c) != CacheId(0))
            .count();
        assert!(away > 80, "placed away from loaded requester {away}/100");
    }
}
