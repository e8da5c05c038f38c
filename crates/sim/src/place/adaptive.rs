//! Leconte-style adaptive in-group replication.
//!
//! *Adaptive Replication in Distributed Content Delivery Networks*
//! (Leconte, Lelarge & Massoulié) argues the replica count of a
//! document should track its request rate: popular documents earn
//! copies on many servers, unpopular ones keep a single copy so the
//! aggregate capacity stores more distinct documents. This module
//! implements the group-local version of that idea on top of the
//! simulator's demand-driven copy flow:
//!
//! * every request (local hit, peer hit, origin fetch) feeds a
//!   per-document **exponentially decayed rate score**
//!   `score ← score · e^(−Δt/τ) + 1`, a pure function of event
//!   timestamps — no RNG, no wall clock;
//! * a document is **promoted** to replicating when its score reaches
//!   `promote`, and **demoted** when it decays below `demote`
//!   (hysteresis keeps borderline documents from flapping);
//! * on a peer hit, the requester keeps a replica only if the document
//!   is promoted *and* the group currently holds fewer than
//!   `max_replicas` copies; otherwise the body is served remotely and
//!   dropped, leaving the single(ish)-copy footprint intact;
//! * demotion is passive: excess replicas of a cooled-down document are
//!   not evicted eagerly, they simply stop being refreshed and age out
//!   under the cache's own replacement policy.

use super::policy::{holder_count, Candidate, PeerHitAction, PlacementPolicy};
use ecg_topology::CacheId;
use ecg_workload::DocId;

/// Parameters of [`AdaptiveReplication`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Decay time constant of the rate score, ms.
    pub tau_ms: f64,
    /// Score at or above which a document starts replicating.
    pub promote: f64,
    /// Score at or below which a promoted document stops replicating.
    pub demote: f64,
    /// Hard cap on in-group replicas of one document.
    pub max_replicas: usize,
}

impl Default for AdaptiveConfig {
    /// τ = 30 s, promote at score 3, demote at score 1.5 (roughly: a
    /// document requested a few times per τ within the group starts
    /// replicating; hysteresis at half that), at most 4 replicas.
    fn default() -> Self {
        AdaptiveConfig {
            tau_ms: 30_000.0,
            promote: 3.0,
            demote: 1.5,
            max_replicas: 4,
        }
    }
}

impl AdaptiveConfig {
    /// Sets the decay time constant in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics unless positive and finite.
    pub fn tau_ms(mut self, tau_ms: f64) -> Self {
        assert!(tau_ms.is_finite() && tau_ms > 0.0, "tau must be positive");
        self.tau_ms = tau_ms;
        self
    }

    /// Sets the in-group replica cap.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn max_replicas(mut self, max: usize) -> Self {
        assert!(max > 0, "need at least one replica");
        self.max_replicas = max;
        self
    }
}

/// Per-document estimator state.
#[derive(Debug, Clone, Copy, Default)]
struct DocState {
    score: f64,
    last_ms: f64,
    promoted: bool,
}

/// Adaptive replication driven by per-document request-rate estimates
/// with deterministic promote/demote thresholds.
///
/// # Examples
///
/// ```
/// use ecg_sim::place::{AdaptiveConfig, AdaptiveReplication, Candidate, PeerHitAction, PlacementPolicy};
/// use ecg_topology::CacheId;
/// use ecg_workload::DocId;
///
/// let mut policy = AdaptiveReplication::new(AdaptiveConfig::default(), 10);
/// let candidates = vec![
///     Candidate { cache: CacheId(0), rtt_ms: 0.0, used_bytes: 0, holds: false },
///     Candidate { cache: CacheId(1), rtt_ms: 4.0, used_bytes: 0, holds: true },
/// ];
/// // Cold: first peer hit is served remotely.
/// assert_eq!(
///     policy.on_peer_hit(DocId(0), 0.0, &candidates, CacheId(1)),
///     PeerHitAction::ServeRemote
/// );
/// // A burst of requests promotes the document...
/// for i in 1..5 {
///     policy.on_local_hit(DocId(0), i as f64 * 100.0);
/// }
/// // ...and now a peer hit leaves a replica behind.
/// assert_eq!(
///     policy.on_peer_hit(DocId(0), 600.0, &candidates, CacheId(1)),
///     PeerHitAction::Replicate
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveReplication {
    config: AdaptiveConfig,
    docs: Vec<DocState>,
}

impl AdaptiveReplication {
    /// Creates the policy for a catalog of `docs` documents.
    pub fn new(config: AdaptiveConfig, docs: usize) -> Self {
        AdaptiveReplication {
            config,
            docs: vec![DocState::default(); docs],
        }
    }

    /// Decays and bumps `doc`'s score for a request at `now_ms`, then
    /// applies the promote/demote hysteresis. Returns the promoted
    /// flag after the update.
    fn observe(&mut self, doc: DocId, now_ms: f64) -> bool {
        let state = &mut self.docs[doc.index()];
        let dt = (now_ms - state.last_ms).max(0.0);
        state.score = state.score * (-dt / self.config.tau_ms).exp() + 1.0;
        state.last_ms = now_ms;
        if state.score >= self.config.promote {
            state.promoted = true;
        } else if state.score <= self.config.demote {
            state.promoted = false;
        }
        state.promoted
    }

    /// The current rate score of `doc` (undecayed since its last
    /// observation).
    #[cfg(test)]
    fn score(&self, doc: DocId) -> f64 {
        self.docs[doc.index()].score
    }

    /// Whether `doc` is currently promoted to replicating.
    #[cfg(test)]
    fn is_promoted(&self, doc: DocId) -> bool {
        self.docs[doc.index()].promoted
    }
}

impl PlacementPolicy for AdaptiveReplication {
    fn on_local_hit(&mut self, doc: DocId, now_ms: f64) {
        self.observe(doc, now_ms);
    }

    fn on_peer_hit(
        &mut self,
        doc: DocId,
        now_ms: f64,
        candidates: &[Candidate],
        _holder: CacheId,
    ) -> PeerHitAction {
        let promoted = self.observe(doc, now_ms);
        if promoted && holder_count(candidates) < self.config.max_replicas {
            PeerHitAction::Replicate
        } else {
            PeerHitAction::ServeRemote
        }
    }

    fn on_origin_fetch(&mut self, doc: DocId, now_ms: f64, candidates: &[Candidate]) -> CacheId {
        self.observe(doc, now_ms);
        // The group's first copy always lands on the requester.
        candidates[0].cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(holders: usize) -> Vec<Candidate> {
        let mut v = vec![Candidate {
            cache: CacheId(0),
            rtt_ms: 0.0,
            used_bytes: 0,
            holds: false,
        }];
        for i in 0..7 {
            v.push(Candidate {
                cache: CacheId(i + 1),
                rtt_ms: (i + 1) as f64,
                used_bytes: 0,
                holds: i < holders,
            });
        }
        v
    }

    #[test]
    fn score_decays_between_requests() {
        let mut p = AdaptiveReplication::new(AdaptiveConfig::default().tau_ms(1_000.0), 4);
        p.on_local_hit(DocId(0), 0.0);
        assert!((p.score(DocId(0)) - 1.0).abs() < 1e-12);
        p.on_local_hit(DocId(0), 1_000.0);
        // e^-1 + 1
        assert!((p.score(DocId(0)) - (1.0 + (-1.0f64).exp())).abs() < 1e-12);
        // After a long gap the score resets to ~1.
        p.on_local_hit(DocId(0), 100_000.0);
        assert!((p.score(DocId(0)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hysteresis_promotes_and_demotes() {
        let cfg = AdaptiveConfig {
            promote: 2.5,
            demote: 1.2,
            ..AdaptiveConfig::default().tau_ms(1_000.0)
        };
        let mut p = AdaptiveReplication::new(cfg, 2);
        // Rapid-fire requests push the score over the promote bar.
        for i in 0..4 {
            p.on_local_hit(DocId(1), i as f64);
        }
        assert!(p.is_promoted(DocId(1)));
        // One request after a long silence: score decayed to ~0 then
        // bumped to 1 < demote — demoted again.
        p.on_local_hit(DocId(1), 60_000.0);
        assert!(!p.is_promoted(DocId(1)));
    }

    #[test]
    fn cold_docs_serve_remote_hot_docs_replicate() {
        let mut p = AdaptiveReplication::new(AdaptiveConfig::default().tau_ms(1_000.0), 2);
        let c = cands(1);
        assert_eq!(
            p.on_peer_hit(DocId(0), 0.0, &c, CacheId(1)),
            PeerHitAction::ServeRemote
        );
        for i in 0..5 {
            p.on_local_hit(DocId(0), 10.0 + i as f64);
        }
        assert_eq!(
            p.on_peer_hit(DocId(0), 20.0, &c, CacheId(1)),
            PeerHitAction::Replicate
        );
    }

    #[test]
    fn replica_cap_stops_growth() {
        let cfg = AdaptiveConfig::default().tau_ms(1_000.0).max_replicas(3);
        let mut p = AdaptiveReplication::new(cfg, 2);
        for i in 0..10 {
            p.on_local_hit(DocId(0), i as f64);
        }
        assert!(p.is_promoted(DocId(0)));
        // 2 holders < cap 3: replicate. 3 holders: stop.
        assert_eq!(
            p.on_peer_hit(DocId(0), 11.0, &cands(2), CacheId(1)),
            PeerHitAction::Replicate
        );
        assert_eq!(
            p.on_peer_hit(DocId(0), 12.0, &cands(3), CacheId(1)),
            PeerHitAction::ServeRemote
        );
    }

    #[test]
    fn origin_fetch_places_on_requester() {
        let mut p = AdaptiveReplication::new(AdaptiveConfig::default(), 2);
        assert_eq!(p.on_origin_fetch(DocId(1), 0.0, &cands(0)), CacheId(0));
    }
}
