//! The placement-policy trait, its inputs, and the configuration enum.

use super::adaptive::{AdaptiveConfig, AdaptiveReplication};
use super::dchoices::{DChoicesConfig, ProximityDChoices};
use ecg_topology::CacheId;
use ecg_workload::DocId;

/// One group member visible to a placement decision.
///
/// The simulator assembles a candidate list on every cooperative miss
/// (peer hit or origin fetch): the requesting cache first — always with
/// `rtt_ms == 0.0` — followed by its *alive* group peers in group
/// order. Down or retired members never appear, so a policy can only
/// place copies on members that can actually serve them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The member's cache id.
    pub cache: CacheId,
    /// Round-trip time from the requesting cache, ms (0 for the
    /// requester itself).
    pub rtt_ms: f64,
    /// Bytes currently occupied in the member's cache — the "load" of
    /// balanced-allocation placement.
    pub used_bytes: u64,
    /// Whether the member currently holds *any* copy of the requested
    /// document (fresh or stale — presence, exactly what the holder
    /// index tracks).
    pub holds: bool,
}

/// What the requesting cache should do with the body it received from a
/// group peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHitAction {
    /// Keep a local replica (the baseline's demand-replication
    /// behaviour): the group now holds one more copy.
    Replicate,
    /// Serve the client and drop the body: the group keeps its current
    /// replica set and the requester's capacity stays free for other
    /// documents.
    ServeRemote,
}

/// A placement policy decides, on every group-internal hit and miss,
/// where a document copy should live and how many replicas it deserves.
///
/// The simulator owns one policy instance per run and calls it
/// single-threaded, in event order; implementations are therefore free
/// to keep mutable state (rate estimators, RNG counters) without
/// synchronization. Determinism contract: decisions may depend only on
/// the call arguments and prior calls — never on wall-clock time,
/// thread count, or map iteration order.
pub trait PlacementPolicy {
    /// Called on a fresh local hit at the requesting cache. Pure
    /// popularity signal; nothing to decide.
    fn on_local_hit(&mut self, doc: DocId, now_ms: f64);

    /// Called when a group peer (`holder`) serves `doc` to the
    /// requester (`candidates[0]`). Returns whether the requester keeps
    /// a replica.
    fn on_peer_hit(
        &mut self,
        doc: DocId,
        now_ms: f64,
        candidates: &[Candidate],
        holder: CacheId,
    ) -> PeerHitAction;

    /// Called when the group missed entirely and the requester
    /// (`candidates[0]`) fetched `doc` from the origin. Returns the
    /// member that should cache the new copy (the requester serves the
    /// client either way).
    fn on_origin_fetch(&mut self, doc: DocId, now_ms: f64, candidates: &[Candidate]) -> CacheId;
}

/// The paper's single-holder baseline: copies follow requests.
///
/// * peer hit → the requester keeps a replica (demand replication);
/// * origin fetch → the copy lands on the requester.
///
/// This reproduces the simulator's historical behaviour exactly — the
/// simulator short-circuits these decisions without consulting the
/// policy, so baseline runs are bit-identical to pre-placement builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleHolder;

impl PlacementPolicy for SingleHolder {
    fn on_local_hit(&mut self, _doc: DocId, _now_ms: f64) {}

    fn on_peer_hit(
        &mut self,
        _doc: DocId,
        _now_ms: f64,
        _candidates: &[Candidate],
        _holder: CacheId,
    ) -> PeerHitAction {
        PeerHitAction::Replicate
    }

    fn on_origin_fetch(&mut self, _doc: DocId, _now_ms: f64, candidates: &[Candidate]) -> CacheId {
        candidates[0].cache
    }
}

/// Which placement policy a simulation runs, with its parameters.
///
/// `Copy` so it can ride inside [`SimConfig`](crate::SimConfig); the simulator
/// builds the stateful [`PlacementPolicy`] instance from it at the
/// start of each replay via [`PlacementKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlacementKind {
    /// The paper's single-holder demand caching. The default; leaves
    /// every historical experiment output byte-identical.
    #[default]
    SingleHolder,
    /// Leconte-style adaptive replication with deterministic
    /// promote/demote thresholds.
    Adaptive(AdaptiveConfig),
    /// Pourmiri-style proximity-aware power-of-d-choices placement.
    DChoices(DChoicesConfig),
}

impl PlacementKind {
    /// Adaptive replication with default thresholds.
    pub fn adaptive() -> Self {
        PlacementKind::Adaptive(AdaptiveConfig::default())
    }

    /// Proximity-aware d-choices with default parameters.
    pub fn d_choices() -> Self {
        PlacementKind::DChoices(DChoicesConfig::default())
    }

    /// Human-readable policy name, for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementKind::SingleHolder => "single-holder",
            PlacementKind::Adaptive(_) => "adaptive",
            PlacementKind::DChoices(_) => "d-choices",
        }
    }

    /// Whether this is the passive baseline the simulator short-circuits
    /// (no candidate assembly, no policy calls, no placement metrics).
    pub fn is_single_holder(&self) -> bool {
        matches!(self, PlacementKind::SingleHolder)
    }

    /// Builds the stateful policy instance for a run over a catalog of
    /// `docs` documents.
    pub fn build(&self, docs: usize) -> Box<dyn PlacementPolicy> {
        match *self {
            PlacementKind::SingleHolder => Box::new(SingleHolder),
            PlacementKind::Adaptive(config) => Box::new(AdaptiveReplication::new(config, docs)),
            PlacementKind::DChoices(config) => Box::new(ProximityDChoices::new(config)),
        }
    }
}

impl std::str::FromStr for PlacementKind {
    type Err = String;

    /// The inverse of [`PlacementKind::name`], with default parameters;
    /// `dchoices` is accepted for `d-choices`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = if s == "dchoices" { "d-choices" } else { s };
        [Self::SingleHolder, Self::adaptive(), Self::d_choices()]
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| {
                format!("placement must be single-holder, adaptive or dchoices, got {s:?}")
            })
    }
}

/// Number of candidates currently holding a copy — the document's
/// in-group replica count as visible to a decision.
pub(crate) fn holder_count(candidates: &[Candidate]) -> usize {
    candidates.iter().filter(|c| c.holds).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate {
                cache: CacheId(4),
                rtt_ms: 0.0,
                used_bytes: 100,
                holds: false,
            },
            Candidate {
                cache: CacheId(1),
                rtt_ms: 7.0,
                used_bytes: 400,
                holds: true,
            },
        ]
    }

    #[test]
    fn single_holder_replicates_on_requester() {
        let mut p = SingleHolder;
        let c = candidates();
        assert_eq!(
            p.on_peer_hit(DocId(0), 0.0, &c, CacheId(1)),
            PeerHitAction::Replicate
        );
        assert_eq!(p.on_origin_fetch(DocId(0), 0.0, &c), CacheId(4));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(PlacementKind::SingleHolder.name(), "single-holder");
        assert_eq!(PlacementKind::adaptive().name(), "adaptive");
        assert_eq!(PlacementKind::d_choices().name(), "d-choices");
        assert!(PlacementKind::default().is_single_holder());
        assert!(!PlacementKind::adaptive().is_single_holder());
    }

    #[test]
    fn holder_count_counts_presence() {
        assert_eq!(holder_count(&candidates()), 1);
        assert_eq!(holder_count(&[]), 0);
    }

    #[test]
    fn build_produces_working_policies() {
        let c = candidates();
        for kind in [
            PlacementKind::SingleHolder,
            PlacementKind::adaptive(),
            PlacementKind::d_choices(),
        ] {
            let mut p = kind.build(50);
            p.on_local_hit(DocId(0), 1.0);
            let target = p.on_origin_fetch(DocId(0), 2.0, &c);
            assert!(c.iter().any(|cand| cand.cache == target), "{kind:?}");
        }
    }
}
