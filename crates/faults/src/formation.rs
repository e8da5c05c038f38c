//! Formation-time fault injection: the bridge between fault scripts and
//! the probing layer.
//!
//! The rest of this crate injects faults into a *running* simulation;
//! this module injects them into **group formation itself**. A
//! [`FormationFaults`] value describes which caches are crashed, which
//! probe links are black-holed, and which stub domains are collectively
//! offline while the SL/SDSL pipeline probes the network — it compiles
//! to the node-index [`ecg_coords::ProbeFaults`] consumed by
//! [`ecg_coords::Prober`] and, from there, by
//! [`ecg_core::form`] under [`ecg_core::FormPlan::faults`].
//!
//! Fault vocabulary:
//!
//! * **cache crash** ([`FormationFaults::crash`]) — every probe to the
//!   cache dies; the resilient pipeline detects it as dead, fails it
//!   over out of the landmark set, and quarantines it.
//! * **link blackhole** ([`FormationFaults::blackhole`] /
//!   [`FormationFaults::blackhole_to_origin`]) — one probe path dies
//!   while both endpoints stay otherwise reachable; masked clustering
//!   absorbs the missing feature cell.
//! * **correlated stub-domain outage**
//!   ([`FormationFaults::stub_domain_outage`]) — every cache placed in
//!   one GT-ITM stub domain crashes together, the access-network
//!   failure mode transit-stub topologies model.
//!
//! [`FormationFaults::from_schedule`] derives the crash set from a
//! simulator [`FaultSchedule`] at a point in time, so a mid-simulation
//! re-formation can face exactly the faults the simulation has already
//! inflicted.

use ecg_coords::ProbeFaults;
use ecg_sim::fault::FaultSchedule;
use ecg_topology::{CacheId, EdgeNetwork, TransitStubTopology};
use std::collections::BTreeSet;

/// Cache-level fault set for one formation run.
///
/// Indices are cache ids; [`FormationFaults::to_probe_faults`] shifts
/// them into the prober's node space (node `0` is the origin, cache `i`
/// is node `i + 1`).
///
/// # Examples
///
/// ```
/// use ecg_faults::FormationFaults;
/// use ecg_topology::CacheId;
///
/// let faults = FormationFaults::new()
///     .crash(CacheId(7))
///     .blackhole(CacheId(1), CacheId(2))
///     .blackhole_to_origin(CacheId(0));
/// let probe = faults.to_probe_faults();
/// assert!(probe.is_node_down(8)); // cache 7 = node 8
/// assert!(probe.link_dead(2, 3)); // caches 1,2 = nodes 2,3
/// assert!(probe.link_dead(1, 0)); // cache 0 = node 1, origin = 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FormationFaults {
    crashed: BTreeSet<usize>,
    blackholes: BTreeSet<(usize, usize)>,
    origin_blackholes: BTreeSet<usize>,
}

impl FormationFaults {
    /// Creates an empty (fault-free) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crashes `cache`: every probe to it dies.
    pub fn crash(mut self, cache: CacheId) -> Self {
        self.crashed.insert(cache.index());
        self
    }

    /// Black-holes the probe path between two caches; both stay
    /// reachable over their other links.
    pub fn blackhole(mut self, a: CacheId, b: CacheId) -> Self {
        let (a, b) = (a.index().min(b.index()), a.index().max(b.index()));
        self.blackholes.insert((a, b));
        self
    }

    /// Black-holes the probe path between `cache` and the origin
    /// server — the cache loses its server-distance measurement but
    /// still sees the other landmarks.
    pub fn blackhole_to_origin(mut self, cache: CacheId) -> Self {
        self.origin_blackholes.insert(cache.index());
        self
    }

    /// Crashes every cache of stub domain `domain` (by global stub
    /// index) together — a correlated access-network outage. Caches are
    /// matched by their placement node; a domain hosting no caches
    /// leaves the set unchanged.
    pub fn stub_domain_outage(
        mut self,
        topology: &TransitStubTopology,
        network: &EdgeNetwork,
        domain: usize,
    ) -> Self {
        let Some(dom) = topology.stub_domains().get(domain) else {
            return self;
        };
        for (i, node) in network.cache_nodes().iter().enumerate() {
            if dom.nodes.contains(node) {
                self.crashed.insert(i);
            }
        }
        self
    }

    /// Crashes every cache that a simulator fault script has down
    /// (crashed or retired) at `time_ms` — see
    /// [`FaultSchedule::down_caches_at`].
    pub fn from_schedule(schedule: &FaultSchedule, time_ms: f64) -> Self {
        let mut faults = FormationFaults::new();
        for cache in schedule.down_caches_at(time_ms) {
            faults.crashed.insert(cache.index());
        }
        faults
    }

    /// The crashed caches, ascending.
    pub fn crashed_caches(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.crashed.iter().map(|&i| CacheId(i))
    }

    /// Number of crashed caches.
    pub fn crash_count(&self) -> usize {
        self.crashed.len()
    }

    /// `true` when no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.crashed.is_empty() && self.blackholes.is_empty() && self.origin_blackholes.is_empty()
    }

    /// Compiles to the prober's node-index fault set: cache `i` becomes
    /// node `i + 1`, the origin is node `0`.
    pub fn to_probe_faults(&self) -> ProbeFaults {
        let mut probe = ProbeFaults::new();
        for &c in &self.crashed {
            probe = probe.node_down(c + 1);
        }
        for &(a, b) in &self.blackholes {
            probe = probe.blackhole(a + 1, b + 1);
        }
        for &c in &self.origin_blackholes {
            probe = probe.blackhole(c + 1, 0);
        }
        probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_sim::fault::FaultKind;
    use ecg_topology::{OriginPlacement, TransitStubConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_set_compiles_to_empty_probe_faults() {
        let faults = FormationFaults::new();
        assert!(faults.is_empty());
        assert!(faults.to_probe_faults().is_empty());
    }

    #[test]
    fn cache_indices_shift_into_node_space() {
        let faults = FormationFaults::new()
            .crash(CacheId(0))
            .blackhole(CacheId(4), CacheId(2))
            .blackhole_to_origin(CacheId(9));
        let probe = faults.to_probe_faults();
        assert!(probe.is_node_down(1));
        assert!(!probe.is_node_down(0), "origin is never crashed");
        assert!(probe.link_dead(3, 5));
        assert!(probe.link_dead(5, 3));
        assert!(probe.link_dead(0, 10));
        assert!(!probe.link_dead(2, 10), "only the origin path is holed");
        assert_eq!(faults.crash_count(), 1);
        assert_eq!(
            faults.crashed_caches().collect::<Vec<_>>(),
            vec![CacheId(0)]
        );
    }

    #[test]
    fn schedule_derivation_matches_point_in_time_state() {
        let mut s = FaultSchedule::new();
        s.push(1_000.0, FaultKind::CacheDown { cache: CacheId(3) });
        s.push(2_000.0, FaultKind::CacheRetire { cache: CacheId(1) });
        s.push(5_000.0, FaultKind::CacheUp { cache: CacheId(3) });
        let mid = FormationFaults::from_schedule(&s, 3_000.0);
        assert_eq!(
            mid.crashed_caches().collect::<Vec<_>>(),
            vec![CacheId(1), CacheId(3)]
        );
        let late = FormationFaults::from_schedule(&s, 10_000.0);
        assert_eq!(
            late.crashed_caches().collect::<Vec<_>>(),
            vec![CacheId(1)],
            "recovered cache is back, retirement is permanent"
        );
        assert!(late.to_probe_faults().is_node_down(2));
    }

    #[test]
    fn stub_domain_outage_crashes_exactly_the_domains_caches() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = TransitStubConfig::for_caches(40).generate(&mut rng);
        let network =
            EdgeNetwork::place(&topo, 40, OriginPlacement::TransitNode, &mut rng).unwrap();

        // Every cache sits in exactly one stub domain, so summing the
        // per-domain outages covers each cache once.
        let mut seen = Vec::new();
        for d in 0..topo.stub_domains().len() {
            let faults = FormationFaults::new().stub_domain_outage(&topo, &network, d);
            for c in faults.crashed_caches() {
                seen.push(c.index());
            }
            // Crashed caches really are placed in that domain.
            for c in faults.crashed_caches() {
                let node = network.cache_nodes()[c.index()];
                assert!(topo.stub_domains()[d].nodes.contains(&node));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());

        // An out-of-range domain is a no-op.
        let none = FormationFaults::new().stub_domain_outage(&topo, &network, 10_000);
        assert!(none.is_empty());
    }
}
