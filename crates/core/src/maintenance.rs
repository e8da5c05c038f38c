//! Incremental group maintenance for dynamic edge networks.
//!
//! The paper assumes "the scale of the edge cache network, and the
//! locations of the edge caches ... are pre-decided" (§2) and leaves
//! dynamics open. Deployments are not static: caches are added during
//! capacity expansion and drained for maintenance. This module provides
//! the incremental operations a GF-Coordinator needs between full
//! re-clusterings:
//!
//! * **admit** — a joining cache probes the existing landmark set,
//!   builds its feature vector, and joins the group with the nearest
//!   cluster center; no other cache moves.
//! * **retire** — a leaving cache is dropped from its group.
//! * **drift tracking** — the maintained interaction cost is compared
//!   against the formation-time cost, so operators can trigger a full
//!   re-run of the scheme once incremental decay crosses a threshold.

use crate::scheme::GroupingOutcome;
use ecg_clustering::{kmeans_warm, KmeansConfig};
use ecg_coords::{FeatureMatrix, ProbeConfig, Prober};
use ecg_obs::Obs;
use ecg_topology::{CacheId, EdgeNetwork};
use rand::Rng;
use std::fmt;

/// Error from the maintenance operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceError {
    /// The network passed in does not have the expected cache count.
    CacheCountMismatch {
        /// Caches the maintainer tracks.
        expected: usize,
        /// Caches in the supplied network.
        actual: usize,
    },
    /// Retiring this cache would empty its group.
    WouldEmptyGroup {
        /// The group that would become empty.
        group: usize,
    },
    /// The cache id is unknown.
    UnknownCache(CacheId),
    /// The cache is already assigned to a group.
    AlreadyActive(CacheId),
    /// A partial re-formation referenced a group index that does not
    /// exist.
    UnknownGroup(usize),
    /// Pruning dead landmarks would leave too few to position caches —
    /// escalate to a full re-formation instead.
    TooFewLandmarks {
        /// Landmarks that would survive the prune.
        surviving: usize,
    },
    /// The group centers are not feature vectors over the landmark set
    /// (an embedded representation formed them), so a partial
    /// re-formation cannot compare re-probed members with them.
    NotFeatureVectors,
}

impl fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintenanceError::CacheCountMismatch { expected, actual } => {
                write!(
                    f,
                    "maintainer tracks {expected} caches, network has {actual}"
                )
            }
            MaintenanceError::WouldEmptyGroup { group } => {
                write!(f, "retiring the cache would empty group {group}")
            }
            MaintenanceError::UnknownCache(c) => write!(f, "unknown cache {c}"),
            MaintenanceError::AlreadyActive(c) => {
                write!(f, "cache {c} is already assigned to a group")
            }
            MaintenanceError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            MaintenanceError::TooFewLandmarks { surviving } => {
                write!(
                    f,
                    "only {surviving} landmarks would survive the prune; re-form fully"
                )
            }
            MaintenanceError::NotFeatureVectors => {
                write!(f, "centers are not landmark feature vectors; re-form fully")
            }
        }
    }
}

impl std::error::Error for MaintenanceError {}

/// What [`GroupMaintainer::retire`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireOutcome {
    /// The group the cache left.
    pub group: usize,
    /// `true` when the departed cache was one of the formation-time
    /// landmarks. Admissions and readmissions keep probing the original
    /// landmark set, so losing a member of it silently degrades every
    /// future position estimate — treat this as a re-formation signal.
    pub was_landmark: bool,
}

/// What [`GroupMaintainer::reform_partial`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialReformOutcome {
    /// Dead landmarks pruned from the probing set (their feature
    /// columns dropped everywhere).
    pub pruned_landmarks: usize,
    /// Caches that were re-probed and re-clustered (the members of the
    /// degraded groups).
    pub regrouped: usize,
    /// Of those, how many ended up in a different group.
    pub moved: usize,
    /// Iterations of the local re-clustering's Lloyd loop
    /// ([`ecg_clustering::Clustering::iterations`]); 0 when no group
    /// was degraded.
    pub iterations: usize,
}

/// Maintains a formed grouping as caches join and leave.
///
/// # Examples
///
/// ```
/// use ecg_core::{form, FormContext, FormPlan, GroupMaintainer, SchemeConfig};
/// use ecg_coords::ProbeConfig;
/// use ecg_topology::{fixtures::paper_figure1, EdgeNetwork};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
/// let mut rng = StdRng::seed_from_u64(3);
/// let config = SchemeConfig::sl(3).landmarks(3).plset_multiplier(2)
///     .probe(ProbeConfig::noiseless());
/// let plan = FormPlan::new(network.rtt_matrix(), &config);
/// let outcome = form(&plan, &mut FormContext::new(), &mut rng)?;
///
/// let mut maintainer = GroupMaintainer::new(&network, outcome, ProbeConfig::noiseless());
/// // A new cache joins 1 ms from Ec0 (and far from everyone else):
/// let grown = network.with_added_cache(
///     12.5,
///     &[1.0, 4.5, 18.0, 15.0, 18.0, 15.0],
/// );
/// let group = maintainer.admit(&grown, &mut rng, None)?;
/// // It lands in Ec0's group.
/// assert_eq!(group, maintainer.group_of(ecg_topology::CacheId(0)).unwrap());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMaintainer {
    groups: Vec<Vec<CacheId>>,
    assignments: Vec<Option<usize>>,
    landmarks: Vec<usize>,
    centers: FeatureMatrix,
    pub(crate) probe: ProbeConfig,
    formation_cost: f64,
    retired: Vec<CacheId>,
    /// Probe-scratch buffer reused across admit/readmit calls.
    fv_scratch: Vec<f64>,
    /// Completed maintenance operations; keys the event-trace timeline.
    ops: u64,
}

impl GroupMaintainer {
    /// Wraps a freshly formed grouping for incremental maintenance.
    ///
    /// The formation-time average interaction cost (under raw RTTs) is
    /// recorded as the drift baseline.
    pub fn new(network: &EdgeNetwork, outcome: GroupingOutcome, probe: ProbeConfig) -> Self {
        let formation_cost = outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
        GroupMaintainer {
            groups: outcome.groups().to_vec(),
            assignments: outcome.assignments().iter().map(|&g| Some(g)).collect(),
            landmarks: outcome.landmarks().landmarks.clone(),
            centers: outcome.centers().clone(),
            probe,
            formation_cost,
            retired: Vec::new(),
            fv_scratch: Vec::new(),
            ops: 0,
        }
    }

    /// Current groups (retired caches removed, admitted caches added).
    pub fn groups(&self) -> &[Vec<CacheId>] {
        &self.groups
    }

    /// Group of `cache`, or `None` if it was retired or never admitted.
    pub fn group_of(&self, cache: CacheId) -> Option<usize> {
        self.assignments.get(cache.index()).copied().flatten()
    }

    /// Number of caches currently assigned to groups.
    pub fn active_caches(&self) -> usize {
        self.assignments.iter().flatten().count()
    }

    /// Total cache ids tracked, assigned or not (ids are dense
    /// `0..cache_count`).
    pub fn cache_count(&self) -> usize {
        self.assignments.len()
    }

    /// Caches retired so far, in retirement order.
    pub fn retired(&self) -> &[CacheId] {
        &self.retired
    }

    /// The landmark node indices every admission and readmission probes
    /// (node 0 is the origin; cache `Ec_i` is node `i + 1`).
    pub fn landmarks(&self) -> &[usize] {
        &self.landmarks
    }

    /// The cost baseline drift is measured against: the average group
    /// interaction cost at formation time (re-anchored by
    /// [`GroupMaintainer::reform_partial`]).
    pub fn formation_cost(&self) -> f64 {
        self.formation_cost
    }

    /// Admits the newest cache of `network` (id `N-1`, appended via
    /// [`EdgeNetwork::with_added_cache`]) into the nearest group.
    ///
    /// The newcomer probes the original landmark set and is assigned to
    /// the group whose K-means center is closest in feature space —
    /// exactly the assignment rule the clustering itself used, so
    /// admission is consistent with formation.
    ///
    /// Returns the group index it joined. With a bundle it records a
    /// `maintenance.admissions` counter, the newcomer's landmark probes
    /// (`probe.*`), and a `maintenance`/`admit` trace event;
    /// instrumentation never draws from the RNG.
    ///
    /// # Errors
    ///
    /// Returns [`MaintenanceError::CacheCountMismatch`] if `network`
    /// does not contain exactly one more cache than currently tracked.
    pub fn admit<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<usize, MaintenanceError> {
        let expected = self.assignments.len() + 1;
        if network.cache_count() != expected {
            return Err(MaintenanceError::CacheCountMismatch {
                expected,
                actual: network.cache_count(),
            });
        }
        let newcomer = CacheId(expected - 1);
        let best_group = self.nearest_group(network, newcomer, rng, obs.as_deref_mut());
        self.groups[best_group].push(newcomer);
        self.assignments.push(Some(best_group));
        let op = self.ops;
        self.ops += 1;
        if let Some(o) = obs {
            o.metrics.inc("maintenance.admissions");
            o.trace.push(
                op as f64,
                "maintenance",
                "admit",
                vec![
                    ("cache", newcomer.index().into()),
                    ("group", best_group.into()),
                ],
            );
        }
        Ok(best_group)
    }

    /// Probes the landmark set from `cache`'s position and returns the
    /// group with the nearest K-means center. The probe buffer is reused
    /// across calls, so steady-state admission allocates nothing.
    fn nearest_group<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        cache: CacheId,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> usize {
        let prober = Prober::new(network.rtt_matrix(), self.probe);
        let from = cache.index() + 1;
        prober.measure_all(from, &self.landmarks, rng, &mut self.fv_scratch, obs);
        let fv = &self.fv_scratch;
        self.centers
            .iter_rows()
            .enumerate()
            .map(|(g, center)| {
                let d: f64 = center.iter().zip(fv).map(|(a, b)| (a - b) * (a - b)).sum();
                (g, d)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
            .expect("at least one group")
            .0
    }

    /// Re-admits a previously retired cache into the nearest group — the
    /// recovery half of churn: a node that was drained (or crashed and
    /// was written off) comes back online at the same network position.
    ///
    /// Like [`GroupMaintainer::admit`], the returning cache re-probes
    /// the original landmark set and joins the group with the closest
    /// K-means center; conditions may have changed since it left, so it
    /// does not simply resume its old membership.
    ///
    /// Returns the group index it joined. With a bundle it records a
    /// `maintenance.readmissions` counter, the returning cache's landmark
    /// probes (`probe.*`), and a `maintenance`/`readmit` trace event.
    ///
    /// # Errors
    ///
    /// * [`MaintenanceError::CacheCountMismatch`] if `network` does not
    ///   cover the maintained id space.
    /// * [`MaintenanceError::UnknownCache`] if `cache` was never
    ///   tracked.
    /// * [`MaintenanceError::AlreadyActive`] if `cache` is currently in
    ///   a group.
    pub fn readmit<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        cache: CacheId,
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<usize, MaintenanceError> {
        if network.cache_count() != self.assignments.len() {
            return Err(MaintenanceError::CacheCountMismatch {
                expected: self.assignments.len(),
                actual: network.cache_count(),
            });
        }
        if cache.index() >= self.assignments.len() {
            return Err(MaintenanceError::UnknownCache(cache));
        }
        if self.assignments[cache.index()].is_some() {
            return Err(MaintenanceError::AlreadyActive(cache));
        }
        let best_group = self.nearest_group(network, cache, rng, obs.as_deref_mut());
        self.groups[best_group].push(cache);
        self.assignments[cache.index()] = Some(best_group);
        self.retired.retain(|&c| c != cache);
        let op = self.ops;
        self.ops += 1;
        if let Some(o) = obs {
            o.metrics.inc("maintenance.readmissions");
            o.trace.push(
                op as f64,
                "maintenance",
                "readmit",
                vec![
                    ("cache", cache.index().into()),
                    ("group", best_group.into()),
                ],
            );
        }
        Ok(best_group)
    }

    /// Retires `cache` from its group. Its id stays reserved (ids are
    /// stable), it simply stops belonging to any group.
    ///
    /// The returned [`RetireOutcome`] flags whether the departed cache
    /// was a formation-time *landmark*: every future admission and
    /// readmission keeps probing it, so its silent loss degrades the
    /// position estimates of newcomers. Callers should treat
    /// [`RetireOutcome::was_landmark`] as a re-formation signal.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache is unknown/already retired, or if
    /// removing it would leave its group empty (re-form instead).
    pub fn retire(&mut self, cache: CacheId) -> Result<RetireOutcome, MaintenanceError> {
        self.retire_observed(cache, None)
    }

    /// Like [`GroupMaintainer::retire`], but records a
    /// `maintenance.retirements` counter (plus
    /// `maintenance.landmark_retirements` when the departed cache was a
    /// landmark) and a `maintenance`/`retire` trace event when an
    /// observability bundle is supplied. With `obs = None` this is
    /// exactly [`GroupMaintainer::retire`].
    ///
    /// # Errors
    ///
    /// Exactly as [`GroupMaintainer::retire`].
    pub fn retire_observed(
        &mut self,
        cache: CacheId,
        obs: Option<&mut Obs>,
    ) -> Result<RetireOutcome, MaintenanceError> {
        let Some(group) = self.group_of(cache) else {
            return Err(MaintenanceError::UnknownCache(cache));
        };
        if self.groups[group].len() == 1 {
            return Err(MaintenanceError::WouldEmptyGroup { group });
        }
        // Cache Ec_i is node i + 1 in the landmark index space.
        let was_landmark = self.landmarks.contains(&(cache.index() + 1));
        self.groups[group].retain(|&c| c != cache);
        self.assignments[cache.index()] = None;
        self.retired.push(cache);
        let op = self.ops;
        self.ops += 1;
        if let Some(o) = obs {
            o.metrics.inc("maintenance.retirements");
            if was_landmark {
                o.metrics.inc("maintenance.landmark_retirements");
            }
            o.trace.push(
                op as f64,
                "maintenance",
                "retire",
                vec![
                    ("cache", cache.index().into()),
                    ("group", group.into()),
                    ("was_landmark", u64::from(was_landmark).into()),
                ],
            );
        }
        Ok(RetireOutcome {
            group,
            was_landmark,
        })
    }

    /// Current average group interaction cost under `cost`, over the
    /// active membership.
    pub fn current_cost(&self, cost: impl Fn(CacheId, CacheId) -> f64 + Sync) -> f64 {
        let groups_idx: Vec<Vec<usize>> = self
            .groups
            .iter()
            .map(|g| g.iter().map(|c| c.index()).collect())
            .collect();
        ecg_clustering::average_group_interaction_cost(&groups_idx, |a, b| {
            cost(CacheId(a), CacheId(b))
        })
    }

    /// Ratio of the current interaction cost (under the given network's
    /// RTTs) to the formation-time cost. `1.0` means no drift; values
    /// above ~1.2–1.5 are a reasonable re-clustering trigger.
    ///
    /// # Errors
    ///
    /// Returns [`MaintenanceError::CacheCountMismatch`] if `network`
    /// covers fewer caches than the highest active id.
    pub fn drift(&self, network: &EdgeNetwork) -> Result<f64, MaintenanceError> {
        if network.cache_count() < self.assignments.len() {
            return Err(MaintenanceError::CacheCountMismatch {
                expected: self.assignments.len(),
                actual: network.cache_count(),
            });
        }
        let current = self.current_cost(|a, b| network.cache_to_cache(a, b));
        Ok(if self.formation_cost > 0.0 {
            current / self.formation_cost
        } else if current > 0.0 {
            f64::INFINITY
        } else {
            1.0
        })
    }

    /// Re-clusters only the groups flagged degraded, in place, while
    /// everything else keeps its membership — the middle ground between
    /// per-cache maintenance and a full re-run of the scheme.
    ///
    /// Three steps, all deterministic for a fixed RNG:
    ///
    /// 1. **Prune dead landmarks.** Every node index in
    ///    `dead_landmarks` is dropped from the probing set and its
    ///    feature column removed from all cluster centers, so no future
    ///    admission probes a gone node.
    /// 2. **Re-probe the degraded members.** Each member of a degraded
    ///    group measures the surviving landmark set afresh.
    /// 3. **Warm-started local Lloyd.** The degraded groups' (pruned)
    ///    centers start [`ecg_clustering::kmeans_warm`] over just those
    ///    members: formation's Lloyd loop, whose repair runs after each
    ///    center update — a group left empty steals the member farthest
    ///    from its own updated center and is re-centered on it — so no
    ///    degraded group ever ends up empty.
    ///
    /// The drift baseline is re-anchored to the post-repair cost, so
    /// [`GroupMaintainer::drift`] measures decay since *this* repair.
    ///
    /// # Errors
    ///
    /// * [`MaintenanceError::CacheCountMismatch`] if `network` does not
    ///   cover the maintained id space.
    /// * [`MaintenanceError::UnknownGroup`] for an out-of-range group
    ///   index.
    /// * [`MaintenanceError::TooFewLandmarks`] if fewer than two
    ///   landmarks would survive the prune — the caller should escalate
    ///   to a full re-formation ([`crate::form`]). The maintainer is
    ///   untouched.
    /// * [`MaintenanceError::NotFeatureVectors`] if the grouping was
    ///   formed over an embedded representation; untouched as well.
    pub fn reform_partial<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        degraded_groups: &[usize],
        dead_landmarks: &[usize],
        rng: &mut R,
    ) -> Result<PartialReformOutcome, MaintenanceError> {
        self.reform_partial_observed(network, degraded_groups, dead_landmarks, rng, None)
    }

    /// Like [`GroupMaintainer::reform_partial`], but records a
    /// `maintenance.partial_reforms` counter, the members' landmark
    /// probes, and a `maintenance`/`partial_reform` trace event when an
    /// observability bundle is supplied.
    ///
    /// # Errors
    ///
    /// Exactly as [`GroupMaintainer::reform_partial`].
    pub fn reform_partial_observed<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        degraded_groups: &[usize],
        dead_landmarks: &[usize],
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<PartialReformOutcome, MaintenanceError> {
        if network.cache_count() < self.assignments.len() {
            return Err(MaintenanceError::CacheCountMismatch {
                expected: self.assignments.len(),
                actual: network.cache_count(),
            });
        }
        let mut degraded: Vec<usize> = degraded_groups.to_vec();
        degraded.sort_unstable();
        degraded.dedup();
        if let Some(&bad) = degraded.iter().find(|&&g| g >= self.groups.len()) {
            return Err(MaintenanceError::UnknownGroup(bad));
        }
        if self.centers.dim() != self.landmarks.len() {
            return Err(MaintenanceError::NotFeatureVectors);
        }
        let keep: Vec<usize> = (0..self.landmarks.len())
            .filter(|&i| !dead_landmarks.contains(&self.landmarks[i]))
            .collect();
        let pruned_landmarks = self.landmarks.len() - keep.len();
        if keep.len() < 2 {
            return Err(MaintenanceError::TooFewLandmarks {
                surviving: keep.len(),
            });
        }
        if pruned_landmarks > 0 {
            self.landmarks = keep.iter().map(|&i| self.landmarks[i]).collect();
            let rows: Vec<Vec<f64>> = self
                .centers
                .iter_rows()
                .map(|row| keep.iter().map(|&i| row[i]).collect())
                .collect();
            self.centers = FeatureMatrix::from_rows(&rows);
        }

        // Re-probe the degraded groups' members (group order, then
        // member order — the RNG draw order is part of the contract).
        let members: Vec<CacheId> = degraded
            .iter()
            .flat_map(|&g| self.groups[g].iter().copied())
            .collect();
        let prober = Prober::new(network.rtt_matrix(), self.probe);
        let mut features = FeatureMatrix::with_capacity(members.len(), self.landmarks.len());
        for c in &members {
            let fv = &mut self.fv_scratch;
            prober.measure_all(c.index() + 1, &self.landmarks, rng, fv, obs.as_deref_mut());
            features.push_row(fv);
        }

        // Warm-started K-means over just these members, from the
        // degraded groups' surviving center coordinates; then write the
        // repaired membership and centers back.
        let (mut moved, mut iterations) = (0usize, 0usize);
        if !degraded.is_empty() {
            let mut start = FeatureMatrix::with_capacity(degraded.len(), self.centers.dim());
            for &g in &degraded {
                start.push_row(self.centers.row(g));
            }
            let config = KmeansConfig::new(degraded.len()).max_iterations(50);
            let clustering = kmeans_warm(&features, start, config)
                .expect("degraded groups are non-empty: a member per center");
            iterations = clustering.iterations();
            let mut new_groups: Vec<Vec<CacheId>> = vec![Vec::new(); degraded.len()];
            for (&c, &slot) in members.iter().zip(clustering.assignments()) {
                let g = degraded[slot];
                if self.assignments[c.index()] != Some(g) {
                    moved += 1;
                }
                new_groups[slot].push(c);
                self.assignments[c.index()] = Some(g);
            }
            let centers = clustering.centers().iter_rows();
            for ((&g, group), center) in degraded.iter().zip(new_groups).zip(centers) {
                self.groups[g] = group;
                self.centers.row_mut(g).copy_from_slice(center);
            }
        }

        // Re-anchor the drift baseline to the repaired grouping.
        self.formation_cost = self.current_cost(|a, b| network.cache_to_cache(a, b));
        let op = self.ops;
        self.ops += 1;
        let outcome = PartialReformOutcome {
            pruned_landmarks,
            regrouped: members.len(),
            moved,
            iterations,
        };
        if let Some(o) = obs {
            o.metrics.inc("maintenance.partial_reforms");
            o.trace.push(
                op as f64,
                "maintenance",
                "partial_reform",
                vec![
                    ("groups", (degraded.len() as u64).into()),
                    ("pruned_landmarks", (pruned_landmarks as u64).into()),
                    ("moved", (moved as u64).into()),
                ],
            );
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{form, FormContext, FormPlan, SchemeConfig};
    use ecg_topology::fixtures::paper_figure1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `form` over the network's matrix on one shared stream, unobserved.
    fn form_on(network: &EdgeNetwork, cfg: SchemeConfig, rng: &mut StdRng) -> GroupingOutcome {
        let plan = FormPlan::new(network.rtt_matrix(), &cfg);
        form(&plan, &mut FormContext::new(), rng).unwrap()
    }

    fn formed() -> (EdgeNetwork, GroupMaintainer, StdRng) {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        // Find a seed that yields the natural pairs for determinism.
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = form_on(
                &network,
                SchemeConfig::sl(3)
                    .landmarks(3)
                    .plset_multiplier(2)
                    .probe(ProbeConfig::noiseless()),
                &mut rng,
            );
            let mut groups: Vec<Vec<usize>> = outcome
                .groups()
                .iter()
                .map(|g| g.iter().map(|c| c.index()).collect())
                .collect();
            groups.sort();
            if groups == vec![vec![0, 1], vec![2, 3], vec![4, 5]] {
                let m = GroupMaintainer::new(&network, outcome, ProbeConfig::noiseless());
                return (network, m, rng);
            }
        }
        panic!("no seed produced the natural pairs");
    }

    #[test]
    fn admit_joins_nearest_group() {
        let (network, mut m, mut rng) = formed();
        // Newcomer adjacent to the Ec4/Ec5 pair.
        let grown = network.with_added_cache(8.2, &[14.4, 11.3, 14.4, 11.3, 1.0, 1.0]);
        let g = m.admit(&grown, &mut rng, None).unwrap();
        assert_eq!(g, m.group_of(CacheId(4)).unwrap());
        assert_eq!(m.group_of(CacheId(6)), Some(g));
        assert_eq!(m.active_caches(), 7);
        assert!(m.groups()[g].contains(&CacheId(6)));
    }

    #[test]
    fn admit_requires_grown_network() {
        let (network, mut m, mut rng) = formed();
        let err = m.admit(&network, &mut rng, None).unwrap_err();
        assert!(matches!(err, MaintenanceError::CacheCountMismatch { .. }));
    }

    #[test]
    fn retire_removes_from_group() {
        let (_, mut m, _) = formed();
        let group = m.group_of(CacheId(0)).unwrap();
        m.retire(CacheId(0)).unwrap();
        assert_eq!(m.group_of(CacheId(0)), None);
        assert!(!m.groups()[group].contains(&CacheId(0)));
        assert_eq!(m.retired(), &[CacheId(0)]);
        assert_eq!(m.active_caches(), 5);
        // Retiring again is an error.
        assert_eq!(
            m.retire(CacheId(0)),
            Err(MaintenanceError::UnknownCache(CacheId(0)))
        );
    }

    #[test]
    fn retiring_a_landmark_is_flagged() {
        // Regression: a departing landmark used to be indistinguishable
        // from any other retirement, so callers kept probing a gone
        // node for every future admission.
        let (_, mut m, _) = formed();
        let landmark_cache = m
            .landmarks
            .iter()
            .copied()
            .find(|&n| n > 0)
            .map(|n| CacheId(n - 1))
            .expect("formation always has a cache landmark");
        let plain_cache = (0..m.cache_count())
            .map(CacheId)
            .find(|c| !m.landmarks.contains(&(c.index() + 1)))
            .expect("some cache is not a landmark");

        let mut obs = Obs::new();
        let lm_outcome = m.retire_observed(landmark_cache, Some(&mut obs)).unwrap();
        assert!(lm_outcome.was_landmark, "landmark retirement not flagged");
        assert_eq!(obs.metrics.counter("maintenance.landmark_retirements"), 1);

        let (_, mut m2, _) = formed();
        let plain_outcome = m2.retire_observed(plain_cache, Some(&mut obs)).unwrap();
        assert!(!plain_outcome.was_landmark, "ordinary retirement flagged");
        assert_eq!(
            plain_outcome.group,
            m.group_of(plain_cache).expect("still active in m")
        );
        // Second retirement was not a landmark: counter unchanged.
        assert_eq!(obs.metrics.counter("maintenance.landmark_retirements"), 1);
        assert_eq!(obs.metrics.counter("maintenance.retirements"), 2);
    }

    #[test]
    fn readmit_restores_retired_cache() {
        let (network, mut m, mut rng) = formed();
        let original_group = m.group_of(CacheId(0)).unwrap();
        m.retire(CacheId(0)).unwrap();
        assert_eq!(m.active_caches(), 5);
        let g = m.readmit(&network, CacheId(0), &mut rng, None).unwrap();
        // Noiseless probing at an unchanged position: it rejoins its
        // original group.
        assert_eq!(g, original_group);
        assert_eq!(m.group_of(CacheId(0)), Some(g));
        assert_eq!(m.active_caches(), 6);
        assert!(m.retired().is_empty());
        // Round trip restores the formation cost exactly.
        let drift = m.drift(&network).unwrap();
        assert!((drift - 1.0).abs() < 1e-9, "drift {drift}");
    }

    #[test]
    fn readmit_rejects_active_and_unknown_caches() {
        let (network, mut m, mut rng) = formed();
        assert_eq!(
            m.readmit(&network, CacheId(0), &mut rng, None),
            Err(MaintenanceError::AlreadyActive(CacheId(0)))
        );
        assert_eq!(
            m.readmit(&network, CacheId(9), &mut rng, None),
            Err(MaintenanceError::UnknownCache(CacheId(9)))
        );
        let grown = network.with_added_cache(1.0, &[1.0; 6]);
        m.retire(CacheId(0)).unwrap();
        assert!(matches!(
            m.readmit(&grown, CacheId(0), &mut rng, None),
            Err(MaintenanceError::CacheCountMismatch { .. })
        ));
    }

    #[test]
    fn admit_then_retire_round_trip_preserves_group_sizes() {
        let (network, mut m, mut rng) = formed();
        let before: Vec<usize> = m.groups().iter().map(Vec::len).collect();
        let grown = network.with_added_cache(8.2, &[14.4, 11.3, 14.4, 11.3, 1.0, 1.0]);
        let g = m.admit(&grown, &mut rng, None).unwrap();
        assert_eq!(m.groups()[g].len(), before[g] + 1);
        m.retire(CacheId(6)).unwrap();
        let after: Vec<usize> = m.groups().iter().map(Vec::len).collect();
        assert_eq!(after, before);
        assert_eq!(m.active_caches(), 6);
        assert_eq!(m.retired(), &[CacheId(6)]);
    }

    #[test]
    fn drift_is_monotone_under_repeated_retire() {
        // One big group; each round retires the best-connected member
        // (minimum mean RTT to the others). Removing a below-average
        // contributor can only raise the surviving mean pairwise cost,
        // so the drift series must be non-decreasing.
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = form_on(
            &network,
            SchemeConfig::sl(1)
                .landmarks(3)
                .plset_multiplier(2)
                .probe(ProbeConfig::noiseless()),
            &mut rng,
        );
        let mut m = GroupMaintainer::new(&network, outcome, ProbeConfig::noiseless());
        let mut last = m.drift(&network).unwrap();
        assert!((last - 1.0).abs() < 1e-9);
        while m.groups()[0].len() > 2 {
            let members = m.groups()[0].clone();
            let mean_rtt = |c: CacheId| {
                members
                    .iter()
                    .filter(|&&o| o != c)
                    .map(|&o| network.cache_to_cache(c, o))
                    .sum::<f64>()
            };
            let victim = *members
                .iter()
                .min_by(|&&a, &&b| mean_rtt(a).partial_cmp(&mean_rtt(b)).unwrap())
                .unwrap();
            m.retire(victim).unwrap();
            let drift = m.drift(&network).unwrap();
            assert!(drift >= last - 1e-9, "drift fell from {last} to {drift}");
            last = drift;
        }
        assert!(last >= 1.0 - 1e-9, "final drift {last}");
    }

    #[test]
    fn retire_refuses_to_empty_a_group() {
        let (_, mut m, _) = formed();
        m.retire(CacheId(0)).unwrap();
        let err = m.retire(CacheId(1)).unwrap_err();
        assert!(matches!(err, MaintenanceError::WouldEmptyGroup { .. }));
    }

    #[test]
    fn drift_is_one_when_nothing_changes() {
        let (network, m, _) = formed();
        let drift = m.drift(&network).unwrap();
        assert!((drift - 1.0).abs() < 1e-9, "drift {drift}");
    }

    #[test]
    fn bad_admissions_raise_drift() {
        let (network, mut m, mut rng) = formed();
        // A newcomer far from everyone joins some group and stretches it.
        let grown = network.with_added_cache(200.0, &[190.0; 6]);
        m.admit(&grown, &mut rng, None).unwrap();
        let drift = m.drift(&grown).unwrap();
        assert!(drift > 1.5, "drift {drift}");
    }

    #[test]
    fn reform_resets_drift() {
        let (network, mut m, mut rng) = formed();
        let grown = network.with_added_cache(200.0, &[190.0; 6]);
        m.admit(&grown, &mut rng, None).unwrap();
        let cfg = SchemeConfig::sl(3)
            .landmarks(3)
            .plset_multiplier(2)
            .probe(ProbeConfig::noiseless());
        let fresh = GroupMaintainer::new(&grown, form_on(&grown, cfg, &mut rng), m.probe);
        let drift = fresh.drift(&grown).unwrap();
        assert!((drift - 1.0).abs() < 1e-9);
        assert_eq!(fresh.active_caches(), 7);
    }

    #[test]
    fn observed_ops_match_plain_and_record_lifecycle() {
        let (network, mut plain, mut rng_a) = formed();
        let (_, mut observed, mut rng_b) = formed();
        let grown = network.with_added_cache(8.2, &[14.4, 11.3, 14.4, 11.3, 1.0, 1.0]);
        let mut obs = Obs::new();

        let ga = plain.admit(&grown, &mut rng_a, None).unwrap();
        plain.retire(CacheId(0)).unwrap();
        let ra = plain.readmit(&grown, CacheId(0), &mut rng_a, None).unwrap();

        let gb = observed.admit(&grown, &mut rng_b, Some(&mut obs)).unwrap();
        observed
            .retire_observed(CacheId(0), Some(&mut obs))
            .unwrap();
        let rb = observed
            .readmit(&grown, CacheId(0), &mut rng_b, Some(&mut obs))
            .unwrap();

        // Instrumentation must not perturb maintenance decisions.
        assert_eq!((ga, ra), (gb, rb));
        assert_eq!(plain, observed);

        assert_eq!(obs.metrics.counter("maintenance.admissions"), 1);
        assert_eq!(obs.metrics.counter("maintenance.retirements"), 1);
        assert_eq!(obs.metrics.counter("maintenance.readmissions"), 1);
        // Admit + readmit each probe every landmark once.
        assert_eq!(
            obs.metrics.counter("probe.measurements"),
            2 * observed.landmarks.len() as u64
        );

        let kinds: Vec<&str> = obs.trace.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["admit", "retire", "readmit"]);
        // Trace time is the per-maintainer operation counter.
        let times: Vec<f64> = obs.trace.events().map(|e| e.t).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn error_display() {
        let e = MaintenanceError::WouldEmptyGroup { group: 2 };
        assert!(e.to_string().contains("group 2"));
        let e = MaintenanceError::CacheCountMismatch {
            expected: 5,
            actual: 4,
        };
        assert!(e.to_string().contains('5') && e.to_string().contains('4'));
        let e = MaintenanceError::UnknownGroup(7);
        assert!(e.to_string().contains('7'));
        let e = MaintenanceError::TooFewLandmarks { surviving: 1 };
        assert!(e.to_string().contains("1 landmarks"));
    }

    #[test]
    fn failed_retire_leaves_state_untouched() {
        // Regression for the empty-group guard: a refused retirement
        // must not leak partial state (membership, retired list, or the
        // ops counter that keys the trace timeline).
        let (_, mut m, _) = formed();
        m.retire(CacheId(0)).unwrap();
        let before = m.clone();
        let err = m.retire(CacheId(1)).unwrap_err();
        assert!(matches!(err, MaintenanceError::WouldEmptyGroup { .. }));
        assert_eq!(m, before, "failed retire mutated the maintainer");
        assert_eq!(m.group_of(CacheId(1)), before.group_of(CacheId(1)));
        assert_eq!(m.retired(), &[CacheId(0)]);
    }

    #[test]
    fn partial_reform_regroups_only_flagged_groups() {
        let (network, mut m, mut rng) = formed();
        // Stretch one group with a far-away newcomer, then repair only
        // that group: the other groups' membership must be untouched.
        let grown = network.with_added_cache(200.0, &[190.0; 6]);
        let g = m.admit(&grown, &mut rng, None).unwrap();
        let others: Vec<Vec<CacheId>> = m
            .groups()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != g)
            .map(|(_, grp)| grp.clone())
            .collect();
        assert!(m.drift(&grown).unwrap() > 1.5);

        let out = m.reform_partial(&grown, &[g], &[], &mut rng).unwrap();
        assert_eq!(out.pruned_landmarks, 0);
        assert_eq!(out.regrouped, m.groups()[g].len());
        assert!(out.iterations >= 1);
        let after: Vec<Vec<CacheId>> = m
            .groups()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != g)
            .map(|(_, grp)| grp.clone())
            .collect();
        assert_eq!(others, after, "untouched groups changed membership");
        // The baseline re-anchors: drift is back at 1.0 by definition.
        let drift = m.drift(&grown).unwrap();
        assert!((drift - 1.0).abs() < 1e-9, "drift {drift}");
        assert_eq!(m.active_caches(), 7);
    }

    #[test]
    fn partial_reform_prunes_dead_landmarks() {
        let (network, mut m, mut rng) = formed();
        let original = m.landmarks().to_vec();
        assert!(original.len() >= 3);
        let dead = original[0];
        let out = m.reform_partial(&network, &[0], &[dead], &mut rng).unwrap();
        assert_eq!(out.pruned_landmarks, 1);
        assert_eq!(m.landmarks().len(), original.len() - 1);
        assert!(!m.landmarks().contains(&dead));
        // Admission still works against the pruned landmark set.
        let grown = network.with_added_cache(8.2, &[14.4, 11.3, 14.4, 11.3, 1.0, 1.0]);
        m.admit(&grown, &mut rng, None).unwrap();
        assert_eq!(m.active_caches(), 7);
    }

    #[test]
    fn partial_reform_escalation_and_bad_group() {
        let (network, mut m, mut rng) = formed();
        let all = m.landmarks().to_vec();
        let before = m.clone();
        // Killing all landmarks must refuse and leave the maintainer
        // untouched — the caller escalates to a full reform.
        let err = m
            .reform_partial(&network, &[0], &all, &mut rng)
            .unwrap_err();
        assert!(matches!(err, MaintenanceError::TooFewLandmarks { .. }));
        assert_eq!(m, before);
        let err = m.reform_partial(&network, &[9], &[], &mut rng).unwrap_err();
        assert_eq!(err, MaintenanceError::UnknownGroup(9));
        assert_eq!(m, before);
    }

    #[test]
    fn partial_reform_of_no_group_only_prunes() {
        let (network, mut m, mut rng) = formed();
        let (groups, centers) = (m.groups().to_vec(), m.centers.clone());
        let out = m.reform_partial(&network, &[], &[], &mut rng).unwrap();
        assert_eq!(out, PartialReformOutcome::default());
        assert_eq!((m.groups(), &m.centers), (&groups[..], &centers));
    }

    #[test]
    fn a_degraded_group_whose_center_attracts_no_member_is_refilled() {
        let (network, mut m, mut rng) = formed();
        // Ec0 and Ec1 move next to Ec2 and Ec3: re-probed, all four
        // members of the two degraded groups sit nearer the second
        // group's center, and the first group's attracts none.
        let mut rtt = network.rtt_matrix().clone();
        for x in [0, 3, 4, 5, 6] {
            rtt.set(1, x, rtt.get(3, x) + 0.5);
            rtt.set(2, x, rtt.get(4, x) + 0.5);
        }
        let moved = EdgeNetwork::from_rtt_matrix(rtt);
        let degraded = [
            m.group_of(CacheId(0)).unwrap(),
            m.group_of(CacheId(2)).unwrap(),
        ];
        let prober = Prober::new(moved.rtt_matrix(), ProbeConfig::noiseless());
        let mut fv = Vec::new();
        for c in [0, 1, 2, 3] {
            prober.measure_all(c + 1, &m.landmarks, &mut rng, &mut fv, None);
            let d = |g: usize| -> f64 {
                let center = m.centers.row(g);
                center.iter().zip(&fv).map(|(a, b)| (a - b) * (a - b)).sum()
            };
            assert!(d(degraded[1]) < d(degraded[0]), "cache {c}");
        }

        m.reform_partial(&moved, &degraded, &[], &mut rng).unwrap();
        for g in degraded {
            assert!(!m.groups()[g].is_empty(), "group {g} ended empty");
        }
        assert_eq!(m.active_caches(), 6);
    }

    #[test]
    fn partial_reform_over_embedded_positions_is_a_typed_error() {
        use crate::scheme::Representation;
        use ecg_coords::GnpConfig;
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        let mut rng = StdRng::seed_from_u64(5);
        let gnp = Representation::Gnp(GnpConfig::default().dimensions(2).restarts(1));
        let outcome = form_on(
            &network,
            SchemeConfig::sl(3)
                .landmarks(3)
                .probe(ProbeConfig::noiseless())
                .representation(gnp),
            &mut rng,
        );
        let mut m = GroupMaintainer::new(&network, outcome, ProbeConfig::noiseless());
        let before = m.clone();
        let err = m.reform_partial(&network, &[0], &[], &mut rng).unwrap_err();
        assert_eq!(err, MaintenanceError::NotFeatureVectors);
        assert!(err.to_string().contains("re-form fully"), "{err}");
        assert_eq!(m, before);
    }

    #[test]
    fn partial_reform_is_deterministic_and_observed_matches_plain() {
        let (network, mut plain, _) = formed();
        let (_, mut observed, _) = formed();
        let grown = network.with_added_cache(200.0, &[190.0; 6]);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let ga = plain.admit(&grown, &mut rng_a, None).unwrap();
        let gb = observed.admit(&grown, &mut rng_b, None).unwrap();
        assert_eq!(ga, gb);

        let mut obs = Obs::new();
        let oa = plain
            .reform_partial(&grown, &[ga], &[], &mut rng_a)
            .unwrap();
        let ob = observed
            .reform_partial_observed(&grown, &[gb], &[], &mut rng_b, Some(&mut obs))
            .unwrap();
        assert_eq!(oa, ob);
        assert_eq!(plain, observed, "instrumentation perturbed the repair");
        assert_eq!(obs.metrics.counter("maintenance.partial_reforms"), 1);
        let kinds: Vec<&str> = obs.trace.events().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["partial_reform"]);
    }
}
