//! Random churn generation and the maintenance-side churn driver.
//!
//! [`ChurnConfig`] turns a churn *rate* into a concrete, seeded
//! [`FaultPlan`] (who crashes when, for how long, who never comes back).
//! [`ChurnDriver`] replays such a plan against the group-maintenance
//! layer — retiring crashed caches from their groups, re-admitting
//! recovered ones — and records how the average interaction cost drifts
//! away from its formation-time baseline as membership churns.

use ecg_core::maintenance::{GroupMaintainer, MaintenanceError, RetireOutcome};
use ecg_obs::Obs;
use ecg_sim::fault::FaultKind;
use ecg_sim::GroupMap;
use ecg_topology::{CacheId, EdgeNetwork};
use rand::Rng;
use std::collections::BTreeSet;

use crate::plan::FaultPlan;

/// Parameters for random churn generation.
///
/// # Examples
///
/// ```
/// use ecg_faults::ChurnConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let plan = ChurnConfig::default()
///     .crashes_per_hour_per_cache(12.0)
///     .generate(8, 600_000.0, &mut rng);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    crashes_per_hour_per_cache: f64,
    mean_downtime_ms: f64,
    retirement_fraction: f64,
}

impl Default for ChurnConfig {
    /// One crash per cache per hour, one-minute mean downtime, every
    /// crashed cache eventually recovers.
    fn default() -> Self {
        ChurnConfig {
            crashes_per_hour_per_cache: 1.0,
            mean_downtime_ms: 60_000.0,
            retirement_fraction: 0.0,
        }
    }
}

impl ChurnConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the expected crash rate, per cache, per simulated hour.
    /// Zero disables churn.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and non-negative.
    pub fn crashes_per_hour_per_cache(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        self.crashes_per_hour_per_cache = rate;
        self
    }

    /// Sets the mean outage duration (exponentially distributed).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not finite and positive.
    pub fn mean_downtime_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "mean downtime must be > 0");
        self.mean_downtime_ms = ms;
        self
    }

    /// Sets the fraction of crashes that are permanent retirements
    /// (the node is written off instead of recovering).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn retirement_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.retirement_fraction = fraction;
        self
    }

    /// The configured crash rate (per cache, per hour).
    pub fn rate(&self) -> f64 {
        self.crashes_per_hour_per_cache
    }

    /// Samples a concrete [`FaultPlan`] for `caches` caches over
    /// `duration_ms` of simulated time.
    ///
    /// Crashes arrive as a Poisson process over the whole population
    /// (exponential inter-arrival times at `rate × caches` per hour);
    /// each picks a uniformly random victim, skipping caches that are
    /// already down or retired. A victim is retired permanently with
    /// probability [`retirement_fraction`](Self::retirement_fraction) —
    /// except the last survivor, which is always allowed to recover so
    /// the population can never churn to zero. Same seed, same plan.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is zero or `duration_ms` is not positive.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        caches: usize,
        duration_ms: f64,
        rng: &mut R,
    ) -> FaultPlan {
        assert!(caches > 0, "need at least one cache");
        assert!(
            duration_ms.is_finite() && duration_ms > 0.0,
            "duration must be > 0"
        );
        let mut plan = FaultPlan::new();
        if self.crashes_per_hour_per_cache == 0.0 {
            return plan;
        }
        let mean_gap_ms = 3_600_000.0 / (self.crashes_per_hour_per_cache * caches as f64);
        let mut busy_until = vec![0.0f64; caches]; // f64::INFINITY once retired
        let mut now = 0.0;
        loop {
            now += exponential(mean_gap_ms, rng);
            if now >= duration_ms {
                return plan;
            }
            let victim = CacheId(rng.gen_range(0..caches));
            if busy_until[victim.index()] > now {
                continue; // already down (or retired) — the crash is moot
            }
            let alive = busy_until.iter().filter(|&&t| t <= now).count();
            let retire = self.retirement_fraction > 0.0
                && alive > 1
                && rng.gen_bool(self.retirement_fraction);
            if retire {
                busy_until[victim.index()] = f64::INFINITY;
                plan = plan.retire(victim, now);
            } else {
                let downtime = exponential(self.mean_downtime_ms, rng).max(1.0);
                busy_until[victim.index()] = now + downtime;
                plan = plan.crash(victim, now, downtime);
            }
        }
    }
}

/// Draws from Exp(mean) by inversion.
fn exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen(); // [0, 1), so 1 - u is in (0, 1] and ln is finite
    -mean * (1.0 - u).ln()
}

/// One point of the interaction-cost drift series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSample {
    /// Simulated time of the membership change that produced this
    /// sample.
    pub time_ms: f64,
    /// Interaction-cost drift ratio after the change (`1.0` = at the
    /// formation baseline).
    pub drift: f64,
}

/// The caches a fault script has taken out of service so far, and the
/// one step that carries a fault event into a maintained grouping.
///
/// Churn replay ([`ChurnDriver::apply`]) and the lifecycle supervisor
/// both apply membership events through [`Membership::apply`], in the
/// order the simulator fires them
/// ([`FaultSchedule::in_firing_order`](ecg_sim::FaultSchedule::in_firing_order)),
/// so they settle every churn race the same way, and the way the
/// simulator's fault state does:
///
/// * a crash or a retirement takes the cache out of its group, unless
///   that would empty the group: then it stays nominally grouped
///   ([`MembershipChange::Kept`]), as a deployment that refuses to
///   dissolve a group implicitly would keep it;
/// * a retired cache stays out for good: a later recovery of it is
///   ignored, and a later crash of it takes nothing more out of service;
/// * a recovery re-admits the cache into the nearest group, unless it
///   never left.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Membership {
    /// Crashed and not yet recovered; never a retired cache.
    down: BTreeSet<usize>,
    /// Retired for good.
    retired: BTreeSet<usize>,
}

/// What [`Membership::apply`] did to the maintained grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The cache left its group.
    Left(RetireOutcome),
    /// The cache went out of service but stays in `group`: taking it
    /// out would have emptied the group.
    Kept {
        /// The cache that stays.
        cache: CacheId,
        /// The group it stays in.
        group: usize,
    },
    /// The cache came back and joined `group`.
    Rejoined {
        /// The group it joined.
        group: usize,
    },
    /// The grouping is unchanged: a brownout, an outage of a cache that
    /// is already out, or a recovery of a retired cache or of one that
    /// never left.
    Unchanged,
}

impl Membership {
    /// Applies one fault event to `maintainer`: crashes and retirements
    /// through [`GroupMaintainer::retire_observed`], recoveries through
    /// [`GroupMaintainer::readmit`], both recording into `obs` when a
    /// bundle is supplied.
    ///
    /// # Errors
    ///
    /// Propagates [`MaintenanceError`] on structural mismatches (a
    /// network that does not cover the maintained caches, a recovery of
    /// a cache the maintainer does not track); the churn races above are
    /// never errors.
    pub fn apply<R: Rng + ?Sized>(
        &mut self,
        maintainer: &mut GroupMaintainer,
        network: &EdgeNetwork,
        kind: FaultKind,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> Result<MembershipChange, MaintenanceError> {
        match kind {
            FaultKind::CacheDown { cache } | FaultKind::CacheRetire { cache } => {
                if let FaultKind::CacheRetire { .. } = kind {
                    self.down.remove(&cache.index());
                    self.retired.insert(cache.index());
                } else if !self.retired.contains(&cache.index()) {
                    self.down.insert(cache.index());
                }
                take_out(maintainer, cache, obs)
            }
            FaultKind::CacheUp { cache } => {
                self.down.remove(&cache.index());
                if self.retired.contains(&cache.index()) {
                    return Ok(MembershipChange::Unchanged);
                }
                match maintainer.readmit(network, cache, rng, obs) {
                    Ok(group) => Ok(MembershipChange::Rejoined { group }),
                    // It was kept, so it never left.
                    Err(MaintenanceError::AlreadyActive(_)) => Ok(MembershipChange::Unchanged),
                    Err(e) => Err(e),
                }
            }
            FaultKind::BrownoutStart { .. } | FaultKind::BrownoutEnd => {
                Ok(MembershipChange::Unchanged)
            }
        }
    }

    /// Takes every out-of-service cache out of a freshly formed
    /// `maintainer` (one that groups every cache) and returns the group
    /// of each cache it had to keep.
    ///
    /// # Errors
    ///
    /// As [`Membership::apply`].
    pub fn retire_from(
        &self,
        maintainer: &mut GroupMaintainer,
        mut obs: Option<&mut Obs>,
    ) -> Result<Vec<usize>, MaintenanceError> {
        let mut kept = Vec::new();
        for cache in self.out_of_service() {
            if let MembershipChange::Kept { group, .. } =
                take_out(maintainer, cache, obs.as_deref_mut())?
            {
                kept.push(group);
            }
        }
        Ok(kept)
    }

    /// The caches out of service (down or retired), ascending.
    fn out_of_service(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.down.union(&self.retired).map(|&c| CacheId(c))
    }

    /// Whether `cache` is down or retired.
    pub fn is_out(&self, cache: CacheId) -> bool {
        self.down.contains(&cache.index()) || self.retired.contains(&cache.index())
    }

    /// How many caches are out of service.
    pub fn out_count(&self) -> usize {
        self.down.len() + self.retired.len()
    }
}

/// Takes `cache` out of its group, unless that would empty it
/// ([`MembershipChange::Kept`]) or the cache is already out
/// ([`MembershipChange::Unchanged`]).
fn take_out(
    maintainer: &mut GroupMaintainer,
    cache: CacheId,
    obs: Option<&mut Obs>,
) -> Result<MembershipChange, MaintenanceError> {
    match maintainer.retire_observed(cache, obs) {
        Ok(out) => Ok(MembershipChange::Left(out)),
        Err(MaintenanceError::WouldEmptyGroup { group }) => {
            Ok(MembershipChange::Kept { cache, group })
        }
        Err(MaintenanceError::UnknownCache(_)) => Ok(MembershipChange::Unchanged),
        Err(e) => Err(e),
    }
}

/// Replays a [`FaultPlan`]'s membership changes through group
/// maintenance.
///
/// Every event goes through [`Membership::apply`], the step the
/// lifecycle supervisor takes too. After every change the driver samples
/// [`GroupMaintainer::drift`], yielding a time series of how far churn
/// has pushed the grouping from its formation-time interaction cost.
#[derive(Debug, Clone)]
pub struct ChurnDriver {
    maintainer: GroupMaintainer,
    drift_series: Vec<DriftSample>,
    readmissions: u64,
    retirements: u64,
    skipped_retirements: u64,
}

impl ChurnDriver {
    /// Wraps a maintainer for churn replay.
    pub fn new(maintainer: GroupMaintainer) -> Self {
        ChurnDriver {
            maintainer,
            drift_series: Vec::new(),
            readmissions: 0,
            retirements: 0,
            skipped_retirements: 0,
        }
    }

    /// Applies every membership-affecting event of `plan` through
    /// [`Membership::apply`], in the order the simulator fires them.
    ///
    /// A retirement that would empty its group is skipped (counted in
    /// [`skipped_retirements`](Self::skipped_retirements)): the cache
    /// stays nominally grouped. A retired cache stays out for good.
    /// Brownouts don't touch membership and are ignored.
    ///
    /// With a bundle it records churn telemetry: `churn.retirements` /
    /// `churn.readmissions` / `churn.skipped_retirements` counters, a
    /// `churn.max_drift` high-water gauge, `churn` trace events keyed by
    /// the fault's simulated time (with the post-change drift ratio),
    /// plus the underlying `maintenance.*` and `probe.*` streams from
    /// the maintainer. Instrumentation never draws from the RNG.
    ///
    /// # Errors
    ///
    /// [`MaintenanceError::UnknownCache`] before anything is applied if
    /// the plan names a cache the maintainer does not track; otherwise
    /// as [`Membership::apply`].
    pub fn apply<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        plan: &FaultPlan,
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<(), MaintenanceError> {
        let caches = self.maintainer.cache_count();
        for event in plan.events() {
            if let FaultKind::CacheDown { cache }
            | FaultKind::CacheUp { cache }
            | FaultKind::CacheRetire { cache } = event.kind
            {
                if cache.index() >= caches {
                    return Err(MaintenanceError::UnknownCache(cache));
                }
            }
        }
        let mut membership = Membership::default();
        for event in plan.schedule().in_firing_order() {
            let change = membership.apply(
                &mut self.maintainer,
                network,
                event.kind,
                rng,
                obs.as_deref_mut(),
            )?;
            let (kind, counter) = match change {
                MembershipChange::Left(_) => {
                    self.retirements += 1;
                    ("retire", "churn.retirements")
                }
                MembershipChange::Rejoined { .. } => {
                    self.readmissions += 1;
                    ("readmit", "churn.readmissions")
                }
                MembershipChange::Kept { cache, .. } => {
                    self.skipped_retirements += 1;
                    if let Some(o) = obs.as_deref_mut() {
                        o.metrics.inc("churn.skipped_retirements");
                        o.trace.push(
                            event.time_ms,
                            "churn",
                            "skipped_retire",
                            vec![("cache", cache.index().into())],
                        );
                    }
                    continue;
                }
                MembershipChange::Unchanged => continue,
            };
            let drift = self.maintainer.drift(network)?;
            self.drift_series.push(DriftSample {
                time_ms: event.time_ms,
                drift,
            });
            if let Some(o) = obs.as_deref_mut() {
                o.metrics.inc(counter);
                o.metrics.max_gauge("churn.max_drift", drift);
                o.trace
                    .push(event.time_ms, "churn", kind, vec![("drift", drift.into())]);
            }
        }
        Ok(())
    }

    /// Drift samples recorded so far, in event order.
    pub fn drift_series(&self) -> &[DriftSample] {
        &self.drift_series
    }

    /// The worst drift ratio seen (or `1.0` before any change).
    pub fn max_drift(&self) -> f64 {
        self.drift_series
            .iter()
            .map(|s| s.drift)
            .fold(1.0, f64::max)
    }

    /// Membership removals applied (crashes + permanent retirements).
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// Recoveries re-admitted into a group.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }

    /// Retirements skipped because they would have emptied a group.
    pub fn skipped_retirements(&self) -> u64 {
        self.skipped_retirements
    }

    /// The maintained grouping state.
    #[cfg(test)]
    pub(crate) fn maintainer(&self) -> &GroupMaintainer {
        &self.maintainer
    }
}

/// The partition a maintained grouping serves, as a simulator
/// [`GroupMap`]: the maintainer's non-empty groups, plus a singleton for
/// every cache with no group (currently down or retired), so the map
/// always covers the full id space the simulator expects. The fault
/// schedule, not the map, keeps traffic away from down caches.
pub fn serving_map(maintainer: &GroupMaintainer) -> GroupMap {
    let mut groups: Vec<Vec<CacheId>> = maintainer
        .groups()
        .iter()
        .filter(|g| !g.is_empty())
        .cloned()
        .collect();
    let caches = maintainer.cache_count();
    groups.extend(
        (0..caches)
            .map(CacheId)
            .filter(|&c| maintainer.group_of(c).is_none())
            .map(|c| vec![c]),
    );
    GroupMap::new(caches, groups).expect("maintainer state is a valid partition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_coords::ProbeConfig;
    use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
    use ecg_topology::fixtures::paper_figure1;
    use rand::{rngs::StdRng, SeedableRng};

    /// Paper Figure 1 network formed into its three natural pairs
    /// (seed-searched for determinism, like the maintenance tests).
    fn network_and_maintainer() -> (EdgeNetwork, GroupMaintainer) {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = SchemeConfig::sl(3)
                .landmarks(3)
                .plset_multiplier(2)
                .probe(ProbeConfig::noiseless());
            let plan = FormPlan::new(network.rtt_matrix(), &config);
            let outcome =
                form(&plan, &mut FormContext::new(), &mut rng).expect("formation succeeds");
            let mut groups: Vec<Vec<usize>> = outcome
                .groups()
                .iter()
                .map(|g| g.iter().map(|c| c.index()).collect())
                .collect();
            groups.sort();
            if groups == vec![vec![0, 1], vec![2, 3], vec![4, 5]] {
                let m = GroupMaintainer::new(&network, outcome, ProbeConfig::noiseless());
                return (network, m);
            }
        }
        panic!("no seed produced the natural pairs");
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let cfg = ChurnConfig::default()
            .crashes_per_hour_per_cache(30.0)
            .retirement_fraction(0.2);
        let a = cfg.generate(10, 600_000.0, &mut StdRng::seed_from_u64(9));
        let b = cfg.generate(10, 600_000.0, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = cfg.generate(10, 600_000.0, &mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rate_generates_empty_plan() {
        let plan = ChurnConfig::default()
            .crashes_per_hour_per_cache(0.0)
            .generate(10, 600_000.0, &mut StdRng::seed_from_u64(1));
        assert!(plan.is_empty());
    }

    #[test]
    fn generated_plan_validates_and_stays_in_window() {
        let cfg = ChurnConfig::default()
            .crashes_per_hour_per_cache(60.0)
            .mean_downtime_ms(20_000.0)
            .retirement_fraction(0.3);
        let plan = cfg.generate(8, 300_000.0, &mut StdRng::seed_from_u64(3));
        assert!(!plan.is_empty());
        assert!(plan.schedule().validate(8).is_ok());
        for e in plan.events() {
            match e.kind {
                // Recoveries may land past the horizon; crashes and
                // retirements never do.
                FaultKind::CacheDown { .. } | FaultKind::CacheRetire { .. } => {
                    assert!(e.time_ms < 300_000.0)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn retirements_never_exhaust_the_population() {
        let cfg = ChurnConfig::default()
            .crashes_per_hour_per_cache(500.0)
            .retirement_fraction(1.0);
        let plan = cfg.generate(4, 3_600_000.0, &mut StdRng::seed_from_u64(5));
        let retired = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::CacheRetire { .. }))
            .count();
        assert_eq!(retired, 3, "last survivor must never be retired");
    }

    #[test]
    fn driver_tracks_drift_through_crash_and_recovery() {
        let (network, maintainer) = network_and_maintainer();
        let active = maintainer.active_caches();
        let victim = CacheId(0);
        let plan = FaultPlan::new().crash(victim, 10_000.0, 50_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        let mut rng = StdRng::seed_from_u64(2);
        driver
            .apply(&network, &plan, &mut rng, None)
            .expect("apply succeeds");
        assert_eq!(driver.retirements(), 1);
        assert_eq!(driver.readmissions(), 1);
        assert_eq!(driver.drift_series().len(), 2);
        // Fully recovered: membership is back to full strength and the
        // final drift sample is back at the formation baseline.
        assert_eq!(driver.maintainer().active_caches(), active);
        let last = driver.drift_series().last().unwrap();
        assert!((last.drift - 1.0).abs() < 1e-9);
        assert!(driver.max_drift() >= 1.0);
    }

    #[test]
    fn driver_skips_retirement_that_would_empty_group() {
        let (network, maintainer) = network_and_maintainer();
        // Retire every cache in group 0 — the last one must be skipped.
        let members = maintainer.groups()[0].clone();
        assert!(members.len() >= 2);
        let mut plan = FaultPlan::new();
        for (i, &c) in members.iter().enumerate() {
            plan = plan.retire(c, 1_000.0 * (i + 1) as f64);
        }
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(4), None)
            .expect("apply succeeds");
        assert_eq!(driver.retirements(), members.len() as u64 - 1);
        assert_eq!(driver.skipped_retirements(), 1);
        assert_eq!(driver.maintainer().groups()[0].len(), 1);
        assert_eq!(driver.readmissions(), 0);
    }

    #[test]
    fn retired_cache_stays_out_after_a_later_recovery() {
        // Down at 0.5 s, retired for good at 1 s, "up" at 2.5 s: the
        // simulator and the supervisor keep it out, so must the driver.
        let (network, maintainer) = network_and_maintainer();
        let cache = CacheId(0);
        let plan = FaultPlan::new()
            .crash(cache, 500.0, 2_000.0)
            .retire(cache, 1_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(3), None)
            .expect("apply succeeds");
        assert_eq!(driver.maintainer().group_of(cache), None);
        assert_eq!(driver.retirements(), 1);
        assert_eq!(driver.readmissions(), 0);
    }

    #[test]
    fn unknown_caches_are_an_error_before_anything_applies() {
        let (network, maintainer) = network_and_maintainer();
        let unknown = CacheId(maintainer.cache_count() + 93);
        for plan in [
            FaultPlan::new().retire(unknown, 1_000.0),
            FaultPlan::new()
                .crash(CacheId(0), 100.0, 200.0)
                .crash(unknown, 500.0, 1_000.0),
        ] {
            let mut driver = ChurnDriver::new(maintainer.clone());
            let result = driver.apply(&network, &plan, &mut StdRng::seed_from_u64(5), None);
            assert_eq!(result, Err(MaintenanceError::UnknownCache(unknown)));
            assert_eq!(driver.maintainer(), &maintainer);
            assert!(driver.drift_series().is_empty());
        }
    }

    #[test]
    fn nothing_is_skipped_when_no_group_empties() {
        let (network, maintainer) = network_and_maintainer();
        let plan = FaultPlan::new().crash(CacheId(0), 1_000.0, 2_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(8), None)
            .expect("apply succeeds");
        assert_eq!(driver.retirements(), 1);
        assert_eq!(driver.readmissions(), 1);
        assert_eq!(driver.skipped_retirements(), 0);
    }

    #[test]
    fn observed_apply_matches_plain_and_records_churn() {
        let (network, maintainer) = network_and_maintainer();
        let cfg = ChurnConfig::default()
            .crashes_per_hour_per_cache(240.0)
            .mean_downtime_ms(30_000.0);
        let plan = cfg.generate(6, 600_000.0, &mut StdRng::seed_from_u64(12));

        let mut plain = ChurnDriver::new(maintainer.clone());
        plain
            .apply(&network, &plan, &mut StdRng::seed_from_u64(13), None)
            .expect("apply succeeds");

        let mut obs = Obs::new();
        let mut observed = ChurnDriver::new(maintainer);
        observed
            .apply(
                &network,
                &plan,
                &mut StdRng::seed_from_u64(13),
                Some(&mut obs),
            )
            .expect("apply succeeds");

        // Instrumentation must not perturb the churn replay.
        assert_eq!(plain.drift_series(), observed.drift_series());
        assert_eq!(plain.maintainer(), observed.maintainer());

        assert_eq!(
            obs.metrics.counter("churn.retirements"),
            observed.retirements()
        );
        assert_eq!(
            obs.metrics.counter("churn.readmissions"),
            observed.readmissions()
        );
        assert_eq!(
            obs.metrics.counter("churn.skipped_retirements"),
            observed.skipped_retirements()
        );
        // Churn counters layer over the maintainer's own stream.
        assert_eq!(
            obs.metrics.counter("maintenance.retirements"),
            observed.retirements()
        );
        assert_eq!(
            obs.metrics.counter("maintenance.readmissions"),
            observed.readmissions()
        );
        let series_max = observed
            .drift_series()
            .iter()
            .map(|s| s.drift)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(obs.metrics.gauge("churn.max_drift"), Some(series_max));
        assert!(observed.retirements() > 0, "plan produced no churn");

        // Every drift sample has a matching churn trace event at the
        // fault's simulated time.
        let churn_times: Vec<f64> = obs
            .trace
            .events()
            .filter(|e| e.component == "churn" && e.kind != "skipped_retire")
            .map(|e| e.t)
            .collect();
        let sample_times: Vec<f64> = observed.drift_series().iter().map(|s| s.time_ms).collect();
        assert_eq!(churn_times, sample_times);
    }

    #[test]
    fn churn_replay_follows_the_simulators_firing_order() {
        // The retirement is pushed first, 0.4 ns after the recovery: the
        // simulator fires both in the same microsecond, in push order, so
        // the cache is retired before it could come back.
        let (network, maintainer) = network_and_maintainer();
        let cache = CacheId(0);
        let plan = FaultPlan::new()
            .retire(cache, 6_000.000_000_4)
            .crash(cache, 1_000.0, 5_000.0);
        assert_eq!(plan.schedule().down_caches_at(7_000.0), [cache]);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(3), None)
            .expect("apply succeeds");
        assert_eq!(driver.retirements(), 1);
        assert_eq!(driver.readmissions(), 0);
        assert_eq!(driver.maintainer().group_of(cache), None);
    }

    #[test]
    fn a_crash_of_a_retired_cache_takes_nothing_more_out_of_service() {
        // Retired, then "crashed", then "recovered": one cache out of
        // service throughout, as the simulator's fault state counts it.
        let (network, mut maintainer) = network_and_maintainer();
        let mut membership = Membership::default();
        let mut rng = StdRng::seed_from_u64(1);
        let cache = CacheId(0);
        let mut changes = Vec::new();
        for kind in [
            FaultKind::CacheRetire { cache },
            FaultKind::CacheDown { cache },
            FaultKind::CacheUp { cache },
        ] {
            let change = membership.apply(&mut maintainer, &network, kind, &mut rng, None);
            changes.push(change.expect("churn races are not errors"));
            assert_eq!(membership.out_count(), 1);
            assert_eq!(membership.out_of_service().collect::<Vec<_>>(), [cache]);
        }
        assert!(matches!(changes[0], MembershipChange::Left(_)));
        assert_eq!(changes[1..], [MembershipChange::Unchanged; 2]);
        assert_eq!(maintainer.group_of(cache), None);
    }

    #[test]
    fn a_fresh_grouping_loses_what_is_out_of_service() {
        // Both members of one pair go down; the second is kept (its group
        // would empty). Taken out of a fresh grouping, the same happens.
        let (network, maintainer) = network_and_maintainer();
        let pair = maintainer.groups()[0].clone();
        let mut membership = Membership::default();
        let mut serving = maintainer.clone();
        let mut rng = StdRng::seed_from_u64(2);
        for &cache in &pair {
            let kind = FaultKind::CacheDown { cache };
            membership
                .apply(&mut serving, &network, kind, &mut rng, None)
                .expect("churn races are not errors");
        }
        let mut fresh = maintainer;
        let kept = membership.retire_from(&mut fresh, None).expect("retire");
        assert_eq!(kept, [0]);
        assert_eq!(fresh, serving);
        assert!(pair.iter().all(|&c| membership.is_out(c)));
    }

    #[test]
    fn serving_map_covers_full_id_space_with_singletons() {
        let (network, maintainer) = network_and_maintainer();
        let n = maintainer.cache_count();
        let victim = maintainer.groups()[1][0];
        let plan = FaultPlan::new().retire(victim, 5_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(6), None)
            .expect("apply succeeds");
        let map = serving_map(driver.maintainer());
        assert_eq!(map.cache_count(), n);
        let g = map.group_of(victim);
        assert_eq!(
            map.groups()[g],
            vec![victim],
            "retired cache is a singleton"
        );
        assert_eq!(map.peers(victim).count(), 0);
    }
}
