//! Random churn generation and the maintenance-side churn driver.
//!
//! [`ChurnConfig`] turns a churn *rate* into a concrete, seeded
//! [`FaultPlan`] (who crashes when, for how long, who never comes back).
//! [`ChurnDriver`] replays such a plan against the group-maintenance
//! layer — retiring crashed caches from their groups, re-admitting
//! recovered ones — and records how the average interaction cost drifts
//! away from its formation-time baseline as membership churns.

use ecg_core::maintenance::{GroupMaintainer, MaintenanceError};
use ecg_obs::Obs;
use ecg_sim::fault::FaultKind;
use ecg_sim::GroupMap;
use ecg_topology::{CacheId, EdgeNetwork};
use rand::Rng;

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

/// Membership pressure accumulated by a [`ChurnDriver`] — the
/// churn-side analogue of [`ecg_core::FormationHealth`], consumed by
/// re-formation policies deciding whether incremental maintenance is
/// still good enough.
///
/// The load-bearing signal is [`skipped_retirements`]: a retirement was
/// *refused* because it would have dissolved a group, so the membership
/// the maintainer serves has drifted from what the fault plan says is
/// actually alive. A policy seeing this should re-form rather than keep
/// repairing.
///
/// [`skipped_retirements`]: MembershipPressure::skipped_retirements
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MembershipPressure {
    /// Membership removals applied (crashes + permanent retirements).
    pub retirements: u64,
    /// Recoveries re-admitted into a group.
    pub readmissions: u64,
    /// Retirements refused because they would have emptied a group; the
    /// affected caches are still nominally grouped while actually down.
    pub skipped_retirements: u64,
}

impl MembershipPressure {
    /// True when churn has forced the driver off the happy path —
    /// currently, when any retirement had to be skipped. Mirrors
    /// [`ecg_core::FormationHealth::is_degraded`].
    pub fn is_elevated(&self) -> bool {
        self.skipped_retirements > 0
    }
}

impl std::fmt::Display for MembershipPressure {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            out,
            "{} retired, {} readmitted, {} retirements skipped",
            self.retirements, self.readmissions, self.skipped_retirements
        )
    }
}

/// Replays a [`FaultPlan`]'s membership changes through group
/// maintenance.
///
/// Crashes and retirements call [`GroupMaintainer::retire`]; recoveries
/// call [`GroupMaintainer::readmit`]. After every applied change the
/// driver samples [`GroupMaintainer::drift`], yielding a time series of
/// how far churn has pushed the grouping from its formation-time
/// interaction cost.
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

    /// Applies every membership-affecting event of `plan` in time order.
    ///
    /// A retirement that would empty its group is skipped (counted in
    /// [`skipped_retirements`](Self::skipped_retirements)) — the cache
    /// stays nominally grouped, mirroring a deployment that refuses to
    /// dissolve a group implicitly. Brownouts don't touch membership and
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Propagates [`MaintenanceError`] on structural mismatches (unknown
    /// cache ids, network/maintainer size disagreement); never errors on
    /// the expected churn races handled above.
    pub fn apply<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        plan: &FaultPlan,
        rng: &mut R,
    ) -> Result<(), MaintenanceError> {
        self.apply_observed(network, plan, rng, None)
    }

    /// Like [`ChurnDriver::apply`], but records churn telemetry into an
    /// observability bundle when one is supplied: `churn.retirements` /
    /// `churn.readmissions` / `churn.skipped_retirements` counters, a
    /// `churn.max_drift` high-water gauge, `churn` trace events keyed by
    /// the fault's simulated time (with the post-change drift ratio),
    /// plus the underlying `maintenance.*` and `probe.*` streams from
    /// the maintainer. With `obs = None` this is exactly
    /// [`ChurnDriver::apply`]; instrumentation never draws from the RNG.
    ///
    /// # Errors
    ///
    /// Exactly as [`ChurnDriver::apply`].
    pub fn apply_observed<R: Rng + ?Sized>(
        &mut self,
        network: &EdgeNetwork,
        plan: &FaultPlan,
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<(), MaintenanceError> {
        let mut events: Vec<_> = plan.events().to_vec();
        events.sort_by(|a, b| {
            a.time_ms
                .partial_cmp(&b.time_ms)
                .expect("times are not NaN")
        });
        for event in &events {
            let applied = match event.kind {
                FaultKind::CacheDown { cache } | FaultKind::CacheRetire { cache } => {
                    match self.maintainer.retire_observed(cache, obs.as_deref_mut()) {
                        Ok(_) => true,
                        Err(MaintenanceError::WouldEmptyGroup { .. }) => {
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
                            false
                        }
                        // Already out (e.g. crash of a retired cache).
                        Err(MaintenanceError::UnknownCache(_)) => false,
                        Err(e) => return Err(e),
                    }
                }
                FaultKind::CacheUp { cache } => {
                    match self
                        .maintainer
                        .readmit_observed(network, cache, rng, obs.as_deref_mut())
                    {
                        Ok(_) => true,
                        // Its retirement was skipped, so it never left.
                        Err(MaintenanceError::AlreadyActive(_)) => false,
                        Err(e) => return Err(e),
                    }
                }
                FaultKind::BrownoutStart { .. } | FaultKind::BrownoutEnd => false,
            };
            if applied {
                let kind = if let FaultKind::CacheUp { .. } = event.kind {
                    self.readmissions += 1;
                    "readmit"
                } else {
                    self.retirements += 1;
                    "retire"
                };
                let drift = self.maintainer.drift(network)?;
                self.drift_series.push(DriftSample {
                    time_ms: event.time_ms,
                    drift,
                });
                if let Some(o) = obs.as_deref_mut() {
                    o.metrics.inc(if kind == "readmit" {
                        "churn.readmissions"
                    } else {
                        "churn.retirements"
                    });
                    o.metrics.max_gauge("churn.max_drift", drift);
                    o.trace
                        .push(event.time_ms, "churn", kind, vec![("drift", drift.into())]);
                }
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

    /// The accumulated [`MembershipPressure`], for re-formation
    /// policies.
    pub fn pressure(&self) -> MembershipPressure {
        MembershipPressure {
            retirements: self.retirements,
            readmissions: self.readmissions,
            skipped_retirements: self.skipped_retirements,
        }
    }

    /// The maintained grouping state.
    pub fn maintainer(&self) -> &GroupMaintainer {
        &self.maintainer
    }

    /// Unwraps the driver, returning the maintained state.
    pub fn into_maintainer(self) -> GroupMaintainer {
        self.maintainer
    }

    /// The current membership as a simulator [`GroupMap`].
    ///
    /// Caches with no group (currently down or retired) become
    /// singletons, so the map always covers the full id space the
    /// simulator expects.
    pub fn group_map(&self) -> GroupMap {
        let mut groups: Vec<Vec<CacheId>> = self
            .maintainer
            .groups()
            .iter()
            .filter(|g| !g.is_empty())
            .cloned()
            .collect();
        for idx in 0..self.maintainer.cache_count() {
            let cache = CacheId(idx);
            if self.maintainer.group_of(cache).is_none() {
                groups.push(vec![cache]);
            }
        }
        GroupMap::new(self.maintainer.cache_count(), groups)
            .expect("maintainer state is a valid partition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_coords::ProbeConfig;
    use ecg_core::{GfCoordinator, SchemeConfig};
    use ecg_topology::fixtures::paper_figure1;
    use rand::{rngs::StdRng, SeedableRng};

    /// Paper Figure 1 network formed into its three natural pairs
    /// (seed-searched for determinism, like the maintenance tests).
    fn network_and_maintainer() -> (EdgeNetwork, GroupMaintainer) {
        let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = GfCoordinator::new(
                SchemeConfig::sl(3)
                    .landmarks(3)
                    .plset_multiplier(2)
                    .probe(ProbeConfig::noiseless()),
            )
            .form_groups(&network, &mut rng)
            .expect("formation succeeds");
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
            .apply(&network, &plan, &mut rng)
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
            .apply(&network, &plan, &mut StdRng::seed_from_u64(4))
            .expect("apply succeeds");
        assert_eq!(driver.retirements(), members.len() as u64 - 1);
        assert_eq!(driver.skipped_retirements(), 1);
        assert_eq!(driver.maintainer().groups()[0].len(), 1);
        // The skip surfaces as elevated membership pressure, so a
        // re-formation policy can see that served membership has
        // diverged from ground truth.
        let pressure = driver.pressure();
        assert!(pressure.is_elevated());
        assert_eq!(
            pressure,
            MembershipPressure {
                retirements: members.len() as u64 - 1,
                readmissions: 0,
                skipped_retirements: 1,
            }
        );
        assert!(pressure.to_string().contains("1 retirements skipped"));
    }

    #[test]
    fn pressure_stays_flat_without_skips() {
        let (network, maintainer) = network_and_maintainer();
        let plan = FaultPlan::new().crash(CacheId(0), 1_000.0, 2_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(8))
            .expect("apply succeeds");
        let pressure = driver.pressure();
        assert!(!pressure.is_elevated());
        assert_eq!(pressure.retirements, 1);
        assert_eq!(pressure.readmissions, 1);
        assert_eq!(pressure.skipped_retirements, 0);
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
            .apply(&network, &plan, &mut StdRng::seed_from_u64(13))
            .expect("apply succeeds");

        let mut obs = Obs::new();
        let mut observed = ChurnDriver::new(maintainer);
        observed
            .apply_observed(
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
    fn group_map_covers_full_id_space_with_singletons() {
        let (network, maintainer) = network_and_maintainer();
        let n = maintainer.cache_count();
        let victim = maintainer.groups()[1][0];
        let plan = FaultPlan::new().retire(victim, 5_000.0);
        let mut driver = ChurnDriver::new(maintainer);
        driver
            .apply(&network, &plan, &mut StdRng::seed_from_u64(6))
            .expect("apply succeeds");
        let map = driver.group_map();
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
