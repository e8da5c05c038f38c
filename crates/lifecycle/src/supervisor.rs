//! The supervisor: a deterministic window loop over churn and faults.
//!
//! [`FormationSupervisor::run`] forms groups once at time zero, then
//! advances a virtual clock in fixed maintenance windows over a
//! [`FaultSchedule`]. Each window applies the membership events that
//! fired (crashes retire, recoveries re-admit) through
//! [`ecg_faults::Membership`], the step churn replay takes too,
//! summarizes the damage
//! into [`WindowSignals`], asks the [`ReformPolicy`] what to do, and
//! executes the verdict — repair, partial re-formation (escalating to
//! full when too few landmarks survive), full re-formation, or nothing.
//! The previous grouping keeps serving until the moment a replacement
//! exists, so there is never a formation gap; every serving interval
//! becomes an [`Epoch`] in the returned [`FormationTimeline`].
//!
//! Everything is serial and seeded: the same network, schedule,
//! horizon, and RNG seed produce an identical timeline regardless of
//! `ECG_THREADS`.

use std::collections::BTreeSet;
use std::fmt;

use ecg_coords::ProbeConfig;
use ecg_core::{
    form, FormContext, FormPlan, FormationHealth, GroupMaintainer, MaintenanceError, SchemeConfig,
    SchemeError,
};
use ecg_faults::{serving_map, FormationFaults, Membership, MembershipChange};
use ecg_obs::Obs;
use ecg_sim::{FaultError, FaultSchedule};
use ecg_topology::{CacheId, EdgeNetwork};
use rand::Rng;

use crate::policy::{ReformDecision, ReformPolicy, WindowSignals};
use crate::timeline::{DecisionRecord, Epoch, FormationTimeline};

/// Error from a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// The maintenance window width is not positive and finite.
    BadStep(f64),
    /// The supervision horizon is not positive and finite.
    BadHorizon(f64),
    /// The fault schedule references caches or times outside the run.
    Fault(FaultError),
    /// A formation run failed.
    Scheme(SchemeError),
    /// A maintenance operation failed structurally (expected churn
    /// races are absorbed, never surfaced).
    Maintenance(MaintenanceError),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::BadStep(ms) => {
                write!(f, "maintenance step must be positive and finite, got {ms}")
            }
            LifecycleError::BadHorizon(ms) => {
                write!(f, "horizon must be positive and finite, got {ms}")
            }
            LifecycleError::Fault(e) => write!(f, "invalid fault schedule: {e}"),
            LifecycleError::Scheme(e) => write!(f, "formation failed: {e}"),
            LifecycleError::Maintenance(e) => write!(f, "maintenance failed: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<SchemeError> for LifecycleError {
    fn from(e: SchemeError) -> Self {
        LifecycleError::Scheme(e)
    }
}

impl From<MaintenanceError> for LifecycleError {
    fn from(e: MaintenanceError) -> Self {
        LifecycleError::Maintenance(e)
    }
}

impl From<FaultError> for LifecycleError {
    fn from(e: FaultError) -> Self {
        LifecycleError::Fault(e)
    }
}

/// Configuration for a [`FormationSupervisor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    scheme: SchemeConfig,
    probe: ProbeConfig,
    step_ms: f64,
    policy: ReformPolicy,
}

impl SupervisorConfig {
    /// A supervisor for `scheme`, with the default probing
    /// ([`ProbeConfig::default`]: three probes per measurement under 5 %
    /// log-normal jitter, no loss), a ten-second maintenance window, and
    /// the balanced policy.
    pub fn new(scheme: SchemeConfig) -> Self {
        SupervisorConfig {
            scheme,
            probe: ProbeConfig::default(),
            step_ms: 10_000.0,
            policy: ReformPolicy::balanced(),
        }
    }

    /// Sets the maintenance window width, ms (validated at run time).
    pub fn step_ms(mut self, ms: f64) -> Self {
        self.step_ms = ms;
        self
    }

    /// Sets the re-formation policy.
    pub fn policy(mut self, policy: ReformPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Drives continuous group formation over a fault schedule.
///
/// Construction forces a resilience configuration onto the scheme (the
/// default one when none was set), so every full formation runs the
/// fault-tolerant pipeline and always reports a [`FormationHealth`] —
/// the supervisor's `health_degraded` signal depends on it.
#[derive(Debug, Clone)]
pub struct FormationSupervisor {
    scheme: SchemeConfig,
    probe: ProbeConfig,
    step_ms: f64,
    policy: ReformPolicy,
}

impl FormationSupervisor {
    /// Builds a supervisor from `config`.
    pub fn new(config: SupervisorConfig) -> Self {
        let resilience = config
            .scheme
            .resilience_config()
            .copied()
            .unwrap_or_default();
        let scheme = config.scheme.probe(config.probe).resilience(resilience);
        FormationSupervisor {
            scheme,
            probe: config.probe,
            step_ms: config.step_ms,
            policy: config.policy,
        }
    }

    /// Supervises `network` over `schedule` for `horizon_ms` of
    /// simulated time and returns the full timeline.
    ///
    /// Records lifecycle telemetry when an observability bundle is
    /// supplied: `lifecycle.windows` / `lifecycle.epochs` /
    /// `lifecycle.{holds,repairs,partial_reforms,full_reforms}`
    /// counters, a `lifecycle.max_drift` high-water gauge, a
    /// `lifecycle` trace event per decision, a `lifecycle_run` phase
    /// span, plus the underlying `maintenance.*`, `probe.*`, and
    /// `scheme.*` streams. Instrumentation never draws from the RNG,
    /// so the timeline is the same with and without a bundle.
    ///
    /// # Errors
    ///
    /// * [`LifecycleError::BadStep`] / [`LifecycleError::BadHorizon`]
    ///   for non-positive or non-finite durations.
    /// * [`LifecycleError::Fault`] if the schedule references caches
    ///   outside the network or malformed times.
    /// * [`LifecycleError::Scheme`] if a formation run fails (for
    ///   example when faults leave fewer caches than groups).
    /// * [`LifecycleError::Maintenance`] on structural maintenance
    ///   failures (expected churn races are absorbed, never surfaced).
    pub fn run<R: Rng + ?Sized>(
        &self,
        network: &EdgeNetwork,
        schedule: &FaultSchedule,
        horizon_ms: f64,
        rng: &mut R,
        mut obs: Option<&mut Obs>,
    ) -> Result<FormationTimeline, LifecycleError> {
        if !(self.step_ms.is_finite() && self.step_ms > 0.0) {
            return Err(LifecycleError::BadStep(self.step_ms));
        }
        if !(horizon_ms.is_finite() && horizon_ms > 0.0) {
            return Err(LifecycleError::BadHorizon(horizon_ms));
        }
        let n = network.cache_count();
        schedule.validate(n)?;

        let events = schedule.in_firing_order();

        // Initial formation at time zero, under whatever is already
        // faulted at that instant.
        let faults = FormationFaults::from_schedule(schedule, 0.0).to_probe_faults();
        let plan = FormPlan::new(network.rtt_matrix(), &self.scheme).faults(&faults);
        let mut ctx = FormContext::new().observe(obs.as_deref_mut());
        let outcome = form(&plan, &mut ctx, rng)?;
        let mut last_health = outcome.health().cloned();
        let mut maintainer = GroupMaintainer::new(network, outcome, self.probe);

        let mut membership = Membership::default();
        // Groups touched by membership changes since the last
        // re-formation — the targets of the next partial one.
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        // Retirements a full re-formation could not honour (they would
        // have emptied a fresh group); reported as pressure next window.
        let mut pending_skips: u64 = 0;

        let mut state = self.policy.state();
        let mut epochs = vec![Epoch {
            start_ms: 0.0,
            groups: serving_map(&maintainer),
            landmarks: maintainer.landmarks().to_vec(),
            drift: 1.0,
            health: last_health.clone(),
        }];
        let mut decisions: Vec<DecisionRecord> = Vec::new();

        let windows = (horizon_ms / self.step_ms).ceil() as u64;
        let mut next_event = 0usize;
        for w in 1..=windows {
            let te = (w as f64 * self.step_ms).min(horizon_ms);

            // Apply every membership event that fired in this window.
            let mut signals = WindowSignals {
                skipped_retirements: pending_skips,
                ..WindowSignals::default()
            };
            pending_skips = 0;
            while next_event < events.len() && events[next_event].time_ms < te {
                let event = events[next_event];
                next_event += 1;
                let change = membership.apply(
                    &mut maintainer,
                    network,
                    event.kind,
                    rng,
                    obs.as_deref_mut(),
                )?;
                match change {
                    MembershipChange::Left(out) => {
                        signals.retirements += 1;
                        if out.was_landmark {
                            signals.landmark_retirements += 1;
                        }
                        dirty.insert(out.group);
                    }
                    MembershipChange::Kept { group, .. } => {
                        signals.skipped_retirements += 1;
                        dirty.insert(group);
                    }
                    MembershipChange::Rejoined { group } => {
                        signals.readmissions += 1;
                        dirty.insert(group);
                    }
                    MembershipChange::Unchanged => {}
                }
            }

            // Summarize the window and decide.
            signals.drift = maintainer.drift(network)?;
            signals.dead_landmarks = dead_landmarks(&maintainer, &membership).len();
            signals.down_caches = membership.out_count();
            signals.health_degraded = last_health
                .as_ref()
                .is_some_and(FormationHealth::is_degraded);
            let verdict = state.decide(&signals);

            // Execute the verdict.
            let mut decision = verdict.decision;
            let mut escalated = false;
            let mut did_full = false;
            if decision == ReformDecision::Repair {
                repair_pass(&mut maintainer, network, rng, obs.as_deref_mut())?;
            }
            if decision == ReformDecision::PartialReform {
                let degraded: Vec<usize> = if dirty.is_empty() {
                    (0..maintainer.groups().len()).collect()
                } else {
                    dirty
                        .iter()
                        .copied()
                        .filter(|&g| g < maintainer.groups().len())
                        .collect()
                };
                let dead = dead_landmarks(&maintainer, &membership);
                match maintainer.reform_partial_observed(
                    network,
                    &degraded,
                    &dead,
                    rng,
                    obs.as_deref_mut(),
                ) {
                    Ok(_) => {
                        dirty.clear();
                    }
                    // Too few landmarks would survive the prune, or the
                    // positions are embedded: the grouping cannot be
                    // repaired locally.
                    Err(
                        MaintenanceError::TooFewLandmarks { .. }
                        | MaintenanceError::NotFeatureVectors,
                    ) => {
                        escalated = true;
                        decision = ReformDecision::FullReform;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if decision == ReformDecision::FullReform {
                did_full = true;
                let faults = FormationFaults::from_schedule(schedule, te).to_probe_faults();
                let plan = FormPlan::new(network.rtt_matrix(), &self.scheme).faults(&faults);
                let mut ctx = FormContext::new().observe(obs.as_deref_mut());
                let outcome = form(&plan, &mut ctx, rng)?;
                last_health = outcome.health().cloned();
                maintainer = GroupMaintainer::new(network, outcome, self.probe);
                dirty.clear();
                // The fresh grouping covers all n caches; take the ones
                // still out of service back out.
                let kept = membership.retire_from(&mut maintainer, obs.as_deref_mut())?;
                pending_skips += kept.len() as u64;
                dirty.extend(kept);
            }

            // A new epoch starts only when the action actually changed
            // what is served, and only if there is time left to serve
            // it. Under Hold the previous grouping keeps serving — the
            // "never a formation gap" guarantee.
            if decision != ReformDecision::Hold && te < horizon_ms {
                let serving = serving_map(&maintainer);
                if serving != epochs[epochs.len() - 1].groups {
                    epochs.push(Epoch {
                        start_ms: te,
                        groups: serving,
                        landmarks: maintainer.landmarks().to_vec(),
                        drift: maintainer.drift(network)?,
                        health: if did_full { last_health.clone() } else { None },
                    });
                }
            }
            let epoch = epochs.len() - 1;
            if let Some(o) = obs.as_deref_mut() {
                o.trace.push(
                    te,
                    "lifecycle",
                    decision.as_str(),
                    vec![
                        ("drift", signals.drift.into()),
                        ("epoch", (epoch as u64).into()),
                    ],
                );
            }
            decisions.push(DecisionRecord {
                window_end_ms: te,
                decision,
                demoted_from: verdict.demoted_from,
                escalated,
                signals,
                epoch,
            });
        }

        let timeline = FormationTimeline::new(self.step_ms, horizon_ms, epochs, decisions);
        if let Some(o) = obs {
            o.metrics.add("lifecycle.windows", windows);
            o.metrics
                .add("lifecycle.epochs", timeline.epochs().len() as u64);
            for (name, which) in [
                ("lifecycle.holds", ReformDecision::Hold),
                ("lifecycle.repairs", ReformDecision::Repair),
                ("lifecycle.partial_reforms", ReformDecision::PartialReform),
                ("lifecycle.full_reforms", ReformDecision::FullReform),
            ] {
                o.metrics.add(name, timeline.decision_count(which) as u64);
            }
            o.metrics
                .max_gauge("lifecycle.max_drift", timeline.max_drift());
            let mut span = o.phases.span("lifecycle_run");
            span.add_work(windows as f64);
        }
        Ok(timeline)
    }
}

/// Formation-time landmark node ids whose cache is currently out of
/// service (node 0 is the origin and can never die; node `l >= 1` is
/// cache `l - 1`).
fn dead_landmarks(maintainer: &GroupMaintainer, membership: &Membership) -> Vec<usize> {
    maintainer
        .landmarks()
        .iter()
        .copied()
        .filter(|&l| l >= 1 && membership.is_out(CacheId(l - 1)))
        .collect()
}

/// Re-seats every active cache against the current group centers: the
/// cheap repair that moves strays without touching the clustering.
/// Singleton groups are left alone (retiring their member would empty
/// the group).
fn repair_pass<R: Rng + ?Sized>(
    maintainer: &mut GroupMaintainer,
    network: &EdgeNetwork,
    rng: &mut R,
    mut obs: Option<&mut Obs>,
) -> Result<(), LifecycleError> {
    for i in 0..maintainer.cache_count() {
        let cache = CacheId(i);
        let Some(group) = maintainer.group_of(cache) else {
            continue;
        };
        if maintainer.groups()[group].len() < 2 {
            continue;
        }
        maintainer.retire_observed(cache, obs.as_deref_mut())?;
        maintainer.readmit(network, cache, rng, obs.as_deref_mut())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_faults::FaultPlan;
    use ecg_sim::FaultKind;
    use ecg_topology::fixtures::paper_figure1;
    use rand::{rngs::StdRng, SeedableRng};

    fn network() -> EdgeNetwork {
        EdgeNetwork::from_rtt_matrix(paper_figure1())
    }

    fn noiseless(config: SupervisorConfig) -> SupervisorConfig {
        SupervisorConfig {
            probe: ProbeConfig::noiseless(),
            ..config
        }
    }

    fn supervisor(policy: ReformPolicy) -> FormationSupervisor {
        FormationSupervisor::new(noiseless(
            SupervisorConfig::new(SchemeConfig::sl(3).landmarks(3).plset_multiplier(2))
                .policy(policy),
        ))
    }

    #[test]
    fn zero_churn_holds_a_single_epoch() {
        let network = network();
        let schedule = FaultSchedule::new();
        let mut rng = StdRng::seed_from_u64(7);
        let timeline = supervisor(ReformPolicy::balanced())
            .run(&network, &schedule, 60_000.0, &mut rng, None)
            .expect("quiet run succeeds");
        assert_eq!(timeline.epochs().len(), 1);
        assert_eq!(timeline.decisions().len(), 6);
        assert_eq!(timeline.decision_count(ReformDecision::Hold), 6);
        assert_eq!(timeline.reformations(), 0);
        assert_eq!(timeline.max_drift(), 1.0);
        assert!(
            timeline.epochs()[0].health.is_some(),
            "resilience is forced"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let network = network();
        let schedule = FaultPlan::new()
            .crash(CacheId(1), 12_000.0, 25_000.0)
            .retire(CacheId(4), 31_000.0)
            .schedule();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            supervisor(ReformPolicy::eager())
                .run(&network, &schedule, 80_000.0, &mut rng, None)
                .expect("run succeeds")
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_ne!(a, run(4), "the RNG seed matters");
    }

    #[test]
    fn churn_triggers_reformation_and_new_epochs() {
        let network = network();
        let schedule = FaultPlan::new()
            .crash(CacheId(0), 11_000.0, 60_000.0)
            .retire(CacheId(3), 21_000.0)
            .schedule();
        let mut rng = StdRng::seed_from_u64(11);
        let timeline = supervisor(ReformPolicy::eager())
            .run(&network, &schedule, 80_000.0, &mut rng, None)
            .expect("churny run succeeds");
        assert!(timeline.reformations() > 0, "landmark loss must re-form");
        assert!(timeline.epochs().len() > 1, "re-formation opens an epoch");
        // Epoch starts strictly increase and stay inside the horizon.
        let starts: Vec<f64> = timeline.epoch_spans().map(|(s, _)| s).collect();
        assert!(starts.windows(2).all(|p| p[0] < p[1]));
        assert!(starts.iter().all(|&s| s < 80_000.0));
        // Decisions reference real epochs.
        for d in timeline.decisions() {
            assert!(d.epoch < timeline.epochs().len());
        }
    }

    #[test]
    fn embedded_positions_escalate_to_full_reformation() {
        use ecg_coords::GnpConfig;
        use ecg_core::Representation;
        let gnp = Representation::Gnp(GnpConfig::default().dimensions(2).restarts(1));
        let sup = FormationSupervisor::new(noiseless(
            SupervisorConfig::new(
                SchemeConfig::sl(3)
                    .landmarks(3)
                    .plset_multiplier(2)
                    .representation(gnp),
            )
            .policy(ReformPolicy::eager()),
        ));
        let schedule = FaultPlan::new()
            .crash(CacheId(0), 11_000.0, 60_000.0)
            .retire(CacheId(3), 21_000.0)
            .schedule();
        let timeline = sup
            .run(
                &network(),
                &schedule,
                80_000.0,
                &mut StdRng::seed_from_u64(11),
                None,
            )
            .expect("embedded positions re-form fully");
        assert!(timeline.reformations() > 0);
        assert_eq!(timeline.decision_count(ReformDecision::PartialReform), 0);
    }

    #[test]
    fn static_policy_never_changes_the_grouping() {
        let network = network();
        let schedule = FaultPlan::new()
            .crash(CacheId(0), 11_000.0, 60_000.0)
            .retire(CacheId(3), 21_000.0)
            .retire(CacheId(5), 33_000.0)
            .schedule();
        let mut rng = StdRng::seed_from_u64(11);
        let timeline = supervisor(ReformPolicy::hold_only())
            .run(&network, &schedule, 80_000.0, &mut rng, None)
            .expect("static run succeeds");
        assert_eq!(timeline.epochs().len(), 1, "static policy never re-forms");
        assert_eq!(timeline.reformations(), 0);
        assert_eq!(
            timeline.decision_count(ReformDecision::Hold),
            timeline.decisions().len()
        );
    }

    #[test]
    fn losing_every_cache_landmark_escalates_to_full_reform() {
        let network = network();
        // Form first to learn which caches are landmarks, then retire
        // all of them (node 0 is the origin and cannot be retired).
        let sup = supervisor(ReformPolicy::eager());
        let mut rng = StdRng::seed_from_u64(5);
        let quiet = sup
            .run(&network, &FaultSchedule::new(), 10_000.0, &mut rng, None)
            .expect("probe run succeeds");
        let victims: Vec<CacheId> = quiet.epochs()[0]
            .landmarks
            .iter()
            .filter(|&&l| l >= 1)
            .map(|&l| CacheId(l - 1))
            .collect();
        assert!(!victims.is_empty());

        let mut plan = FaultPlan::new();
        for (i, &v) in victims.iter().enumerate() {
            plan = plan.retire(v, 11_000.0 + i as f64);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let timeline = sup
            .run(&network, &plan.schedule(), 40_000.0, &mut rng, None)
            .expect("escalating run succeeds");
        assert!(
            timeline.decisions().iter().any(|d| d.escalated),
            "partial re-form must escalate when no cache landmark survives"
        );
        assert!(timeline.decision_count(ReformDecision::FullReform) > 0);
    }

    #[test]
    fn a_crash_of_a_retired_cache_is_counted_once() {
        // Cache 4 retires at 5 s, then "crashes" at 7 s with no recovery
        // inside the first window: one cache is out of service, not two.
        let network = network();
        let schedule = FaultPlan::new()
            .retire(CacheId(4), 5_000.0)
            .crash(CacheId(4), 7_000.0, 30_000.0)
            .schedule();
        let mut rng = StdRng::seed_from_u64(2);
        let timeline = supervisor(ReformPolicy::hold_only())
            .run(&network, &schedule, 20_000.0, &mut rng, None)
            .expect("run succeeds");
        let down: Vec<usize> = timeline
            .decisions()
            .iter()
            .map(|d| d.signals.down_caches)
            .collect();
        assert_eq!(down, [1, 1]);
    }

    #[test]
    fn zero_groups_are_a_typed_error() {
        let sup = FormationSupervisor::new(noiseless(SupervisorConfig::new(
            SchemeConfig::sl(0).landmarks(3),
        )));
        let err = sup
            .run(
                &network(),
                &FaultSchedule::new(),
                10_000.0,
                &mut StdRng::seed_from_u64(1),
                None,
            )
            .unwrap_err();
        assert_eq!(err, LifecycleError::Scheme(SchemeError::NoGroups));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let network = network();
        let schedule = FaultSchedule::new();
        let mut rng = StdRng::seed_from_u64(1);
        let sup = supervisor(ReformPolicy::balanced());
        assert!(matches!(
            sup.run(&network, &schedule, 0.0, &mut rng, None),
            Err(LifecycleError::BadHorizon(_))
        ));
        let sup_bad = FormationSupervisor::new(
            SupervisorConfig::new(SchemeConfig::sl(3).landmarks(3)).step_ms(0.0),
        );
        assert!(matches!(
            sup_bad.run(&network, &schedule, 10_000.0, &mut rng, None),
            Err(LifecycleError::BadStep(_))
        ));
        let mut out_of_range = FaultSchedule::new();
        out_of_range.push(1_000.0, FaultKind::CacheDown { cache: CacheId(99) });
        assert!(matches!(
            sup.run(&network, &out_of_range, 10_000.0, &mut rng, None),
            Err(LifecycleError::Fault(_))
        ));
    }

    #[test]
    fn observed_run_matches_plain_and_records_counters() {
        let network = network();
        let schedule = FaultPlan::new()
            .crash(CacheId(1), 12_000.0, 25_000.0)
            .schedule();
        let sup = supervisor(ReformPolicy::eager());
        let mut rng = StdRng::seed_from_u64(9);
        let plain = sup
            .run(&network, &schedule, 60_000.0, &mut rng, None)
            .expect("plain run succeeds");
        let mut obs = Obs::new();
        let mut rng = StdRng::seed_from_u64(9);
        let observed = sup
            .run(&network, &schedule, 60_000.0, &mut rng, Some(&mut obs))
            .expect("observed run succeeds");
        assert_eq!(plain, observed, "observation must not perturb the run");
        assert_eq!(obs.metrics.counter("lifecycle.windows"), 6);
        assert_eq!(
            obs.metrics.counter("lifecycle.epochs"),
            observed.epochs().len() as u64
        );
        let total = obs.metrics.counter("lifecycle.holds")
            + obs.metrics.counter("lifecycle.repairs")
            + obs.metrics.counter("lifecycle.partial_reforms")
            + obs.metrics.counter("lifecycle.full_reforms");
        assert_eq!(total, 6, "every window decides exactly once");
        assert!(obs.metrics.gauge("lifecycle.max_drift").is_some());
    }
}
