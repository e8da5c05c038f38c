//! The re-form-or-repair decision policy.
//!
//! After every maintenance window the supervisor summarizes what
//! happened into [`WindowSignals`] and asks a [`ReformPolicy`] what to
//! do about it. The policy is a pure, typed decision function with
//! three stabilizers layered over its thresholds:
//!
//! * **hysteresis** — drift must climb past `drift_enter` to arm a
//!   re-formation and fall back below `drift_exit` to disarm it, so a
//!   grouping hovering around one threshold doesn't flap;
//! * **cooldown** — after any re-formation the next few windows demote
//!   further re-formations to repairs, giving the new grouping time to
//!   prove itself;
//! * **budget** — a rolling cap on re-formations per span of windows,
//!   bounding worst-case formation traffic under pathological churn.
//!
//! Demotions never drop work on the floor: a demoted decision becomes a
//! [`ReformDecision::Repair`], and because hysteresis stays latched the
//! re-formation fires as soon as cooldown and budget allow.

use std::collections::VecDeque;

/// What the supervisor does at the end of a maintenance window, in
/// increasing order of cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReformDecision {
    /// The grouping is healthy: do nothing.
    Hold,
    /// Re-seat every active cache against the current centers (cheap,
    /// no re-clustering).
    Repair,
    /// Re-cluster only the degraded groups, reusing surviving
    /// landmarks ([`ecg_core::GroupMaintainer::reform_partial`]).
    PartialReform,
    /// Run the full formation scheme from scratch.
    FullReform,
}

impl ReformDecision {
    /// Stable lowercase name, used in JSON and trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReformDecision::Hold => "hold",
            ReformDecision::Repair => "repair",
            ReformDecision::PartialReform => "partial_reform",
            ReformDecision::FullReform => "full_reform",
        }
    }
}

impl std::fmt::Display for ReformDecision {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        out.write_str(self.as_str())
    }
}

/// Degradation signals summarizing one maintenance window, fed to
/// [`PolicyState::decide`] and recorded verbatim in the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSignals {
    /// Interaction-cost drift ratio at the window end (`1.0` = at the
    /// formation baseline).
    pub drift: f64,
    /// Membership removals applied this window.
    pub retirements: u64,
    /// Of those, how many took a formation-time landmark with them
    /// ([`ecg_core::RetireOutcome`]`::was_landmark`).
    pub landmark_retirements: u64,
    /// Recoveries re-admitted this window.
    pub readmissions: u64,
    /// Retirements refused because they would have emptied a group:
    /// the served membership has drifted from what is actually alive.
    pub skipped_retirements: u64,
    /// Formation-time landmarks whose cache is currently down or
    /// retired.
    pub dead_landmarks: usize,
    /// Caches currently out of service (down or retired).
    pub down_caches: usize,
    /// Whether the most recent full formation reported a degraded
    /// [`ecg_core::FormationHealth`] (gave-up probes, masked cells,
    /// quarantined caches).
    pub health_degraded: bool,
}

impl Default for WindowSignals {
    /// A perfectly quiet window: drift at baseline, every counter zero.
    fn default() -> Self {
        WindowSignals {
            drift: 1.0,
            retirements: 0,
            landmark_retirements: 0,
            readmissions: 0,
            skipped_retirements: 0,
            dead_landmarks: 0,
            down_caches: 0,
            health_degraded: false,
        }
    }
}

/// What [`PolicyState::decide`] concluded, including whether a more
/// expensive action was demoted by cooldown or budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyVerdict {
    /// The action to take.
    pub decision: ReformDecision,
    /// Set when cooldown or budget demoted a re-formation to
    /// [`ReformDecision::Repair`]; holds what the policy *wanted*.
    pub demoted_from: Option<ReformDecision>,
}

/// Thresholds and stabilizers for the re-form-or-repair decision.
///
/// Build from a preset ([`ReformPolicy::balanced`],
/// [`ReformPolicy::eager`], [`ReformPolicy::repair_only`],
/// [`ReformPolicy::hold_only`]) and adjust with the chained setters.
/// The policy itself is immutable; per-run mutable state (hysteresis
/// latch, cooldown and budget counters) lives in the [`PolicyState`]
/// the supervisor owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReformPolicy {
    drift_enter: f64,
    drift_exit: f64,
    full_reform_drift: f64,
    landmark_threshold: u64,
    skip_threshold: u64,
    cooldown_windows: u32,
    reform_budget: u32,
    budget_span_windows: u32,
    react_to_health: bool,
}

impl Default for ReformPolicy {
    fn default() -> Self {
        Self::balanced()
    }
}

impl std::str::FromStr for ReformPolicy {
    type Err = String;

    /// A preset by its experiment name: `static` (or `hold`), `repair`,
    /// `eager`, or `balanced`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" | "hold" => Ok(Self::hold_only()),
            "repair" => Ok(Self::repair_only()),
            "eager" => Ok(Self::eager()),
            "balanced" => Ok(Self::balanced()),
            _ => Err(format!(
                "policy must be static, repair, eager, or balanced, got {s:?}"
            )),
        }
    }
}

impl ReformPolicy {
    /// The default production posture: partial re-form at 1.5× drift
    /// (disarm at 1.2×), full re-form at 2.5×, react to any landmark
    /// loss or skipped retirement, two-window cooldown, at most three
    /// re-formations per twelve windows.
    pub fn balanced() -> Self {
        ReformPolicy {
            drift_enter: 1.5,
            drift_exit: 1.2,
            full_reform_drift: 2.5,
            landmark_threshold: 1,
            skip_threshold: 1,
            cooldown_windows: 2,
            reform_budget: 3,
            budget_span_windows: 12,
            react_to_health: true,
        }
    }

    /// Trigger-happy: low thresholds, no cooldown, generous budget.
    /// Keeps groupings tight at the cost of formation traffic.
    pub fn eager() -> Self {
        ReformPolicy {
            drift_enter: 1.2,
            drift_exit: 1.05,
            full_reform_drift: 1.8,
            landmark_threshold: 1,
            skip_threshold: 1,
            cooldown_windows: 0,
            reform_budget: 6,
            budget_span_windows: 6,
            react_to_health: true,
        }
    }

    /// Never re-forms: repairs whenever drift leaves the baseline band,
    /// ignores every re-formation trigger. The paper's incremental-
    /// maintenance-only baseline.
    pub fn repair_only() -> Self {
        ReformPolicy {
            drift_enter: f64::INFINITY,
            drift_exit: 1.05,
            full_reform_drift: f64::INFINITY,
            landmark_threshold: u64::MAX,
            skip_threshold: u64::MAX,
            cooldown_windows: 0,
            reform_budget: 0,
            budget_span_windows: 1,
            react_to_health: false,
        }
    }

    /// Never acts at all: the static-formation baseline.
    pub fn hold_only() -> Self {
        ReformPolicy {
            drift_enter: f64::INFINITY,
            drift_exit: f64::INFINITY,
            full_reform_drift: f64::INFINITY,
            landmark_threshold: u64::MAX,
            skip_threshold: u64::MAX,
            cooldown_windows: 0,
            reform_budget: 0,
            budget_span_windows: 1,
            react_to_health: false,
        }
    }

    /// Fresh per-run mutable state for this policy.
    pub fn state(&self) -> PolicyState {
        PolicyState {
            policy: *self,
            latched: false,
            cooldown_left: 0,
            window: 0,
            reform_windows: VecDeque::new(),
        }
    }
}

/// The mutable half of a policy: hysteresis latch, cooldown counter,
/// and the rolling re-formation budget window.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState {
    policy: ReformPolicy,
    latched: bool,
    cooldown_left: u32,
    window: u64,
    reform_windows: VecDeque<u64>,
}

impl PolicyState {
    /// Decides what to do about one window's signals. Call exactly once
    /// per window: the call advances the cooldown and budget clocks.
    pub fn decide(&mut self, s: &WindowSignals) -> PolicyVerdict {
        let p = &self.policy;
        self.window += 1;
        // Expire budget entries that fell out of the rolling span.
        while let Some(&w) = self.reform_windows.front() {
            if self.window - w >= u64::from(p.budget_span_windows) {
                self.reform_windows.pop_front();
            } else {
                break;
            }
        }

        // Hysteresis latch.
        if s.drift >= p.drift_enter {
            self.latched = true;
        } else if s.drift <= p.drift_exit {
            self.latched = false;
        }

        let landmark_pressure = s
            .landmark_retirements
            .saturating_add(s.dead_landmarks as u64);
        let desired = if s.drift >= p.full_reform_drift {
            ReformDecision::FullReform
        } else if self.latched
            || landmark_pressure >= p.landmark_threshold
            || s.skipped_retirements >= p.skip_threshold
            || (p.react_to_health && s.health_degraded)
        {
            ReformDecision::PartialReform
        } else if s.drift > p.drift_exit {
            ReformDecision::Repair
        } else {
            ReformDecision::Hold
        };

        let verdict = if desired >= ReformDecision::PartialReform {
            let cooling = self.cooldown_left > 0;
            let over_budget = self.reform_windows.len() >= p.reform_budget as usize;
            if cooling || over_budget {
                PolicyVerdict {
                    decision: ReformDecision::Repair,
                    demoted_from: Some(desired),
                }
            } else {
                self.reform_windows.push_back(self.window);
                self.cooldown_left = p.cooldown_windows;
                PolicyVerdict {
                    decision: desired,
                    demoted_from: None,
                }
            }
        } else {
            PolicyVerdict {
                decision: desired,
                demoted_from: None,
            }
        };
        if verdict.decision < ReformDecision::PartialReform {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
        }
        verdict
    }

    /// Whether the drift hysteresis is currently latched.
    #[cfg(test)]
    pub(crate) fn is_latched(&self) -> bool {
        self.latched
    }

    /// The policy this state belongs to.
    pub fn policy(&self) -> &ReformPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift(d: f64) -> WindowSignals {
        WindowSignals {
            drift: d,
            ..WindowSignals::default()
        }
    }

    #[test]
    fn quiet_windows_hold() {
        let mut state = ReformPolicy::balanced().state();
        for _ in 0..20 {
            let v = state.decide(&WindowSignals::default());
            assert_eq!(v.decision, ReformDecision::Hold);
            assert_eq!(v.demoted_from, None);
        }
    }

    #[test]
    fn hysteresis_latches_and_releases() {
        let mut state = ReformPolicy {
            cooldown_windows: 0,
            ..ReformPolicy::balanced()
        }
        .state();
        assert_eq!(state.decide(&drift(1.3)).decision, ReformDecision::Repair);
        assert!(!state.is_latched());
        assert_eq!(
            state.decide(&drift(1.6)).decision,
            ReformDecision::PartialReform
        );
        assert!(state.is_latched());
        // Still above exit: stays armed even though below enter.
        assert_eq!(
            state.decide(&drift(1.3)).decision,
            ReformDecision::PartialReform
        );
        // Below exit: disarms, and 1.1 <= exit means Hold.
        assert_eq!(state.decide(&drift(1.1)).decision, ReformDecision::Hold);
        assert!(!state.is_latched());
    }

    #[test]
    fn extreme_drift_goes_straight_to_full_reform() {
        let mut state = ReformPolicy::balanced().state();
        assert_eq!(
            state.decide(&drift(3.0)).decision,
            ReformDecision::FullReform
        );
    }

    #[test]
    fn cooldown_demotes_to_repair() {
        let mut state = ReformPolicy::balanced().state();
        assert_eq!(
            state.decide(&drift(1.6)).decision,
            ReformDecision::PartialReform
        );
        // Two cooldown windows: re-formations demote, hysteresis keeps
        // wanting one.
        for _ in 0..2 {
            let v = state.decide(&drift(1.6));
            assert_eq!(v.decision, ReformDecision::Repair);
            assert_eq!(v.demoted_from, Some(ReformDecision::PartialReform));
        }
        // Cooldown over: the latched re-formation finally fires.
        assert_eq!(
            state.decide(&drift(1.6)).decision,
            ReformDecision::PartialReform
        );
    }

    #[test]
    fn budget_caps_reformations_per_span() {
        let mut state = ReformPolicy {
            cooldown_windows: 0,
            reform_budget: 2,
            budget_span_windows: 6,
            ..ReformPolicy::balanced()
        }
        .state();
        let mut reforms = 0;
        let mut demoted = 0;
        for _ in 0..6 {
            let v = state.decide(&drift(1.8));
            match v.decision {
                ReformDecision::PartialReform => reforms += 1,
                ReformDecision::Repair => {
                    assert_eq!(v.demoted_from, Some(ReformDecision::PartialReform));
                    demoted += 1;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(reforms, 2, "budget of 2 per 6 windows");
        assert_eq!(demoted, 4);
        // The span rolls: later windows regain budget.
        let mut fired_again = false;
        for _ in 0..6 {
            if state.decide(&drift(1.8)).decision == ReformDecision::PartialReform {
                fired_again = true;
            }
        }
        assert!(fired_again, "rolling span must free budget");
    }

    #[test]
    fn landmark_and_skip_pressure_trigger_partial_reform() {
        let mut state = ReformPolicy::balanced().state();
        let v = state.decide(&WindowSignals {
            landmark_retirements: 1,
            ..WindowSignals::default()
        });
        assert_eq!(v.decision, ReformDecision::PartialReform);

        let mut state = ReformPolicy::balanced().state();
        let v = state.decide(&WindowSignals {
            skipped_retirements: 1,
            ..WindowSignals::default()
        });
        assert_eq!(v.decision, ReformDecision::PartialReform);

        let mut state = ReformPolicy::balanced().state();
        let v = state.decide(&WindowSignals {
            dead_landmarks: 2,
            ..WindowSignals::default()
        });
        assert_eq!(v.decision, ReformDecision::PartialReform);

        let mut state = ReformPolicy::balanced().state();
        let v = state.decide(&WindowSignals {
            health_degraded: true,
            ..WindowSignals::default()
        });
        assert_eq!(v.decision, ReformDecision::PartialReform);
    }

    #[test]
    fn baseline_presets_never_reform() {
        let hot = WindowSignals {
            drift: 10.0,
            landmark_retirements: 5,
            skipped_retirements: 5,
            dead_landmarks: 3,
            health_degraded: true,
            ..WindowSignals::default()
        };
        let mut hold = ReformPolicy::hold_only().state();
        let mut repair = ReformPolicy::repair_only().state();
        for _ in 0..10 {
            assert_eq!(hold.decide(&hot).decision, ReformDecision::Hold);
            assert_eq!(repair.decide(&hot).decision, ReformDecision::Repair);
        }
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!("static".parse(), Ok(ReformPolicy::hold_only()));
        assert_eq!("repair".parse(), Ok(ReformPolicy::repair_only()));
        assert_eq!("eager".parse(), Ok(ReformPolicy::eager()));
        assert_eq!("balanced".parse(), Ok(ReformPolicy::balanced()));
        assert!("yolo".parse::<ReformPolicy>().is_err());
    }
}
