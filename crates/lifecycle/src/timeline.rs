//! The supervisor's output: epochs, decisions, and their JSON form.
//!
//! A [`FormationTimeline`] is the complete, deterministic record of one
//! supervised run: every serving [`Epoch`] (a [`GroupMap`] with the
//! health context it was born under) and every per-window
//! [`DecisionRecord`]. Two runs with the same inputs produce equal
//! timelines, and [`FormationTimeline::to_json`] renders them to
//! byte-identical strings — the property the CI determinism matrix
//! diffs across `ECG_THREADS` settings.

use std::fmt::Write as _;

use ecg_core::FormationHealth;
use ecg_sim::GroupMap;

use crate::policy::{ReformDecision, WindowSignals};

/// One serving interval: from `start_ms` until the next epoch starts
/// (or the horizon ends), requests are routed under `groups`.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Simulated time this grouping started serving, ms.
    pub start_ms: f64,
    /// The serving partition (down/retired caches appear as
    /// singletons so the map always covers the full id space).
    pub groups: GroupMap,
    /// Formation-time landmark node ids backing the grouping (node 0
    /// is the origin, cache `i` is node `i + 1`).
    pub landmarks: Vec<usize>,
    /// Drift ratio right after the action that created this epoch
    /// (`1.0` when the baseline was re-anchored).
    pub drift: f64,
    /// Health report of the formation run that produced the grouping;
    /// `None` for epochs created by repair or partial re-formation
    /// (they inherit the previous formation's probing).
    pub health: Option<FormationHealth>,
}

/// What the policy decided at the end of one maintenance window, and
/// why.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Window end, ms (the instant the decision executed).
    pub window_end_ms: f64,
    /// The action actually taken.
    pub decision: ReformDecision,
    /// Set when cooldown or budget demoted a re-formation to a repair.
    pub demoted_from: Option<ReformDecision>,
    /// `true` when a partial re-formation escalated to a full one
    /// because too few landmarks survived.
    pub escalated: bool,
    /// The signals the decision was made from.
    pub signals: WindowSignals,
    /// Index of the epoch serving after this window.
    pub epoch: usize,
}

/// The complete record of one supervised formation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FormationTimeline {
    step_ms: f64,
    horizon_ms: f64,
    epochs: Vec<Epoch>,
    decisions: Vec<DecisionRecord>,
}

impl FormationTimeline {
    /// Assembles a timeline (the supervisor is the only intended
    /// caller; tests may build small ones by hand).
    pub fn new(
        step_ms: f64,
        horizon_ms: f64,
        epochs: Vec<Epoch>,
        decisions: Vec<DecisionRecord>,
    ) -> Self {
        FormationTimeline {
            step_ms,
            horizon_ms,
            epochs,
            decisions,
        }
    }

    /// The maintenance window width, ms.
    pub fn step_ms(&self) -> f64 {
        self.step_ms
    }

    /// The supervised horizon, ms.
    pub fn horizon_ms(&self) -> f64 {
        self.horizon_ms
    }

    /// The serving epochs, in time order (never empty: epoch 0 is the
    /// initial formation at time 0).
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Every per-window decision, in time order.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Counts the decisions that took `which` action.
    pub fn decision_count(&self, which: ReformDecision) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.decision == which)
            .count()
    }

    /// Re-formations executed (partial + full). Zero on a fault-free,
    /// zero-churn run.
    pub fn reformations(&self) -> usize {
        self.decision_count(ReformDecision::PartialReform)
            + self.decision_count(ReformDecision::FullReform)
    }

    /// The `(start_ms, groups)` spans a timeline run
    /// ([`ecg_sim::simulate_epochs`]) needs, in time order: one
    /// [`ecg_sim::ReplayEpoch`] each.
    pub fn epoch_spans(&self) -> impl Iterator<Item = (f64, &GroupMap)> + '_ {
        self.epochs.iter().map(|e| (e.start_ms, &e.groups))
    }

    /// The worst pre-decision drift any window saw (`1.0` on a quiet
    /// run).
    pub fn max_drift(&self) -> f64 {
        self.decisions
            .iter()
            .map(|d| d.signals.drift)
            .fold(1.0, f64::max)
    }

    /// Serializes the timeline to a deterministic single-line JSON
    /// object (schema `ecg-lifecycle/v1`): fixed key order, shortest
    /// round-trip floats, byte-identical for equal timelines.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 128 * self.decisions.len());
        out.push('{');
        let _ = write!(out, "\"schema\":\"ecg-lifecycle/v1\",");
        let _ = write!(out, "\"step_ms\":{},", f(self.step_ms));
        let _ = write!(out, "\"horizon_ms\":{},", f(self.horizon_ms));
        let _ = write!(out, "\"windows\":{},", self.decisions.len());
        let _ = write!(out, "\"epochs\":{},", self.epochs.len());
        for which in [
            ReformDecision::Hold,
            ReformDecision::Repair,
            ReformDecision::PartialReform,
            ReformDecision::FullReform,
        ] {
            let _ = write!(
                out,
                "\"{}s\":{},",
                which.as_str(),
                self.decision_count(which)
            );
        }
        let _ = write!(out, "\"max_drift\":{},", f(self.max_drift()));

        out.push_str("\"epoch_list\":[");
        for (i, e) in self.epochs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"start_ms\":{},", f(e.start_ms));
            out.push_str("\"groups\":[");
            for (g, members) in e.groups.groups().iter().enumerate() {
                if g > 0 {
                    out.push(',');
                }
                let ids: Vec<String> = members.iter().map(|c| c.index().to_string()).collect();
                let _ = write!(out, "[{}]", ids.join(","));
            }
            out.push_str("],");
            let lms: Vec<String> = e.landmarks.iter().map(|l| l.to_string()).collect();
            let _ = write!(out, "\"landmarks\":[{}],", lms.join(","));
            let _ = write!(out, "\"drift\":{},", f(e.drift));
            match &e.health {
                Some(h) => {
                    let _ = write!(
                        out,
                        "\"health\":{{\"probe_gave_up\":{},\"dead_landmarks\":{},\
                         \"landmark_failovers\":{},\"masked_cells\":{},\"quarantined\":{}}}",
                        h.probe_gave_up,
                        h.dead_landmarks.len(),
                        h.landmark_failovers,
                        h.masked_cells,
                        h.quarantined.len()
                    );
                }
                None => out.push_str("\"health\":null"),
            }
            out.push('}');
        }
        out.push_str("],");

        out.push_str("\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t\":{},", f(d.window_end_ms));
            let _ = write!(out, "\"decision\":\"{}\",", d.decision.as_str());
            match d.demoted_from {
                Some(from) => {
                    let _ = write!(out, "\"demoted_from\":\"{}\",", from.as_str());
                }
                None => out.push_str("\"demoted_from\":null,"),
            }
            let _ = write!(out, "\"escalated\":{},", d.escalated);
            let s = &d.signals;
            let _ = write!(
                out,
                "\"signals\":{{\"drift\":{},\"retirements\":{},\"landmark_retirements\":{},\
                 \"readmissions\":{},\"skipped_retirements\":{},\"dead_landmarks\":{},\
                 \"down_caches\":{},\"health_degraded\":{}}},",
                f(s.drift),
                s.retirements,
                s.landmark_retirements,
                s.readmissions,
                s.skipped_retirements,
                s.dead_landmarks,
                s.down_caches,
                s.health_degraded
            );
            let _ = write!(out, "\"epoch\":{}}}", d.epoch);
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float as a JSON number (finite values only in practice;
/// non-finite become `null`). Mirrors the convention of
/// `ecg_faults::report_to_json`.
fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FormationTimeline {
        let epoch = Epoch {
            start_ms: 0.0,
            groups: GroupMap::one_group(4),
            landmarks: vec![1, 3],
            drift: 1.0,
            health: Some(FormationHealth::default()),
        };
        let second = Epoch {
            start_ms: 10_000.0,
            groups: GroupMap::singletons(4),
            landmarks: vec![1],
            drift: 1.0,
            health: None,
        };
        let decisions = vec![
            DecisionRecord {
                window_end_ms: 10_000.0,
                decision: ReformDecision::PartialReform,
                demoted_from: None,
                escalated: false,
                signals: WindowSignals {
                    drift: 1.7,
                    retirements: 2,
                    ..WindowSignals::default()
                },
                epoch: 1,
            },
            DecisionRecord {
                window_end_ms: 20_000.0,
                decision: ReformDecision::Hold,
                demoted_from: Some(ReformDecision::FullReform),
                escalated: false,
                signals: WindowSignals::default(),
                epoch: 1,
            },
        ];
        FormationTimeline::new(10_000.0, 20_000.0, vec![epoch, second], decisions)
    }

    #[test]
    fn accessors_summarize_the_run() {
        let t = sample();
        assert_eq!(t.epochs().len(), 2);
        assert_eq!(t.decisions().len(), 2);
        assert_eq!(t.decision_count(ReformDecision::PartialReform), 1);
        assert_eq!(t.decision_count(ReformDecision::Hold), 1);
        assert_eq!(t.reformations(), 1);
        assert_eq!(t.max_drift(), 1.7);
        let spans: Vec<f64> = t.epoch_spans().map(|(s, _)| s).collect();
        assert_eq!(spans, vec![0.0, 10_000.0]);
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let t = sample();
        let json = t.to_json();
        assert_eq!(json, t.clone().to_json(), "byte-identical re-render");
        assert!(json.starts_with("{\"schema\":\"ecg-lifecycle/v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",}") && !json.contains(",]"));
        assert!(json.contains("\"partial_reforms\":1"));
        assert!(json.contains("\"holds\":1"));
        assert!(json.contains("\"max_drift\":1.7"));
        assert!(json.contains("\"demoted_from\":\"full_reform\""));
        assert!(json.contains("\"health\":null"));
        assert!(json.contains("\"groups\":[[0,1,2,3]]"));
    }
}
