//! The supervisor's output: epochs, decisions, and their JSON form.
//!
//! A [`FormationTimeline`] is the complete, deterministic record of one
//! supervised run: every serving [`Epoch`] (a [`GroupMap`] with the
//! health context it was born under) and every per-window
//! [`DecisionRecord`]. Two runs with the same inputs produce equal
//! timelines, and [`FormationTimeline::to_json`] renders them to
//! byte-identical strings — the property
//! `tests/cli.rs::lifecycle_timeline_is_thread_invariant` diffs across
//! `ECG_THREADS` settings.

use ecg_core::FormationHealth;
use ecg_obs::json::JsonWriter;
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
    /// object (schema `ecg-lifecycle/v1`) through [`ecg_obs::json`]:
    /// fixed key order, shortest round-trip floats (an infinite drift
    /// is `null`), byte-identical for equal timelines.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the timeline — the object [`FormationTimeline::to_json`]
    /// returns — as the next value of a larger document.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("schema").str("ecg-lifecycle/v1");
            w.key("step_ms").f64(self.step_ms);
            w.key("horizon_ms").f64(self.horizon_ms);
            w.key("windows").usize(self.decisions.len());
            w.key("epochs").usize(self.epochs.len());
            for which in [
                ReformDecision::Hold,
                ReformDecision::Repair,
                ReformDecision::PartialReform,
                ReformDecision::FullReform,
            ] {
                w.key(&format!("{}s", which.as_str()))
                    .usize(self.decision_count(which));
            }
            w.key("max_drift").f64(self.max_drift());
            w.key("epoch_list").array(|w| {
                for e in &self.epochs {
                    write_epoch(w, e);
                }
            });
            w.key("decisions").array(|w| {
                for d in &self.decisions {
                    write_decision(w, d);
                }
            });
        });
    }
}

fn write_epoch(w: &mut JsonWriter, e: &Epoch) {
    w.object(|w| {
        w.key("start_ms").f64(e.start_ms);
        w.key("groups").array(|w| {
            for members in e.groups.groups() {
                w.array(|w| {
                    for c in members {
                        w.usize(c.index());
                    }
                });
            }
        });
        w.key("landmarks").array(|w| {
            for &l in &e.landmarks {
                w.usize(l);
            }
        });
        // Infinite by design when the baseline cost is zero: `null`.
        w.key("drift").f64(e.drift);
        w.key("health");
        match &e.health {
            Some(h) => w.object(|w| {
                w.key("probe_gave_up").u64(h.probe_gave_up);
                w.key("dead_landmarks").usize(h.dead_landmarks.len());
                w.key("landmark_failovers").usize(h.landmark_failovers);
                w.key("masked_cells").usize(h.masked_cells);
                w.key("quarantined").usize(h.quarantined.len());
            }),
            None => w.null(),
        };
    });
}

fn write_decision(w: &mut JsonWriter, d: &DecisionRecord) {
    w.object(|w| {
        w.key("t").f64(d.window_end_ms);
        w.key("decision").str(d.decision.as_str());
        w.key("demoted_from");
        match d.demoted_from {
            Some(from) => w.str(from.as_str()),
            None => w.null(),
        };
        w.key("escalated").bool(d.escalated);
        let s = &d.signals;
        w.key("signals").object(|w| {
            w.key("drift").f64(s.drift);
            w.key("retirements").u64(s.retirements);
            w.key("landmark_retirements").u64(s.landmark_retirements);
            w.key("readmissions").u64(s.readmissions);
            w.key("skipped_retirements").u64(s.skipped_retirements);
            w.key("dead_landmarks").usize(s.dead_landmarks);
            w.key("down_caches").usize(s.down_caches);
            w.key("health_degraded").bool(s.health_degraded);
        });
        w.key("epoch").usize(d.epoch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_obs::json::{parse, JsonValue};

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
            drift: f64::INFINITY,
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
        let doc = parse(&json).expect("the document parses");
        let epochs = doc.get("epoch_list").and_then(JsonValue::as_arr);
        let epochs = epochs.expect("epoch list");
        let drifts: Vec<_> = epochs.iter().map(|e| e.get("drift")).collect();
        // A zero-cost baseline makes the drift ratio infinite by design.
        assert_eq!(
            drifts,
            [Some(&JsonValue::Num(1.0)), Some(&JsonValue::Null)],
            "{json}"
        );
        let signals = doc.get("decisions").and_then(JsonValue::as_arr);
        let signals = signals.and_then(|d| d[0].get("signals")).expect("signals");
        assert_eq!(signals.get("drift"), Some(&JsonValue::Num(1.7)));
        assert_eq!(signals.get("retirements"), Some(&JsonValue::Num(2.0)));
        assert!(json.contains("\"partial_reforms\":1"));
        assert!(json.contains("\"holds\":1"));
        assert!(json.contains("\"max_drift\":1.7"));
        assert!(json.contains("\"demoted_from\":\"full_reform\""));
        assert!(json.contains("\"health\":null"));
        assert!(json.contains("\"groups\":[[0,1,2,3]]"));
    }
}
