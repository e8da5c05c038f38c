//! The operator-facing fault plan.
//!
//! [`FaultPlan`] is a builder DSL over the simulator's low-level
//! [`FaultSchedule`]: it speaks in whole outages (a crash *with* its
//! recovery, a brownout *window*) instead of raw start/stop events, and
//! carries the probe-degradation knobs that apply to group-maintenance
//! probing rather than to the request path.

use std::error::Error;
use std::fmt;

use ecg_coords::ProbeConfig;
use ecg_obs::json::{self, JsonValue, JsonWriter};
use ecg_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use ecg_topology::CacheId;

/// Schema tag written into (and required from) plan JSON documents.
const PLAN_SCHEMA: &str = "ecg-faultplan/v1";

/// Why a [`FaultPlan::from_json`] call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanParseError {
    /// The document is not well-formed JSON, or nests deeper than
    /// [`ecg_obs::json::MAX_DEPTH`]; carries the parser's message,
    /// which names the offending byte.
    Syntax(String),
    /// The document parses but is not an `ecg-faultplan/v1` object.
    Schema(String),
    /// A field is missing, of the wrong type, or out of its legal range.
    Field {
        /// The offending field (dotted path for event fields).
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::Syntax(msg) => write!(out, "malformed JSON: {msg}"),
            PlanParseError::Schema(found) => {
                write!(out, "expected schema {PLAN_SCHEMA:?}, found {found}")
            }
            PlanParseError::Field { field, reason } => {
                write!(out, "bad field {field:?}: {reason}")
            }
        }
    }
}

impl Error for PlanParseError {}

/// A declarative script of faults to inject into a simulation run.
///
/// Build one with the chained methods, then hand
/// [`FaultPlan::schedule`] to
/// [`ecg_sim::SimPlan::faults`] and (optionally)
/// [`FaultPlan::probe_config`] to maintenance-time probing.
///
/// # Examples
///
/// ```
/// use ecg_faults::FaultPlan;
/// use ecg_topology::CacheId;
///
/// let plan = FaultPlan::new()
///     .crash(CacheId(2), 10_000.0, 30_000.0) // down 10s in, back 30s later
///     .retire(CacheId(5), 60_000.0)
///     .brownout(90_000.0, 15_000.0, 4.0);
/// assert_eq!(plan.schedule().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    failover_penalty_ms: f64,
    timeline_bucket_ms: f64,
    probe_loss_rate: f64,
    probe_timeout_ms: Option<f64>,
}

impl Default for FaultPlan {
    /// An empty plan: no faults, simulator-default failover penalty and
    /// timeline buckets, healthy probing.
    fn default() -> Self {
        let defaults = FaultSchedule::default();
        FaultPlan {
            events: Vec::new(),
            failover_penalty_ms: defaults.failover_penalty(),
            timeline_bucket_ms: defaults.timeline_bucket(),
            probe_loss_rate: 0.0,
            probe_timeout_ms: None,
        }
    }
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crashes `cache` at `at_ms` and brings it back (cold) after
    /// `down_for_ms`.
    ///
    /// # Panics
    ///
    /// Panics if either time is not finite and non-negative, or
    /// `down_for_ms` is zero.
    pub fn crash(mut self, cache: CacheId, at_ms: f64, down_for_ms: f64) -> Self {
        assert!(at_ms.is_finite() && at_ms >= 0.0, "crash time must be >= 0");
        assert!(
            down_for_ms.is_finite() && down_for_ms > 0.0,
            "downtime must be > 0"
        );
        self.events.push(FaultEvent {
            time_ms: at_ms,
            kind: FaultKind::CacheDown { cache },
        });
        self.events.push(FaultEvent {
            time_ms: at_ms + down_for_ms,
            kind: FaultKind::CacheUp { cache },
        });
        self
    }

    /// Permanently retires `cache` at `at_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not finite and non-negative.
    pub fn retire(mut self, cache: CacheId, at_ms: f64) -> Self {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0,
            "retire time must be >= 0"
        );
        self.events.push(FaultEvent {
            time_ms: at_ms,
            kind: FaultKind::CacheRetire { cache },
        });
        self
    }

    /// Slows every origin fetch by `factor` during
    /// `[start_ms, start_ms + duration_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is degenerate or `factor < 1`.
    pub fn brownout(mut self, start_ms: f64, duration_ms: f64, factor: f64) -> Self {
        assert!(
            start_ms.is_finite() && start_ms >= 0.0,
            "brownout start must be >= 0"
        );
        assert!(
            duration_ms.is_finite() && duration_ms > 0.0,
            "brownout duration must be > 0"
        );
        assert!(
            factor.is_finite() && factor >= 1.0,
            "brownout factor must be >= 1"
        );
        self.events.push(FaultEvent {
            time_ms: start_ms,
            kind: FaultKind::BrownoutStart { factor },
        });
        self.events.push(FaultEvent {
            time_ms: start_ms + duration_ms,
            kind: FaultKind::BrownoutEnd,
        });
        self
    }

    /// Sets the client-side failover-detection penalty.
    pub fn failover_penalty_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "penalty must be >= 0");
        self.failover_penalty_ms = ms;
        self
    }

    /// Sets the degradation-timeline bucket width.
    pub fn timeline_bucket_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "bucket width must be > 0");
        self.timeline_bucket_ms = ms;
        self
    }

    /// Degrades maintenance-time probing: each probe is lost with
    /// probability `loss_rate`, and a fully lost measurement reports
    /// `timeout_ms`. Applied by [`FaultPlan::probe_config`].
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1)` or `timeout_ms` is not
    /// positive.
    pub fn probe_loss(mut self, loss_rate: f64, timeout_ms: f64) -> Self {
        assert!(
            loss_rate.is_finite() && (0.0..1.0).contains(&loss_rate),
            "loss rate must be in [0, 1)"
        );
        assert!(
            timeout_ms.is_finite() && timeout_ms > 0.0,
            "timeout must be positive"
        );
        self.probe_loss_rate = loss_rate;
        self.probe_timeout_ms = Some(timeout_ms);
        self
    }

    /// The planned fault events, in build order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Returns `true` if the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compiles the plan into the simulator's [`FaultSchedule`].
    pub fn schedule(&self) -> FaultSchedule {
        let mut schedule = FaultSchedule::new()
            .failover_penalty_ms(self.failover_penalty_ms)
            .timeline_bucket_ms(self.timeline_bucket_ms);
        for e in &self.events {
            schedule.push(e.time_ms, e.kind);
        }
        schedule
    }

    /// Applies the plan's probe-degradation knobs to a base probing
    /// configuration (returns `base` unchanged when no knob was set).
    pub fn probe_config(&self, base: ProbeConfig) -> ProbeConfig {
        let mut cfg = base.loss_rate(self.probe_loss_rate);
        if let Some(timeout) = self.probe_timeout_ms {
            cfg = cfg.timeout_ms(timeout);
        }
        cfg
    }

    /// The client-side failover-detection penalty, in milliseconds.
    pub fn failover_penalty(&self) -> f64 {
        self.failover_penalty_ms
    }

    /// The degradation-timeline bucket width, in milliseconds.
    pub fn timeline_bucket(&self) -> f64 {
        self.timeline_bucket_ms
    }

    /// The maintenance-probe loss rate (`0.0` when probing is healthy).
    pub fn probe_loss_rate(&self) -> f64 {
        self.probe_loss_rate
    }

    /// Serializes the plan to a deterministic single-line JSON object.
    ///
    /// Equal plans always produce byte-identical strings (fixed key
    /// order, shortest-round-trip floats), and
    /// [`FaultPlan::from_json`] recovers the plan exactly — events in
    /// build order, every knob preserved.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecg_faults::FaultPlan;
    /// use ecg_topology::CacheId;
    ///
    /// let plan = FaultPlan::new().crash(CacheId(2), 10_000.0, 5_000.0);
    /// let json = plan.to_json();
    /// assert_eq!(FaultPlan::from_json(&json)?, plan);
    /// # Ok::<(), ecg_faults::PlanParseError>(())
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("schema").str(PLAN_SCHEMA);
            w.key("failover_penalty_ms").f64(self.failover_penalty_ms);
            w.key("timeline_bucket_ms").f64(self.timeline_bucket_ms);
            w.key("probe_loss_rate").f64(self.probe_loss_rate);
            w.key("probe_timeout_ms").opt_f64(self.probe_timeout_ms);
            w.key("events").array(|w| {
                for e in &self.events {
                    w.object(|w| {
                        w.key("t").f64(e.time_ms);
                        w.key("kind");
                        match e.kind {
                            FaultKind::CacheDown { cache } => {
                                w.str("cache_down").key("cache").usize(cache.index())
                            }
                            FaultKind::CacheUp { cache } => {
                                w.str("cache_up").key("cache").usize(cache.index())
                            }
                            FaultKind::CacheRetire { cache } => {
                                w.str("cache_retire").key("cache").usize(cache.index())
                            }
                            FaultKind::BrownoutStart { factor } => {
                                w.str("brownout_start").key("factor").f64(factor)
                            }
                            FaultKind::BrownoutEnd => w.str("brownout_end"),
                        };
                    });
                }
            });
        });
        w.finish()
    }

    /// Parses a plan previously written by [`FaultPlan::to_json`].
    ///
    /// # Errors
    ///
    /// [`PlanParseError`] on malformed JSON, a missing/mismatched
    /// `schema` tag, or any field outside the range the builder methods
    /// enforce (so a parsed plan is always one the builders could have
    /// produced).
    pub fn from_json(text: &str) -> Result<FaultPlan, PlanParseError> {
        let doc = json::parse(text).map_err(|e| PlanParseError::Syntax(e.to_string()))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(PLAN_SCHEMA) => {}
            Some(other) => return Err(PlanParseError::Schema(format!("{other:?}"))),
            None => return Err(PlanParseError::Schema("none".to_string())),
        }
        let failover_penalty_ms = require_f64(&doc, "failover_penalty_ms", |v| v >= 0.0)?;
        let timeline_bucket_ms = require_f64(&doc, "timeline_bucket_ms", |v| v > 0.0)?;
        let probe_loss_rate = require_f64(&doc, "probe_loss_rate", |v| (0.0..1.0).contains(&v))?;
        let probe_timeout_ms = match doc.get("probe_timeout_ms") {
            Some(v) if v.is_null() => None,
            Some(_) => Some(require_f64(&doc, "probe_timeout_ms", |v| v > 0.0)?),
            None => {
                return Err(PlanParseError::Field {
                    field: "probe_timeout_ms",
                    reason: "missing".to_string(),
                })
            }
        };
        let raw_events =
            doc.get("events")
                .and_then(JsonValue::as_arr)
                .ok_or(PlanParseError::Field {
                    field: "events",
                    reason: "missing or not an array".to_string(),
                })?;
        let mut events = Vec::with_capacity(raw_events.len());
        for e in raw_events {
            events.push(parse_event(e)?);
        }
        Ok(FaultPlan {
            events,
            failover_penalty_ms,
            timeline_bucket_ms,
            probe_loss_rate,
            probe_timeout_ms,
        })
    }
}

/// Reads a finite numeric field satisfying `legal` from `doc`. `field`
/// is the dotted path used in error messages; the lookup key is its
/// last segment.
fn require_f64(
    doc: &JsonValue,
    field: &'static str,
    legal: impl Fn(f64) -> bool,
) -> Result<f64, PlanParseError> {
    let key = field.rsplit('.').next().unwrap_or(field);
    let v = doc
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or(PlanParseError::Field {
            field,
            reason: "missing or not a number".to_string(),
        })?;
    if v.is_finite() && legal(v) {
        Ok(v)
    } else {
        Err(PlanParseError::Field {
            field,
            reason: format!("{v} is out of range"),
        })
    }
}

/// Decodes one entry of the `events` array.
fn parse_event(e: &JsonValue) -> Result<FaultEvent, PlanParseError> {
    let time_ms = require_f64(e, "events[].t", |v| v >= 0.0)?;
    let kind_tag = e
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or(PlanParseError::Field {
            field: "events[].kind",
            reason: "missing or not a string".to_string(),
        })?;
    let cache = || -> Result<CacheId, PlanParseError> {
        let idx = require_f64(e, "events[].cache", |v| v >= 0.0 && v.fract() == 0.0)?;
        Ok(CacheId(idx as usize))
    };
    let kind = match kind_tag {
        "cache_down" => FaultKind::CacheDown { cache: cache()? },
        "cache_up" => FaultKind::CacheUp { cache: cache()? },
        "cache_retire" => FaultKind::CacheRetire { cache: cache()? },
        "brownout_start" => FaultKind::BrownoutStart {
            factor: require_f64(e, "events[].factor", |v| v >= 1.0)?,
        },
        "brownout_end" => FaultKind::BrownoutEnd,
        other => {
            return Err(PlanParseError::Field {
                field: "events[].kind",
                reason: format!("unknown kind {other:?}"),
            })
        }
    };
    Ok(FaultEvent { time_ms, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_obs::json::MAX_DEPTH;

    #[test]
    fn crash_expands_to_down_then_up() {
        let plan = FaultPlan::new().crash(CacheId(1), 100.0, 50.0);
        let events = plan.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].time_ms, 100.0);
        assert_eq!(events[0].kind, FaultKind::CacheDown { cache: CacheId(1) });
        assert_eq!(events[1].time_ms, 150.0);
        assert_eq!(events[1].kind, FaultKind::CacheUp { cache: CacheId(1) });
    }

    #[test]
    fn brownout_expands_to_window() {
        let plan = FaultPlan::new().brownout(10.0, 5.0, 2.5);
        let s = plan.schedule();
        assert!(s.validate(0).is_ok());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn schedule_carries_knobs() {
        let plan = FaultPlan::new()
            .failover_penalty_ms(42.0)
            .timeline_bucket_ms(500.0);
        let s = plan.schedule();
        assert_eq!(s.failover_penalty(), 42.0);
        assert_eq!(s.timeline_bucket(), 500.0);
    }

    #[test]
    fn probe_knobs_apply_to_base_config() {
        let plan = FaultPlan::new().probe_loss(0.25, 2_000.0);
        let cfg = plan.probe_config(ProbeConfig::noiseless());
        assert_eq!(cfg.loss(), 0.25);
        assert_eq!(cfg.timeout(), 2_000.0);
        // Without knobs the base passes through untouched.
        let cfg = FaultPlan::new().probe_config(ProbeConfig::default());
        assert_eq!(cfg, ProbeConfig::default());
    }

    #[test]
    fn empty_plan_compiles_to_empty_schedule() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let s = plan.schedule();
        assert!(s.is_empty());
        assert_eq!(s, FaultSchedule::new());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let plan = FaultPlan::new()
            .crash(CacheId(1), 100.0, 50.5)
            .retire(CacheId(3), 2_000.25)
            .brownout(5_000.0, 1_000.0, 2.5)
            .failover_penalty_ms(12.5)
            .timeline_bucket_ms(500.0)
            .probe_loss(0.25, 2_000.0);
        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&json).expect("parses");
        assert_eq!(parsed, plan);
        assert_eq!(parsed.to_json(), json, "serialize → parse → serialize");
    }

    #[test]
    fn default_plan_round_trips_with_null_timeout() {
        let plan = FaultPlan::new();
        let json = plan.to_json();
        assert!(json.contains("\"probe_timeout_ms\":null"));
        assert!(json.contains("\"schema\":\"ecg-faultplan/v1\""));
        assert!(json.ends_with("\"events\":[]}"));
        assert_eq!(FaultPlan::from_json(&json).expect("parses"), plan);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        // Malformed JSON.
        assert!(matches!(
            FaultPlan::from_json("{"),
            Err(PlanParseError::Syntax(_))
        ));
        // Nesting past the parser's bound — 100 KB of either of these
        // overflowed the stack of the reader this crate used to carry.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = FaultPlan::from_json(&deep).expect_err("rejected");
            assert!(matches!(err, PlanParseError::Syntax(_)), "{err}");
            assert!(err.to_string().contains("nested deeper"), "{err}");
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(matches!(
            FaultPlan::from_json(&nested(MAX_DEPTH)),
            Err(PlanParseError::Schema(_))
        ));
        assert!(matches!(
            FaultPlan::from_json(&nested(MAX_DEPTH + 1)),
            Err(PlanParseError::Syntax(_))
        ));
        // Wrong or missing schema.
        assert!(matches!(
            FaultPlan::from_json("{\"schema\":\"other/v9\"}"),
            Err(PlanParseError::Schema(_))
        ));
        assert!(matches!(
            FaultPlan::from_json("{}"),
            Err(PlanParseError::Schema(_))
        ));
        // Out-of-range knob: builders would have panicked, the parser
        // must reject.
        let bad = FaultPlan::new()
            .to_json()
            .replace("\"probe_loss_rate\":0", "\"probe_loss_rate\":1.5");
        assert!(matches!(
            FaultPlan::from_json(&bad),
            Err(PlanParseError::Field {
                field: "probe_loss_rate",
                ..
            })
        ));
        // Unknown event kind.
        let bad = FaultPlan::new()
            .retire(CacheId(0), 1.0)
            .to_json()
            .replace("cache_retire", "cache_explode");
        let err = FaultPlan::from_json(&bad).expect_err("rejected");
        assert!(err.to_string().contains("cache_explode"), "{err}");
        // Fractional cache id.
        let bad = FaultPlan::new()
            .retire(CacheId(2), 1.0)
            .to_json()
            .replace("\"cache\":2", "\"cache\":2.5");
        assert!(FaultPlan::from_json(&bad).is_err());
    }

    #[test]
    fn knob_accessors_mirror_builders() {
        let plan = FaultPlan::new()
            .failover_penalty_ms(9.0)
            .timeline_bucket_ms(250.0)
            .probe_loss(0.1, 750.0);
        assert_eq!(plan.failover_penalty(), 9.0);
        assert_eq!(plan.timeline_bucket(), 250.0);
        assert_eq!(plan.probe_loss_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "downtime")]
    fn zero_downtime_rejected() {
        let _ = FaultPlan::new().crash(CacheId(0), 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn speedup_brownout_rejected() {
        let _ = FaultPlan::new().brownout(0.0, 10.0, 0.9);
    }
}
