//! The operator-facing fault plan.
//!
//! [`FaultPlan`] is a builder DSL over the simulator's low-level
//! [`FaultSchedule`]: it speaks in whole outages (a crash *with* its
//! recovery) instead of raw start/stop events.

use ecg_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
use ecg_topology::CacheId;

/// A declarative script of faults to inject into a simulation run.
///
/// Build one with the chained methods, then hand
/// [`FaultPlan::schedule`] to [`ecg_sim::SimPlan::faults`].
///
/// # Examples
///
/// ```
/// use ecg_faults::FaultPlan;
/// use ecg_topology::CacheId;
///
/// let plan = FaultPlan::new()
///     .crash(CacheId(2), 10_000.0, 30_000.0) // down 10s in, back 30s later
///     .retire(CacheId(5), 60_000.0);
/// assert_eq!(plan.schedule().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
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
        let mut schedule = FaultSchedule::new();
        for e in &self.events {
            schedule.push(e.time_ms, e.kind);
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_plan_compiles_to_empty_schedule() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let s = plan.schedule();
        assert!(s.is_empty());
        assert_eq!(s, FaultSchedule::new());
    }

    #[test]
    #[should_panic(expected = "downtime")]
    fn zero_downtime_rejected() {
        let _ = FaultPlan::new().crash(CacheId(0), 0.0, 0.0);
    }
}
