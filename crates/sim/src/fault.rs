//! Fault injection: cache crashes, recoveries, retirements, and origin
//! brownouts.
//!
//! The paper evaluates group formation on a healthy network; real edge
//! deployments lose caches (hardware failure, maintenance drains) and
//! see origin slowdowns (flash crowds, upstream incidents). A
//! [`FaultSchedule`] is the simulator-level description of such an
//! outage script: a time-ordered list of [`FaultEvent`]s that
//! [`crate::simulate`] replays alongside the workload trace
//! ([`crate::SimPlan::faults`]).
//!
//! Semantics of each [`FaultKind`]:
//!
//! * **CacheDown** — the cache crashes and its contents are lost.
//!   While down it serves nothing: clients pointed at it fail over to
//!   the origin (paying [`FaultSchedule::failover_penalty_ms`] for
//!   detection plus the full origin fetch), and group peers stop
//!   querying it — its group degrades to the survivors.
//! * **CacheUp** — the cache restarts *cold* (its pre-crash contents
//!   stay lost) and rejoins cooperative lookups.
//! * **CacheRetire** — permanent decommissioning; like a crash that
//!   never recovers. A later `CacheUp` for a retired cache is ignored.
//! * **BrownoutStart / BrownoutEnd** — while a brownout is active every
//!   origin fetch is slowed by the window's factor, modelling an
//!   overloaded or degraded origin.
//!
//! The schedule is deliberately low-level — dense, validated, and owned
//! by the simulator crate. The `ecg-faults` crate layers the
//! operator-facing `FaultPlan` builder (crash-with-recovery, churn
//! generation) on top and compiles down to this type.

use crate::event::fault_order;
use crate::time::SimTime;
use ecg_topology::CacheId;
use std::fmt;

/// What happens when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// `cache` crashes, losing its contents.
    CacheDown {
        /// The crashing cache.
        cache: CacheId,
    },
    /// `cache` restarts cold and rejoins its group.
    CacheUp {
        /// The recovering cache.
        cache: CacheId,
    },
    /// `cache` is permanently decommissioned.
    CacheRetire {
        /// The retiring cache.
        cache: CacheId,
    },
    /// Origin fetches start taking `factor ×` their modelled latency.
    BrownoutStart {
        /// Slowdown multiplier, `>= 1`.
        factor: f64,
    },
    /// The active brownout window ends.
    BrownoutEnd,
}

/// A fault scheduled at a point in simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in ms.
    pub time_ms: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Error from [`FaultSchedule::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A fault references a cache outside the network.
    CacheOutOfRange {
        /// The offending cache index.
        cache: usize,
    },
    /// A fault time is negative, not finite, or at or past the run
    /// horizon: 2¹⁸ timeline buckets of the schedule's width
    /// ([`FaultSchedule::timeline_bucket_ms`]; see
    /// [`SimError::EventTimeBeyondHorizon`](crate::SimError::EventTimeBeyondHorizon)).
    BadTime {
        /// The offending time.
        time_ms: f64,
    },
    /// A brownout factor is below 1 or not finite.
    BadBrownoutFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A `BrownoutEnd` fired with no brownout active.
    UnmatchedBrownoutEnd,
    /// A `BrownoutStart` fired while a brownout was already active
    /// (windows must not overlap).
    OverlappingBrownout,
    /// The failover penalty is negative or not finite.
    BadFailoverPenalty {
        /// The offending penalty.
        penalty_ms: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::CacheOutOfRange { cache } => {
                write!(f, "fault references unknown cache {cache}")
            }
            FaultError::BadTime { time_ms } => {
                write!(
                    f,
                    "fault time {time_ms} is not a finite non-negative ms value before the run horizon"
                )
            }
            FaultError::BadBrownoutFactor { factor } => {
                write!(f, "brownout factor {factor} must be finite and >= 1")
            }
            FaultError::UnmatchedBrownoutEnd => {
                write!(f, "brownout end without an active brownout")
            }
            FaultError::OverlappingBrownout => {
                write!(f, "brownout windows must not overlap")
            }
            FaultError::BadFailoverPenalty { penalty_ms } => {
                write!(f, "failover penalty {penalty_ms} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// The fault state a schedule has accumulated at some instant, as
/// reported by [`FaultSchedule::carry_state_at`]: what a replay segment
/// starting there must re-announce before processing its own events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultCarryState {
    /// Caches crashed and not yet recovered (retired caches excluded),
    /// ascending.
    pub down: Vec<CacheId>,
    /// Caches permanently retired, ascending.
    pub retired: Vec<CacheId>,
    /// The factor of the brownout window open at the instant, if any.
    pub brownout_factor: Option<f64>,
}

impl FaultCarryState {
    /// `true` when nothing needs re-announcing: no cache is down or
    /// retired and no brownout is open.
    pub fn is_clean(&self) -> bool {
        self.down.is_empty() && self.retired.is_empty() && self.brownout_factor.is_none()
    }
}

/// The most buckets a run's degradation timeline may hold; with the
/// bucket width it fixes the run horizon ([`FaultSchedule::horizon`]).
/// A power of two, so `time / width < MAX_TIMELINE_BUCKETS` and
/// `time < width × MAX_TIMELINE_BUCKETS` are the same test in `f64`.
pub(crate) const MAX_TIMELINE_BUCKETS: usize = 1 << 18;

/// A validated-on-use script of fault events plus the fault-model knobs
/// the simulator needs.
///
/// An empty schedule (the [`Default`], and what a [`crate::SimPlan`]
/// starts with) is the fault-free run, bit for bit.
///
/// # Examples
///
/// ```
/// use ecg_sim::fault::{FaultKind, FaultSchedule};
/// use ecg_topology::CacheId;
///
/// let mut schedule = FaultSchedule::new();
/// schedule.push(1_000.0, FaultKind::CacheDown { cache: CacheId(2) });
/// schedule.push(5_000.0, FaultKind::CacheUp { cache: CacheId(2) });
/// assert_eq!(schedule.len(), 2);
/// assert!(schedule.validate(6).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    failover_penalty_ms: f64,
    timeline_bucket_ms: f64,
}

impl Default for FaultSchedule {
    /// No faults, a 3 ms failover-detection penalty, 10 s timeline
    /// buckets.
    fn default() -> Self {
        Self::new()
    }
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub const fn new() -> Self {
        FaultSchedule {
            events: Vec::new(),
            failover_penalty_ms: 3.0,
            timeline_bucket_ms: 10_000.0,
        }
    }

    /// Appends a fault. Events may be pushed in any order; the simulator
    /// processes them in time order, quantised to the microsecond (ties
    /// in push order).
    pub fn push(&mut self, time_ms: f64, kind: FaultKind) {
        self.events.push(FaultEvent { time_ms, kind });
    }

    /// Sets the extra latency a client pays to detect its home cache is
    /// dead before falling back to the origin.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn failover_penalty_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "penalty must be >= 0");
        self.failover_penalty_ms = ms;
        self
    }

    /// Sets the width of the degradation-timeline buckets.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive and finite.
    pub fn timeline_bucket_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "bucket width must be > 0");
        self.timeline_bucket_ms = ms;
        self
    }

    /// The failover-detection penalty in ms.
    pub fn failover_penalty(&self) -> f64 {
        self.failover_penalty_ms
    }

    /// The degradation-timeline bucket width in ms.
    pub fn timeline_bucket(&self) -> f64 {
        self.timeline_bucket_ms
    }

    /// The run horizon: every timestamp of a run — trace events and
    /// faults alike — must be quantised to a time before it, i.e. read
    /// back ([`SimTime::as_ms`]) as less than
    /// `timeline_bucket_ms × MAX_TIMELINE_BUCKETS`. A run's degradation
    /// timeline is dense from time zero (88 bytes a bucket, one
    /// timeline per group being simulated plus the merged one), so a
    /// single far-future event would otherwise size an allocation: the
    /// horizon is [`MAX_TIMELINE_BUCKETS`] (2¹⁸) buckets of this
    /// schedule's width — about 30 simulated days at the default 10 s,
    /// 22 MiB per timeline at the very most — and a longer run asks for
    /// wider buckets ([`timeline_bucket_ms`](Self::timeline_bucket_ms)).
    pub(crate) fn horizon(&self) -> SimTime {
        SimTime::first_reading_at_least_ms(self.timeline_bucket_ms * MAX_TIMELINE_BUCKETS as f64)
    }

    /// The scheduled events, in push order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The kinds of the events whose time `keep` accepts, in the order a
    /// run fires them: by time quantised to the simulator's clock, ties
    /// in push order.
    fn fired(&self, keep: impl Fn(f64) -> bool) -> Vec<FaultKind> {
        let order = fault_order(self)
            .into_iter()
            .map(|(_, idx)| self.events[idx]);
        order.filter(|e| keep(e.time_ms)).map(|e| e.kind).collect()
    }

    /// The caches that are unavailable at simulation time `time_ms`,
    /// ascending: crashed and not yet recovered, or retired. Replays
    /// the events up to and including `time_ms` in the order a run
    /// fires them, with the simulator's semantics — a `CacheUp` after
    /// `CacheRetire` is ignored.
    ///
    /// This is the bridge from a simulation fault script to
    /// formation-time probe faults: the `ecg-faults` crate uses it to
    /// derive the crashed-node set a (re-)formation run at `time_ms`
    /// would face.
    pub fn down_caches_at(&self, time_ms: f64) -> Vec<CacheId> {
        let mut down: Vec<CacheId> = Vec::new();
        let mut retired: Vec<CacheId> = Vec::new();
        for kind in self.fired(|t| t <= time_ms) {
            match kind {
                FaultKind::CacheDown { cache } | FaultKind::CacheRetire { cache } => {
                    if !down.contains(&cache) {
                        down.push(cache);
                    }
                    if matches!(kind, FaultKind::CacheRetire { .. }) && !retired.contains(&cache) {
                        retired.push(cache);
                    }
                }
                FaultKind::CacheUp { cache } => {
                    if !retired.contains(&cache) {
                        down.retain(|&c| c != cache);
                    }
                }
                FaultKind::BrownoutStart { .. } | FaultKind::BrownoutEnd => {}
            }
        }
        down.sort_unstable_by_key(|c| c.index());
        down
    }

    /// The fault state accumulated *strictly before* `time_ms`: which
    /// caches are down (crashed, not yet recovered), which are retired
    /// for good, and whether a brownout window is open (and at what
    /// factor).
    ///
    /// This is the splitting primitive for epoch-spanning replay: a
    /// replay segment starting at `time_ms` re-announces this state as
    /// carry events *at* `time_ms` (pushed before the segment's own
    /// events, so the simulator's FIFO tie-break applies them first) and
    /// then behaves as if it had replayed the whole history. The cutoff
    /// is exclusive — an event scheduled exactly at `time_ms` belongs to
    /// the segment itself, not to its carried-in state. The events before
    /// it are replayed in the order a run fires them.
    pub fn carry_state_at(&self, time_ms: f64) -> FaultCarryState {
        let mut down: Vec<CacheId> = Vec::new();
        let mut retired: Vec<CacheId> = Vec::new();
        let mut brownout_factor = None;
        for kind in self.fired(|t| t < time_ms) {
            match kind {
                FaultKind::CacheDown { cache } => {
                    if !down.contains(&cache) && !retired.contains(&cache) {
                        down.push(cache);
                    }
                }
                FaultKind::CacheRetire { cache } => {
                    if !retired.contains(&cache) {
                        retired.push(cache);
                    }
                    down.retain(|&c| c != cache);
                }
                FaultKind::CacheUp { cache } => {
                    if !retired.contains(&cache) {
                        down.retain(|&c| c != cache);
                    }
                }
                FaultKind::BrownoutStart { factor } => brownout_factor = Some(factor),
                FaultKind::BrownoutEnd => brownout_factor = None,
            }
        }
        down.sort_unstable_by_key(|c| c.index());
        retired.sort_unstable_by_key(|c| c.index());
        FaultCarryState {
            down,
            retired,
            brownout_factor,
        }
    }

    /// Checks the schedule against a network of `cache_count` caches:
    /// cache ids in range, times and knobs finite, brownout windows
    /// properly nested and non-overlapping.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn validate(&self, cache_count: usize) -> Result<(), FaultError> {
        if !(self.failover_penalty_ms.is_finite() && self.failover_penalty_ms >= 0.0) {
            return Err(FaultError::BadFailoverPenalty {
                penalty_ms: self.failover_penalty_ms,
            });
        }
        let horizon = self.horizon();
        for e in &self.events {
            if SimTime::try_from_ms(e.time_ms).is_none_or(|at| at >= horizon) {
                return Err(FaultError::BadTime { time_ms: e.time_ms });
            }
            match e.kind {
                FaultKind::CacheDown { cache }
                | FaultKind::CacheUp { cache }
                | FaultKind::CacheRetire { cache } => {
                    if cache.index() >= cache_count {
                        return Err(FaultError::CacheOutOfRange {
                            cache: cache.index(),
                        });
                    }
                }
                FaultKind::BrownoutStart { factor } => {
                    if !(factor.is_finite() && factor >= 1.0) {
                        return Err(FaultError::BadBrownoutFactor { factor });
                    }
                }
                FaultKind::BrownoutEnd => {}
            }
        }
        // Brownout windows must alternate start/end in the order the
        // simulator fires them.
        let mut active = false;
        for kind in self.fired(|_| true) {
            match kind {
                FaultKind::BrownoutStart { .. } => {
                    if active {
                        return Err(FaultError::OverlappingBrownout);
                    }
                    active = true;
                }
                FaultKind::BrownoutEnd => {
                    if !active {
                        return Err(FaultError::UnmatchedBrownoutEnd);
                    }
                    active = false;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_validates() {
        assert!(FaultSchedule::new().validate(0).is_ok());
    }

    #[test]
    fn out_of_range_cache_rejected() {
        let mut s = FaultSchedule::new();
        s.push(1.0, FaultKind::CacheDown { cache: CacheId(6) });
        assert_eq!(s.validate(6), Err(FaultError::CacheOutOfRange { cache: 6 }));
        assert!(s.validate(7).is_ok());
    }

    #[test]
    fn bad_time_rejected() {
        let mut s = FaultSchedule::new();
        s.push(-1.0, FaultKind::BrownoutEnd);
        assert!(matches!(s.validate(1), Err(FaultError::BadTime { .. })));
        let mut s = FaultSchedule::new();
        s.push(f64::NAN, FaultKind::BrownoutEnd);
        assert!(matches!(s.validate(1), Err(FaultError::BadTime { .. })));
    }

    #[test]
    fn times_at_or_past_the_horizon_are_bad_times() {
        // 2^18 buckets of 10 s by default, of 2 ms here.
        for (schedule, horizon_ms) in [
            (FaultSchedule::new(), 2_621_440_000.0),
            (FaultSchedule::new().timeline_bucket_ms(2.0), 524_288.0),
        ] {
            assert_eq!(schedule.horizon().as_ms(), horizon_ms);
            for (time_ms, ok) in [
                (horizon_ms - 0.001, true),
                (horizon_ms - 0.000_4, false), // quantises onto it
                (horizon_ms, false),
                (1e12, false),
                (f64::INFINITY, false),
            ] {
                let mut s = schedule.clone();
                s.push(time_ms, FaultKind::CacheDown { cache: CacheId(0) });
                let expected = if ok {
                    Ok(())
                } else {
                    Err(FaultError::BadTime { time_ms })
                };
                assert_eq!(s.validate(1), expected, "{time_ms}");
            }
        }
        // Buckets so wide that no time reaches the horizon.
        let wide = FaultSchedule::new().timeline_bucket_ms(1e300);
        assert_eq!(wide.horizon(), SimTime::from_micros(u64::MAX));
    }

    #[test]
    fn brownout_windows_must_pair_up() {
        let mut s = FaultSchedule::new();
        s.push(10.0, FaultKind::BrownoutEnd);
        assert_eq!(s.validate(1), Err(FaultError::UnmatchedBrownoutEnd));

        let mut s = FaultSchedule::new();
        s.push(0.0, FaultKind::BrownoutStart { factor: 2.0 });
        s.push(5.0, FaultKind::BrownoutStart { factor: 3.0 });
        assert_eq!(s.validate(1), Err(FaultError::OverlappingBrownout));

        let mut s = FaultSchedule::new();
        s.push(0.0, FaultKind::BrownoutStart { factor: 2.0 });
        s.push(5.0, FaultKind::BrownoutEnd);
        s.push(6.0, FaultKind::BrownoutStart { factor: 4.0 });
        assert!(s.validate(1).is_ok());
    }

    #[test]
    fn brownout_factor_must_slow_not_speed() {
        let mut s = FaultSchedule::new();
        s.push(0.0, FaultKind::BrownoutStart { factor: 0.5 });
        assert!(matches!(
            s.validate(1),
            Err(FaultError::BadBrownoutFactor { .. })
        ));
    }

    #[test]
    fn validation_handles_unsorted_pushes() {
        // End pushed before start, but at a later time: still a valid
        // window once sorted.
        let mut s = FaultSchedule::new();
        s.push(9.0, FaultKind::BrownoutEnd);
        s.push(1.0, FaultKind::BrownoutStart { factor: 2.0 });
        assert!(s.validate(1).is_ok());
    }

    #[test]
    fn down_caches_replay_crash_recover_retire() {
        let mut s = FaultSchedule::new();
        s.push(1_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        s.push(5_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        s.push(2_000.0, FaultKind::CacheRetire { cache: CacheId(0) });
        s.push(6_000.0, FaultKind::CacheUp { cache: CacheId(0) }); // ignored: retired
        assert_eq!(s.down_caches_at(0.0), vec![]);
        assert_eq!(s.down_caches_at(1_000.0), vec![CacheId(2)]);
        assert_eq!(s.down_caches_at(2_500.0), vec![CacheId(0), CacheId(2)]);
        assert_eq!(s.down_caches_at(5_000.0), vec![CacheId(0)]);
        assert_eq!(s.down_caches_at(10_000.0), vec![CacheId(0)]);
    }

    #[test]
    fn carry_state_distinguishes_down_retired_and_brownouts() {
        let mut s = FaultSchedule::new();
        s.push(1_000.0, FaultKind::CacheDown { cache: CacheId(2) });
        s.push(5_000.0, FaultKind::CacheUp { cache: CacheId(2) });
        s.push(2_000.0, FaultKind::CacheRetire { cache: CacheId(0) });
        s.push(6_000.0, FaultKind::CacheUp { cache: CacheId(0) }); // ignored: retired
        s.push(3_000.0, FaultKind::BrownoutStart { factor: 2.5 });
        s.push(7_000.0, FaultKind::BrownoutEnd);

        assert!(s.carry_state_at(0.0).is_clean());
        // The cutoff is exclusive: the crash at 1 s is not yet carried
        // state for a segment starting exactly there.
        assert!(s.carry_state_at(1_000.0).is_clean());
        let mid = s.carry_state_at(4_000.0);
        assert_eq!(mid.down, vec![CacheId(2)]);
        assert_eq!(mid.retired, vec![CacheId(0)]);
        assert_eq!(mid.brownout_factor, Some(2.5));
        let late = s.carry_state_at(10_000.0);
        assert!(late.down.is_empty());
        assert_eq!(late.retired, vec![CacheId(0)]);
        assert_eq!(late.brownout_factor, None);
        assert!(!late.is_clean());
    }

    #[test]
    fn state_queries_replay_the_firing_order_not_the_raw_times() {
        // 1.0004 ms and 1.0001 ms are both 1 000 µs: the simulator fires
        // the recovery (pushed first) before the second crash, and c0
        // ends down — though raw times would order them the other way.
        let mut s = FaultSchedule::new();
        let c0 = CacheId(0);
        s.push(0.5, FaultKind::CacheDown { cache: c0 });
        s.push(1.0004, FaultKind::CacheUp { cache: c0 });
        s.push(1.0001, FaultKind::CacheDown { cache: c0 });
        let fired: Vec<usize> = fault_order(&s).into_iter().map(|(_, idx)| idx).collect();
        assert_eq!(fired, [0, 1, 2]);
        assert_eq!(s.down_caches_at(2.0), [c0]);
        assert_eq!(s.carry_state_at(2.0).down, [c0]);
        // A brownout window pushed start-first at one quantised instant
        // is a window, whichever raw time is smaller; pushed end-first it
        // is an end with nothing open.
        let mut window = FaultSchedule::new();
        window.push(1.0004, FaultKind::BrownoutStart { factor: 2.0 });
        window.push(1.0001, FaultKind::BrownoutEnd);
        assert_eq!(window.validate(1), Ok(()));
        assert_eq!(window.carry_state_at(2.0).brownout_factor, None);
        let mut reversed = FaultSchedule::new();
        reversed.push(1.0004, FaultKind::BrownoutEnd);
        reversed.push(1.0001, FaultKind::BrownoutStart { factor: 2.0 });
        assert_eq!(reversed.validate(1), Err(FaultError::UnmatchedBrownoutEnd));
        // Times no run accepts still get an answer, not a panic.
        let mut hostile = FaultSchedule::new();
        hostile.push(f64::NAN, FaultKind::CacheDown { cache: c0 });
        hostile.push(-3.0, FaultKind::CacheDown { cache: CacheId(1) });
        hostile.push(f64::INFINITY, FaultKind::CacheDown { cache: CacheId(2) });
        assert_eq!(hostile.down_caches_at(1.0), [CacheId(1)]);
        assert_eq!(hostile.carry_state_at(f64::INFINITY).down, [CacheId(1)]);
    }

    #[test]
    #[should_panic(expected = "penalty")]
    fn negative_penalty_panics() {
        let _ = FaultSchedule::new().failover_penalty_ms(-1.0);
    }

    #[test]
    fn error_display() {
        assert!(FaultError::CacheOutOfRange { cache: 9 }
            .to_string()
            .contains('9'));
        assert!(FaultError::OverlappingBrownout
            .to_string()
            .contains("overlap"));
    }
}
