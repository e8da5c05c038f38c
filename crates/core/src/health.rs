//! Formation-run health reporting for resilient formation runs.
//!
//! When [`crate::form`] runs with a [`ResilienceConfig`], it returns a
//! [`FormationHealth`] alongside the grouping: how hard the probing
//! layer had to work (retries, virtual backoff, abandoned
//! measurements), which landmarks were detected dead and failed over,
//! how many feature cells were never observed, and which caches were
//! quarantined into the nearest-landmark fallback. A fault-free run
//! reports [`FormationHealth::is_healthy`] and is bit-identical to a
//! run without resilience.

use ecg_coords::RetryPolicy;
use ecg_topology::CacheId;
use std::fmt;

/// Tuning for the resilient formation pipeline
/// ([`crate::form`], usually under [`crate::FormPlan::faults`]).
///
/// # Examples
///
/// ```
/// use ecg_core::ResilienceConfig;
/// use ecg_coords::RetryPolicy;
///
/// let cfg = ResilienceConfig::default()
///     .retry(RetryPolicy::default().retries(3))
///     .min_observed_features(2);
/// assert_eq!(cfg.retry_policy().max_retries(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    retry: RetryPolicy,
    min_observed_features: usize,
}

impl Default for ResilienceConfig {
    /// The default [`RetryPolicy`] and a one-feature quarantine floor:
    /// a cache that observed at least one landmark is still clustered
    /// (masked), one that observed none is quarantined.
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            min_observed_features: 1,
        }
    }
}

impl ResilienceConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the probe retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the minimum number of observed feature-vector components a
    /// cache needs to participate in clustering; below it the cache is
    /// quarantined to the nearest-landmark fallback group.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` (a zero-observation row cannot be placed at
    /// all and is always quarantined).
    pub fn min_observed_features(mut self, min: usize) -> Self {
        assert!(min > 0, "quarantine floor must be at least 1");
        self.min_observed_features = min;
        self
    }

    /// The probe retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The quarantine floor.
    pub fn min_observed(&self) -> usize {
        self.min_observed_features
    }
}

/// What the resilience layer saw and did during one formation run.
///
/// Returned by [`crate::GroupingOutcome::health`] when the run used a
/// [`ResilienceConfig`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FormationHealth {
    /// Probe retry attempts the run performed.
    pub probe_retries: u64,
    /// Measurements abandoned after exhausting retries (or hitting a
    /// dead link, which is never retried).
    pub probe_gave_up: u64,
    /// Total virtual backoff the retries would have slept, in ms.
    pub backoff_ms: u64,
    /// PLSet nodes declared dead (no successful pairwise measurement),
    /// ascending node indices.
    pub dead_landmarks: Vec<usize>,
    /// Landmark slots that were re-elected after their first choice was
    /// found dead.
    pub landmark_failovers: usize,
    /// Feature-matrix cells that held no real measurement and were
    /// masked out of clustering.
    pub masked_cells: usize,
    /// Caches quarantined to the nearest-landmark fallback group
    /// because they observed fewer than
    /// [`ResilienceConfig::min_observed`] features.
    pub quarantined: Vec<CacheId>,
}

impl FormationHealth {
    /// `true` when the run saw no degradation at all: no measurement
    /// was abandoned, no landmark failed over, no feature cell was
    /// masked, and no cache was quarantined. Retries alone (that then
    /// succeeded) keep a run healthy.
    pub fn is_healthy(&self) -> bool {
        self.probe_gave_up == 0
            && self.dead_landmarks.is_empty()
            && self.landmark_failovers == 0
            && self.masked_cells == 0
            && self.quarantined.is_empty()
    }

    /// `true` when any degradation was recorded — the complement of
    /// [`FormationHealth::is_healthy`].
    pub fn is_degraded(&self) -> bool {
        !self.is_healthy()
    }
}

impl fmt::Display for FormationHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_healthy() {
            return write!(
                f,
                "healthy ({} retries, {} ms backoff)",
                self.probe_retries, self.backoff_ms
            );
        }
        write!(
            f,
            "degraded: {} retries, {} gave up, {} ms backoff, \
             {} dead landmarks ({} failed over), {} masked cells, {} quarantined",
            self.probe_retries,
            self.probe_gave_up,
            self.backoff_ms,
            self.dead_landmarks.len(),
            self.landmark_failovers,
            self.masked_cells,
            self.quarantined.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_default_policy() {
        let cfg = ResilienceConfig::new();
        assert_eq!(cfg.retry_policy(), &RetryPolicy::default());
        assert_eq!(cfg.min_observed(), 1);
    }

    #[test]
    #[should_panic(expected = "quarantine floor")]
    fn zero_quarantine_floor_is_rejected() {
        let _ = ResilienceConfig::new().min_observed_features(0);
    }

    #[test]
    fn health_classification() {
        let mut h = FormationHealth::default();
        assert!(h.is_healthy());
        h.probe_retries = 7;
        h.backoff_ms = 350;
        assert!(h.is_healthy(), "recovered retries are not degradation");
        assert!(h.to_string().starts_with("healthy"));

        h.landmark_failovers = 1;
        h.dead_landmarks = vec![4];
        assert!(h.is_degraded());
        let text = h.to_string();
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("1 dead landmarks"), "{text}");
    }

    #[test]
    fn quarantine_alone_is_degradation() {
        let h = FormationHealth {
            quarantined: vec![CacheId(3)],
            ..FormationHealth::default()
        };
        assert!(h.is_degraded());
        assert!(h.to_string().contains("1 quarantined"));
    }
}
