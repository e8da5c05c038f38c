//! Simulation metrics.
//!
//! The paper's client-side metric is the **average cache latency** (§4):
//! the mean of `T_S - T_A` over all requests in a window. The recorder
//! keeps per-cache aggregates so the Figure-3 breakdowns (all caches, 50
//! nearest the origin, 50 farthest) fall out of one run.

use crate::fault::{MAX_TIMELINE_BUCKETS, TIMELINE_BUCKET_MS};
use ecg_obs::Histogram as LatencyHistogram;
use ecg_topology::CacheId;

/// How a request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Fresh copy in the local cache.
    Local,
    /// Fetched from a cooperating peer cache in the same group.
    Peer,
    /// Fetched from the origin server after a group-wide miss.
    Origin,
}

/// Per-cache latency and outcome aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheAggregate {
    /// Requests served at this cache.
    pub requests: u64,
    /// Sum of request latencies, ms.
    pub latency_sum_ms: f64,
    /// Maximum single-request latency, ms.
    pub latency_max_ms: f64,
    /// Requests served from the local cache.
    pub local_hits: u64,
    /// Requests served by a group peer.
    pub peer_hits: u64,
    /// Requests that went to the origin.
    pub origin_fetches: u64,
}

impl CacheAggregate {
    /// Mean latency at this cache, or `None` before any request.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some(self.latency_sum_ms / self.requests as f64)
        }
    }

    /// Fraction of requests answered locally or by a peer (the *group
    /// hit rate* in the paper's terms), or `None` before any request.
    pub fn group_hit_rate(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some((self.local_hits + self.peer_hits) as f64 / self.requests as f64)
        }
    }
}

/// Latency/hit-rate aggregate over one class of requests (healthy or
/// degraded), used by [`DegradationMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowAggregate {
    /// Requests in this class.
    pub requests: u64,
    /// Sum of their latencies, ms.
    pub latency_sum_ms: f64,
    /// Worst single-request latency, ms.
    pub latency_max_ms: f64,
    /// Requests answered locally or by a group peer.
    pub group_hits: u64,
    /// Requests served with a stale version.
    pub stale_served: u64,
}

impl WindowAggregate {
    /// Mean latency over this class, or `None` before any request.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some(self.latency_sum_ms / self.requests as f64)
        }
    }

    /// Group hit rate (local + peer) in this class, or `None` before
    /// any request.
    pub fn group_hit_rate(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some(self.group_hits as f64 / self.requests as f64)
        }
    }

    fn record(&mut self, latency_ms: f64, hit: bool, stale: bool) {
        self.requests += 1;
        self.latency_sum_ms += latency_ms;
        self.latency_max_ms = self.latency_max_ms.max(latency_ms);
        if hit {
            self.group_hits += 1;
        }
        if stale {
            self.stale_served += 1;
        }
    }

    /// Folds `other` into `self`. Counters add exactly; the latency sum
    /// is one f64 addition per call, so folding per-group aggregates in
    /// group order yields bit-identical results no matter where each
    /// group's aggregate was computed.
    pub fn merge_from(&mut self, other: &WindowAggregate) {
        self.requests += other.requests;
        self.latency_sum_ms += other.latency_sum_ms;
        self.latency_max_ms = self.latency_max_ms.max(other.latency_max_ms);
        self.group_hits += other.group_hits;
        self.stale_served += other.stale_served;
    }
}

/// One bucket of the degradation time series: the healthy and degraded
/// request aggregates for `[start_ms, start_ms + 10 s)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimelineBucket {
    /// Bucket start time, ms.
    pub start_ms: f64,
    /// Requests whose group was fully healthy.
    pub healthy: WindowAggregate,
    /// Requests served while their group was degraded (a member down or
    /// retired).
    pub degraded: WindowAggregate,
}

/// Fault-impact metrics: every request is classified as *healthy* or
/// *degraded* (some member of the requester's group down/retired) and
/// aggregated both overall and as a time series of 10 s buckets.
///
/// In a fault-free run (an empty schedule) everything lands in the
/// healthy class and all fault counters stay zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationMetrics {
    /// Aggregate over requests served under fully healthy groups.
    pub healthy: WindowAggregate,
    /// Aggregate over requests served under degraded groups.
    pub degraded: WindowAggregate,
    /// Requests whose home cache was down: served straight from the
    /// origin after the failover-detection penalty.
    pub failovers: u64,
    /// Cooperative peer queries skipped because the peer was down.
    pub peer_queries_skipped: u64,
    /// Cache crash events applied.
    pub crashes: u64,
    /// Cache recovery events applied.
    pub recoveries: u64,
    /// Cache retirement events applied.
    pub retirements: u64,
    timeline: Vec<TimelineBucket>,
}

impl DegradationMetrics {
    /// The timeline bucket width in ms.
    pub fn bucket_width_ms(&self) -> f64 {
        TIMELINE_BUCKET_MS
    }

    /// Records one served request into the overall split and its
    /// timeline bucket.
    ///
    /// # Panics
    ///
    /// Panics if `time_ms` is negative or not finite, or lies 2¹⁸
    /// buckets or more from time zero — the run horizon the simulator
    /// validates its inputs against, so the dense timeline cannot be
    /// made to allocate without bound.
    pub fn record(
        &mut self,
        time_ms: f64,
        latency_ms: f64,
        hit: bool,
        stale: bool,
        degraded: bool,
    ) {
        assert!(
            time_ms.is_finite() && time_ms >= 0.0,
            "time must be finite and >= 0, got {time_ms}"
        );
        let idx = (time_ms / TIMELINE_BUCKET_MS) as usize;
        assert!(
            idx < MAX_TIMELINE_BUCKETS,
            "time {time_ms} lies past the timeline's {MAX_TIMELINE_BUCKETS} buckets"
        );
        while self.timeline.len() <= idx {
            let start_ms = self.timeline.len() as f64 * TIMELINE_BUCKET_MS;
            self.timeline.push(TimelineBucket {
                start_ms,
                ..Default::default()
            });
        }
        let (overall, bucket) = if degraded {
            (&mut self.degraded, &mut self.timeline[idx].degraded)
        } else {
            (&mut self.healthy, &mut self.timeline[idx].healthy)
        };
        overall.record(latency_ms, hit, stale);
        bucket.record(latency_ms, hit, stale);
    }

    /// The bucketed time series, from time zero to the last recorded
    /// request (empty buckets included in between).
    pub fn timeline(&self) -> &[TimelineBucket] {
        &self.timeline
    }

    /// Fraction of recorded requests served under a degraded group, or
    /// `None` before any request.
    pub fn degraded_fraction(&self) -> Option<f64> {
        let total = self.healthy.requests + self.degraded.requests;
        if total == 0 {
            None
        } else {
            Some(self.degraded.requests as f64 / total as f64)
        }
    }

    /// Mean degraded latency minus mean healthy latency, ms — how much a
    /// fault costs the average affected request. `None` unless both
    /// classes recorded requests.
    pub fn degradation_penalty_ms(&self) -> Option<f64> {
        Some(self.degraded.mean_latency_ms()? - self.healthy.mean_latency_ms()?)
    }

    /// Returns `true` if any fault event was applied during the run.
    pub fn saw_faults(&self) -> bool {
        self.crashes + self.recoveries + self.retirements > 0
            || self.failovers > 0
            || self.degraded.requests > 0
    }

    /// Folds `other` into `self`, bucket-aligned.
    ///
    /// This is the degradation half of the sharded-replay merge
    /// contract: the simulator accumulates one `DegradationMetrics` per
    /// group and folds them in group order, and a sharded replay folds
    /// its per-shard recorders through the same call sequence — so both
    /// paths perform the identical chain of f64 additions and produce
    /// bit-identical sums. Missing trailing buckets are created empty
    /// before the bucket-wise fold.
    pub fn merge_from(&mut self, other: &DegradationMetrics) {
        self.healthy.merge_from(&other.healthy);
        self.degraded.merge_from(&other.degraded);
        self.failovers += other.failovers;
        self.peer_queries_skipped += other.peer_queries_skipped;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.retirements += other.retirements;
        // The length is known here, so the buckets missing are
        // allocated once — every kernel run ends in this fold.
        let missing = other.timeline.len().saturating_sub(self.timeline.len());
        self.timeline.reserve_exact(missing);
        while self.timeline.len() < other.timeline.len() {
            let start_ms = self.timeline.len() as f64 * TIMELINE_BUCKET_MS;
            self.timeline.push(TimelineBucket {
                start_ms,
                ..Default::default()
            });
        }
        for (mine, theirs) in self.timeline.iter_mut().zip(&other.timeline) {
            mine.healthy.merge_from(&theirs.healthy);
            mine.degraded.merge_from(&theirs.degraded);
        }
    }
}

/// Collects per-request observations during a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    per_cache: Vec<CacheAggregate>,
    histogram: LatencyHistogram,
    /// Total bytes moved between group peers (cooperation traffic).
    pub peer_bytes: u64,
    /// Total bytes fetched from the origin.
    pub origin_bytes: u64,
    /// Control messages (peer queries + replies) sent.
    pub control_messages: u64,
    /// Push invalidations sent by the origin (multicast protocol only).
    pub invalidations_sent: u64,
    /// Requests served with a version older than the origin's current
    /// one (TTL lease protocol): the client-visible staleness cost.
    pub stale_served: u64,
    /// Peer-hit replicas the placement policy let the requester keep.
    /// Zero under the single-holder baseline (which replicates
    /// unconditionally but is short-circuited before the counter).
    pub replicas_created: u64,
    /// Peer-hit replicas the placement policy suppressed (the body was
    /// served remotely and dropped).
    pub replicas_suppressed: u64,
    /// Origin-fetched copies the placement policy diverted to a member
    /// other than the requester.
    pub remote_placements: u64,
    /// Fault-impact split of the same requests (healthy vs. degraded
    /// windows, failover counts). All-zero in a fault-free run.
    pub degradation: DegradationMetrics,
}

impl MetricsRecorder {
    /// Creates a recorder for `cache_count` caches.
    pub fn new(cache_count: usize) -> Self {
        MetricsRecorder {
            per_cache: vec![CacheAggregate::default(); cache_count],
            histogram: LatencyHistogram::default(),
            peer_bytes: 0,
            origin_bytes: 0,
            control_messages: 0,
            invalidations_sent: 0,
            stale_served: 0,
            replicas_created: 0,
            replicas_suppressed: 0,
            remote_placements: 0,
            degradation: DegradationMetrics::default(),
        }
    }

    /// Forgets everything recorded and re-lays the recorder out for
    /// `cache_count` caches, keeping its buffers: equal to a new
    /// recorder for `cache_count` caches.
    pub(crate) fn reset(&mut self, cache_count: usize) {
        // Named field by field, so a new field cannot be missed.
        let MetricsRecorder {
            per_cache,
            histogram,
            peer_bytes,
            origin_bytes,
            control_messages,
            invalidations_sent,
            stale_served,
            replicas_created,
            replicas_suppressed,
            remote_placements,
            degradation,
        } = self;
        per_cache.clear();
        per_cache.resize(cache_count, CacheAggregate::default());
        histogram.clear();
        for counter in [
            peer_bytes,
            origin_bytes,
            control_messages,
            invalidations_sent,
            stale_served,
            replicas_created,
            replicas_suppressed,
            remote_placements,
        ] {
            *counter = 0;
        }
        let mut timeline = std::mem::take(&mut degradation.timeline);
        timeline.clear();
        *degradation = DegradationMetrics {
            timeline,
            ..DegradationMetrics::default()
        };
    }

    /// Returns `true` if an active (non-single-holder) placement policy
    /// took any decision during the run.
    pub fn saw_placement(&self) -> bool {
        self.replicas_created + self.replicas_suppressed + self.remote_placements > 0
    }

    /// Records one served request.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range or the latency is negative/not
    /// finite.
    pub fn record(&mut self, cache: CacheId, latency_ms: f64, served_by: ServedBy) {
        self.record_unbinned(cache, latency_ms, served_by);
        self.histogram.record(latency_ms);
    }

    /// Adds `count` requests of latency `latency_ms` to the latency
    /// distribution alone: the other half of
    /// [`record_unbinned`](Self::record_unbinned).
    pub(crate) fn bin_latencies(&mut self, latency_ms: f64, count: u64) {
        self.histogram.record_n(latency_ms, count);
    }

    /// [`record`](Self::record) without the latency distribution, for a
    /// caller that sees one latency many times (a local hit costs a
    /// constant) and hands the lot to
    /// [`bin_latencies`](Self::bin_latencies) once.
    pub(crate) fn record_unbinned(&mut self, cache: CacheId, latency_ms: f64, served_by: ServedBy) {
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "latency must be finite and >= 0, got {latency_ms}"
        );
        let agg = &mut self.per_cache[cache.index()];
        agg.requests += 1;
        agg.latency_sum_ms += latency_ms;
        agg.latency_max_ms = agg.latency_max_ms.max(latency_ms);
        match served_by {
            ServedBy::Local => agg.local_hits += 1,
            ServedBy::Peer => agg.peer_hits += 1,
            ServedBy::Origin => agg.origin_fetches += 1,
        }
    }

    /// The latency distribution over all recorded requests.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }

    /// The `p`-quantile of request latency in ms (e.g. `0.95` for p95),
    /// or `None` before any request.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile_ms(&self, p: f64) -> Option<f64> {
        self.histogram.percentile(p)
    }

    /// Per-cache aggregates, indexed by cache id.
    pub fn per_cache(&self) -> &[CacheAggregate] {
        &self.per_cache
    }

    /// Total requests across all caches.
    pub fn total_requests(&self) -> u64 {
        self.per_cache.iter().map(|a| a.requests).sum()
    }

    /// Mean latency over *all requests* network-wide, or `None` if no
    /// request was recorded.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        let total = self.total_requests();
        if total == 0 {
            return None;
        }
        let sum: f64 = self.per_cache.iter().map(|a| a.latency_sum_ms).sum();
        Some(sum / total as f64)
    }

    /// Mean latency restricted to the requests arriving at `caches`, or
    /// `None` if those caches served nothing. This computes the paper's
    /// "average latency of the 50 caches nearest/farthest from the
    /// origin" curves.
    pub fn mean_latency_of(&self, caches: &[CacheId]) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0u64;
        for &c in caches {
            let agg = &self.per_cache[c.index()];
            sum += agg.latency_sum_ms;
            count += agg.requests;
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Folds a per-shard recorder into this one, scattering the shard's
    /// local cache rows back to the global ids in `members`.
    ///
    /// `members` lists the shard's caches in shard-local order:
    /// shard-local cache `i` is global cache `members[i]`. Every global
    /// cache belongs to exactly one shard, so the scatter lands each
    /// per-cache aggregate (whose f64 sums already accumulated in that
    /// cache's own event order) on a zeroed row — `0.0 + x == x` makes
    /// the copy exact. Histogram bins and the `u64` traffic counters add
    /// exactly; the degradation split folds through
    /// [`DegradationMetrics::merge_from`], which is the order-sensitive
    /// part — callers must merge shards in group order to reproduce a
    /// whole-map run of the event loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `members` does not match the shard's cache count or a
    /// member id is out of range.
    pub fn merge_shard(&mut self, members: &[CacheId], shard: &MetricsRecorder) {
        assert_eq!(
            members.len(),
            shard.per_cache.len(),
            "shard recorder covers {} caches but {} members were given",
            shard.per_cache.len(),
            members.len()
        );
        for (local, &global) in shard.per_cache.iter().zip(members) {
            let agg = &mut self.per_cache[global.index()];
            agg.requests += local.requests;
            agg.latency_sum_ms += local.latency_sum_ms;
            agg.latency_max_ms = agg.latency_max_ms.max(local.latency_max_ms);
            agg.local_hits += local.local_hits;
            agg.peer_hits += local.peer_hits;
            agg.origin_fetches += local.origin_fetches;
        }
        self.histogram.merge(&shard.histogram);
        self.peer_bytes += shard.peer_bytes;
        self.origin_bytes += shard.origin_bytes;
        self.control_messages += shard.control_messages;
        self.invalidations_sent += shard.invalidations_sent;
        self.stale_served += shard.stale_served;
        self.replicas_created += shard.replicas_created;
        self.replicas_suppressed += shard.replicas_suppressed;
        self.remote_placements += shard.remote_placements;
        self.degradation.merge_from(&shard.degradation);
    }

    /// Network-wide group hit rate (local + peer), or `None` with no
    /// requests.
    pub fn group_hit_rate(&self) -> Option<f64> {
        let total = self.total_requests();
        if total == 0 {
            return None;
        }
        let hits: u64 = self
            .per_cache
            .iter()
            .map(|a| a.local_hits + a.peer_hits)
            .sum();
        Some(hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_cache() {
        let mut m = MetricsRecorder::new(2);
        m.record(CacheId(0), 10.0, ServedBy::Local);
        m.record(CacheId(0), 30.0, ServedBy::Origin);
        m.record(CacheId(1), 20.0, ServedBy::Peer);
        let a0 = m.per_cache()[0];
        assert_eq!(a0.requests, 2);
        assert_eq!(a0.mean_latency_ms(), Some(20.0));
        assert_eq!(a0.latency_max_ms, 30.0);
        assert_eq!(a0.local_hits, 1);
        assert_eq!(a0.origin_fetches, 1);
        assert_eq!(m.per_cache()[1].peer_hits, 1);
    }

    #[test]
    fn network_wide_mean_weights_by_requests() {
        let mut m = MetricsRecorder::new(2);
        m.record(CacheId(0), 10.0, ServedBy::Local);
        m.record(CacheId(0), 10.0, ServedBy::Local);
        m.record(CacheId(0), 10.0, ServedBy::Local);
        m.record(CacheId(1), 50.0, ServedBy::Origin);
        // (3*10 + 50) / 4 = 20.
        assert_eq!(m.mean_latency_ms(), Some(20.0));
        assert_eq!(m.total_requests(), 4);
        // Percentiles come from the histogram: p50 near 10, p100 >= 50.
        let p50 = m.latency_percentile_ms(0.5).unwrap();
        assert!((10.0..15.0).contains(&p50), "p50 {p50}");
        assert!(m.latency_percentile_ms(1.0).unwrap() >= 50.0);
        assert_eq!(m.latency_histogram().count(), 4);
    }

    #[test]
    fn subset_mean_latency() {
        let mut m = MetricsRecorder::new(3);
        m.record(CacheId(0), 10.0, ServedBy::Local);
        m.record(CacheId(1), 20.0, ServedBy::Local);
        m.record(CacheId(2), 90.0, ServedBy::Origin);
        assert_eq!(m.mean_latency_of(&[CacheId(0), CacheId(1)]), Some(15.0));
        assert_eq!(m.mean_latency_of(&[]), None);
    }

    #[test]
    fn rates_and_empty_behaviour() {
        let m = MetricsRecorder::new(1);
        assert_eq!(m.mean_latency_ms(), None);
        assert_eq!(m.group_hit_rate(), None);
        assert_eq!(m.per_cache()[0].group_hit_rate(), None);

        let mut m = m;
        m.record(CacheId(0), 5.0, ServedBy::Local);
        m.record(CacheId(0), 5.0, ServedBy::Peer);
        m.record(CacheId(0), 5.0, ServedBy::Origin);
        m.record(CacheId(0), 5.0, ServedBy::Origin);
        assert_eq!(m.group_hit_rate(), Some(0.5));
        assert_eq!(m.per_cache()[0].group_hit_rate(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn negative_latency_panics() {
        let mut m = MetricsRecorder::new(1);
        m.record(CacheId(0), -1.0, ServedBy::Local);
    }

    #[test]
    fn degradation_splits_healthy_and_degraded() {
        let mut d = DegradationMetrics::default();
        d.record(1_000.0, 5.0, true, false, false);
        d.record(15_000.0, 40.0, false, true, true);
        d.record(16_000.0, 60.0, false, false, true);
        assert_eq!(d.healthy.requests, 1);
        assert_eq!(d.degraded.requests, 2);
        assert_eq!(d.healthy.mean_latency_ms(), Some(5.0));
        assert_eq!(d.degraded.mean_latency_ms(), Some(50.0));
        assert_eq!(d.degraded.latency_max_ms, 60.0);
        assert_eq!(d.degraded.stale_served, 1);
        assert_eq!(d.healthy.group_hit_rate(), Some(1.0));
        assert_eq!(d.degraded.group_hit_rate(), Some(0.0));
        assert_eq!(d.degraded_fraction(), Some(2.0 / 3.0));
        assert_eq!(d.degradation_penalty_ms(), Some(45.0));
    }

    #[test]
    fn degradation_timeline_buckets_by_time() {
        let mut d = DegradationMetrics::default();
        d.record(1_000.0, 1.0, true, false, false);
        d.record(25_000.0, 2.0, false, false, true);
        let tl = d.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].start_ms, 0.0);
        assert_eq!(tl[1].start_ms, 10_000.0);
        assert_eq!(tl[0].healthy.requests, 1);
        assert_eq!(tl[1].healthy.requests + tl[1].degraded.requests, 0);
        assert_eq!(tl[2].degraded.requests, 1);
    }

    #[test]
    fn degradation_empty_behaviour() {
        let d = DegradationMetrics::default();
        assert_eq!(d.degraded_fraction(), None);
        assert_eq!(d.degradation_penalty_ms(), None);
        assert!(!d.saw_faults());
        assert!(d.timeline().is_empty());
        assert_eq!(d.bucket_width_ms(), 10_000.0);
    }

    #[test]
    fn saw_faults_flags_fault_activity() {
        let mut d = DegradationMetrics::default();
        d.crashes += 1;
        assert!(d.saw_faults());
        let mut d = DegradationMetrics::default();
        d.record(0.0, 1.0, false, false, true);
        assert!(d.saw_faults());
    }

    #[test]
    fn degradation_merge_folds_overall_and_timeline() {
        let mut a = DegradationMetrics::default();
        a.record(1_000.0, 5.0, true, false, false);
        a.failovers += 1;
        let mut b = DegradationMetrics::default();
        b.record(25_000.0, 40.0, false, true, true);
        b.crashes += 1;
        let mut merged = DegradationMetrics::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.healthy.requests, 1);
        assert_eq!(merged.degraded.requests, 1);
        assert_eq!(merged.failovers, 1);
        assert_eq!(merged.crashes, 1);
        assert_eq!(merged.degraded.stale_served, 1);
        let tl = merged.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].healthy.requests, 1);
        assert_eq!(tl[1].start_ms, 10_000.0);
        assert_eq!(tl[2].degraded.requests, 1);
        // Fold order equals record order here, so the sums are exact.
        assert_eq!(merged.healthy.latency_sum_ms.to_bits(), 5.0f64.to_bits());
        assert_eq!(merged.degraded.latency_sum_ms.to_bits(), 40.0f64.to_bits());
    }

    #[test]
    fn merge_shard_scatters_local_rows_to_members() {
        // Shard over global caches {3, 1}: local 0 -> 3, local 1 -> 1.
        let mut shard = MetricsRecorder::new(2);
        shard.record(CacheId(0), 10.0, ServedBy::Local);
        shard.record(CacheId(1), 30.0, ServedBy::Peer);
        shard.peer_bytes = 7;
        shard.control_messages = 4;
        shard.degradation.record(5.0, 10.0, true, false, false);

        let mut merged = MetricsRecorder::new(4);
        merged.merge_shard(&[CacheId(3), CacheId(1)], &shard);
        assert_eq!(merged.per_cache()[3].requests, 1);
        assert_eq!(merged.per_cache()[3].local_hits, 1);
        assert_eq!(merged.per_cache()[1].peer_hits, 1);
        assert_eq!(merged.per_cache()[0].requests, 0);
        assert_eq!(merged.peer_bytes, 7);
        assert_eq!(merged.control_messages, 4);
        assert_eq!(merged.total_requests(), 2);
        assert_eq!(merged.latency_histogram().count(), 2);
        assert_eq!(merged.degradation.healthy.requests, 1);
        // The scatter is exact: 0.0 + x == x.
        assert_eq!(
            merged.per_cache()[1].latency_sum_ms.to_bits(),
            30.0f64.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "members were given")]
    fn merge_shard_rejects_wrong_member_count() {
        let shard = MetricsRecorder::new(2);
        let mut merged = MetricsRecorder::new(4);
        merged.merge_shard(&[CacheId(0)], &shard);
    }

    #[test]
    fn a_reset_recorder_is_a_new_one() {
        let mut used = MetricsRecorder::new(5);
        used.record(CacheId(4), 12.0, ServedBy::Peer);
        used.record(CacheId(0), 3.0, ServedBy::Origin);
        used.peer_bytes = 7;
        used.remote_placements = 2;
        used.degradation.record(45_000.0, 3.0, true, false, true);
        used.degradation.crashes = 1;
        // Shrunk and grown: as new every time.
        for caches in [3, 8] {
            used.reset(caches);
            assert_eq!(used, MetricsRecorder::new(caches));
        }
    }

    #[test]
    #[should_panic(expected = "time")]
    fn negative_record_time_panics() {
        let mut d = DegradationMetrics::default();
        d.record(-1.0, 1.0, false, false, false);
    }
}
