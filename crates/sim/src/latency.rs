//! The network latency model.
//!
//! The simulator charges each protocol step analytically from the
//! ground-truth RTT matrix:
//!
//! * a control round trip (ICP query + reply) costs one RTT;
//! * a document transfer costs one RTT (request + first byte) plus the
//!   serialization time `size / bandwidth`.
//!
//! This matches the paper's definition of interaction cost — "the cost of
//! transferring an average sized document between edge caches" — as a
//! latency that grows with both network distance and document size.

/// Link bandwidth model used for document transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    bandwidth_bytes_per_ms: f64,
    local_hit_ms: f64,
    origin_processing_ms: f64,
    peer_query_cost_ms: f64,
}

impl Default for LatencyModel {
    /// 10 Mbit/s effective per-transfer bandwidth (1 250 bytes/ms), a
    /// 0.2 ms local-hit cost, 2 ms of origin processing (dynamic pages
    /// are generated, not just read), and 0.05 ms of per-peer query
    /// fan-out cost.
    fn default() -> Self {
        LatencyModel {
            bandwidth_bytes_per_ms: 1_250.0,
            local_hit_ms: 0.2,
            origin_processing_ms: 2.0,
            peer_query_cost_ms: 0.05,
        }
    }
}

impl LatencyModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the effective transfer bandwidth in Mbit/s.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not finite and positive.
    pub fn bandwidth_mbps(mut self, mbps: f64) -> Self {
        assert!(mbps.is_finite() && mbps > 0.0, "bandwidth must be positive");
        self.bandwidth_bytes_per_ms = mbps * 1_000_000.0 / 8.0 / 1_000.0;
        self
    }

    /// Sets the latency charged for a local cache hit.
    pub fn local_hit_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "latency must be >= 0");
        self.local_hit_ms = ms;
        self
    }

    /// Sets the server-side processing time added to origin fetches.
    pub fn origin_processing_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "latency must be >= 0");
        self.origin_processing_ms = ms;
        self
    }

    /// Sets the per-peer cost of fanning a cooperative query out to the
    /// group (serialization + protocol processing per member).
    ///
    /// This is the knob that makes *group interaction cost* grow with
    /// group size: every local miss pays `peers × cost` before any
    /// reply can resolve it. Set it to `0` to model free fan-out.
    pub fn peer_query_cost_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "latency must be >= 0");
        self.peer_query_cost_ms = ms;
        self
    }

    /// Latency of serving a request from the local cache.
    pub fn local_hit(&self) -> f64 {
        self.local_hit_ms
    }

    /// Cost of fanning a query out to `peer_count` group members.
    pub fn query_fanout(&self, peer_count: usize) -> f64 {
        self.peer_query_cost_ms * peer_count as f64
    }

    /// Latency of transferring `size_bytes` over a link with the given
    /// RTT: one RTT of protocol overhead plus serialization time.
    pub fn transfer(&self, rtt_ms: f64, size_bytes: u64) -> f64 {
        rtt_ms + size_bytes as f64 / self.bandwidth_bytes_per_ms
    }

    /// Latency of fetching `size_bytes` from the origin server over the
    /// given RTT, including origin processing.
    pub fn origin_fetch(&self, rtt_ms: f64, size_bytes: u64) -> f64 {
        self.origin_processing_ms + self.transfer(rtt_ms, size_bytes)
    }

    /// The paper's pairwise *interaction cost*: transferring an
    /// average-sized document between two caches with the given RTT.
    pub fn interaction_cost(&self, rtt_ms: f64, avg_doc_bytes: f64) -> f64 {
        rtt_ms + avg_doc_bytes / self.bandwidth_bytes_per_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_adds_serialization_time() {
        let m = LatencyModel::default().bandwidth_mbps(8.0); // 1000 B/ms
        assert!((m.transfer(10.0, 5_000) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn origin_fetch_includes_processing() {
        let m = LatencyModel::default()
            .bandwidth_mbps(8.0)
            .origin_processing_ms(3.0);
        assert!((m.origin_fetch(10.0, 1_000) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn interaction_cost_grows_with_rtt_and_size() {
        let m = LatencyModel::default();
        assert!(m.interaction_cost(20.0, 8_192.0) > m.interaction_cost(10.0, 8_192.0));
        assert!(m.interaction_cost(10.0, 80_000.0) > m.interaction_cost(10.0, 8_192.0));
    }

    #[test]
    fn bandwidth_mbps_converts_correctly() {
        // 10 Mbit/s = 10_000_000 bits/s = 1_250_000 bytes/s = 1250 B/ms.
        let m = LatencyModel::default().bandwidth_mbps(10.0);
        assert!((m.transfer(0.1, 1_250) - 1.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = LatencyModel::default().bandwidth_mbps(0.0);
    }
}
