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
///
/// The model has one setting: 10 Mbit/s effective per-transfer
/// bandwidth (1 250 bytes/ms), a 0.2 ms local-hit cost, 2 ms of origin
/// processing (dynamic pages are generated, not just read), 0.05 ms
/// of per-peer query fan-out cost, which makes *group interaction cost*
/// grow with group size: every local miss pays `peers × cost` before
/// any reply can resolve it, and a 3 ms penalty for a client to detect
/// that its home cache is down before it fails over to the origin.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyModel;

const BANDWIDTH_BYTES_PER_MS: f64 = 1_250.0;
const LOCAL_HIT_MS: f64 = 0.2;
const ORIGIN_PROCESSING_MS: f64 = 2.0;
const PEER_QUERY_COST_MS: f64 = 0.05;
const FAILOVER_PENALTY_MS: f64 = 3.0;

impl LatencyModel {
    /// Latency of serving a request from the local cache.
    pub fn local_hit(&self) -> f64 {
        LOCAL_HIT_MS
    }

    /// Extra latency a client pays to detect that its home cache is
    /// down before it falls back to the origin.
    pub fn failover_penalty(&self) -> f64 {
        FAILOVER_PENALTY_MS
    }

    /// Cost of fanning a query out to `peer_count` group members.
    pub fn query_fanout(&self, peer_count: usize) -> f64 {
        PEER_QUERY_COST_MS * peer_count as f64
    }

    /// Latency of transferring `size_bytes` over a link with the given
    /// RTT: one RTT of protocol overhead plus serialization time.
    pub fn transfer(&self, rtt_ms: f64, size_bytes: u64) -> f64 {
        rtt_ms + size_bytes as f64 / BANDWIDTH_BYTES_PER_MS
    }

    /// Latency of fetching `size_bytes` from the origin server over the
    /// given RTT, including origin processing.
    pub fn origin_fetch(&self, rtt_ms: f64, size_bytes: u64) -> f64 {
        ORIGIN_PROCESSING_MS + self.transfer(rtt_ms, size_bytes)
    }

    /// The paper's pairwise *interaction cost*: transferring an
    /// average-sized document between two caches with the given RTT.
    pub fn interaction_cost(&self, rtt_ms: f64, avg_doc_bytes: f64) -> f64 {
        rtt_ms + avg_doc_bytes / BANDWIDTH_BYTES_PER_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_adds_serialization_time() {
        let m = LatencyModel; // 1250 B/ms
        assert!((m.transfer(10.0, 5_000) - 14.0).abs() < 1e-9);
    }

    #[test]
    fn origin_fetch_includes_processing() {
        let m = LatencyModel;
        assert!((m.origin_fetch(10.0, 1_250) - 13.0).abs() < 1e-9);
    }

    #[test]
    fn interaction_cost_grows_with_rtt_and_size() {
        let m = LatencyModel;
        assert!(m.interaction_cost(20.0, 8_192.0) > m.interaction_cost(10.0, 8_192.0));
        assert!(m.interaction_cost(10.0, 80_000.0) > m.interaction_cost(10.0, 8_192.0));
    }

    #[test]
    fn bandwidth_mbps_converts_correctly() {
        // 10 Mbit/s = 10_000_000 bits/s = 1_250_000 bytes/s = 1250 B/ms.
        let m = LatencyModel;
        assert!((m.transfer(0.1, 1_250) - 1.1).abs() < 1e-9);
    }
}
