//! Streamed shard construction: derived-seed request regeneration.
//!
//! The streamed path never materializes the global trace. A shard
//! rebuilds exactly its members' arrivals from the workload's master
//! seed ([`ecg_workload::RequestConfig::stream_cache`] is a pure
//! function of `(master, cache)`), k-way-merges the member streams with
//! the shared update log, and reads its sub-topology straight from the
//! [`RttSource`] oracle. Peak memory is therefore bounded by the events
//! of the shards in flight, not by `N × requests`.
//!
//! ## Ordering contract
//!
//! The eager equivalent ([`StreamedWorkload::materialize_trace`])
//! concatenates per-cache streams in cache order, stable-sorts by time,
//! and merges updates before requests at equal instants. The k-way
//! merge reproduces that exactly: requests order by `(time, global
//! cache id)` — each per-cache stream is already time-ordered, so
//! ascending-cache tie-breaking equals the stable sort — and an update
//! at time `t` precedes any request at `t`.

use ecg_sim::{FaultSchedule, GroupMap, SimError, SimTime};
use ecg_topology::{CacheId, EdgeNetwork, RttMatrix, RttSource};
use ecg_workload::{
    merge_streams, DocumentCatalog, Request, RequestConfig, TraceEvent, Update, ZipfSampler,
};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A replay workload defined by generation parameters instead of a
/// materialized trace: per-cache Poisson request streams regenerated
/// from `master` on demand, plus a shared (small) origin update log.
///
/// # Examples
///
/// ```
/// use ecg_replay::StreamedWorkload;
/// use ecg_workload::RequestConfig;
///
/// let workload =
///     StreamedWorkload::new(RequestConfig::default(), 42, 60_000.0);
/// assert_eq!(workload.master(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedWorkload<'a> {
    requests: RequestConfig,
    master: u64,
    duration_ms: f64,
    updates: &'a [Update],
}

impl<'a> StreamedWorkload<'a> {
    /// A workload of `duration_ms` per-cache request streams derived
    /// from `master`, with no origin updates.
    ///
    /// # Panics
    ///
    /// Panics if `duration_ms` is negative or not finite.
    pub fn new(requests: RequestConfig, master: u64, duration_ms: f64) -> Self {
        assert!(
            duration_ms.is_finite() && duration_ms >= 0.0,
            "duration must be finite and non-negative"
        );
        StreamedWorkload {
            requests,
            master,
            duration_ms,
            updates: &[],
        }
    }

    /// Attaches the origin update log (time-sorted, as produced by
    /// [`ecg_workload::generate_updates`]). The log is shared by every
    /// shard — this is the update-boundary synchronization that keeps
    /// shard origins in lockstep.
    pub fn updates(mut self, updates: &'a [Update]) -> Self {
        self.updates = updates;
        self
    }

    /// The per-cache request generation parameters.
    pub fn request_config(&self) -> &RequestConfig {
        &self.requests
    }

    /// The master seed every per-cache stream derives from.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The workload horizon in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.duration_ms
    }

    /// The shared origin update log.
    pub fn update_log(&self) -> &'a [Update] {
        self.updates
    }

    /// The Zipf exponent shards build their shared sampler with.
    pub(crate) fn zipf_exponent(&self) -> f64 {
        self.requests.zipf_exponent_value()
    }

    /// Materializes the monolithic trace this workload describes —
    /// [`ecg_workload::RequestConfig::generate_with_master`] merged with
    /// the update log. [`crate::replay_streamed`] over `caches` caches
    /// is bit-identical to the monolithic simulator over this trace;
    /// only tests, verification harnesses, and small-N tooling should
    /// call it (it allocates the whole trace the streamed path exists to
    /// avoid).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or `caches == 0`.
    pub fn materialize_trace(&self, catalog: &DocumentCatalog, caches: usize) -> Vec<TraceEvent> {
        let requests =
            self.requests
                .generate_with_master(catalog, caches, self.duration_ms, self.master);
        merge_streams(&requests, self.updates)
    }
}

/// Mirrors the monolithic validation for a streamed input: group map
/// against the oracle's cache count, fault schedule, update-log
/// document references and timestamps (requests are in range and
/// finite by construction). An [`SimError::EventTimeInvalid`] index is
/// a position in the update log, the only event list this input has.
pub(crate) fn validate(
    cache_count: usize,
    groups: &GroupMap,
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
    schedule: &FaultSchedule,
) -> Result<(), SimError> {
    if groups.cache_count() != cache_count {
        return Err(SimError::CacheCountMismatch {
            network: cache_count,
            groups: groups.cache_count(),
        });
    }
    schedule.validate(cache_count)?;
    for (index, u) in workload.update_log().iter().enumerate() {
        if u.doc.index() >= catalog.len() {
            return Err(SimError::DocOutOfRange { doc: u.doc.index() });
        }
        if SimTime::try_from_ms(u.time_ms).is_none() {
            return Err(SimError::EventTimeInvalid { index });
        }
    }
    Ok(())
}

/// The shard's edge network read directly from the oracle: node 0 is
/// the origin, node `i + 1` is cache `i`, exactly the values a full
/// materialization plus [`RttMatrix::submatrix`] would produce.
pub(crate) fn member_network(rtt: &dyn RttSource, members: &[CacheId]) -> EdgeNetwork {
    let mut nodes = Vec::with_capacity(members.len() + 1);
    nodes.push(0usize);
    nodes.extend(members.iter().map(|m| m.index() + 1));
    EdgeNetwork::from_rtt_matrix(RttMatrix::from_fn(nodes.len(), |a, b| {
        rtt.rtt_ms(nodes[a], nodes[b])
    }))
}

/// A member stream's next pending arrival, ordered for the min-heap by
/// `(time, global cache id)`. Times are finite by construction (the
/// generators reject non-finite inputs), so the total order is safe.
struct Head {
    time_ms: f64,
    global_cache: usize,
    slot: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest
        // (time, cache) pair first.
        other
            .time_ms
            .partial_cmp(&self.time_ms)
            .expect("stream times are finite")
            .then(other.global_cache.cmp(&self.global_cache))
    }
}

/// Builds group `g`'s sub-trace by regenerating its members' streams
/// and k-way-merging them with the shared update log. Requests are
/// localized (local id = position in the member list); updates precede
/// requests at equal instants, as in [`merge_streams`].
pub(crate) fn member_subtrace(
    workload: &StreamedWorkload<'_>,
    zipf: &ZipfSampler,
    members: &[CacheId],
) -> Vec<TraceEvent> {
    let cfg = workload.request_config();
    let mut streams: Vec<_> = members
        .iter()
        .map(|m| cfg.stream_cache(zipf, m.index(), workload.master(), workload.duration_ms()))
        .collect();
    let mut pending: Vec<Option<Request>> = Vec::with_capacity(members.len());
    let mut heap = BinaryHeap::with_capacity(members.len());
    for (slot, stream) in streams.iter_mut().enumerate() {
        let head = stream.next();
        if let Some(r) = &head {
            heap.push(Head {
                time_ms: r.time_ms,
                global_cache: members[slot].index(),
                slot,
            });
        }
        pending.push(head);
    }

    let updates = workload.update_log();
    let mut out = Vec::new();
    let mut ui = 0usize;
    while let Some(next) = heap.pop() {
        // Updates at or before this arrival fire first (ties go to the
        // update, matching `merge_streams`).
        while ui < updates.len() && updates[ui].time_ms <= next.time_ms {
            out.push(TraceEvent::Update(updates[ui]));
            ui += 1;
        }
        let r = pending[next.slot]
            .take()
            .expect("heap entries track pending arrivals");
        out.push(TraceEvent::Request(Request {
            cache: next.slot,
            ..r
        }));
        let head = streams[next.slot].next();
        if let Some(nr) = &head {
            heap.push(Head {
                time_ms: nr.time_ms,
                global_cache: members[next.slot].index(),
                slot: next.slot,
            });
        }
        pending[next.slot] = head;
    }
    while ui < updates.len() {
        out.push(TraceEvent::Update(updates[ui]));
        ui += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_topology::SyntheticRttConfig;
    use ecg_workload::{CatalogConfig, DocId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(n: usize) -> DocumentCatalog {
        CatalogConfig::default()
            .documents(n)
            .generate(&mut StdRng::seed_from_u64(3))
    }

    #[test]
    fn member_subtrace_is_the_materialized_subsequence() {
        let cat = catalog(150);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(5.0);
        let updates = vec![
            Update {
                time_ms: 1_000.0,
                doc: DocId(4),
            },
            Update {
                time_ms: 7_500.0,
                doc: DocId(9),
            },
        ];
        let workload = StreamedWorkload::new(cfg, 99, 12_000.0).updates(&updates);
        let full = workload.materialize_trace(&cat, 8);
        let zipf = ZipfSampler::new(cat.len(), cfg.zipf_exponent_value());
        let members = [CacheId(6), CacheId(1), CacheId(3)];
        let sub = member_subtrace(&workload, &zipf, &members);

        // Expected: the full trace restricted to member requests
        // (localized) plus all updates, in order.
        let mut expected = Vec::new();
        for event in &full {
            match event {
                TraceEvent::Request(r) => {
                    if let Some(local) = members.iter().position(|m| m.index() == r.cache) {
                        expected.push(TraceEvent::Request(Request { cache: local, ..*r }));
                    }
                }
                TraceEvent::Update(u) => expected.push(TraceEvent::Update(*u)),
            }
        }
        assert_eq!(sub, expected);
        assert!(!sub.is_empty());
    }

    #[test]
    fn member_network_matches_materialized_submatrix() {
        let rtt = SyntheticRttConfig::default().generate(9, 5);
        let full = RttMatrix::from_fn(9, |a, b| rtt.rtt_ms(a, b));
        let members = [CacheId(5), CacheId(0), CacheId(7)];
        let via_oracle = member_network(&rtt, &members);
        let via_matrix = EdgeNetwork::from_rtt_matrix(full.submatrix(&[0, 6, 1, 8]));
        assert_eq!(via_oracle, via_matrix);
    }

    #[test]
    fn trailing_updates_survive_the_merge() {
        let cat = catalog(20);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(1.0);
        let updates = vec![Update {
            time_ms: 900_000.0,
            doc: DocId(1),
        }];
        let workload = StreamedWorkload::new(cfg, 7, 1_000.0).updates(&updates);
        let zipf = ZipfSampler::new(cat.len(), cfg.zipf_exponent_value());
        let sub = member_subtrace(&workload, &zipf, &[CacheId(0)]);
        assert_eq!(
            sub.last(),
            Some(&TraceEvent::Update(updates[0])),
            "update after the last request must still be delivered"
        );
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn negative_duration_panics() {
        let _ = StreamedWorkload::new(RequestConfig::default(), 1, -1.0);
    }
}
