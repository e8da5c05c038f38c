//! The streamed trace source: derived-seed request regeneration.
//!
//! A streamed run never materializes the global trace. A group's shard
//! rebuilds exactly its members' arrivals from the workload's master
//! seed ([`ecg_workload::RequestConfig::stream_cache`] is a pure
//! function of `(master, cache)`), orders them, and interleaves the
//! shared update log. Peak memory is therefore bounded by the events of
//! the shards in flight, not by `N × requests`.
//!
//! ## Ordering contract
//!
//! The eager equivalent ([`StreamedWorkload::materialize_trace`])
//! concatenates the per-cache streams in ascending cache order,
//! stable-sorts by time, and merges updates before requests at equal
//! instants. A shard reproduces the restriction of that sequence to its
//! members:
//!
//! * **Sort key.** Requests order by `(time, global cache id)`. The
//!   eager sort compares times only, but it is stable over a
//!   concatenation in ascending cache order, so among equal times the
//!   lower cache id comes first — the key's second component — and two
//!   arrivals of one cache at one instant keep their stream order.
//! * **Why a stable sort over concatenated runs suffices.** The shard
//!   concatenates its members' streams in *member-list* order, which
//!   need not ascend. That only permutes whole runs; the key above is
//!   total across different caches, and within one cache each stream is
//!   already time-sorted and sits in one run, where stability keeps it
//!   in stream order. So the result is the unique `(time, cache,
//!   stream position)` order whatever the run order was — the same
//!   order the eager concatenate-then-stable-sort yields on those
//!   caches. The standard stable sort is run-adaptive, so `g` long
//!   presorted runs cost about `events · log g` comparisons rather
//!   than a full sort's `events · log events`.
//! * **Why ties go to the lower global id**, not the lower local id:
//!   local ids are positions in the member list, which formation may
//!   emit in any order, while the materialized trace knows only global
//!   ids. Requests are localized before the sort (the simulator wants
//!   local ids), so the tie-break maps back through `members`.
//! * **Updates first.** An update at time `t` precedes any request at
//!   `t`, exactly as [`merge_streams`] interleaves the eager trace —
//!   the shard calls the same function.

use crate::fault::FaultSchedule;
use crate::sim::SimError;
use crate::time::SimTime;
use ecg_topology::CacheId;
use ecg_workload::{
    merge_streams, DocumentCatalog, Request, RequestConfig, TraceEvent, Update, ZipfSampler,
};

/// A workload defined by generation parameters instead of a
/// materialized trace: per-cache Poisson request streams regenerated
/// from `master` on demand, plus a shared (small) origin update log.
/// [`crate::SimPlan::streamed`] runs one.
///
/// # Examples
///
/// ```
/// use ecg_sim::StreamedWorkload;
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

    /// Materializes the global trace this workload describes —
    /// [`ecg_workload::RequestConfig::generate_with_master`] merged with
    /// the update log. A run of [`crate::SimPlan::streamed`] over
    /// `caches` caches is bit-identical to one of
    /// [`crate::SimPlan::new`] over this trace; only tests, verification harnesses, and small-N tooling should
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

/// What a streamed input adds to the map and schedule checks every run
/// makes first: a catalog to draw requests from, and update-log
/// document references and timestamps (requests are in range and finite
/// by construction) and, like every timestamp of a run, before the
/// horizon of `schedule`. An event index in the error is a position in
/// the update log, the only event list this input has — or the log's
/// length, when it is the generated requests that would cross the
/// horizon (the workload's duration reaches past it).
pub(crate) fn validate(
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
    schedule: &FaultSchedule,
) -> Result<(), SimError> {
    if catalog.is_empty() {
        return Err(SimError::EmptyCatalog);
    }
    let horizon = schedule.horizon();
    for (index, u) in workload.update_log().iter().enumerate() {
        if u.doc.index() >= catalog.len() {
            return Err(SimError::DocOutOfRange { doc: u.doc.index() });
        }
        let at = SimTime::try_from_ms(u.time_ms).ok_or(SimError::EventTimeInvalid { index })?;
        if at >= horizon {
            return Err(SimError::EventTimeBeyondHorizon { index });
        }
    }
    if SimTime::from_ms(workload.duration_ms()) >= horizon {
        let index = workload.update_log().len();
        return Err(SimError::EventTimeBeyondHorizon { index });
    }
    Ok(())
}

/// Builds a group's sub-trace: its members' regenerated streams, drained
/// in member-list order into one buffer, ordered per the module's
/// ordering contract, then interleaved with the shared update log.
/// Requests are localized (local id = position in the member list).
pub(crate) fn member_subtrace(
    workload: &StreamedWorkload<'_>,
    zipf: &ZipfSampler,
    members: &[CacheId],
) -> Vec<TraceEvent> {
    let cfg = workload.request_config();
    let expected = cfg.expected_requests(members.len(), workload.duration_ms());
    let mut requests: Vec<Request> = Vec::with_capacity(expected as usize);
    for (local, m) in members.iter().enumerate() {
        let stream = cfg.stream_cache(zipf, m.index(), workload.master(), workload.duration_ms());
        requests.extend(stream.map(|r| Request { cache: local, ..r }));
    }
    sort_requests(&mut requests, members);
    merge_streams(&requests, workload.update_log())
}

/// Orders localized requests by `(time, global cache id)`, stably.
fn sort_requests(requests: &mut [Request], members: &[CacheId]) {
    requests.sort_by(|a, b| {
        a.time_ms
            .partial_cmp(&b.time_ms)
            .expect("stream times are finite")
            .then_with(|| members[a.cache].cmp(&members[b.cache]))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_workload::{CatalogConfig, DocId, RateModulation};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn catalog(n: usize) -> DocumentCatalog {
        CatalogConfig::default()
            .documents(n)
            .generate(&mut StdRng::seed_from_u64(3))
    }

    /// The materialized trace restricted to `members`' requests
    /// (localized) plus all updates, in trace order.
    fn filtered(full: &[TraceEvent], members: &[CacheId]) -> Vec<TraceEvent> {
        full.iter()
            .filter_map(|event| match event {
                TraceEvent::Request(r) => members
                    .iter()
                    .position(|m| m.index() == r.cache)
                    .map(|local| TraceEvent::Request(Request { cache: local, ..*r })),
                TraceEvent::Update(u) => Some(TraceEvent::Update(*u)),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn member_subtrace_is_the_materialized_subsequence(
            seed in any::<u64>(),
            caches in 1usize..14,
            rate in 0.1f64..20.0,
            flash in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cat = catalog(150);
            let duration_ms = 3_000.0;
            let mut cfg = RequestConfig::default().rate_per_sec_per_cache(rate);
            if flash {
                cfg = cfg.modulation(RateModulation::FlashCrowd {
                    start_ms: 500.0,
                    end_ms: 1_200.0,
                    multiplier: 6.0,
                });
            }
            let master: u64 = rng.gen();
            let zipf = ZipfSampler::new(cat.len(), cfg.zipf_exponent_value());

            // A random member subset in arbitrary (non-ascending) order.
            let mut members: Vec<CacheId> = (0..caches).map(CacheId).collect();
            for i in (1..caches).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            members.truncate(rng.gen_range(1..=caches));

            // Update instants: some arbitrary, some landing exactly on a
            // request instant (of a member or not), where the update
            // must come first.
            let requests = cfg.generate_with_master(&cat, caches, duration_ms, master);
            let mut updates: Vec<Update> = (0..rng.gen_range(0..6))
                .map(|_| Update {
                    time_ms: rng.gen_range(0.0..duration_ms * 1.2),
                    doc: DocId(rng.gen_range(0..cat.len())),
                })
                .collect();
            if !requests.is_empty() {
                for _ in 0..rng.gen_range(0..4) {
                    updates.push(Update {
                        time_ms: requests[rng.gen_range(0..requests.len())].time_ms,
                        doc: DocId(rng.gen_range(0..cat.len())),
                    });
                }
            }
            updates.sort_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).expect("finite"));

            let workload = StreamedWorkload::new(cfg, master, duration_ms).updates(&updates);
            let full = workload.materialize_trace(&cat, caches);
            let sub = member_subtrace(&workload, &zipf, &members);
            prop_assert_eq!(sub, filtered(&full, &members));
        }
    }

    #[test]
    fn simultaneous_arrivals_order_by_global_id_not_member_position() {
        // No seed makes two Poisson streams collide, so the tie-break is
        // exercised on its own: the comparator `member_subtrace` sorts
        // with, over hand-made equal instants.
        let members = [CacheId(6), CacheId(1), CacheId(3)];
        let at = |time_ms: f64, local: usize| Request {
            time_ms,
            cache: local,
            doc: DocId(local),
        };
        // Member-list order, as the drained buffer would hold them.
        let mut requests = vec![at(5.0, 0), at(9.0, 0), at(5.0, 1), at(5.0, 2), at(7.0, 2)];
        sort_requests(&mut requests, &members);
        let order: Vec<(f64, usize)> = requests.iter().map(|r| (r.time_ms, r.cache)).collect();
        // At t = 5: global 1 (local 1), then 3 (local 2), then 6 (local 0).
        assert_eq!(order, [(5.0, 1), (5.0, 2), (5.0, 0), (7.0, 2), (9.0, 0)]);
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
