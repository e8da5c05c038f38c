//! The streamed trace source: derived-seed request regeneration.
//!
//! A streamed run never materializes the global trace. A group's shard
//! rebuilds exactly its members' arrivals from the workload's master
//! seed ([`ecg_workload::RequestConfig::stream_cache`] is a pure
//! function of `(master, cache)`) and orders them into the request lane
//! of its walk; the update lane is the run's one copy of the shared
//! log ([`crate::event::log_records`]). The requests a run holds at once
//! are therefore those of the groups running — one group per thread —
//! not `N × requests`.
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
//! * **Why any stable order by that key suffices.** The shard drains
//!   its members' streams in *member-list* order, which need not
//!   ascend. That only permutes whole runs; the key above is total
//!   across different caches, and within one cache each stream is
//!   already time-sorted and sits in one run, where stability keeps it
//!   in stream order. So the result is the unique `(time, cache,
//!   stream position)` order whatever the run order was — the same
//!   order the eager concatenate-then-stable-sort yields on those
//!   caches.
//! * **A bucketed pass, not a comparison sort.** The `R` requests are
//!   counted into `⌈R / 2⌉` buckets over `[0, duration)` — the bucket
//!   index is monotone in time, so equal times share a bucket and a
//!   later bucket holds only later times — scattered in input order,
//!   and each bucket is ordered by the exact key with a stable
//!   insertion. A bucket of Poisson arrivals holds about two requests,
//!   so the pass is linear; one fuller than [`INSERTION_MAX`] (a flash
//!   crowd squeezed into one instant) takes the stable sort instead,
//!   so the worst case stays `R log R`.
//! * **Why ties go to the lower global id**, not the lower local id:
//!   local ids are positions in the member list, which formation may
//!   emit in any order, while the materialized trace knows only global
//!   ids. Requests are localized before they are ordered (the simulator
//!   wants local ids), so the tie-break maps back through `members`.
//! * **Updates first.** An update at time `t` precedes any request at
//!   `t`, exactly as [`ecg_workload::merge_streams`] interleaves the
//!   eager trace: a request's key is its time, an update's the running
//!   maximum of the log's times up to it, and the walk takes the update
//!   at equal keys — the merge's decision at every step, whatever the
//!   log's order.
//!
//! A shard orders its requests in buffers its worker keeps across
//! groups ([`RequestBuffers`]), so a warm worker allocates nothing for
//! them, and no group holds a copy of the log.

use crate::event::{time_key, Record};
use crate::fault::HORIZON;
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
    /// [`ecg_workload::generate_updates`]; an unsorted log replays like
    /// the trace [`StreamedWorkload::materialize_trace`] merges it into).
    /// The log is shared by every shard — this is the update-boundary
    /// synchronization that keeps shard origins in lockstep.
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
/// by construction) and, like every timestamp of a run, before the run
/// horizon ([`HORIZON`]). An event index in the error is a position in
/// the update log, the only event list this input has — or the log's
/// length, when it is the generated requests that would cross the
/// horizon (the workload's duration reaches past it).
pub(crate) fn validate(
    catalog: &DocumentCatalog,
    workload: &StreamedWorkload<'_>,
) -> Result<(), SimError> {
    if catalog.is_empty() {
        return Err(SimError::EmptyCatalog);
    }
    for (index, u) in workload.update_log().iter().enumerate() {
        if u.doc.index() >= catalog.len() {
            return Err(SimError::DocOutOfRange { doc: u.doc.index() });
        }
        let at = SimTime::try_from_ms(u.time_ms).ok_or(SimError::EventTimeInvalid { index })?;
        if at >= HORIZON {
            return Err(SimError::EventTimeBeyondHorizon { index });
        }
    }
    if SimTime::from_ms(workload.duration_ms()) >= HORIZON {
        let index = workload.update_log().len();
        return Err(SimError::EventTimeBeyondHorizon { index });
    }
    Ok(())
}

/// The buffers a group's requests are ordered in. A worker keeps one
/// set across the groups it runs; each group clears and refills them.
#[derive(Debug, Default)]
pub(crate) struct RequestBuffers {
    /// The members' streams, drained in member-list order.
    drained: Vec<Request>,
    /// Bucket boundaries of [`order_requests`].
    buckets: Vec<u32>,
    /// The request lane.
    ordered: Vec<Record>,
}

/// A group's request lane, built in `buffers`: its members' regenerated
/// streams, drained in member-list order and ordered per the module's
/// ordering contract, as records under local ids (position in the
/// member list) keyed by [`time_key`]. Every request is valid by
/// construction once [`validate`] has passed.
pub(crate) fn member_requests<'b>(
    workload: &StreamedWorkload<'_>,
    zipf: &ZipfSampler,
    members: &[CacheId],
    buffers: &'b mut RequestBuffers,
) -> &'b [Record] {
    let cfg = workload.request_config();
    let duration_ms = workload.duration_ms();
    let drained = &mut buffers.drained;
    drained.clear();
    for (local, m) in members.iter().enumerate() {
        let stream = cfg.stream_cache(zipf, m.index(), workload.master(), duration_ms);
        drained.extend(stream.map(|r| Request { cache: local, ..r }));
    }
    let ordered = &mut buffers.ordered;
    order_requests(drained, members, duration_ms, &mut buffers.buckets, ordered);
    ordered
}

/// Most requests one bucket of [`order_requests`] orders by insertion;
/// a fuller bucket takes the stable sort, so a burst of arrivals in
/// one bucket costs `n log n`, not `n²`.
const INSERTION_MAX: usize = 32;

/// `requests` (localized, times in `[0, duration_ms)`) as records into
/// `out`, by `(time, global cache id)`, stably — [`sort_requests`]'
/// order — with one bucketed pass (the module's ordering contract);
/// `buckets` is scratch.
fn order_requests(
    requests: &[Request],
    members: &[CacheId],
    duration_ms: f64,
    buckets: &mut Vec<u32>,
    out: &mut Vec<Record>,
) {
    out.clear();
    if requests.is_empty() {
        return;
    }
    assert!(
        u32::try_from(requests.len()).is_ok(),
        "a group has fewer than 2^32 requests"
    );
    out.resize(requests.len(), Record::default());
    let count = requests.len().div_ceil(2);
    let scale = count as f64 / duration_ms;
    // Monotone in time (a product rounds monotonically, the conversion
    // truncates and saturates); the clamp takes a product that rounds
    // up to `count`.
    let bucket = |r: &Request| ((r.time_ms * scale) as usize).min(count - 1);
    let key = |record: &Record| (record.key, members[record.cache as usize]);

    // Counts, then starts, then — advanced by the scatter — ends.
    buckets.clear();
    buckets.resize(count + 1, 0);
    for r in requests {
        buckets[bucket(r) + 1] += 1;
    }
    for b in 0..count {
        buckets[b + 1] += buckets[b];
    }
    for r in requests {
        let at = &mut buckets[bucket(r)];
        out[*at as usize] = Record::new(r.time_ms, time_key(r.time_ms), r.cache as u32, r.doc);
        *at += 1;
    }
    let mut start = 0;
    for &end in &buckets[..count] {
        let run = &mut out[start..end as usize];
        if run.len() > INSERTION_MAX {
            run.sort_by_key(key);
        } else {
            for i in 1..run.len() {
                let record = run[i];
                let k = key(&record);
                let mut at = i;
                while at > 0 && key(&run[at - 1]) > k {
                    run[at] = run[at - 1];
                    at -= 1;
                }
                run[at] = record;
            }
        }
        start = end as usize;
    }
}

/// Orders localized requests by `(time, global cache id)`, stably: the
/// comparison sort [`order_requests`] replaced, kept as its oracle.
#[cfg(test)]
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

    /// The request a record holds (a negative zero time reads back as
    /// the positive one).
    fn request_of(record: &Record) -> Request {
        assert_ne!(record.cache, Record::UPDATE, "an update among the requests");
        assert_eq!(record.at, SimTime::from_ms(f64::from_bits(record.key)));
        Request {
            time_ms: f64::from_bits(record.key),
            cache: record.cache as usize,
            doc: DocId(record.doc as usize),
        }
    }

    /// The materialized trace's requests at `members`, localized, in
    /// trace order.
    fn filtered(full: &[TraceEvent], members: &[CacheId]) -> Vec<Request> {
        full.iter()
            .filter_map(|event| match event {
                TraceEvent::Request(r) => members
                    .iter()
                    .position(|m| m.index() == r.cache)
                    .map(|local| Request { cache: local, ..*r }),
                TraceEvent::Update(_) => None,
            })
            .collect()
    }

    /// [`order_requests`] with buffers of its own, read back.
    fn bucketed(requests: &[Request], members: &[CacheId], duration_ms: f64) -> Vec<Request> {
        let mut out = vec![Record::default(); 3];
        order_requests(requests, members, duration_ms, &mut vec![7; 5], &mut out);
        out.iter().map(request_of).collect()
    }

    /// The comparison sort's order of `requests`.
    fn sorted(requests: &[Request], members: &[CacheId]) -> Vec<Request> {
        let mut sorted = requests.to_vec();
        sort_requests(&mut sorted, members);
        sorted
    }

    /// `0..caches` in an arbitrary order, cut to a random non-empty
    /// prefix: a member list as formation may emit one.
    fn shuffled_members(caches: usize, rng: &mut StdRng) -> Vec<CacheId> {
        let mut members: Vec<CacheId> = (0..caches).map(CacheId).collect();
        for i in (1..caches).rev() {
            members.swap(i, rng.gen_range(0..=i));
        }
        members.truncate(rng.gen_range(1..=caches));
        members
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A group's buffer holds its members' requests — localized, in
        /// the materialized trace's order — and nothing of the update
        /// log, whose records every group shares.
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
            let updates: Vec<Update> = (0..rng.gen_range(0..12))
                .map(|_| Update {
                    time_ms: rng.gen_range(0.0..duration_ms * 1.2),
                    doc: DocId(rng.gen_range(0..cat.len())),
                })
                .collect();

            let workload = StreamedWorkload::new(cfg, master, duration_ms).updates(&updates);
            let full = workload.materialize_trace(&cat, caches);
            // Two member subsets in arbitrary (non-ascending) order, one
            // after the other in the same buffers.
            let mut buffers = RequestBuffers::default();
            for _ in 0..2 {
                let members = shuffled_members(caches, &mut rng);
                let lane = member_requests(&workload, &zipf, &members, &mut buffers);
                let requests: Vec<Request> = lane.iter().map(request_of).collect();
                prop_assert_eq!(requests, filtered(&full, &members));
            }
        }

        /// The bucketed pass is the comparison sort, element for element:
        /// over drained member streams (any member order, flash crowds
        /// or not), and over times on a coarse grid, where arrivals of
        /// different members — and of one member — share an instant.
        #[test]
        fn the_bucketed_order_is_the_comparison_sort(
            seed in any::<u64>(),
            caches in 1usize..14,
            rate in 0.1f64..40.0,
            flash in any::<bool>(),
            grid in 1u32..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let duration_ms = 3_000.0;
            let mut cfg = RequestConfig::default().rate_per_sec_per_cache(rate);
            if flash {
                cfg = cfg.modulation(RateModulation::FlashCrowd {
                    start_ms: 500.0,
                    end_ms: 700.0,
                    multiplier: 40.0,
                });
            }
            let zipf = ZipfSampler::new(150, cfg.zipf_exponent_value());
            let members = shuffled_members(caches, &mut rng);
            let master: u64 = rng.gen();
            let mut drained = Vec::new();
            for (local, m) in members.iter().enumerate() {
                let stream = cfg.stream_cache(&zipf, m.index(), master, duration_ms);
                drained.extend(stream.map(|r| Request { cache: local, ..r }));
            }
            prop_assert_eq!(bucketed(&drained, &members, duration_ms), sorted(&drained, &members));

            // `grid` instants over the horizon, the document numbering
            // each request so the order of equal keys shows.
            let step = duration_ms / f64::from(grid);
            let coarse: Vec<Request> = (0..rng.gen_range(0..200))
                .map(|doc| Request {
                    time_ms: f64::from(rng.gen_range(0..grid)) * step,
                    cache: rng.gen_range(0..members.len()),
                    doc: DocId(doc),
                })
                .collect();
            prop_assert_eq!(bucketed(&coarse, &members, duration_ms), sorted(&coarse, &members));
        }
    }

    #[test]
    fn simultaneous_arrivals_order_by_global_id_not_member_position() {
        // No seed makes two Poisson streams collide, so the tie-break is
        // exercised on its own, over hand-made equal instants, by the
        // bucketed pass and by the comparison sort it replaced.
        let members = [CacheId(6), CacheId(1), CacheId(3)];
        let at = |time_ms: f64, local: usize, doc: usize| Request {
            time_ms,
            cache: local,
            doc: DocId(doc),
        };
        // Member-list order, as the drained buffer would hold them; two
        // arrivals of global 6 at t = 5 keep their stream order, and a
        // negative zero is the instant zero.
        let requests = [
            at(0.0, 0, 0),
            at(5.0, 0, 1),
            at(5.0, 0, 2),
            at(9.0, 0, 3),
            at(-0.0, 1, 4),
            at(5.0, 1, 5),
            at(5.0, 2, 6),
            at(7.0, 2, 7),
        ];
        let order = |requests: &[Request]| -> Vec<(f64, usize, usize)> {
            requests
                .iter()
                .map(|r| (r.time_ms, r.cache, r.doc.index()))
                .collect()
        };
        let expected = [
            // At t = 0 (either sign): global 1 (local 1), then 6.
            (-0.0, 1, 4),
            (0.0, 0, 0),
            // At t = 5: global 1 (local 1), then 3 (local 2), then 6
            // (local 0) twice, in stream order.
            (5.0, 1, 5),
            (5.0, 2, 6),
            (5.0, 0, 1),
            (5.0, 0, 2),
            (7.0, 2, 7),
            (9.0, 0, 3),
        ];
        assert_eq!(order(&sorted(&requests, &members)), expected);
        for duration_ms in [9.5, 10.0, 1e6] {
            assert_eq!(order(&bucketed(&requests, &members, duration_ms)), expected);
        }
        // One member, one request, none.
        let one = [CacheId(4)];
        let single = [at(3.0, 0, 0), at(1.0, 0, 1), at(1.0, 0, 2), at(2.0, 0, 3)];
        assert_eq!(bucketed(&single, &one, 4.0), sorted(&single, &one));
        assert_eq!(bucketed(&single[..1], &one, 4.0), single[..1]);
        assert!(bucketed(&[], &one, 4.0).is_empty());
        assert!(bucketed(&[], &[], 0.0).is_empty());
    }

    #[test]
    fn a_burst_in_one_bucket_takes_the_stable_sort() {
        // 100 000 arrivals inside the first of 50 000 buckets, each
        // member later than the last and each run backwards: by
        // insertion alone that is 5 · 10⁹ moves, seconds even optimized;
        // the stable sort takes milliseconds unoptimized.
        let members: Vec<CacheId> = (0..1_000).rev().map(CacheId).collect();
        let burst: Vec<Request> = (0..100_000)
            .map(|i| Request {
                time_ms: f64::from(100_000 - i) * 1e-5,
                cache: i as usize / 100,
                doc: DocId(i as usize),
            })
            .collect();
        let start = std::time::Instant::now();
        let ordered = bucketed(&burst, &members, 100_000.0);
        let took = start.elapsed();
        assert_eq!(ordered, sorted(&burst, &members));
        assert!(took.as_millis() < 500, "{took:?}");
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn negative_duration_panics() {
        let _ = StreamedWorkload::new(RequestConfig::default(), 1, -1.0);
    }
}
