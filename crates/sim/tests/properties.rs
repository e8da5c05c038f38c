//! Property-based tests for the simulator: every way of running it is
//! held to the spec (`spec/mod.rs`), an independent reference
//! simulator over the public API.

mod spec;

use ecg_cache::PolicyKind;
use ecg_obs::Obs;
use ecg_sim::{
    simulate, simulate_epochs, CacheAggregate, DChoicesConfig, EpochReplayError, FaultKind,
    FaultSchedule, FreshnessProtocol, GroupMap, Lookup, PlacementKind, ReplayEpoch, RunContext,
    SimConfig, SimError, SimPlan, SimReport, StreamedWorkload,
};
use ecg_topology::fixtures::paper_figure1;
use ecg_topology::{CacheId, EdgeNetwork, RttMatrix};
use ecg_workload::{
    generate_updates, merge_streams, CatalogConfig, DocId, DocumentCatalog, Request, RequestConfig,
    TraceEvent, Update,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spec::Settings;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes the current thread has asked the allocator for.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread what is requested (tests
/// run on parallel threads, so a global count would mix them).
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor outlives its thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes `work` allocates on this thread.
fn allocated_by<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = work();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A random edge network: origin plus n caches with synthetic RTTs.
fn arb_network(seed: u64, caches: usize) -> EdgeNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = RttMatrix::from_fn(caches + 1, |_, _| rng.gen_range(1.0..80.0));
    EdgeNetwork::from_rtt_matrix(m)
}

/// A random valid partition of `n` caches into at most `max_k` groups.
fn arb_partition(seed: u64, n: usize, max_k: usize) -> GroupMap {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = rng.gen_range(1..=max_k.min(n));
    loop {
        let mut groups: Vec<Vec<CacheId>> = vec![Vec::new(); k];
        for c in 0..n {
            groups[rng.gen_range(0..k)].push(CacheId(c));
        }
        groups.retain(|g| !g.is_empty());
        if let Ok(map) = GroupMap::new(n, groups) {
            return map;
        }
    }
}

/// A network whose RTTs sit on a three-value grid, so a cache's peers
/// mostly tie on RTT and the holder tie-break decides who serves.
fn grid_network(seed: u64, caches: usize) -> EdgeNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = RttMatrix::from_fn(caches + 1, |_, _| 10.0 * f64::from(rng.gen_range(1u32..=3)));
    EdgeNetwork::from_rtt_matrix(m)
}

/// [`arb_partition`] with every member list shuffled: member order (the
/// tie-break) then disagrees with cache-id order (the holder-bit order).
fn shuffled_partition(seed: u64, n: usize, max_k: usize) -> GroupMap {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let mut groups = arb_partition(seed, n, max_k).groups().to_vec();
    for members in &mut groups {
        for i in (1..members.len()).rev() {
            members.swap(i, rng.gen_range(0..=i));
        }
    }
    GroupMap::new(n, groups).unwrap()
}

/// Crashes, recoveries and retirements spread over the trace, some for
/// caches that are already down or were never down. Cache 0 crashes,
/// recovers and retires in every schedule.
fn arb_schedule(seed: u64, caches: usize, duration_ms: f64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = FaultSchedule::new();
    let cache = CacheId(0);
    schedule.push(0.1 * duration_ms, FaultKind::CacheDown { cache });
    schedule.push(0.4 * duration_ms, FaultKind::CacheUp { cache });
    schedule.push(0.8 * duration_ms, FaultKind::CacheRetire { cache });
    for _ in 0..rng.gen_range(2..3 * caches) {
        let cache = CacheId(rng.gen_range(0..caches));
        let kind = match rng.gen_range(0u32..5) {
            0 | 1 => FaultKind::CacheDown { cache },
            2 | 3 => FaultKind::CacheUp { cache },
            _ => FaultKind::CacheRetire { cache },
        };
        // Whole milliseconds: some faults share an instant.
        schedule.push(rng.gen_range(0.0..duration_ms).floor(), kind);
    }
    schedule
}

/// Plants, in the first group with three or more members, the case the
/// nearest-first probe must get right: the requester's nearest peer
/// fetches a document, the origin updates it, the second-nearest
/// refetches, then the requester asks — a stale holder closer than the
/// fresh one. Repeated through the trace on rotating documents; the
/// update stales whatever copies the random traffic had left, so the
/// case holds whenever the three caches are up. Returns whether a group
/// was large enough.
fn plant_stale_nearest(
    net: &EdgeNetwork,
    groups: &GroupMap,
    documents: usize,
    duration_ms: f64,
    requests: &mut Vec<Request>,
    updates: &mut Vec<Update>,
) -> bool {
    let Some(members) = groups.groups().iter().find(|m| m.len() >= 3) else {
        return false;
    };
    let requester = members[0];
    let mut peers = members[1..].to_vec();
    peers.sort_by(|&a, &b| {
        let rtt = |p| net.cache_to_cache(requester, p);
        rtt(a).total_cmp(&rtt(b)).then(a.cmp(&b))
    });
    for round in 0..16 {
        let doc = DocId(round % documents);
        let t = duration_ms * round as f64 / 16.0;
        let request = |dt: f64, cache: CacheId| Request {
            time_ms: t + dt,
            cache: cache.index(),
            doc,
        };
        requests.extend([
            request(0.25, peers[0]),
            request(0.75, peers[1]),
            request(1.0, requester),
        ]);
        updates.push(Update {
            time_ms: t + 0.5,
            doc,
        });
    }
    requests.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
    updates.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
    true
}

/// The partition shapes the group-major driver must get right: one
/// group in id order (run in place), one group out of id order, all
/// singletons, and ragged partitions whose member lists descend or are
/// shuffled.
fn shaped_partition(shape: usize, seed: u64, n: usize) -> GroupMap {
    let reversed = |map: GroupMap| {
        let lists = map
            .groups()
            .iter()
            .map(|m| m.iter().rev().copied().collect());
        GroupMap::new(n, lists.collect()).unwrap()
    };
    match shape {
        0 => GroupMap::one_group(n),
        1 => reversed(GroupMap::one_group(n)),
        2 => GroupMap::singletons(n),
        3 => reversed(arb_partition(seed, n, 5)),
        _ => shuffled_partition(seed, n, 5),
    }
}

/// A run's report and, from the same inputs run again under
/// observation, its bundle.
type Observed = Result<(SimReport, Obs), SimError>;

/// What the spec says a run must do.
type Spec = Result<spec::Outcome, SimError>;

/// Runs `run` without a bundle and with one; the reports must agree.
fn plain_and_observed(
    mut run: impl FnMut(Option<&mut Obs>) -> Result<SimReport, SimError>,
) -> Observed {
    let plain = run(None)?;
    let mut obs = Obs::new();
    let observed = run(Some(&mut obs))?;
    assert_eq!(plain, observed, "observation changed the report");
    Ok((plain, obs))
}

/// `outcome` with its bundle as the bytes of its document: what two
/// ways of running one plan must agree on.
fn document(outcome: &Observed) -> Result<(&SimReport, String), &SimError> {
    outcome
        .as_ref()
        .map(|(report, obs)| (report, obs.to_json()))
}

/// Holds a run of the entry point to `spec`: the same error, or the
/// same report bit for bit and, in its bundle, every request-path
/// counter the spec derives.
fn assert_matches_spec(outcome: &Observed, spec: &Spec, what: &str) {
    match (outcome, spec) {
        (Ok((report, obs)), Ok(spec)) => {
            assert_eq!(report, &spec.report, "{what}: the report is not the spec's");
            let wrong = spec.counter_mismatches(obs);
            assert!(wrong.is_empty(), "{what}: (counter, run, spec) {wrong:?}");
        }
        (Err(run), Err(spec)) => assert_eq!(run, spec, "{what}"),
        (run, spec) => panic!(
            "{what}: the run gave {:?}, the spec {:?}",
            run.as_ref().err(),
            spec.as_ref().err()
        ),
    }
}

/// The entry point on the caller's thread, fault-free and unobserved.
fn sim(
    net: &EdgeNetwork,
    groups: &GroupMap,
    cat: &DocumentCatalog,
    trace: &[TraceEvent],
    config: SimConfig,
) -> Result<SimReport, SimError> {
    let plan = SimPlan::new(net.rtt_matrix(), cat, trace).config(config);
    simulate(&plan, groups, &mut RunContext::serial())
}

/// The entry point on the caller's thread.
fn serial(plan: &SimPlan<'_>, groups: &GroupMap) -> Observed {
    plain_and_observed(|obs| simulate(plan, groups, &mut RunContext::serial().observe(obs)))
}

/// Every way of running `plan` under `groups` — the caller's thread,
/// the pool at 1, 2 and 8 threads; each plain and observed — as
/// `(label, outcome)`, the caller's thread first.
fn every_context(plan: &SimPlan<'_>, groups: &GroupMap) -> Vec<(String, Observed)> {
    let mut outcomes = vec![("serial".to_string(), serial(plan, groups))];
    for threads in [1usize, 2, 8] {
        ecg_par::set_max_threads(Some(threads));
        let pooled = plain_and_observed(|obs| {
            simulate(plan, groups, &mut RunContext::pooled().observe(obs))
        });
        ecg_par::set_max_threads(None);
        outcomes.push((format!("pooled, {threads} threads"), pooled));
    }
    outcomes
}

/// Runs `plan` under `groups` in every context and holds each run to
/// `spec`, and its document to the one `materialized` — the same plan
/// over its trace, or over the trace its streamed workload materializes
/// — writes on the caller's thread, byte for byte.
fn assert_every_context_matches(
    plan: &SimPlan<'_>,
    materialized: &SimPlan<'_>,
    groups: &GroupMap,
    spec: &Spec,
    what: &str,
) {
    let reference = serial(materialized, groups);
    for (context, outcome) in every_context(plan, groups) {
        assert_matches_spec(&outcome, spec, &format!("{what}, {context}"));
        let (run, materialized) = (document(&outcome), document(&reference));
        assert_eq!(run, materialized, "{what}, {context}: document");
    }
}

/// One group in id order is a group like any other. A run pays what
/// every group-major run pays — 4 bytes of plan per trace event, the
/// per-cache recorder the fold merges into, per-member bookkeeping —
/// and, for the first group on its thread only, the thread's group
/// store: the `(N + 1)²` sub-matrix, one block of gathered records, the
/// holder index and peer masks, the kernel's recorder, and caches whose
/// buffers grow with their contents (the caches evict, so that includes
/// the score keys of every evicting cache, 24 bytes per slab slot). A
/// later run on the thread finds the store warm and allocates none of
/// that again, whichever order the one group's members are listed in.
/// (That is the sparse layout; the dense one adds at most 36 bytes per
/// request on top, below.)
#[test]
fn the_whole_network_is_one_plan_and_one_sub_matrix_away_from_a_warm_run() {
    let caches = 12;
    let net = arb_network(3, caches);
    let mut rng = StdRng::seed_from_u64(4);
    let cat = CatalogConfig::default().documents(40).generate(&mut rng);
    let requests = RequestConfig::default().generate(&cat, caches, 10_000.0, &mut rng);
    let trace = merge_streams(&requests, &generate_updates(&cat, 10_000.0, &mut rng));
    let settings = Settings {
        capacity_bytes: 48 << 10,
        ..Settings::default()
    };
    let config = settings.config();
    let in_order = GroupMap::one_group(caches);
    let backwards = shaped_partition(1, 0, caches);
    let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace).config(config);
    let schedule = FaultSchedule::new();
    let spec = spec::run(&net, &in_order, &cat, &trace, settings, &schedule).unwrap();
    assert!(spec.report.cache_stats.evictions > 0);

    let positions = 4 * trace.len() as u64;
    let sub_matrix = 8 * ((caches + 1) * (caches + 1)) as u64;
    // Two lanes of 128 records of 24 bytes.
    let record_block = 2 * 128 * 24;
    let holder_index = 8 * cat.len() as u64;
    let sparse = || RunContext::serial().force_lookup(Lookup::Ranked);
    // A thread of its own, so the store starts cold; the spec's caches
    // evicted on it first, which leaves the thread's eviction score
    // buffer at the size every later run needs.
    let (cold, cold_bytes) = std::thread::scope(|scope| {
        let cold = scope.spawn(|| {
            spec::run(&net, &in_order, &cat, &trace, settings, &schedule).unwrap();
            allocated_by(|| simulate(&plan, &in_order, &mut sparse()).unwrap())
        });
        cold.join().unwrap()
    });
    assert_eq!(cold, spec.report);
    // The warm runs below allocate none of the store.
    let store = sub_matrix + record_block + holder_index;

    // Warm, what is left is the plan, the recorder the fold merges into
    // (a row per cache and a 257-bin latency histogram) and ≈ 1.3 KiB
    // of per-member bookkeeping — liveness and the fault script — less
    // than that plus the smallest thing the store lends, the holder
    // index (one word per document at 12 caches): a warm run that allocated a sub-matrix, an index or a
    // kernel recorder would not fit.
    let fold_recorder = (caches * std::mem::size_of::<CacheAggregate>() + 8 * 257) as u64;
    let bookkeeping = 1_400;
    let warm_budget = positions + fold_recorder + bookkeeping;
    // Unmeasured: this thread's store and score buffer go warm.
    simulate(&plan, &in_order, &mut sparse()).unwrap();
    let mut warm_runs = Vec::new();
    for groups in [&in_order, &backwards] {
        let (warm, warm_bytes) = allocated_by(|| simulate(&plan, groups, &mut sparse()).unwrap());
        assert_eq!(
            warm.metrics.total_requests(),
            spec.report.metrics.total_requests()
        );
        if groups == &in_order {
            assert_eq!(warm, cold);
        }
        assert!(
            warm_bytes <= warm_budget,
            "{warm_bytes} B > {warm_budget} B"
        );
        assert!(
            warm_bytes + holder_index > warm_budget,
            "{warm_bytes} B: the budget no longer catches a holder index"
        );
        assert!(
            warm_bytes + store <= cold_bytes,
            "{warm_bytes} B warm, {cold_bytes} B cold: the store was not lent"
        );
        warm_runs.push(warm_bytes);

        // The traffic clears the rule, so the run goes dense: peer
        // orders and document-addressed tables, in place of the hashed
        // indices, within 36 bytes a request.
        let mut ctx = RunContext::serial();
        let (dense, dense_bytes) = allocated_by(|| simulate(&plan, groups, &mut ctx).unwrap());
        assert_eq!(ctx.stats().dense_shards, 1);
        assert_eq!(dense, warm);
        let bound = warm_bytes + 36 * requests.len() as u64;
        assert!(dense_bytes <= bound, "{dense_bytes} B > {bound} B");
    }
    assert_eq!(
        warm_runs[0], warm_runs[1],
        "member order showed in the bytes"
    );
}

/// The store's degenerate corners, each run after a whole-network
/// group has warmed the thread's store: a streamed run in which every
/// group is a singleton (K = N), so every sub-topology is a 2 × 2 block
/// written into storage kept for 13 × 13, and a streamed run with no
/// request at all — only the update log — over singletons and over one
/// group. Each equals the spec over its materialized trace, serial and
/// pooled, at 1 and 8 threads.
#[test]
fn a_warm_store_runs_singletons_and_an_empty_stream_like_the_spec() {
    let caches = 12;
    let net = arb_network(31, caches);
    let mut rng = StdRng::seed_from_u64(32);
    let cat = CatalogConfig::default().documents(60).generate(&mut rng);
    let duration = 15_000.0;
    let updates = generate_updates(&cat, duration, &mut rng);
    let rtt = net.rtt_matrix();
    let settings = Settings {
        capacity_bytes: 64 << 10,
        warmup_ms: 1_000.0,
        ..Settings::default()
    };
    let config = settings.config();
    let requests = RequestConfig::default().rate_per_sec_per_cache(4.0);
    let busy = StreamedWorkload::new(requests, 33, duration).updates(&updates);
    let silent = StreamedWorkload::new(requests, 34, 0.0).updates(&updates);
    let one = GroupMap::one_group(caches);
    let singletons = GroupMap::singletons(caches);
    let warm_up = SimPlan::streamed(rtt, &cat, &busy).config(config);
    let no_faults = FaultSchedule::new();
    for (workload, groups) in [
        (&busy, &singletons),
        (&silent, &singletons),
        (&silent, &one),
    ] {
        let plan = SimPlan::streamed(rtt, &cat, workload).config(config);
        let materialized = workload.materialize_trace(&cat, caches);
        let spec = spec::run(&net, groups, &cat, &materialized, settings, &no_faults);
        let report = &spec.as_ref().expect("a valid run").report;
        let silent_run = workload.duration_ms() == 0.0;
        assert_eq!(report.metrics.total_requests() == 0, silent_run);
        assert_eq!(report.origin_updates, updates.len() as u64);
        // The document of the materialized trace.
        let over_trace = SimPlan::new(rtt, &cat, &materialized).config(config);
        let reference = document(&serial(&over_trace, groups)).unwrap().1;
        for threads in [1usize, 8] {
            ecg_par::set_max_threads(Some(threads));
            simulate(&warm_up, &one, &mut RunContext::serial()).unwrap();
            simulate(&warm_up, &one, &mut RunContext::pooled()).unwrap();
            let serial = serial(&plan, groups);
            let pooled = plain_and_observed(|obs| {
                simulate(&plan, groups, &mut RunContext::pooled().observe(obs))
            });
            ecg_par::set_max_threads(None);
            let shape = format!(
                "(groups, silent, threads) {:?}",
                (groups.group_count(), silent_run, threads)
            );
            assert_matches_spec(&serial, &spec, &format!("serial, {shape}"));
            assert_matches_spec(&pooled, &spec, &format!("pooled, {shape}"));
            assert_eq!(document(&serial).unwrap().1, reference, "serial, {shape}");
            assert_eq!(document(&pooled).unwrap().1, reference, "pooled, {shape}");
        }
    }
}

/// A thread's group store keeps caches and buffers from one group to
/// the next, and nothing of what they held: a run on a thread whose
/// store earlier runs have used — dense and sparse groups, crash-heavy
/// ones, planned and streamed sources, other capacities and policies,
/// in any order — reports and observes exactly what it does on a fresh
/// thread, serial and pooled.
#[test]
fn a_reused_group_store_is_a_fresh_one() {
    let caches = 12;
    let net = grid_network(21, caches);
    let mut rng = StdRng::seed_from_u64(22);
    let cat = CatalogConfig::default()
        .documents(40)
        .dynamic_fraction(0.6)
        .dynamic_update_rate_per_sec(0.05)
        .generate(&mut rng);
    let duration = 20_000.0;
    let requests = RequestConfig::default()
        .rate_per_sec_per_cache(5.0)
        .generate(&cat, caches, duration, &mut rng);
    let updates = generate_updates(&cat, duration, &mut rng);
    let trace = merge_streams(&requests, &updates);
    let workload = StreamedWorkload::new(
        RequestConfig::default().rate_per_sec_per_cache(2.0),
        23,
        duration,
    )
    .updates(&updates);
    let mut crashes = arb_schedule(24, caches, duration);
    for at in 1..12 {
        let cache = CacheId(at % caches);
        crashes.push(
            f64::from(at as u32) * 1_500.0,
            FaultKind::CacheDown { cache },
        );
        crashes.push(
            f64::from(at as u32) * 1_500.0 + 700.0,
            FaultKind::CacheUp { cache },
        );
    }
    let rtt = net.rtt_matrix();
    let config = |capacity: u64, policy| {
        SimConfig::default()
            .cache_capacity_bytes(capacity)
            .policy(policy)
            .warmup_ms(1_000.0)
    };
    let pairs = shuffled_partition(25, caches, 6);
    let one = shaped_partition(1, 0, caches);
    // (plan, grouping, forced lookup): one group and several, dense by
    // the rule and forced either way, faulted and not, streamed.
    let cases = [
        (
            SimPlan::new(rtt, &cat, &trace).config(config(96 << 10, PolicyKind::Utility)),
            &one,
            None,
        ),
        (
            SimPlan::new(rtt, &cat, &trace).config(config(24 << 10, PolicyKind::Gdsf)),
            &pairs,
            Some(Lookup::NearestFirst),
        ),
        (
            SimPlan::new(rtt, &cat, &trace).config(config(64 << 10, PolicyKind::Lru)),
            &pairs,
            Some(Lookup::Ranked),
        ),
        (
            SimPlan::new(rtt, &cat, &trace)
                .config(config(32 << 10, PolicyKind::Utility))
                .faults(&crashes),
            &pairs,
            None,
        ),
        (
            SimPlan::new(rtt, &cat, &trace)
                .config(config(48 << 10, PolicyKind::Lfu))
                .faults(&crashes),
            &one,
            Some(Lookup::NearestFirst),
        ),
        (
            SimPlan::streamed(rtt, &cat, &workload).config(config(40 << 10, PolicyKind::Utility)),
            &pairs,
            None,
        ),
        (
            SimPlan::streamed(rtt, &cat, &workload).faults(&crashes),
            &one,
            None,
        ),
    ];
    let run = |(plan, groups, forced): &(SimPlan<'_>, &GroupMap, Option<Lookup>), pooled: bool| {
        plain_and_observed(|obs| {
            let ctx = if pooled {
                RunContext::pooled()
            } else {
                RunContext::serial()
            };
            let ctx = match forced {
                Some(lookup) => ctx.force_lookup(*lookup),
                None => ctx,
            };
            simulate(plan, groups, &mut ctx.observe(obs))
        })
    };
    // Each case alone on a thread of its own.
    let fresh: Vec<Observed> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|case| scope.spawn(|| run(case, false)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(fresh.iter().all(Result::is_ok));
    let mut order: Vec<usize> = (0..cases.len()).collect();
    for round in 0..6 {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &case in &order {
            let pooled = round % 2 == 1;
            if pooled {
                ecg_par::set_max_threads(Some(1 + round % 3));
            }
            let outcome = run(&cases[case], pooled);
            ecg_par::set_max_threads(None);
            assert_eq!(
                document(&outcome),
                document(&fresh[case]),
                "case {case}, round {round}, order {order:?}"
            );
        }
    }
}

/// A timestamp is accepted up to the run horizon — 2¹⁸ degradation
/// timeline buckets of 10 s, about 30 simulated days — and a typed
/// error from there on, from every entry point: one request at 10¹² ms used to make
/// the dense timeline ask for 5.9 GB and abort the process.
#[test]
fn a_far_future_event_is_a_typed_error_not_an_allocation() {
    let net = arb_network(9, 4);
    let cat = CatalogConfig::default()
        .documents(8)
        .generate(&mut StdRng::seed_from_u64(9));
    let groups = GroupMap::new(
        4,
        vec![vec![CacheId(2), CacheId(0)], vec![CacheId(3), CacheId(1)]],
    )
    .unwrap();
    let epochs = [
        ReplayEpoch::new(0.0, GroupMap::singletons(4)),
        ReplayEpoch::new(50.0, groups.clone()),
    ];
    let at = |time_ms: f64| {
        vec![
            TraceEvent::Request(Request {
                time_ms: 1.0,
                cache: 1,
                doc: DocId(0),
            }),
            TraceEvent::Update(Update {
                time_ms: 2.0,
                doc: DocId(0),
            }),
            TraceEvent::Request(Request {
                time_ms,
                cache: 3,
                doc: DocId(0),
            }),
            TraceEvent::Update(Update {
                time_ms,
                doc: DocId(1),
            }),
        ]
    };
    // Every way in: the one-grouping run serial and pooled, a timeline
    // run (whose error names the caller's trace position) — and the
    // spec.
    let every_entry_point = |trace: &[TraceEvent], schedule: &FaultSchedule| {
        let plan = SimPlan::new(net.rtt_matrix(), &cat, trace).faults(schedule);
        let spec = spec::run(&net, &groups, &cat, trace, Settings::default(), schedule);
        let reference = spec.map(|outcome| outcome.report);
        for context in [RunContext::serial, RunContext::pooled] {
            assert_eq!(simulate(&plan, &groups, &mut context()), reference);
            let timeline = simulate_epochs(&plan, &epochs, &mut context());
            match &reference {
                Ok(report) => assert_eq!(
                    timeline.unwrap().metrics.total_requests(),
                    report.metrics.total_requests()
                ),
                Err(e) => assert_eq!(timeline, Err(EpochReplayError::Sim(e.clone()))),
            }
        }
        reference
    };
    let default = FaultSchedule::new();
    let horizon_ms = 10_000.0 * (1u64 << 18) as f64;
    // The last microsecond before the horizon is simulated, in the
    // timeline's last bucket.
    let report = every_entry_point(&at(horizon_ms - 0.001), &default).unwrap();
    let timeline = report.metrics.degradation.timeline();
    assert_eq!(timeline.len(), 1 << 18);
    assert_eq!(timeline[(1 << 18) - 1].healthy.requests, 1);
    // At the horizon and anywhere past it: rejected, by position.
    let too_late = Err(SimError::EventTimeBeyondHorizon { index: 2 });
    // (Times are quantised to µs first: the `f64` just under the
    // horizon is on it.)
    let just_under = horizon_ms.next_down();
    for time_ms in [just_under, horizon_ms, 1e10, 1e12, f64::MAX] {
        assert_eq!(
            every_entry_point(&at(time_ms), &default),
            too_late,
            "{time_ms}"
        );
    }
    assert!(too_late
        .as_ref()
        .unwrap_err()
        .to_string()
        .contains("horizon"));
    // The same rule for the schedule's own times, with the schedule's
    // precedence: before the trace is read.
    let mut late_fault = FaultSchedule::new();
    late_fault.push(1e12, FaultKind::CacheDown { cache: CacheId(0) });
    let err = every_entry_point(&at(1e12), &late_fault).unwrap_err();
    assert!(matches!(err, SimError::Fault(_)), "{err}");
    // And for a streamed workload's update log and duration.
    let updates = [
        Update {
            time_ms: 5.0,
            doc: DocId(1),
        },
        Update {
            time_ms: 1e12,
            doc: DocId(2),
        },
    ];
    let streamed = |updates: &[Update], duration_ms: f64| {
        let workload =
            StreamedWorkload::new(RequestConfig::default(), 3, duration_ms).updates(updates);
        let plan = SimPlan::streamed(net.rtt_matrix(), &cat, &workload);
        simulate(&plan, &groups, &mut RunContext::pooled()).map(drop)
    };
    assert_eq!(
        streamed(&updates, 100.0),
        Err(SimError::EventTimeBeyondHorizon { index: 1 })
    );
    assert_eq!(streamed(&updates[..1], 100.0), Ok(()));
    assert_eq!(
        streamed(&updates[..1], 1e12),
        Err(SimError::EventTimeBeyondHorizon { index: 1 })
    );
}

/// `trace` under `schedule` on the caller's thread, plain and observed,
/// held to the spec; returns the report.
fn serial_matches_spec(
    net: &EdgeNetwork,
    groups: &GroupMap,
    cat: &DocumentCatalog,
    trace: &[TraceEvent],
    settings: Settings,
    schedule: &FaultSchedule,
) -> SimReport {
    let plan = SimPlan::new(net.rtt_matrix(), cat, trace)
        .config(settings.config())
        .faults(schedule);
    let outcome = serial(&plan, groups);
    let spec = spec::run(net, groups, cat, trace, settings, schedule);
    let what = format!("{:?} / {:?}", settings.freshness, settings.placement);
    assert_matches_spec(&outcome, &spec, &what);
    outcome.unwrap().0
}

/// The paper's Figure 1 network under 20 s of traffic: 120 documents,
/// four requests a second at each of the six caches, and the catalog's
/// update stream.
fn figure1_fixture() -> (EdgeNetwork, DocumentCatalog, Vec<TraceEvent>) {
    let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let mut rng = StdRng::seed_from_u64(11);
    let catalog = CatalogConfig::default().documents(120).generate(&mut rng);
    let requests = RequestConfig::default()
        .rate_per_sec_per_cache(4.0)
        .generate(&catalog, 6, 20_000.0, &mut rng);
    let updates = generate_updates(&catalog, 20_000.0, &mut rng);
    (network, catalog, merge_streams(&requests, &updates))
}

/// The fixture's six caches in two groups of three, by parity.
fn two_groups() -> GroupMap {
    let members = |ids: [usize; 3]| ids.into_iter().map(CacheId).collect();
    GroupMap::new(6, vec![members([0, 2, 4]), members([1, 3, 5])]).unwrap()
}

/// The fixture's six caches in three pairs.
fn pair_groups() -> GroupMap {
    let pair = |a: usize| vec![CacheId(a), CacheId(a + 1)];
    GroupMap::new(6, vec![pair(0), pair(2), pair(4)]).unwrap()
}

/// A shared update-heavy workload over the fixture's six caches for
/// small caches: plenty of peer hits, policy evictions, and stale drops.
fn churny_trace(seed: u64, horizon_ms: f64) -> (DocumentCatalog, Vec<TraceEvent>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cat = CatalogConfig::default()
        .documents(60)
        .dynamic_fraction(0.8)
        .dynamic_update_rate_per_sec(0.05)
        .generate(&mut rng);
    let requests = RequestConfig::default()
        .rate_per_sec_per_cache(5.0)
        .similarity(1.0)
        .generate(&cat, 6, horizon_ms, &mut rng);
    let updates = generate_updates(&cat, horizon_ms, &mut rng);
    (cat, merge_streams(&requests, &updates))
}

/// The fixture and the simulator's named corners, each in every context
/// — the caller's thread and the pool at 1, 2 and 8 threads, plain and
/// observed — against the spec, in one document byte for byte: two
/// groups with and without faults, K = N and K = 1, caches smaller than
/// the smallest document, every cache down from the first instant to
/// the end, an empty and an updates-only trace, and a retirement of a
/// cache that is already down followed by its recovery.
#[test]
fn serial_and_pooled_match_the_spec_bit_for_bit() {
    let (net, cat, trace) = figure1_fixture();
    let updates_only: Vec<TraceEvent> = trace
        .iter()
        .filter(|event| matches!(event, TraceEvent::Update(_)))
        .copied()
        .collect();
    let smallest = (0..cat.len())
        .map(|d| cat.document(DocId(d)).size_bytes)
        .min()
        .unwrap();
    let schedule = |faults: &[(f64, FaultKind)]| {
        let mut schedule = FaultSchedule::new();
        for &(at, kind) in faults {
            schedule.push(at, kind);
        }
        schedule
    };
    let (down, up) = (
        |c| FaultKind::CacheDown { cache: CacheId(c) },
        |c| FaultKind::CacheUp { cache: CacheId(c) },
    );
    let faulted = schedule(&[
        (4_000.0, down(2)),
        (9_000.0, up(2)),
        (15_000.0, FaultKind::CacheRetire { cache: CacheId(5) }),
    ]);
    let all_down = schedule(&(0..6).map(|c| (0.0, down(c))).collect::<Vec<_>>());
    let retired_while_down = schedule(&[
        (3_000.0, down(2)),
        (6_000.0, FaultKind::CacheRetire { cache: CacheId(2) }),
        (9_000.0, up(2)),
    ]);
    let none = FaultSchedule::new();
    let default = Settings::default();
    let starved = Settings {
        capacity_bytes: smallest - 1,
        ..default
    };
    let multicast = Settings {
        freshness: FreshnessProtocol::OriginMulticast,
        ..default
    };
    let cases: [(&str, GroupMap, &[TraceEvent], Settings, &FaultSchedule); 9] = [
        ("two groups", two_groups(), &trace, default, &none),
        (
            "two groups, faulted",
            two_groups(),
            &trace,
            default,
            &faulted,
        ),
        ("K = N", GroupMap::singletons(6), &trace, default, &none),
        ("K = 1", GroupMap::one_group(6), &trace, default, &none),
        (
            "capacity below every document",
            two_groups(),
            &trace,
            starved,
            &none,
        ),
        ("every cache down", two_groups(), &trace, default, &all_down),
        ("empty trace", two_groups(), &[], default, &faulted),
        (
            "updates only",
            two_groups(),
            &updates_only,
            multicast,
            &faulted,
        ),
        (
            "retired while down",
            two_groups(),
            &trace,
            default,
            &retired_while_down,
        ),
    ];
    for (name, groups, trace, settings, schedule) in &cases {
        let plan = SimPlan::new(net.rtt_matrix(), &cat, trace)
            .config(settings.config())
            .faults(schedule);
        let spec = spec::run(&net, groups, &cat, trace, *settings, schedule);
        assert_every_context_matches(&plan, &plan, groups, &spec, name);
        for context in [RunContext::serial, RunContext::pooled] {
            let mut ctx = context();
            simulate(&plan, groups, &mut ctx).unwrap();
            assert_eq!(ctx.stats().shards, groups.group_count(), "{name}");
            assert!(ctx.stats().shard_events >= trace.len() as u64, "{name}");
            assert!(ctx.stats().total_ms() >= 0.0, "{name}");
        }

        // What makes each corner the corner it is.
        let spec = spec.unwrap();
        let (report, count) = (&spec.report, |name: &str| spec.counters[name]);
        let requests = report.metrics.total_requests();
        let deg = &report.metrics.degradation;
        let served_in_group = |r: &SimReport| {
            let caches = r.metrics.per_cache().iter();
            caches.map(|a| a.local_hits + a.peer_hits).sum::<u64>()
        };
        match *name {
            "capacity below every document" => {
                assert_eq!(report.cache_stats.insertions, 0);
                assert_eq!(served_in_group(report), 0);
                assert_eq!(report.origin_fetches, requests);
            }
            "every cache down" => {
                assert!(requests > 0);
                assert_eq!((deg.failovers, deg.degraded.requests), (requests, requests));
                assert_eq!(count("sim.failovers"), requests);
                assert_eq!(count("sim.holder.group_checks"), 0);
            }
            "empty trace" => assert_eq!((requests, report.origin_updates), (0, 0)),
            "updates only" => {
                assert_eq!(requests, 0);
                assert_eq!(report.origin_updates, updates_only.len() as u64);
                assert!(report.origin_updates > 0);
            }
            "retired while down" => {
                assert_eq!((deg.crashes, deg.retirements, deg.recoveries), (1, 1, 0));
                assert!(deg.degraded.requests > 0);
            }
            _ => assert!(served_in_group(report) > 0, "{name}"),
        }
    }
}

/// Every freshness protocol on the fixture's network, over one group
/// and three pairs, with small caches.
#[test]
fn the_request_path_equals_the_spec_for_every_protocol() {
    let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let (cat, trace) = churny_trace(11, 120_000.0);
    for groups in [GroupMap::one_group(6), pair_groups()] {
        for freshness in [
            FreshnessProtocol::InvalidateOnAccess,
            FreshnessProtocol::OriginMulticast,
            FreshnessProtocol::TtlLease { ttl_ms: 20_000.0 },
        ] {
            // Small caches force constant evictions.
            let settings = Settings {
                capacity_bytes: 64 << 10,
                freshness,
                ..Settings::default()
            };
            serial_matches_spec(&net, &groups, &cat, &trace, settings, &FaultSchedule::new());
        }
    }
}

#[test]
fn the_request_path_equals_the_spec_under_faults() {
    let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let (cat, trace) = churny_trace(13, 120_000.0);
    let mut schedule = FaultSchedule::new();
    schedule.push(10_000.0, FaultKind::CacheDown { cache: CacheId(2) });
    schedule.push(30_000.0, FaultKind::CacheUp { cache: CacheId(2) });
    schedule.push(40_000.0, FaultKind::CacheRetire { cache: CacheId(5) });
    let settings = Settings {
        capacity_bytes: 64 << 10,
        ..Settings::default()
    };
    let groups = GroupMap::one_group(6);
    let report = serial_matches_spec(&net, &groups, &cat, &trace, settings, &schedule);
    // The fault machinery was actually exercised.
    assert!(report.metrics.degradation.saw_faults());
    assert!(report.metrics.degradation.failovers > 0);
    assert!(report.cache_stats.evictions > 0);
}

/// Active placement policies decide over the spec's candidate lists.
#[test]
fn placement_sees_the_specs_candidates() {
    let net = EdgeNetwork::from_rtt_matrix(paper_figure1());
    let (cat, trace) = churny_trace(37, 120_000.0);
    let none = FaultSchedule::new();
    for placement in [PlacementKind::adaptive(), PlacementKind::d_choices()] {
        for groups in [GroupMap::one_group(6), pair_groups()] {
            let settings = Settings {
                capacity_bytes: 64 << 10,
                placement,
                ..Settings::default()
            };
            let report = serial_matches_spec(&net, &groups, &cat, &trace, settings, &none);
            assert!(report.metrics.saw_placement(), "{placement:?}");
        }
    }

    // A tie the policy breaks by cache id: every member 20 ms from the
    // others, the requester loaded and its two peers empty, all three
    // sampled (d = 3). A policy sees members by position, so the peer
    // listed first in [2, 1, 0] — cache 1, not the lower id 0 — takes
    // the copy of document 1, and then serves it locally.
    let flat = EdgeNetwork::from_rtt_matrix(RttMatrix::from_fn(4, |_, _| 20.0));
    let descending = GroupMap::new(3, vec![(0..3).rev().map(CacheId).collect()]).unwrap();
    let cat = CatalogConfig::default()
        .documents(2)
        .dynamic_fraction(0.0)
        .generate(&mut StdRng::seed_from_u64(1));
    let request = |time_ms, cache, doc| {
        TraceEvent::Request(Request {
            time_ms,
            cache,
            doc: DocId(doc),
        })
    };
    let trace = [request(0.0, 2, 0), request(10.0, 2, 1), request(20.0, 1, 1)];
    let settings = Settings {
        placement: PlacementKind::DChoices(DChoicesConfig { d: 3, seed: 0 }),
        ..Settings::default()
    };
    let report = serial_matches_spec(&flat, &descending, &cat, &trace, settings, &none);
    assert_eq!(report.metrics.remote_placements, 1);
    assert_eq!(report.metrics.per_cache()[1].local_hits, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The directory path (holder bits, down counts, memoised slowest
    /// reply) reports exactly what the spec's member-order scan does,
    /// and its `sim.holder.*` counters are the scan's, exactly: one
    /// group check per cooperative lookup, one lookup ruled out per miss
    /// no peer held a copy for, and a bit test per alive peer of every
    /// other lookup.
    #[test]
    fn holder_counters_equal_the_specs_scan(
        seed in any::<u64>(),
        caches in 3usize..14,
    ) {
        let net = grid_network(seed, caches);
        let groups = shuffled_partition(seed.wrapping_add(1), caches, 3);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let cat = CatalogConfig::default()
            .documents(50)
            .dynamic_fraction(0.6)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let duration = 40_000.0;
        let mut requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .similarity(1.0)
            .generate(&cat, caches, duration, &mut rng);
        let mut updates = generate_updates(&cat, duration, &mut rng);
        // Every one-group partition (a third of the cases) and most
        // others have a group to plant in.
        let planted =
            plant_stale_nearest(&net, &groups, cat.len(), duration, &mut requests, &mut updates);
        prop_assert!(planted || groups.group_count() > 1);
        let trace = merge_streams(&requests, &updates);
        let schedule = arb_schedule(seed.wrapping_add(3), caches, duration);
        for freshness in [
            FreshnessProtocol::InvalidateOnAccess,
            FreshnessProtocol::OriginMulticast,
            FreshnessProtocol::TtlLease { ttl_ms: 8_000.0 },
        ] {
            for placement in [
                PlacementKind::SingleHolder,
                PlacementKind::adaptive(),
                PlacementKind::d_choices(),
            ] {
                // Small caches: evictions keep the holder sets moving.
                let settings = Settings {
                    capacity_bytes: 96 << 10,
                    freshness,
                    placement,
                    ..Settings::default()
                };
                let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace)
                    .config(settings.config())
                    .faults(&schedule);
                let outcome = serial(&plan, &groups);
                let spec = spec::run(&net, &groups, &cat, &trace, settings, &schedule);
                assert_matches_spec(&outcome, &spec, &format!("{freshness:?} / {placement:?}"));
                let (report, obs) = outcome.unwrap();
                prop_assert!(report.metrics.degradation.recoveries > 0);
                prop_assert!(report.metrics.degradation.retirements > 0);
                // Every counter the spec derives: groups, totals, holder
                // work, failovers, messages, staleness, decisions.
                let counters = spec.unwrap().counters;
                prop_assert_eq!(counters.len(), 3 * groups.group_count() + 10);
                let sim = |name: &str| obs.metrics.counter(&format!("sim.{name}"));
                prop_assert_eq!(
                    sim("holder.group_checks"),
                    sim("peer_hits") + sim("coop_misses")
                );
                prop_assert!(sim("holder.ruled_out") <= sim("coop_misses"));
            }
        }
    }
}

proptest! {
    // With the 24 × 9 runs above, 32 × (18 + 12) + 216 = 1 176 generated
    // runs are held to the spec.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simulator — per-group position plan or regenerated streams,
    /// sub-topology, fault split, pool fan-out, group-order fold, one
    /// observability flush — reports what the spec reports, bit for bit,
    /// and counts the request path as the spec does, however it is run:
    /// on the caller's thread or on the pool at 1, 2 and 8 threads, with
    /// or without a bundle (one document, byte for byte), over a
    /// materialized trace or over the streamed workload it
    /// materializes. Partitions cover K = 1 and K = N; traces cover the
    /// empty and the updates-only one. A one-epoch timeline is the same
    /// run again, and a timeline of several epochs does not depend on
    /// the context either. Each case is 18 runs (3 freshness protocols
    /// × 3 placements × 2 sources).
    #[test]
    fn the_simulator_equals_its_spec(
        seed in any::<u64>(),
        caches in 1usize..14,
        shape in 0usize..5,
        trace_kind in 0usize..5,
        faulted in any::<bool>(),
    ) {
        let net = grid_network(seed, caches);
        let groups = shaped_partition(shape, seed.wrapping_add(1), caches);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let cat = CatalogConfig::default()
            .documents(50)
            .dynamic_fraction(0.6)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let duration = 20_000.0;
        let mut requests = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .similarity(1.0)
            .generate(&cat, caches, duration, &mut rng);
        let mut updates = generate_updates(&cat, duration, &mut rng);
        plant_stale_nearest(&net, &groups, cat.len(), duration, &mut requests, &mut updates);
        // The last group sees updates and faults but no request.
        let idle = groups.groups().last().unwrap();
        if groups.group_count() > 1 {
            requests.retain(|r| !idle.contains(&CacheId(r.cache)));
        }
        let mut trace = match trace_kind {
            0 => Vec::new(),
            1 => merge_streams(&[], &updates),
            _ => merge_streams(&requests, &updates),
        };
        if trace_kind == 2 {
            // Out of time order: the stable sort decides, and whole-ms
            // rounding makes some of the shuffled events tie.
            for event in &mut trace {
                match event {
                    TraceEvent::Request(r) => r.time_ms = r.time_ms.round(),
                    TraceEvent::Update(u) => u.time_ms = u.time_ms.round(),
                }
            }
            for i in (1..trace.len()).rev() {
                trace.swap(i, rng.gen_range(0..=i));
            }
        }
        // The streamed source of the same shape: its own request
        // streams, the case's update log.
        let workload = StreamedWorkload::new(
            RequestConfig::default().rate_per_sec_per_cache(4.0),
            seed.wrapping_add(4),
            if trace_kind == 0 { 0.0 } else { duration },
        )
        .updates(&updates);
        let streamed_trace = workload.materialize_trace(&cat, caches);
        // The same grouping, then a change of grouping, then the same
        // grouping again with everything cold.
        let one_epoch = [ReplayEpoch::new(0.0, groups.clone())];
        let three_epochs = [
            ReplayEpoch::new(0.0, groups.clone()),
            ReplayEpoch::new(0.3 * duration, shaped_partition((shape + 1) % 5, seed, caches)),
            ReplayEpoch::new(0.7 * duration, groups.clone()),
        ];
        let mut schedule = FaultSchedule::new();
        if faulted {
            schedule = arb_schedule(seed.wrapping_add(3), caches, duration);
            // Two caches crash at one instant — in one group or in two —
            // and the last is retired while still down.
            let last = CacheId(caches - 1);
            let before = CacheId(caches.saturating_sub(2));
            schedule.push(0.25 * duration, FaultKind::CacheDown { cache: last });
            schedule.push(0.25 * duration, FaultKind::CacheDown { cache: before });
            schedule.push(0.5 * duration, FaultKind::CacheRetire { cache: last });
        }
        for freshness in [
            FreshnessProtocol::InvalidateOnAccess,
            FreshnessProtocol::OriginMulticast,
            FreshnessProtocol::TtlLease { ttl_ms: 6_000.0 },
        ] {
            for placement in [
                PlacementKind::SingleHolder,
                PlacementKind::adaptive(),
                PlacementKind::d_choices(),
            ] {
                let settings = Settings {
                    capacity_bytes: 96 << 10,
                    warmup_ms: duration / 8.0,
                    freshness,
                    placement,
                    ..Settings::default()
                };
                let config = settings.config();
                let rtt = net.rtt_matrix();
                let sources = [
                    (SimPlan::new(rtt, &cat, &trace), &trace),
                    (SimPlan::streamed(rtt, &cat, &workload), &streamed_trace),
                ];
                for (plan, materialized) in sources {
                    let plan = plan.config(config).faults(&schedule);
                    let over_trace = SimPlan::new(rtt, &cat, materialized)
                        .config(config)
                        .faults(&schedule);
                    let spec = spec::run(&net, &groups, &cat, materialized, settings, &schedule);
                    let what = format!("{freshness:?} / {placement:?}");
                    assert_every_context_matches(&plan, &over_trace, &groups, &spec, &what);
                }
                // Timelines, over the materialized trace.
                let plan = SimPlan::new(rtt, &cat, &trace).config(config).faults(&schedule);
                let timeline = |epochs: &[ReplayEpoch], pooled: bool| {
                    plain_and_observed(|obs| {
                        let context =
                            if pooled { RunContext::pooled() } else { RunContext::serial() };
                        simulate_epochs(&plan, epochs, &mut context.observe(obs)).map_err(
                            |e| match e {
                                EpochReplayError::Sim(e) => e,
                                other => panic!("valid timeline rejected: {other}"),
                            },
                        )
                    })
                };
                let flat = serial(&plan, &groups);
                prop_assert_eq!(document(&timeline(&one_epoch, false)), document(&flat));
                prop_assert_eq!(document(&timeline(&one_epoch, true)), document(&flat));
                let on_this_thread = timeline(&three_epochs, false);
                for threads in [1usize, 2, 8] {
                    ecg_par::set_max_threads(Some(threads));
                    let pooled = timeline(&three_epochs, true);
                    ecg_par::set_max_threads(None);
                    prop_assert_eq!(
                        document(&pooled),
                        document(&on_this_thread),
                        "{} threads",
                        threads
                    );
                }
            }
        }
    }

    /// Both layouts of the cooperative lookup — forced on every kernel
    /// run, and as the traffic rule picks them — report what the spec
    /// reports and count the request path as it does, in one document
    /// byte for byte: random
    /// groups down to one member, RTTs all equal or on a three-value
    /// grid so member position breaks the ties, updates that leave the
    /// nearest holder stale so the walk falls through to the next, down
    /// and retired peers, every freshness protocol, with and without an
    /// active placement policy, over a trace and over a streamed source,
    /// on the caller's thread and on the pool.
    #[test]
    fn dense_and_sparse_layouts_equal_the_spec(
        seed in any::<u64>(),
        caches in 1usize..13,
        shape in 0usize..5,
        flat_rtts in any::<bool>(),
        faulted in any::<bool>(),
    ) {
        let net = if flat_rtts {
            EdgeNetwork::from_rtt_matrix(RttMatrix::from_fn(caches + 1, |_, _| 20.0))
        } else {
            grid_network(seed, caches)
        };
        let groups = shaped_partition(shape, seed.wrapping_add(1), caches);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let cat = CatalogConfig::default()
            .documents(40)
            .dynamic_fraction(0.6)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let duration = 20_000.0;
        let mut requests = RequestConfig::default()
            .rate_per_sec_per_cache(3.0)
            .similarity(1.0)
            .generate(&cat, caches, duration, &mut rng);
        let mut updates = generate_updates(&cat, duration, &mut rng);
        plant_stale_nearest(&net, &groups, cat.len(), duration, &mut requests, &mut updates);
        let trace = merge_streams(&requests, &updates);
        let workload = StreamedWorkload::new(
            RequestConfig::default().rate_per_sec_per_cache(3.0),
            seed.wrapping_add(4),
            duration,
        )
        .updates(&updates);
        let streamed_trace = workload.materialize_trace(&cat, caches);
        let schedule = if faulted {
            arb_schedule(seed.wrapping_add(3), caches, duration)
        } else {
            FaultSchedule::new()
        };
        for freshness in [
            FreshnessProtocol::InvalidateOnAccess,
            FreshnessProtocol::OriginMulticast,
            FreshnessProtocol::TtlLease { ttl_ms: 6_000.0 },
        ] {
            for placement in [PlacementKind::SingleHolder, PlacementKind::adaptive()] {
                let settings = Settings {
                    capacity_bytes: 64 << 10,
                    warmup_ms: duration / 8.0,
                    freshness,
                    placement,
                    ..Settings::default()
                };
                let config = settings.config();
                let rtt = net.rtt_matrix();
                let sources = [
                    (SimPlan::new(rtt, &cat, &trace), &trace),
                    (SimPlan::streamed(rtt, &cat, &workload), &streamed_trace),
                ];
                for (plan, materialized) in sources {
                    let plan = plan.config(config).faults(&schedule);
                    let spec = spec::run(&net, &groups, &cat, materialized, settings, &schedule);
                    // The document the materialized trace writes on the
                    // caller's thread, as the rule picks the layouts.
                    let over_trace = SimPlan::new(rtt, &cat, materialized)
                        .config(config)
                        .faults(&schedule);
                    let reference = document(&serial(&over_trace, &groups)).unwrap().1;
                    for forced in [Some(Lookup::NearestFirst), Some(Lookup::Ranked), None] {
                        for pooled in [false, true] {
                            let mut dense_shards = 0;
                            let outcome = plain_and_observed(|obs| {
                                let ctx = if pooled { RunContext::pooled() } else { RunContext::serial() };
                                let mut ctx = match forced {
                                    Some(lookup) => ctx.force_lookup(lookup),
                                    None => ctx,
                                }
                                .observe(obs);
                                let report = simulate(&plan, &groups, &mut ctx);
                                dense_shards = ctx.stats().dense_shards;
                                report
                            });
                            let what = format!(
                                "layout {forced:?}, pooled {pooled} under {freshness:?} / {placement:?}"
                            );
                            assert_matches_spec(&outcome, &spec, &what);
                            prop_assert_eq!(&document(&outcome).unwrap().1, &reference, "{}", what);
                            match forced {
                                Some(Lookup::NearestFirst) => {
                                    prop_assert_eq!(dense_shards, groups.group_count())
                                }
                                Some(_) => prop_assert_eq!(dense_shards, 0),
                                None => {}
                            }
                        }
                    }
                }
            }
        }
    }

    /// The first invalid event in *trace order* decides the error, even
    /// when it belongs to the last group and an earlier group's share of
    /// the trace is also invalid further on — for the one-grouping run in
    /// every context and for a timeline run, whose epochs' windows an
    /// event without a valid time falls outside of: the index is a
    /// position in the caller's trace, ordered or shuffled, never in a
    /// segment.
    #[test]
    fn the_first_invalid_event_in_trace_order_is_the_error(
        seed in any::<u64>(),
        caches in 2usize..10,
        first_kind in 0usize..6,
        second_kind in 0usize..6,
        first_at in 0usize..3,
        shuffled in any::<bool>(),
    ) {
        let net = arb_network(seed, caches);
        let groups = shuffled_partition(seed.wrapping_add(1), caches, 4);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let cat = CatalogConfig::default().documents(30).generate(&mut rng);
        let requests = RequestConfig::default()
            .rate_per_sec_per_cache(3.0)
            .generate(&cat, caches, 8_000.0, &mut rng);
        let updates = generate_updates(&cat, 8_000.0, &mut rng);
        let mut trace = merge_streams(&requests, &updates);
        prop_assert!(trace.len() >= 4);
        if shuffled {
            for i in (1..trace.len()).rev() {
                trace.swap(i, rng.gen_range(0..=i));
            }
        }
        // The earlier corruption lands on the first event, on a request
        // of the last group (when it has one) or on the last event —
        // in a time-ordered trace, in the last epoch's window; the
        // later one anywhere after it.
        let last = groups.groups().last().unwrap();
        let in_last = |e: &TraceEvent| matches!(e, TraceEvent::Request(r) if last.contains(&CacheId(r.cache)));
        let first = match first_at {
            0 => 0,
            1 => trace[..trace.len() / 2].iter().position(in_last).unwrap_or(1),
            _ => trace.len() - 1,
        };
        let second = (first + 1 < trace.len()).then(|| rng.gen_range(first + 1..trace.len()));
        for (at, kind) in [(Some(first), first_kind), (second, second_kind)] {
            let Some(at) = at else { continue };
            // Kind 5 is a time that passes every per-value check and
            // lies past the run horizon.
            let bad_time = [f64::NAN, -5.0, f64::INFINITY, 1e12][if kind == 5 { 3 } else { kind % 3 }];
            match (&mut trace[at], kind) {
                (TraceEvent::Request(r), 3) => r.cache = caches + 3,
                (TraceEvent::Request(r), 4) => r.doc = DocId(cat.len() + 7),
                (TraceEvent::Update(u), 3 | 4) => u.doc = DocId(cat.len() + 7),
                (TraceEvent::Request(r), _) => r.time_ms = bad_time,
                (TraceEvent::Update(u), _) => u.time_ms = bad_time,
            }
        }
        let settings = Settings::default();
        let schedule = FaultSchedule::new();
        let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace);
        let reference = spec::run(&net, &groups, &cat, &trace, settings, &schedule);
        prop_assert!(reference.is_err());
        for (context, outcome) in every_context(&plan, &groups) {
            prop_assert_eq!(outcome.as_ref().err(), reference.as_ref().err(), "{}", context);
        }
        let epochs = [
            ReplayEpoch::new(0.0, groups.clone()),
            ReplayEpoch::new(3_000.0, GroupMap::singletons(caches)),
            ReplayEpoch::new(6_000.0, groups.clone()),
        ];
        let expected = reference.unwrap_err();
        for context in [RunContext::serial, RunContext::pooled] {
            let timeline = simulate_epochs(&plan, &epochs, &mut context());
            prop_assert_eq!(timeline, Err(EpochReplayError::Sim(expected.clone())));
        }
        if first_kind < 3 {
            prop_assert_eq!(expected, SimError::EventTimeInvalid { index: first });
        } else if first_kind == 5 {
            prop_assert_eq!(expected, SimError::EventTimeBeyondHorizon { index: first });
        }

        // A map or schedule that does not fit the network is rejected
        // before the trace is read at all, corrupt or not.
        let short = GroupMap::one_group(caches - 1);
        let err = simulate(&plan, &short, &mut RunContext::serial()).unwrap_err();
        prop_assert!(matches!(err, SimError::CacheCountMismatch { .. }));
        let short_epoch = [epochs[0].clone(), ReplayEpoch::new(3_000.0, short)];
        let err = simulate_epochs(&plan, &short_epoch, &mut RunContext::serial()).unwrap_err();
        prop_assert!(matches!(err, EpochReplayError::CacheCountMismatch { epoch: 1, .. }));
        let mut bad_schedule = FaultSchedule::new();
        bad_schedule.push(1.0, FaultKind::CacheDown { cache: CacheId(caches) });
        let plan = plan.faults(&bad_schedule);
        let reference = spec::run(&net, &groups, &cat, &trace, settings, &bad_schedule);
        prop_assert!(matches!(reference, Err(SimError::Fault(_))));
        for (context, outcome) in every_context(&plan, &groups) {
            prop_assert_eq!(outcome.as_ref().err(), reference.as_ref().err(), "{}", context);
        }
        let timeline = simulate_epochs(&plan, &epochs, &mut RunContext::pooled());
        prop_assert_eq!(timeline, Err(EpochReplayError::Sim(reference.unwrap_err())));
    }

    #[test]
    fn report_invariants_hold(
        seed in any::<u64>(),
        caches in 2usize..10,
        duration in 5_000.0f64..30_000.0,
    ) {
        let net = arb_network(seed, caches);
        let groups = arb_partition(seed.wrapping_add(1), caches, 4);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
        let cat = CatalogConfig::default()
            .documents(60)
            .dynamic_fraction(0.3)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let requests = RequestConfig::default().generate(&cat, caches, duration, &mut rng);
        let updates = generate_updates(&cat, duration, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let report = sim(&net, &groups, &cat, &trace, SimConfig::default()).unwrap();

        // Every request is accounted for exactly once.
        prop_assert_eq!(report.metrics.total_requests(), requests.len() as u64);
        let (mut local, mut peer, mut origin) = (0u64, 0u64, 0u64);
        for agg in report.metrics.per_cache() {
            local += agg.local_hits;
            peer += agg.peer_hits;
            origin += agg.origin_fetches;
            prop_assert_eq!(agg.local_hits + agg.peer_hits + agg.origin_fetches, agg.requests);
        }
        prop_assert_eq!(local + peer + origin, requests.len() as u64);
        // The origin served exactly the origin-fetch requests.
        prop_assert_eq!(report.origin_fetches, origin);
        prop_assert_eq!(report.origin_updates, updates.len() as u64);
        // Latency is non-negative and finite.
        let mean = report.average_latency_ms();
        prop_assert!(mean.is_finite() && mean >= 0.0);
        // Cache stats tie out with metric outcomes: every fresh hit in
        // the cache layer is a local hit in the metrics.
        prop_assert_eq!(report.cache_stats.fresh_hits, local);
    }

    #[test]
    fn singleton_groups_never_use_peers(
        seed in any::<u64>(),
        caches in 2usize..8,
    ) {
        let net = arb_network(seed, caches);
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = CatalogConfig::default().documents(30).generate(&mut rng);
        let requests = RequestConfig::default().generate(&cat, caches, 10_000.0, &mut rng);
        let trace = merge_streams(&requests, &[]);
        let report = sim(&net,
            &GroupMap::singletons(caches),
            &cat,
            &trace,
            SimConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(report.metrics.peer_bytes, 0);
        prop_assert_eq!(report.metrics.control_messages, 0);
        for agg in report.metrics.per_cache() {
            prop_assert_eq!(agg.peer_hits, 0);
        }
    }

    #[test]
    fn faster_network_is_never_slower(
        seed in any::<u64>(),
        caches in 2usize..6,
    ) {
        // Scaling every RTT down scales latency down (same trace, same
        // groups): a sanity check that latency is monotone in network
        // distance.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = RttMatrix::from_fn(caches + 1, |_, _| rng.gen_range(5.0..60.0));
        let slow = EdgeNetwork::from_rtt_matrix(base.clone());
        let fast = EdgeNetwork::from_rtt_matrix(RttMatrix::from_fn(caches + 1, |i, j| {
            base.get(i, j) * 0.5
        }));
        let cat = CatalogConfig::default().documents(40).generate(&mut rng);
        let requests = RequestConfig::default().generate(&cat, caches, 20_000.0, &mut rng);
        let trace = merge_streams(&requests, &[]);
        let groups = GroupMap::one_group(caches);
        let cfg = SimConfig::default();
        let slow_report = sim(&slow, &groups, &cat, &trace, cfg).unwrap();
        let fast_report = sim(&fast, &groups, &cat, &trace, cfg).unwrap();
        prop_assert!(
            fast_report.average_latency_ms() <= slow_report.average_latency_ms() + 1e-9
        );
    }

    #[test]
    fn freshness_protocol_invariants(
        seed in any::<u64>(),
        caches in 2usize..6,
        ttl in 1_000.0f64..60_000.0,
    ) {
        let net = arb_network(seed, caches);
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = CatalogConfig::default()
            .documents(40)
            .dynamic_fraction(0.5)
            .dynamic_update_rate_per_sec(0.05)
            .generate(&mut rng);
        let requests = RequestConfig::default().generate(&cat, caches, 30_000.0, &mut rng);
        let updates = generate_updates(&cat, 30_000.0, &mut rng);
        let trace = merge_streams(&requests, &updates);
        let groups = GroupMap::one_group(caches);

        let run = |protocol| {
            sim(&net, &groups, &cat, &trace,
                SimConfig::default().freshness(protocol)).unwrap()
        };
        let lazy = run(FreshnessProtocol::InvalidateOnAccess);
        let push = run(FreshnessProtocol::OriginMulticast);
        let lease = run(FreshnessProtocol::TtlLease { ttl_ms: ttl });

        // Version-checked protocols never serve stale data.
        prop_assert_eq!(lazy.metrics.stale_served, 0);
        prop_assert_eq!(push.metrics.stale_served, 0);
        // Only multicast sends push invalidations.
        prop_assert_eq!(lazy.metrics.invalidations_sent, 0);
        prop_assert_eq!(lease.metrics.invalidations_sent, 0);
        // Every protocol accounts for every request.
        for r in [&lazy, &push, &lease] {
            prop_assert_eq!(r.metrics.total_requests(), requests.len() as u64);
            prop_assert_eq!(r.origin_updates, updates.len() as u64);
        }
        // Staleness served is bounded by total requests.
        prop_assert!(lease.metrics.stale_served <= lease.metrics.total_requests());
        // Note: the lease can fetch either more (short TTL expires
        // never-updated documents) or less (long TTL rides out updates)
        // than the version-checked protocols, so no ordering holds.
    }
}
