//! Property-based tests for the simulator.

use ecg_cache::PolicyKind;
use ecg_obs::Obs;
use ecg_sim::{
    simulate, simulate_epochs, simulate_time_major, CacheAggregate, EpochReplayError, FaultKind,
    FaultSchedule, FreshnessProtocol, GroupMap, LatencyModel, Lookup, PlacementKind, ReplayEpoch,
    RunContext, SimConfig, SimError, SimPlan, SimReport, StreamedWorkload,
};
use ecg_topology::{CacheId, EdgeNetwork, RttMatrix};
use ecg_workload::{
    generate_updates, merge_streams, CatalogConfig, DocId, DocumentCatalog, Request, RequestConfig,
    TraceEvent, Update,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// caches that are already down or were never down, plus a brownout.
/// Cache 0 crashes, recovers and retires in every schedule.
fn arb_schedule(seed: u64, caches: usize, duration_ms: f64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = FaultSchedule::new().failover_penalty_ms(7.0);
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
    schedule.push(0.3 * duration_ms, FaultKind::BrownoutStart { factor: 2.0 });
    schedule.push(0.6 * duration_ms, FaultKind::BrownoutEnd);
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
/// observation, its metrics document.
type Observed = Result<(SimReport, String), SimError>;

/// Runs `run` without a bundle and with one; the reports must agree.
fn plain_and_observed(
    mut run: impl FnMut(Option<&mut Obs>) -> Result<SimReport, SimError>,
) -> Observed {
    let plain = run(None)?;
    let mut obs = Obs::new();
    let observed = run(Some(&mut obs))?;
    assert_eq!(plain, observed, "observation changed the report");
    Ok((plain, obs.to_json()))
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

/// The time-major reference run.
fn oracle(
    net: &EdgeNetwork,
    groups: &GroupMap,
    cat: &DocumentCatalog,
    trace: &[TraceEvent],
    config: SimConfig,
    schedule: &FaultSchedule,
) -> Observed {
    plain_and_observed(|obs| simulate_time_major(net, groups, cat, trace, config, schedule, obs))
}

/// The entry point on the caller's thread.
fn serial(plan: &SimPlan<'_>, groups: &GroupMap) -> Observed {
    plain_and_observed(|obs| simulate(plan, groups, &mut RunContext::serial().observe(obs)))
}

/// Every way of running `plan` under `groups` — the caller's thread,
/// the pool at 1, 2 and 8 threads; each plain and observed — as
/// `(label, outcome)`.
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

/// One group in id order is a group like any other. It used to run on
/// the caller's matrix and trace with the time-major oracle's
/// allocations, to the byte; it now pays what every group-major run
/// pays — 4 bytes of plan per trace event, the per-cache recorder the
/// fold merges into — and, for the first group on its thread only, the
/// thread's group store: the `(N + 1)²` sub-matrix, one block of
/// gathered records, the holder index and peer masks, the kernel's
/// recorder, and caches whose buffers grow as the oracle's do (the
/// caches evict, so that includes the score keys of every evicting
/// cache, 24 bytes per slab slot). A later run on the thread finds the
/// store warm and allocates none of that again, whichever order the one
/// group's members are listed in. (That is the sparse layout, the
/// oracle's own; the dense one adds at most 36 bytes per request on
/// top, below.)
#[test]
fn the_whole_network_is_one_plan_and_one_sub_matrix_away_from_the_oracle() {
    let caches = 12;
    let net = arb_network(3, caches);
    let mut rng = StdRng::seed_from_u64(4);
    let cat = CatalogConfig::default().documents(40).generate(&mut rng);
    let requests = RequestConfig::default().generate(&cat, caches, 10_000.0, &mut rng);
    let trace = merge_streams(&requests, &generate_updates(&cat, 10_000.0, &mut rng));
    let config = SimConfig::default().cache_capacity_bytes(48 << 10);
    let schedule = FaultSchedule::new();
    let in_order = GroupMap::one_group(caches);
    let backwards = shaped_partition(1, 0, caches);
    let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace).config(config);

    let time_major =
        || simulate_time_major(&net, &in_order, &cat, &trace, config, &schedule, None).unwrap();
    // Unmeasured: leaves the thread's eviction score buffer at the size
    // every later run needs.
    assert!(time_major().cache_stats.evictions > 0);
    let (oracle, oracle_bytes) = allocated_by(time_major);
    let positions = 4 * trace.len() as u64;
    let sub_matrix = 8 * ((caches + 1) * (caches + 1)) as u64;
    // Two lanes of 128 records of 24 bytes.
    let record_block = 2 * 128 * 24;
    let sparse = || RunContext::serial().force_lookup(Lookup::Ranked);
    let (cold, cold_bytes) = allocated_by(|| simulate(&plan, &in_order, &mut sparse()).unwrap());
    assert_eq!(cold, oracle);
    let extra = cold_bytes - oracle_bytes;
    let budget = positions + sub_matrix + record_block;
    assert!(extra >= budget, "{extra} B");
    assert!(extra < budget + (4 << 10), "{extra} B");

    // Warm, the run costs less than the oracle, plan included: the
    // oracle grows its caches and builds its index, origin and
    // recorder, the store lends its own. What is left is the plan, the
    // recorder the fold merges into (a row per cache and a 257-bin
    // latency histogram) and ≈ 1.7 KiB of per-member bookkeeping —
    // liveness, positions, the one-group map, the fault script — less
    // than that plus the smallest thing the store lends, the holder
    // index (one word per document at 12 caches): a warm run that
    // allocated a sub-matrix, an index or a kernel recorder would not
    // fit.
    let fold_recorder = (caches * std::mem::size_of::<CacheAggregate>() + 8 * 257) as u64;
    let bookkeeping = 1_900;
    let warm_budget = positions + fold_recorder + bookkeeping;
    let holder_index = 8 * cat.len() as u64;
    let mut warm_runs = Vec::new();
    for groups in [&in_order, &backwards] {
        let (warm, warm_bytes) = allocated_by(|| simulate(&plan, groups, &mut sparse()).unwrap());
        assert_eq!(
            warm.metrics.total_requests(),
            oracle.metrics.total_requests()
        );
        assert!(
            warm_bytes <= warm_budget,
            "{warm_bytes} B > {warm_budget} B"
        );
        assert!(
            warm_bytes + holder_index > warm_budget,
            "{warm_bytes} B: the budget no longer catches a holder index"
        );
        assert!(warm_bytes < oracle_bytes, "{warm_bytes} B");
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
/// group. Each equals the time-major oracle over its materialized trace,
/// serial and pooled, at 1 and 8 threads.
#[test]
fn a_warm_store_runs_singletons_and_an_empty_stream_like_the_oracle() {
    let caches = 12;
    let net = arb_network(31, caches);
    let mut rng = StdRng::seed_from_u64(32);
    let cat = CatalogConfig::default().documents(60).generate(&mut rng);
    let duration = 15_000.0;
    let updates = generate_updates(&cat, duration, &mut rng);
    let rtt = net.rtt_matrix();
    let config = SimConfig::default()
        .cache_capacity_bytes(64 << 10)
        .warmup_ms(1_000.0);
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
        let reference = oracle(&net, groups, &cat, &materialized, config, &no_faults);
        let (report, _) = reference.as_ref().expect("a valid run");
        let silent_run = workload.duration_ms() == 0.0;
        assert_eq!(report.metrics.total_requests() == 0, silent_run);
        assert_eq!(report.origin_updates, updates.len() as u64);
        for threads in [1usize, 8] {
            ecg_par::set_max_threads(Some(threads));
            simulate(&warm_up, &one, &mut RunContext::serial()).unwrap();
            simulate(&warm_up, &one, &mut RunContext::pooled()).unwrap();
            let serial = serial(&plan, groups);
            let pooled = plain_and_observed(|obs| {
                simulate(&plan, groups, &mut RunContext::pooled().observe(obs))
            });
            ecg_par::set_max_threads(None);
            let shape = (groups.group_count(), silent_run, threads);
            assert_eq!(
                serial, reference,
                "serial, (groups, silent, threads) {shape:?}"
            );
            assert_eq!(
                pooled, reference,
                "pooled, (groups, silent, threads) {shape:?}"
            );
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
                outcome, fresh[case],
                "case {case}, round {round}, order {order:?}"
            );
        }
    }
}

/// A timestamp is accepted up to the run horizon — 2¹⁸ degradation
/// timeline buckets of the schedule's width — and a typed error from
/// there on, from every entry point: one request at 10¹² ms used to make
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
    // Every way in: the oracle, the one-grouping run serial and pooled,
    // a timeline run (whose error names the caller's trace position).
    let every_entry_point = |trace: &[TraceEvent], schedule: &FaultSchedule| {
        let config = SimConfig::default();
        let plan = SimPlan::new(net.rtt_matrix(), &cat, trace).faults(schedule);
        let reference = simulate_time_major(&net, &groups, &cat, trace, config, schedule, None);
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
    // The horizon follows the bucket width, not the clock.
    let fine = FaultSchedule::new().timeline_bucket_ms(1.0);
    assert!(every_entry_point(&at(262_143.5), &fine).is_ok());
    assert_eq!(every_entry_point(&at(262_143.999_6), &fine), too_late);
    assert_eq!(every_entry_point(&at(262_144.0), &fine), too_late);
    let coarse = FaultSchedule::new().timeline_bucket_ms(1e9);
    assert!(every_entry_point(&at(1e12), &coarse).is_ok());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The group-major driver — per-group position plan or regenerated
    /// streams, sub-topology, fault split, pool fan-out, group-order
    /// fold, one observability flush — reports and observes exactly what
    /// one time-major pass over the whole map does, however it is run:
    /// on the caller's thread or on the pool at 1, 2 and 8 threads, with
    /// or without a bundle, over a materialized trace or over the
    /// streamed workload it materializes; a one-epoch timeline is the
    /// same run again, and a timeline of several epochs does not depend
    /// on the context either.
    #[test]
    fn group_major_driver_equals_the_time_major_oracle(
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
            schedule =
                arb_schedule(seed.wrapping_add(3), caches, duration).timeline_bucket_ms(3_000.0);
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
                let config = SimConfig::default()
                    .cache_capacity_bytes(96 << 10)
                    .warmup_ms(duration / 8.0)
                    .freshness(freshness)
                    .placement(placement);
                let rtt = net.rtt_matrix();
                let sources = [
                    (SimPlan::new(rtt, &cat, &trace), &trace),
                    (SimPlan::streamed(rtt, &cat, &workload), &streamed_trace),
                ];
                for (plan, materialized) in sources {
                    let plan = plan.config(config).faults(&schedule);
                    let reference =
                        oracle(&net, &groups, &cat, materialized, config, &schedule);
                    for (context, outcome) in every_context(&plan, &groups) {
                        prop_assert_eq!(
                            &outcome, &reference,
                            "{} diverged under {:?} / {:?}",
                            context, freshness, placement
                        );
                    }
                    // The reference scan, through the hook: the same
                    // report (its document counts no holder work).
                    let mut scan = RunContext::serial().force_lookup(Lookup::Scan);
                    let scanned = simulate(&plan, &groups, &mut scan);
                    prop_assert_eq!(scanned, reference.map(|(report, _)| report));
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
                prop_assert_eq!(&timeline(&one_epoch, false), &flat);
                prop_assert_eq!(&timeline(&one_epoch, true), &flat);
                let on_this_thread = timeline(&three_epochs, false);
                for threads in [1usize, 2, 8] {
                    ecg_par::set_max_threads(Some(threads));
                    let pooled = timeline(&three_epochs, true);
                    ecg_par::set_max_threads(None);
                    prop_assert_eq!(&pooled, &on_this_thread, "{} threads", threads);
                }
            }
        }
    }

    /// Both layouts of the cooperative lookup — forced on every kernel
    /// run, and as the traffic rule picks them — report and observe
    /// exactly what the time-major oracle (always sparse) does: random
    /// groups down to one member, RTTs all equal or on a three-value
    /// grid so member position breaks the ties, updates that leave the
    /// nearest holder stale so the walk falls through to the next, down
    /// and retired peers, every freshness protocol, with and without an
    /// active placement policy, over a trace and over a streamed source,
    /// on the caller's thread and on the pool.
    #[test]
    fn dense_and_sparse_layouts_equal_the_time_major_oracle(
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
                let config = SimConfig::default()
                    .cache_capacity_bytes(64 << 10)
                    .warmup_ms(duration / 8.0)
                    .freshness(freshness)
                    .placement(placement);
                let rtt = net.rtt_matrix();
                let sources = [
                    (SimPlan::new(rtt, &cat, &trace), &trace),
                    (SimPlan::streamed(rtt, &cat, &workload), &streamed_trace),
                ];
                for (plan, materialized) in sources {
                    let plan = plan.config(config).faults(&schedule);
                    let reference = oracle(&net, &groups, &cat, materialized, config, &schedule);
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
                            prop_assert_eq!(
                                &outcome, &reference,
                                "layout {:?}, pooled {} under {:?} / {:?}",
                                forced, pooled, freshness, placement
                            );
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
        let config = SimConfig::default();
        let schedule = FaultSchedule::new();
        let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace);
        let reference = oracle(&net, &groups, &cat, &trace, config, &schedule);
        prop_assert!(reference.is_err());
        for (context, outcome) in every_context(&plan, &groups) {
            prop_assert_eq!(&outcome, &reference, "{}", context);
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
        let reference = oracle(&net, &groups, &cat, &trace, config, &bad_schedule);
        prop_assert!(matches!(reference, Err(SimError::Fault(_))));
        for (context, outcome) in every_context(&plan, &groups) {
            prop_assert_eq!(&outcome, &reference, "{}", context);
        }
        let timeline = simulate_epochs(&plan, &epochs, &mut RunContext::pooled());
        prop_assert_eq!(timeline, Err(EpochReplayError::Sim(reference.unwrap_err())));
    }

    /// The directory path (holder bits, down counts, memoised slowest
    /// reply) reports exactly what asking every member does.
    #[test]
    fn holder_index_path_equals_the_full_scan(
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
                let base = SimConfig::default()
                    .cache_capacity_bytes(96 << 10)
                    .freshness(freshness)
                    .placement(placement);
                let run = |forced: Option<Lookup>| {
                    let mut obs = Obs::new();
                    let plan = SimPlan::new(net.rtt_matrix(), &cat, &trace)
                        .config(base)
                        .faults(&schedule);
                    let ctx = RunContext::serial();
                    let ctx = match forced {
                        Some(lookup) => ctx.force_lookup(lookup),
                        None => ctx,
                    };
                    let mut ctx = ctx.observe(Some(&mut obs));
                    let report = simulate(&plan, &groups, &mut ctx).unwrap();
                    let sim = |name: &str| obs.metrics.counter(&format!("sim.{name}"));
                    let holder = [
                        sim("holder.group_checks"),
                        sim("holder.ruled_out"),
                        sim("holder.bit_tests"),
                    ];
                    (report, holder, sim("peer_hits"), sim("coop_misses"))
                };
                let (indexed, [group_checks, ruled_out, bit_tests], peer_hits, coop_misses) =
                    run(None);
                let (scanned, scan_counters, ..) = run(Some(Lookup::Scan));
                prop_assert_eq!(
                    &indexed,
                    &scanned,
                    "diverged under {:?} / {:?}", freshness, placement
                );
                prop_assert!(indexed.metrics.degradation.recoveries > 0);
                prop_assert!(indexed.metrics.degradation.retirements > 0);
                // One group check per cooperative lookup, whichever way
                // it ended; a lookup not ruled out bit-tests at least
                // the holder it saw, and only such a lookup can end in a
                // peer hit.
                prop_assert_eq!(group_checks, peer_hits + coop_misses);
                prop_assert!(bit_tests >= group_checks - ruled_out);
                prop_assert!(peer_hits <= group_checks - ruled_out);
                prop_assert_eq!(scan_counters, [0, 0, 0]);
            }
        }
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
    fn higher_bandwidth_is_never_slower(
        seed in any::<u64>(),
        caches in 2usize..6,
    ) {
        let net = arb_network(seed, caches);
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = CatalogConfig::default().documents(40).generate(&mut rng);
        let requests = RequestConfig::default().generate(&cat, caches, 20_000.0, &mut rng);
        let trace = merge_streams(&requests, &[]);
        let groups = GroupMap::one_group(caches);
        let slow = sim(&net, &groups, &cat, &trace,
            SimConfig::default().latency(LatencyModel::default().bandwidth_mbps(5.0)),
        ).unwrap();
        let fast = sim(&net, &groups, &cat, &trace,
            SimConfig::default().latency(LatencyModel::default().bandwidth_mbps(500.0)),
        ).unwrap();
        prop_assert!(fast.average_latency_ms() <= slow.average_latency_ms() + 1e-9);
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
