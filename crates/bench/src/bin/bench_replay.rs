//! Large-N scaling sweep for pooled runs over a streamed workload.
//!
//! Drives [`ecg_sim::simulate`] — a [`SimPlan::streamed`] plan under
//! [`RunContext::pooled`] — over an implicit
//! [`SyntheticRtt`](ecg_topology::SyntheticRtt) oracle and contiguous
//! groups of 100 caches, sweeping N × thread counts through
//! [`ecg_par::set_max_threads`]. Nothing global is ever materialized:
//! each shard regenerates its members' request streams from the master
//! seed, so the full sweep reaches N = 50 000 caches × 1M+ streamed
//! requests where an eager `Vec<Request>` (and the dense RTT matrix)
//! would not fit.
//!
//! Every configuration is also a determinism check: the merged
//! [`SimReport`](ecg_sim::SimReport) at each thread count must be
//! bit-identical to the threads = 1 report, or the binary panics.
//! Sharding and threading change time, never results.
//!
//! ```text
//! cargo run --release -p ecg-bench --bin bench_replay             # full, writes BENCH_replay.json
//! cargo run --release -p ecg-bench --bin bench_replay -- --quick  # CI smoke sizes
//! cargo run --release -p ecg-bench --bin bench_replay -- --out /tmp/r.json
//! ```
//!
//! The synthetic oracle, catalog, and update log are generated once per
//! N, outside the timing loop, so per-stage timings (`plan` /
//! `shards` / `merge`, from [`ecg_sim::RunStats`]) measure the run
//! only — never input setup.
//!
//! The emitted JSON records the host context (logical CPUs, the
//! `ECG_THREADS` environment override, quick/full mode) alongside the
//! per-stage timings, because wall-clock scaling is only meaningful
//! relative to the cores the run actually had.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_sim::{simulate, GroupMap, RunContext, SimConfig, SimPlan, SimReport, StreamedWorkload};
use ecg_topology::{CacheId, SyntheticRtt, SyntheticRttConfig};
use ecg_workload::{generate_updates, CatalogConfig, DocumentCatalog, RequestConfig, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Members per contiguous group — the shard granularity of the sweep.
const GROUP_SIZE: usize = 100;
/// Per-cache request rate; N = 50 000 × 12 s × 2/s = 1.2M streamed
/// requests (~1M after warm-up exclusion).
const RATE_PER_SEC: f64 = 2.0;
const DOCS: usize = 1_500;
const DURATION_SECS: f64 = 12.0;

struct RunResult {
    n: usize,
    threads: usize,
    shards: usize,
    requests: u64,
    shard_events: u64,
    plan_ms: f64,
    shards_ms: f64,
    merge_ms: f64,
    total_ms: f64,
    group_hit_rate: f64,
    avg_latency_ms: f64,
}

/// The per-N inputs, generated once outside the timing loop.
struct Inputs {
    net: SyntheticRtt,
    map: GroupMap,
    catalog: DocumentCatalog,
    updates: Vec<Update>,
    master: u64,
}

fn build_inputs(n: usize) -> Inputs {
    let net = SyntheticRttConfig::default().generate(n + 1, 9_000 + n as u64);
    let groups: Vec<Vec<CacheId>> = (0..n)
        .collect::<Vec<_>>()
        .chunks(GROUP_SIZE)
        .map(|chunk| chunk.iter().map(|&c| CacheId(c)).collect())
        .collect();
    let map = GroupMap::new(n, groups).expect("contiguous groups are a valid partition");
    let mut rng = StdRng::seed_from_u64(1_000 + n as u64);
    let catalog = CatalogConfig::default().documents(DOCS).generate(&mut rng);
    let updates = generate_updates(&catalog, DURATION_SECS * 1_000.0, &mut rng);
    let master: u64 = rng.gen();
    Inputs {
        net,
        map,
        catalog,
        updates,
        master,
    }
}

/// One replay at a forced thread count. Inputs are fixed per N, so two
/// runs that differ only in `threads` must produce identical reports.
fn run_replay(inputs: &Inputs, n: usize, threads: usize) -> (SimReport, RunResult) {
    let duration_ms = DURATION_SECS * 1_000.0;
    let workload = StreamedWorkload::new(
        RequestConfig::default().rate_per_sec_per_cache(RATE_PER_SEC),
        inputs.master,
        duration_ms,
    )
    .updates(&inputs.updates);
    let plan = SimPlan::streamed(&inputs.net, &inputs.catalog, &workload)
        .config(SimConfig::default().warmup_ms(duration_ms / 6.0));
    let mut ctx = RunContext::pooled();

    ecg_par::set_max_threads(Some(threads));
    let report = simulate(&plan, &inputs.map, &mut ctx).expect("streamed replay");
    ecg_par::set_max_threads(None);

    let stats = ctx.stats();
    let result = RunResult {
        n,
        threads,
        shards: stats.shards,
        requests: report.metrics.total_requests(),
        shard_events: stats.shard_events,
        plan_ms: stats.plan_ms,
        shards_ms: stats.shards_ms,
        merge_ms: stats.merge_ms,
        total_ms: stats.total_ms(),
        group_hit_rate: report.metrics.group_hit_rate().unwrap_or(0.0),
        avg_latency_ms: report.average_latency_ms(),
    };
    (report, result)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_replay.json".to_string());

    let sizes: &[usize] = if quick {
        &[500, 2_000]
    } else {
        &[5_000, 20_000, 50_000]
    };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 8] };

    let logical_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let ecg_threads_env = std::env::var("ECG_THREADS").ok();

    let mut runs: Vec<RunResult> = Vec::new();
    for &n in sizes {
        // Oracle, groups, catalog, and update log built once per N,
        // outside the timing loop.
        let inputs = build_inputs(n);
        let mut baseline = None;
        for &threads in thread_counts {
            let (report, run) = run_replay(&inputs, n, threads);
            eprintln!(
                "n={} threads={}: {} requests in {} shards, total {:.0} ms (plan {:.0}, shards {:.0}, merge {:.0})",
                run.n,
                run.threads,
                run.requests,
                run.shards,
                run.total_ms,
                run.plan_ms,
                run.shards_ms,
                run.merge_ms
            );
            match &baseline {
                None => baseline = Some(report),
                Some(first) => {
                    assert_eq!(
                        first, &report,
                        "n={n}: merged report diverged at {threads} threads"
                    );
                }
            }
            runs.push(run);
        }
    }

    // End-to-end speedups of the widest run vs threads = 1, per N.
    let max_threads = *thread_counts.last().expect("non-empty thread list");
    let mut speedups = String::new();
    for &n in sizes {
        let time_at = |threads: usize| {
            runs.iter()
                .find(|r| r.n == n && r.threads == threads)
                .expect("run present")
                .total_ms
        };
        if !speedups.is_empty() {
            speedups.push_str(", ");
        }
        speedups.push_str(&format!(
            "\"n{}_t{}\": {:.3}",
            n,
            max_threads,
            time_at(1) / time_at(max_threads)
        ));
    }

    let mut doc = String::from("{\n  \"context\": {\n");
    doc.push_str(&format!("    \"logical_cpus\": {logical_cpus},\n"));
    doc.push_str(&format!(
        "    \"ecg_threads_env\": {},\n",
        ecg_threads_env.map_or("null".to_string(), |v| format!("\"{v}\""))
    ));
    doc.push_str(&format!(
        "    \"mode\": \"{}\"\n  }},\n",
        if quick { "quick" } else { "full" }
    ));
    doc.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(&format!(
            "    {{\"n\": {}, \"threads\": {}, \"shards\": {}, \"requests\": {}, \
             \"shard_events\": {}, \"total_ms\": {:.3}, \"stages\": {{\"plan_ms\": {:.3}, \
             \"shards_ms\": {:.3}, \"merge_ms\": {:.3}}}, \"group_hit_rate\": {:.6}, \
             \"avg_latency_ms\": {:.6}, \"determinism_ok\": true}}",
            r.n,
            r.threads,
            r.shards,
            r.requests,
            r.shard_events,
            r.total_ms,
            r.plan_ms,
            r.shards_ms,
            r.merge_ms,
            r.group_hit_rate,
            r.avg_latency_ms
        ));
    }
    doc.push_str("\n  ],\n");
    doc.push_str(&format!("  \"end_to_end_speedups\": {{{speedups}}}\n}}\n"));
    std::fs::write(&out_path, doc).expect("write replay json");
    println!("wrote {out_path}");
}
