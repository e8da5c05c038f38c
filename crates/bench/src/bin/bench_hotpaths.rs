//! Hot-path performance baseline: K-means, group formation, trace
//! replay.
//!
//! Times the optimized hot paths, against their retained reference
//! implementations where the library keeps one:
//!
//! * `kmeans/reference` vs `kmeans/pruned_flat` — the naive ragged-row
//!   Lloyd loop against the flat-storage, bound-pruned one (identical
//!   output, see `ecg_clustering::kmeans_reference`);
//! * `group_formation/sl_end_to_end` — the full SL pipeline (probing,
//!   feature matrix, clustering) as an absolute figure;
//! * `trace_replay/holder_index` — the simulator's cooperative-miss
//!   path on one big group whose caches mostly miss, as an absolute
//!   figure;
//! * `sim_order/group_major` — `simulate` on a partitioned network of
//!   the paper's shape, many groups of ~20, as an absolute figure;
//! * `utility_victim/reference_scan_*` vs `utility_victim/fast_*` — an
//!   insert that evicts 1, 2 or 8 of 69 residents under the utility
//!   policy: `DocumentCache::insert` (one approximate pass over the
//!   score keys, exact verification, index upkeep included) against a
//!   bare slab that scores every resident per victim (identical
//!   victims, checked before timing).
//!
//! Writes the run as machine-readable JSON (per-benchmark stats plus
//! derived speedups) so regressions can be diffed against the committed
//! baseline:
//!
//! ```text
//! cargo run --release -p ecg-bench --bin bench_hotpaths            # full, writes BENCH_hotpaths.json
//! cargo run --release -p ecg-bench --bin bench_hotpaths -- --quick # CI smoke sizes
//! cargo run --release -p ecg-bench --bin bench_hotpaths -- --out /tmp/b.json
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use criterion::{Criterion, SampleStats, Throughput};
use ecg_bench::{write_host_context, Scenario};
use ecg_cache::{DocumentCache, Entry, PolicyKind};
use ecg_clustering::{kmeans, kmeans_reference, FeatureMatrix, Initializer, KmeansConfig};
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_obs::json::JsonWriter;
use ecg_sim::{simulate, GroupMap, RunContext, SimConfig};
use ecg_topology::CacheId;
use ecg_workload::DocId;
use edge_cache_groups::cli::{finish, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

struct Sizes {
    kmeans_n: usize,
    kmeans_dim: usize,
    kmeans_k: usize,
    formation_caches: usize,
    replay_caches: usize,
    replay_duration_ms: f64,
    order_caches: usize,
    order_group_size: usize,
    order_duration_ms: f64,
    /// Evicting inserts per timed sample of `utility_victim`.
    victim_inserts: usize,
    samples: usize,
}

const FULL: Sizes = Sizes {
    kmeans_n: 5_000,
    kmeans_dim: 25,
    kmeans_k: 100,
    formation_caches: 200,
    replay_caches: 128,
    replay_duration_ms: 60_000.0,
    order_caches: 500,
    order_group_size: 20,
    order_duration_ms: 60_000.0,
    victim_inserts: 20_000,
    samples: 15,
};

const QUICK: Sizes = Sizes {
    kmeans_n: 300,
    kmeans_dim: 8,
    kmeans_k: 10,
    formation_caches: 60,
    replay_caches: 16,
    replay_duration_ms: 10_000.0,
    order_caches: 24,
    order_group_size: 4,
    order_duration_ms: 10_000.0,
    victim_inserts: 500,
    samples: 3,
};

/// Blob-structured points: landmark feature vectors of edge caches are
/// clustered by topology locality, not uniform noise, so the K-means
/// benchmark uses the same shape — `blobs` centers with a ±`spread`
/// scatter around each.
fn clustered_points(n: usize, dim: usize, blobs: usize, spread: f64, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..blobs)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..200.0)).collect())
        .collect();
    let mut m = FeatureMatrix::with_capacity(n, dim);
    for i in 0..n {
        let center = &centers[i % blobs];
        let row: Vec<f64> = center
            .iter()
            .map(|&c| c + rng.gen_range(-spread..spread))
            .collect();
        m.push_row(&row);
    }
    m
}

/// Residents of the `utility_victim` caches, and their common size.
const VICTIM_RESIDENTS: u64 = 69;
const VICTIM_UNIT_BYTES: u64 = 1_000;

/// What the `utility_victim` rows drive: a store that evicts on insert.
trait Evicting {
    /// Inserts `doc`, appending the victims to `evicted` in order.
    fn put(&mut self, doc: DocId, size: u64, cost: f64, now_ms: f64, evicted: &mut Vec<DocId>);
    fn take(&mut self, doc: DocId);
}

impl Evicting for DocumentCache {
    fn put(&mut self, doc: DocId, size: u64, cost: f64, now_ms: f64, evicted: &mut Vec<DocId>) {
        self.insert_with_evicted(doc, 1, size, cost, 0.05, now_ms, evicted);
    }

    fn take(&mut self, doc: DocId) {
        let _ = self.remove(doc);
    }
}

/// The utility policy as the cache ran it before the score keys: a bare
/// slab whose every victim is the `(Entry::utility, DocId)` minimum of
/// a scan over all residents. No index — the rows never look a
/// document up — so the comparison flatters it, not the cache.
struct ReferenceSlab {
    capacity_bytes: u64,
    used_bytes: u64,
    slab: Vec<(DocId, Entry)>,
}

impl Evicting for ReferenceSlab {
    fn put(&mut self, doc: DocId, size: u64, cost: f64, now_ms: f64, evicted: &mut Vec<DocId>) {
        evicted.clear();
        while self.used_bytes + size > self.capacity_bytes {
            let mut best: Option<(usize, DocId, f64)> = None;
            for (at, (resident, entry)) in self.slab.iter().enumerate() {
                let score = entry.utility(now_ms);
                if best
                    .is_none_or(|(_, d, least)| score < least || (score == least && *resident < d))
                {
                    best = Some((at, *resident, score));
                }
            }
            let Some((at, victim, _)) = best else { break };
            self.used_bytes -= self.slab.swap_remove(at).1.size_bytes;
            evicted.push(victim);
        }
        self.slab
            .push((doc, Entry::new(1, size, cost, 0.05, now_ms)));
        self.used_bytes += size;
    }

    fn take(&mut self, doc: DocId) {
        if let Some(at) = self.slab.iter().rposition(|(d, _)| *d == doc) {
            self.used_bytes -= self.slab.swap_remove(at).1.size_bytes;
        }
    }
}

/// The `utility_victim` workload: `inserts` times, one document of
/// `burst` units arrives 40 ms after the last and evicts `burst`
/// unit-size residents, then leaves again and `burst` unit documents
/// take its place (none of which evicts), so the next arrival finds 69
/// residents of mixed age and cost. Returns every victim, in order.
fn victim_cycles(
    store: &mut impl Evicting,
    burst: u64,
    inserts: usize,
    clock: &mut u64,
) -> Vec<DocId> {
    let mut victims = Vec::new();
    let mut evicted = Vec::new();
    for _ in 0..inserts {
        *clock += 1;
        let now_ms = *clock as f64 * 40.0;
        let next = *clock as usize * 16;
        let cost = |doc: usize| 20.0 + (doc * 37 % 101) as f64;
        store.put(
            DocId(next),
            burst * VICTIM_UNIT_BYTES,
            cost(next),
            now_ms,
            &mut evicted,
        );
        victims.extend_from_slice(&evicted);
        store.take(DocId(next));
        for unit in 1..=burst as usize {
            let doc = next + unit;
            store.put(
                DocId(doc),
                VICTIM_UNIT_BYTES,
                cost(doc),
                now_ms,
                &mut evicted,
            );
        }
    }
    victims
}

fn median_of(stats: &[SampleStats], name: &str) -> f64 {
    stats
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} did not run"))
        .median_ns
}

fn main() -> ExitCode {
    finish(run())
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1), &["quick"], &["out"])?;
    args.no_positionals()?;
    let quick = args.switch("quick");
    let out_path = args.value("out").unwrap_or("BENCH_hotpaths.json");
    let sizes = if quick { QUICK } else { FULL };

    let mut c = Criterion::default();

    // K-means: the pruned flat-storage loop vs the retained naive one.
    {
        // One blob per cluster with wide scatter, seeded with K-means++ so
        // each center lands in its own blob: after the first few
        // iterations the centers barely move while points stay far from
        // every foreign center — the steady-state regime the paper's
        // periodic re-clustering spends most of its time in, and the one
        // bound pruning is designed for.
        let pts = clustered_points(sizes.kmeans_n, sizes.kmeans_dim, sizes.kmeans_k, 30.0, 42);
        let config = KmeansConfig::new(sizes.kmeans_k);
        let mut group = c.benchmark_group("kmeans");
        group
            .sample_size(sizes.samples)
            .throughput(Throughput::Elements(sizes.kmeans_n as u64));
        // Reseed inside the body so every sample times identical work.
        group.bench_function("reference", |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                kmeans_reference(&pts, config, &Initializer::KmeansPlusPlus, &mut rng)
                    .expect("clustering")
            })
        });
        group.bench_function("pruned_flat", |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                kmeans(&pts, config, &Initializer::KmeansPlusPlus, &mut rng, None)
                    .expect("clustering")
            })
        });
        group.finish();
    }

    // Group formation end-to-end: probing + feature matrix + clustering.
    {
        let network = Scenario::network_only(sizes.formation_caches, 4_242);
        let scheme = SchemeConfig::sl(sizes.formation_caches / 10);
        let mut group = c.benchmark_group("group_formation");
        group
            .sample_size(sizes.samples)
            .throughput(Throughput::Elements(sizes.formation_caches as u64));
        group.bench_function("sl_end_to_end", |b| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| {
                form(
                    &FormPlan::new(network.rtt_matrix(), &scheme),
                    &mut FormContext::new(),
                    &mut rng,
                )
                .expect("formation")
            })
        });
        group.finish();
    }

    // Trace replay: one big cooperative group, caches small enough that
    // most requests miss and fan out to every peer.
    {
        let scenario = Scenario::build(sizes.replay_caches, sizes.replay_duration_ms, 99);
        let groups = GroupMap::one_group(sizes.replay_caches);
        let base = SimConfig::default().cache_capacity_bytes(128 * 1024);
        let mut group = c.benchmark_group("trace_replay");
        group
            .sample_size(sizes.samples)
            .throughput(Throughput::Elements(scenario.trace.len() as u64));
        let plan = scenario.plan(base);
        group.bench_function("holder_index", |b| {
            b.iter(|| simulate(&plan, &groups, &mut RunContext::serial()).expect("simulation"))
        });
        group.finish();
    }

    // Execution order: the paper's shape — many groups of ~20 — one group
    // live at a time.
    {
        let scenario = Scenario::build(sizes.order_caches, sizes.order_duration_ms, 77);
        let members: Vec<CacheId> = (0..sizes.order_caches).map(CacheId).collect();
        let lists = members
            .chunks(sizes.order_group_size)
            .map(<[CacheId]>::to_vec);
        let groups = GroupMap::new(sizes.order_caches, lists.collect()).expect("chunks partition");
        let mut group = c.benchmark_group("sim_order");
        group
            .sample_size(sizes.samples)
            .throughput(Throughput::Elements(scenario.trace.len() as u64));
        let plan = scenario.plan(SimConfig::default());
        group.bench_function("group_major", |b| {
            b.iter(|| simulate(&plan, &groups, &mut RunContext::serial()).expect("simulation"))
        });
        group.finish();
    }

    // Utility eviction: the cache's approximate pass + exact verification
    // against a scan that scores every resident for every victim.
    {
        let mut group = c.benchmark_group("utility_victim");
        group
            .sample_size(sizes.samples)
            .throughput(Throughput::Elements(sizes.victim_inserts as u64));
        let capacity_bytes = VICTIM_RESIDENTS * VICTIM_UNIT_BYTES;
        for burst in [1u64, 2, 8] {
            let mut fast = DocumentCache::new(capacity_bytes, PolicyKind::Utility);
            let mut reference = ReferenceSlab {
                capacity_bytes,
                used_bytes: 0,
                slab: Vec::new(),
            };
            // Fill both, then check they evict alike before timing.
            let (mut fast_clock, mut reference_clock) = (0, 0);
            let warm = VICTIM_RESIDENTS as usize + 200;
            assert_eq!(
                victim_cycles(&mut fast, burst, warm, &mut fast_clock),
                victim_cycles(&mut reference, burst, warm, &mut reference_clock),
                "the cache's victims are not the reference scan's"
            );
            group.bench_function(format!("reference_scan_burst_{burst}"), |b| {
                b.iter(|| {
                    victim_cycles(
                        &mut reference,
                        burst,
                        sizes.victim_inserts,
                        &mut reference_clock,
                    )
                })
            });
            group.bench_function(format!("fast_burst_{burst}"), |b| {
                b.iter(|| victim_cycles(&mut fast, burst, sizes.victim_inserts, &mut fast_clock))
            });
        }
        group.finish();
    }

    let stats = c.stats();
    let victim_speedup = |burst: u64| {
        median_of(
            stats,
            &format!("utility_victim/reference_scan_burst_{burst}"),
        ) / median_of(stats, &format!("utility_victim/fast_burst_{burst}"))
    };
    let kmeans_speedup =
        median_of(stats, "kmeans/reference") / median_of(stats, "kmeans/pruned_flat");
    println!("\nkmeans speedup (pruned_flat vs reference):    {kmeans_speedup:.2}x");
    for burst in [1, 2, 8] {
        let speedup = victim_speedup(burst);
        println!("utility victim speedup, {burst} per insert:         {speedup:.2}x");
    }

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("context").object(|w| {
            write_host_context(w, std::env::var("ECG_THREADS").ok().as_deref(), quick);
            w.key("threads_used").usize(ecg_par::max_threads());
        });
        w.key("benchmarks").array(|w| {
            for s in stats {
                w.object(|w| {
                    w.key("name").str(&s.name);
                    w.key("samples").usize(s.samples);
                    w.key("mean_ns").f64(s.mean_ns);
                    w.key("median_ns").f64(s.median_ns);
                    w.key("min_ns").f64(s.min_ns);
                    w.key("max_ns").f64(s.max_ns);
                    w.key("throughput_per_sec").opt_f64(s.throughput_per_sec());
                    w.key("throughput_unit");
                    match s.throughput {
                        Some(Throughput::Elements(_)) => w.str("elements"),
                        Some(Throughput::Bytes(_)) => w.str("bytes"),
                        None => w.null(),
                    };
                });
            }
        });
        w.key("speedups").object(|w| {
            w.key("kmeans").f64(kmeans_speedup);
            for burst in [1, 2, 8] {
                w.key(&format!("utility_victim_burst_{burst}"))
                    .f64(victim_speedup(burst));
            }
        });
    });
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(out_path, doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
