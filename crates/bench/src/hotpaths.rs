//! `ecg-bench time hotpaths`: the hot paths against their retained
//! reference implementations or comparators.
//!
//! * `kmeans/reference` vs `kmeans/pruned_flat` — the naive ragged-row
//!   Lloyd loop against the flat-storage, bound-pruned one (identical
//!   output, see `ecg_clustering::kmeans_reference`);
//! * `representation/feature_vectors` vs `representation/gnp_embedding`
//!   — the paper's cost argument: a feature vector is one probe per
//!   landmark, a GNP Euclidean embedding is a simplex fit per node;
//! * `utility_victim/reference_scan_*` vs `utility_victim/fast_*` — an
//!   insert that evicts 1, 2 or 8 of 69 residents under the utility
//!   policy: `DocumentCache::insert` (one approximate pass over the
//!   score keys, exact verification, index upkeep included) against a
//!   bare slab that scores every resident per victim (identical
//!   victims, checked before timing).
//!
//! Each pair of rows is one paired run of the shared sampler
//! (`sample_pairs`): a warm-up call of each side, then `samples` pairs
//! in ABBA order. Both rows' statistics come from those calls, and the
//! pair's `speedups` entry is the `Ratio` of the per-pair times
//! (median, quartiles and the pairs the fast side won), so the host's
//! drift between the two sides stays out of it. Every call reseeds its
//! own RNG, so all of a row's samples time identical work. Writes the
//! run as machine-readable JSON (per-row stats plus the paired speedups)
//! so regressions can be diffed against the committed baseline:
//!
//! ```text
//! cargo run --release -p ecg-bench -- time hotpaths           # full, writes BENCH_hotpaths.json
//! cargo run --release -p ecg-bench -- time hotpaths --quick   # CI smoke sizes
//! cargo run --release -p ecg-bench -- time hotpaths --out /tmp/b.json
//! ```

use crate::sampler::{sample_pairs, Ratio, Summary};
use crate::{write_host_context, Scenario};
use ecg_cache::{DocumentCache, Entry, PolicyKind};
use ecg_clustering::{kmeans, kmeans_reference, FeatureMatrix, Initializer, KmeansConfig};
use ecg_coords::{build_feature_matrix, embed_network, GnpConfig, ProbeConfig, Prober};
use ecg_obs::json::JsonWriter;
use ecg_workload::DocId;
use edge_cache_groups::cli::stdout_error;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Write;

struct Sizes {
    kmeans_n: usize,
    kmeans_dim: usize,
    kmeans_k: usize,
    /// Evicting inserts per timed sample of `utility_victim`.
    victim_inserts: usize,
    /// Pairs per paired run: each row's timed calls.
    samples: usize,
}

const FULL: Sizes = Sizes {
    kmeans_n: 5_000,
    kmeans_dim: 25,
    kmeans_k: 100,
    victim_inserts: 20_000,
    samples: 15,
};

const QUICK: Sizes = Sizes {
    kmeans_n: 300,
    kmeans_dim: 8,
    kmeans_k: 10,
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

/// One timed row: its name, per-call wall times in nanoseconds, and the
/// elements one call processes.
struct Row {
    name: String,
    ns: Summary,
    elements: u64,
}

/// Times rows in run order on the shared sampler, each result
/// `black_box`ed past its clock reading, and prints each row and
/// speed-up to `out` as it lands.
struct Sampler<'a, W> {
    samples: usize,
    rows: Vec<Row>,
    speedups: Vec<(String, Ratio)>,
    out: &'a mut W,
}

impl<W: Write> Sampler<'_, W> {
    /// Times a `slow` and a `fast` row as one paired run of `samples`
    /// pairs, and records the speed-up `key`: the ratio of the slow
    /// side's times over the fast side's.
    fn pair<A, B>(
        &mut self,
        key: &str,
        [slow, fast]: [&str; 2],
        elements: u64,
        call_slow: impl FnMut() -> A,
        call_fast: impl FnMut() -> B,
    ) -> Result<(), String> {
        let (slow_ns, fast_ns) = sample_pairs(
            self.samples,
            (call_slow, |out| {
                black_box(out);
            }),
            (call_fast, |out| {
                black_box(out);
            }),
        );
        self.row(slow, elements, &slow_ns)?;
        self.row(fast, elements, &fast_ns)?;
        let Some(ratio) = Ratio::of(&slow_ns, &fast_ns) else {
            return Ok(());
        };
        writeln!(self.out, "{:<40} {ratio}", format!("speedup {key}")).map_err(stdout_error)?;
        self.speedups.push((key.to_string(), ratio));
        Ok(())
    }

    fn row(&mut self, name: &str, elements: u64, times_ns: &[f64]) -> Result<(), String> {
        let Some(ns) = Summary::of(times_ns) else {
            return Ok(());
        };
        writeln!(
            self.out,
            "{name:<40} median {:>10.3} ms  min {:>10.3} ms  max {:>10.3} ms",
            ns.median / 1e6,
            ns.min / 1e6,
            ns.max / 1e6
        )
        .map_err(stdout_error)?;
        self.rows.push(Row {
            name: name.to_string(),
            ns,
            elements,
        });
        Ok(())
    }
}

/// Times every row at the `quick` or the full sizes, printing each row
/// to `out` as it lands, and writes the document to `out_path`.
pub fn run(quick: bool, out_path: &str, out: &mut impl Write) -> Result<(), String> {
    let sizes = if quick { QUICK } else { FULL };
    let mut sampler = Sampler {
        samples: sizes.samples,
        rows: Vec::new(),
        speedups: Vec::new(),
        out,
    };

    // K-means: the retained naive loop vs the pruned flat-storage one.
    {
        // One blob per cluster with wide scatter, seeded with K-means++ so
        // each center lands in its own blob: after the first few
        // iterations the centers barely move while points stay far from
        // every foreign center — the steady-state regime the paper's
        // periodic re-clustering spends most of its time in, and the one
        // bound pruning is designed for.
        let pts = clustered_points(sizes.kmeans_n, sizes.kmeans_dim, sizes.kmeans_k, 30.0, 42);
        let config = KmeansConfig::new(sizes.kmeans_k);
        let elements = sizes.kmeans_n as u64;
        sampler.pair(
            "kmeans",
            ["kmeans/reference", "kmeans/pruned_flat"],
            elements,
            || {
                let mut rng = StdRng::seed_from_u64(7);
                kmeans_reference(&pts, config, &Initializer::KmeansPlusPlus, &mut rng)
                    .expect("clustering")
            },
            || {
                let mut rng = StdRng::seed_from_u64(7);
                kmeans(&pts, config, &Initializer::KmeansPlusPlus, &mut rng, None)
                    .expect("clustering")
            },
        )?;
    }

    // Position representation for 85 caches against 15 landmarks: the
    // feature matrix formation builds vs a 7-dimensional GNP embedding.
    {
        let network = Scenario::network_only(100, 11);
        let landmarks: Vec<usize> = (0..15).collect();
        let nodes: Vec<usize> = (16..=100).collect();
        let elements = nodes.len() as u64;
        let gnp = GnpConfig::default()
            .dimensions(7)
            .restarts(1)
            .max_iterations(400);
        sampler.pair(
            "gnp_vs_feature_vectors",
            [
                "representation/gnp_embedding",
                "representation/feature_vectors",
            ],
            elements,
            || {
                let mut rng = StdRng::seed_from_u64(1);
                let prober = Prober::new(network.rtt_matrix(), ProbeConfig::default());
                embed_network(gnp, &prober, &nodes, &landmarks, &mut rng)
            },
            || {
                let mut rng = StdRng::seed_from_u64(1);
                let prober = Prober::new(network.rtt_matrix(), ProbeConfig::default());
                build_feature_matrix(&prober, &nodes, &landmarks, &mut rng)
            },
        )?;
    }

    // Utility eviction: the cache's approximate pass + exact verification
    // against a scan that scores every resident for every victim.
    {
        let capacity_bytes = VICTIM_RESIDENTS * VICTIM_UNIT_BYTES;
        let elements = sizes.victim_inserts as u64;
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
            sampler.pair(
                &format!("utility_victim_burst_{burst}"),
                [
                    &format!("utility_victim/reference_scan_burst_{burst}"),
                    &format!("utility_victim/fast_burst_{burst}"),
                ],
                elements,
                || {
                    victim_cycles(
                        &mut reference,
                        burst,
                        sizes.victim_inserts,
                        &mut reference_clock,
                    )
                },
                || victim_cycles(&mut fast, burst, sizes.victim_inserts, &mut fast_clock),
            )?;
        }
    }

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("context").object(|w| {
            write_host_context(w, std::env::var("ECG_THREADS").ok().as_deref(), quick);
            w.key("threads_used").usize(ecg_par::max_threads());
        });
        w.key("benchmarks").array(|w| {
            for row in &sampler.rows {
                w.object(|w| {
                    w.key("name").str(&row.name);
                    w.key("samples").usize(row.ns.samples);
                    w.key("mean_ns").f64(row.ns.mean);
                    w.key("median_ns").f64(row.ns.median);
                    w.key("min_ns").f64(row.ns.min);
                    w.key("max_ns").f64(row.ns.max);
                    w.key("throughput_per_sec")
                        .f64(row.ns.per_second(row.elements));
                    w.key("throughput_unit").str("elements");
                });
            }
        });
        w.key("speedups").object(|w| {
            for (key, ratio) in &sampler.speedups {
                ratio.write(w.key(key));
            }
        });
    });
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(out_path, doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(sampler.out, "wrote {out_path}").map_err(stdout_error)
}
