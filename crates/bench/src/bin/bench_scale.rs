//! Large-N scaling sweep for full SL / SDSL group formation.
//!
//! Drives the formation pipeline through [`ecg_core::form`] under a
//! per-row plan ([`ecg_core::FormPlan::per_row`]) — landmark selection
//! and feature matrix construction on per-row derived RNG streams,
//! K-means through the configured engine — plus the group
//! interaction cost metric, over an implicit [`SyntheticRtt`] oracle
//! (O(n) state, so N = 100 000 fits where a dense RTT matrix would need
//! ~80 GB). It runs one fixed grid:
//!
//! * every engine at k = N/100, across the thread counts 1, 2, 4, … up
//!   to the host's logical CPUs (never fewer than `[1, 2]`, so every
//!   configuration runs at two counts at least): blocked-scan Lloyd at
//!   N = 5k / 20k / 50k; tree-assign Lloyd one size class higher, to
//!   N = 100k (k = 1 000), where the flat scan is impractical; and
//!   mini-batch (batch 2 048 × 40 iterations, on the blocked kernel) at
//!   N = 20k / 50k / 100k;
//! * the crossover behind `TREE_AUTO_MIN_K` (DESIGN.md): blocked and
//!   tree Lloyd at N = 5k / 20k and k = 16 … 200, one thread. Its
//!   `tree_vs_blocked` entries are the summed SL + SDSL K-means
//!   medians, tree over blocked.
//!
//! The nearest-center engine is forced through the scheme's hidden
//! hook, whatever k is. Every cell is one warm-up call and then seven
//! timed calls (three with `--quick`) on the shared sampler
//! ([`ecg_bench::sample`]), each one formation plus its GIC evaluation; a cell reports the
//! median total with its min and max, and the median of each formation
//! stage (`FormContext::stats`) over the same calls. `gic_ms`, `seed_ms`
//! and `neighbour_build_ms` are side measurements on the formed outcome,
//! sampled the same way: the GIC evaluation, one seeding draw of the
//! scheme's initializer and one neighbour-table build over the final
//! centers; `neighbour_share` is the share of points those tables
//! settle. The oracle is generated once per N, outside every timing.
//!
//! Every call is also a determinism check: it must reproduce the
//! assignments and the bit-exact GIC of the first call of its K-means
//! variant at that (scheme, N, k) — across thread counts *and across
//! assignment engines*, because the KD-tree scan is contractually
//! bit-identical to the blocked scan — or the binary panics.
//! Optimizations change time, never results.
//!
//! ```text
//! cargo run --release -p ecg-bench --bin bench_scale             # full, writes BENCH_scale.json
//! cargo run --release -p ecg-bench --bin bench_scale -- --quick  # CI smoke grid
//! cargo run --release -p ecg-bench --bin bench_scale -- --out /tmp/s.json
//! ```
//!
//! The emitted JSON records the host context (logical CPUs, the
//! `ECG_THREADS` environment override, quick/full mode) alongside the
//! timings, because wall-clock scaling is only meaningful relative to
//! the cores the run actually had.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_bench::{logical_cpus, sample, write_host_context, Summary};
use ecg_clustering::{
    server_distance_weights, AssignMode, CenterTree, Initializer, KmeansVariant, MiniBatchConfig,
    NeighbourTiles, NEIGHBOURS,
};
use ecg_core::{form, FormContext, FormPlan, FormStats, SchemeConfig};
use ecg_obs::json::JsonWriter;
use ecg_topology::{CacheId, RttSource, SyntheticRtt, SyntheticRttConfig};
use edge_cache_groups::cli::{finish, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

/// A formation scheme; SDSL runs at θ = 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Scheme {
    Sl,
    Sdsl,
}

const SCHEMES: [Scheme; 2] = [Scheme::Sl, Scheme::Sdsl];

/// A K-means engine: Lloyd through the blocked scan or the KD-tree, or
/// mini-batch (its scan is batch-sized) on the blocked kernel.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Blocked,
    Tree,
    MiniBatch,
}

/// One cell of the grid.
#[derive(Clone, Copy, PartialEq)]
struct Cell {
    scheme: Scheme,
    engine: Engine,
    n: usize,
    k: usize,
    threads: usize,
}

impl Cell {
    fn new(scheme: Scheme, engine: Engine, n: usize, k: usize, threads: usize) -> Cell {
        Cell {
            scheme,
            engine,
            n,
            k,
            threads,
        }
    }

    /// The scheme, K-means variant and nearest-center engine names.
    fn names(self) -> [&'static str; 3] {
        let scheme = match self.scheme {
            Scheme::Sl => "sl",
            Scheme::Sdsl => "sdsl",
        };
        match self.engine {
            Engine::Blocked => [scheme, "lloyd", "blocked"],
            Engine::Tree => [scheme, "lloyd", "tree"],
            Engine::MiniBatch => [scheme, "minibatch", "blocked"],
        }
    }

    /// How the progress lines and a divergence panic name the cell.
    fn label(self) -> String {
        let [scheme, variant, assign] = self.names();
        let Cell { n, k, threads, .. } = self;
        format!("{scheme}/{variant}/{assign} n={n} k={k} threads={threads}")
    }
}

/// The crossover shape: its N list and its k list.
fn crossover(quick: bool) -> (&'static [usize], &'static [usize]) {
    if quick {
        (&[2_000], &[16, 64])
    } else {
        (&[5_000, 20_000], &[16, 25, 32, 50, 64, 100, 200])
    }
}

/// The fixed grid, each cell once, in N order so that one oracle
/// serves every cell of an N.
fn grid(quick: bool, thread_counts: &[usize]) -> Vec<Cell> {
    let engines: [(Engine, &[usize]); 3] = if quick {
        [
            (Engine::Blocked, &[500, 2_000]),
            (Engine::Tree, &[500, 2_000, 8_000]),
            (Engine::MiniBatch, &[20_000]),
        ]
    } else {
        [
            (Engine::Blocked, &[5_000, 20_000, 50_000]),
            (Engine::Tree, &[5_000, 20_000, 50_000, 100_000]),
            (Engine::MiniBatch, &[20_000, 50_000, 100_000]),
        ]
    };
    let mut cells = Vec::new();
    for (engine, sizes) in engines {
        for &n in sizes {
            for scheme in SCHEMES {
                for &threads in thread_counts {
                    cells.push(Cell::new(scheme, engine, n, (n / 100).max(2), threads));
                }
            }
        }
    }
    let (sizes, ks) = crossover(quick);
    for &n in sizes {
        for &k in ks {
            for engine in [Engine::Blocked, Engine::Tree] {
                for scheme in SCHEMES {
                    let cell = Cell::new(scheme, engine, n, k, 1);
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells.sort_by_key(|cell| cell.n);
    cells
}

/// The first call's assignments and GIC, which every later call of a
/// cell that shares it must reproduce.
type Baseline = Option<(Vec<usize>, f64)>;

/// One measured cell; times in milliseconds, stage and side times the
/// medians of their samples.
struct Run {
    cell: Cell,
    landmarks: usize,
    total: Summary,
    landmarks_ms: f64,
    features_ms: f64,
    kmeans_ms: f64,
    tree_build_ms: f64,
    seed_ms: f64,
    neighbour_build_ms: f64,
    neighbour_share: f64,
    gic_ms: f64,
    gic_value: f64,
}

/// Samples one cell on `net`, holding every call to `baseline` (set by
/// the first call when empty): the same assignments, the same GIC bits.
/// All RNG seeds are fixed per (scheme, n), so the thread count and the
/// nearest-center engine, which draws no RNG, can change time only.
fn measure(cell: Cell, net: &SyntheticRtt, samples: usize, baseline: &mut Baseline) -> Run {
    let (scheme, engine, n, k) = (cell.scheme, cell.engine, cell.n, cell.k);
    let assign = match engine {
        Engine::Tree => AssignMode::Tree,
        _ => AssignMode::Blocked,
    };
    let mut config = match scheme {
        Scheme::Sl => SchemeConfig::sl(k),
        Scheme::Sdsl => SchemeConfig::sdsl(k, 1.0),
    }
    .landmarks(8)
    .plset_multiplier(4)
    .kmeans_max_iterations(15)
    .force_assign(assign);
    if engine == Engine::MiniBatch {
        let mb = MiniBatchConfig::default().batch_size(2_048).iterations(40);
        config = config.kmeans_variant(KmeansVariant::MiniBatch(mb));
    }
    let plan = FormPlan::new(net, &config).per_row();
    // Caches are nodes 1..=n of the oracle (node 0 is the origin).
    let rtt = |a: CacheId, b: CacheId| net.rtt_ms(a.index() + 1, b.index() + 1);
    let at = cell.label();
    let mut check = |assignments: &[usize], gic: f64| match baseline {
        None => *baseline = Some((assignments.to_vec(), gic)),
        Some((expected, expected_gic)) => {
            assert!(expected == assignments, "{at}: assignments diverged");
            assert!(
                expected_gic.to_bits() == gic.to_bits(),
                "{at}: GIC diverged"
            );
        }
    };

    ecg_par::set_max_threads(Some(cell.threads));
    let mut stats: Vec<FormStats> = Vec::new();
    let mut formed = None;
    let total_ns = sample(
        samples,
        || {
            let mut ctx = FormContext::new();
            let rng = &mut StdRng::seed_from_u64(1_000 + n as u64);
            let outcome = form(&plan, &mut ctx, rng).expect("scaled formation");
            let gic = outcome.average_interaction_cost(rtt);
            (outcome, ctx.stats(), gic)
        },
        |(outcome, stage, gic)| {
            check(outcome.assignments(), gic);
            stats.push(stage);
            formed = Some(outcome);
        },
    );
    let formed = formed.expect("the warm-up call ran");
    let gic_ns = sample(
        samples,
        || formed.average_interaction_cost(rtt),
        |gic| check(formed.assignments(), gic),
    );
    let points = formed.points();
    let initializer = match scheme {
        Scheme::Sl => Initializer::RandomRepresentative,
        Scheme::Sdsl => {
            Initializer::Weighted(server_distance_weights(formed.server_distances_ms(), 1.0))
        }
    };
    let seed_ns = sample(
        samples,
        || initializer.select(points, k, &mut StdRng::seed_from_u64(n as u64)),
        |seeds| {
            seeds.expect("seeding draw");
        },
    );
    // Lloyd's exact scans run on neighbour tables on the tree engine
    // above `NEIGHBOURS` centers.
    let (neighbour_ns, neighbour_share) = if engine == Engine::Tree && k > NEIGHBOURS {
        let centers = formed.centers();
        let tree = CenterTree::new(centers);
        let mut tables = None;
        let ns = sample(
            samples,
            || NeighbourTiles::new(centers, &tree),
            |built| tables = Some(built),
        );
        let tables = tables.expect("the warm-up call ran");
        let settled = points
            .iter_rows()
            .zip(formed.assignments())
            .filter(|&(p, &a)| {
                let d2: f64 = p
                    .iter()
                    .zip(centers.row(a))
                    .map(|(x, c)| (x - c) * (x - c))
                    .sum();
                tables.scan(a, d2.sqrt(), p).is_some()
            })
            .count();
        (ns, settled as f64 / n as f64)
    } else {
        (Vec::new(), 0.0)
    };
    ecg_par::set_max_threads(None);

    let median_ms = |ns: &[f64]| Summary::of(ns).map_or(0.0, |s| s.median / 1e6);
    // The warm-up call's stages are not samples.
    let stage = |of: fn(&FormStats) -> f64| {
        let ms: Vec<f64> = stats[1..].iter().map(of).collect();
        Summary::of(&ms).map_or(0.0, |s| s.median)
    };
    let ms: Vec<f64> = total_ns.iter().map(|ns| ns / 1e6).collect();
    Run {
        cell,
        landmarks: formed.landmarks().landmarks.len(),
        total: Summary::of(&ms).expect("at least one sample"),
        landmarks_ms: stage(|s| s.landmarks_ms),
        features_ms: stage(|s| s.features_ms),
        kmeans_ms: stage(|s| s.clustering_ms),
        tree_build_ms: stage(|s| s.tree_build_ms),
        seed_ms: median_ms(&seed_ns),
        neighbour_build_ms: median_ms(&neighbour_ns),
        neighbour_share,
        gic_ms: median_ms(&gic_ns),
        gic_value: baseline.as_ref().expect("set by the first call").1,
    }
}

fn main() -> ExitCode {
    finish(run())
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1), &["quick"], &["out"])?;
    args.no_positionals()?;
    let quick = args.switch("quick");
    let out_path = args.value("out").unwrap_or("BENCH_scale.json");
    let samples = if quick { 3 } else { 7 };
    let thread_counts: Vec<usize> = if quick {
        vec![1, 2]
    } else {
        let cpus = logical_cpus().max(2);
        std::iter::successors(Some(1), |&t| Some(t * 2))
            .take_while(|&t| t <= cpus)
            .collect()
    };

    let mut runs: Vec<Run> = Vec::new();
    let mut net: Option<(usize, SyntheticRtt)> = None;
    // One baseline per (scheme, K-means variant, k) at each N, shared
    // across thread counts and nearest-center engines.
    let mut baselines: HashMap<(Scheme, bool, usize), Baseline> = HashMap::new();
    for cell in grid(quick, &thread_counts) {
        if net.as_ref().is_none_or(|&(n, _)| n != cell.n) {
            // Node 0 is the origin; n edge caches follow.
            let oracle = SyntheticRttConfig::default().generate(cell.n + 1, 9_000 + cell.n as u64);
            net = Some((cell.n, oracle));
            baselines.clear();
        }
        let (_, oracle) = net.as_ref().expect("generated above");
        let baseline = baselines
            .entry((cell.scheme, cell.engine == Engine::MiniBatch, cell.k))
            .or_default();
        let r = measure(cell, oracle, samples, baseline);
        eprintln!(
            "{}: total {:.1} ms [{:.1}, {:.1}] (landmarks {:.1}, features {:.1}, kmeans {:.1} [tree build {:.1}], gic {:.1})",
            cell.label(), r.total.median, r.total.min, r.total.max,
            r.landmarks_ms, r.features_ms, r.kmeans_ms, r.tree_build_ms, r.gic_ms
        );
        runs.push(r);
    }

    let find = |cell: Cell| {
        runs.iter()
            .find(|r| r.cell == cell)
            .expect("the grid ran the cell")
    };
    // End-to-end speedups of the widest run over threads = 1.
    let widest = *thread_counts.last().expect("non-empty thread list");
    let speedups: Vec<(String, f64)> = runs
        .iter()
        .filter(|r| r.cell.threads == widest)
        .map(|r| {
            let [scheme, variant, assign] = r.cell.names();
            let serial = find(Cell::new(
                r.cell.scheme,
                r.cell.engine,
                r.cell.n,
                r.cell.k,
                1,
            ));
            (
                format!("{scheme}_{variant}_{assign}_n{}_t{widest}", r.cell.n),
                serial.total.median / r.total.median,
            )
        })
        .collect();
    let (sizes, ks) = crossover(quick);
    let mut tree_vs_blocked: Vec<(String, f64)> = Vec::new();
    for &n in sizes {
        for &k in ks {
            let kmeans_ms = |engine| -> f64 {
                let cell = |scheme| Cell::new(scheme, engine, n, k, 1);
                SCHEMES.iter().map(|&s| find(cell(s)).kmeans_ms).sum()
            };
            let ratio = kmeans_ms(Engine::Tree) / kmeans_ms(Engine::Blocked);
            tree_vs_blocked.push((format!("n{n}_k{k}"), ratio));
        }
    }

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("context").object(|w| {
            write_host_context(w, std::env::var("ECG_THREADS").ok().as_deref(), quick);
        });
        w.key("runs").array(|w| {
            for r in &runs {
                let [scheme, variant, assign] = r.cell.names();
                w.object(|w| {
                    w.key("scheme").str(scheme);
                    w.key("variant").str(variant);
                    w.key("assign").str(assign);
                    w.key("n").usize(r.cell.n);
                    w.key("threads").usize(r.cell.threads);
                    w.key("k").usize(r.cell.k);
                    w.key("landmarks").usize(r.landmarks);
                    w.key("samples").usize(r.total.samples);
                    w.key("total_ms").f64(r.total.median);
                    w.key("total_ms_min").f64(r.total.min);
                    w.key("total_ms_max").f64(r.total.max);
                    w.key("kernels").object(|w| {
                        w.key("landmarks_ms").f64(r.landmarks_ms);
                        w.key("features_ms").f64(r.features_ms);
                        w.key("kmeans_ms").f64(r.kmeans_ms);
                        w.key("tree_build_ms").f64(r.tree_build_ms);
                        w.key("seed_ms").f64(r.seed_ms);
                        w.key("neighbour_build_ms").f64(r.neighbour_build_ms);
                        w.key("neighbour_share").f64(r.neighbour_share);
                        w.key("gic_ms").f64(r.gic_ms);
                    });
                    w.key("gic_value").f64(r.gic_value);
                    // A diverging call panicked above.
                    w.key("determinism_ok").bool(true);
                });
            }
        });
        for (name, entries) in [
            ("end_to_end_speedups", &speedups),
            ("tree_vs_blocked", &tree_vs_blocked),
        ] {
            w.key(name).object(|w| {
                for (key, value) in entries {
                    w.key(key).f64(*value);
                }
            });
        }
    });
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(out_path, doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
