//! `ecg-bench time scale`: the large-N scaling sweep for full SL / SDSL
//! group formation.
//!
//! Drives the formation pipeline through [`ecg_core::form`] under a
//! per-row plan ([`ecg_core::FormPlan::per_row`]) — landmark selection
//! and feature matrix construction on per-row derived RNG streams,
//! K-means through the configured engine — plus the group
//! interaction cost metric, over an implicit [`SyntheticRtt`] oracle
//! (O(n) state, so N = 100 000 fits where a dense RTT matrix would need
//! ~80 GB). It runs one fixed grid of paired runs
//! (`sample_pairs`: a warm-up call of each side, then pairs in ABBA
//! order), every ratio it records read from one of them by `Ratio`
//! (median, quartiles and wins over the pairs):
//!
//! * every engine at k = N/100, one thread against the host's logical
//!   CPUs (never fewer than 2), each call setting its own thread count:
//!   blocked-scan Lloyd at N = 5k / 20k / 50k; tree-assign Lloyd one
//!   size class higher, to N = 100k (k = 1 000), where the flat scan is
//!   impractical; and mini-batch (batch 2 048 × 40 iterations, on the
//!   blocked kernel) at N = 20k / 50k / 100k. Each pair's ratio, one
//!   thread's total over the widest count's, is an
//!   `end_to_end_speedups` entry;
//! * the crossover behind `TREE_AUTO_MIN_K` (DESIGN.md): blocked against
//!   tree Lloyd at N = 5k / 20k and k = 16 … 200, one thread, one pair
//!   per scheme. Its `tree_vs_blocked` entries read the K-means stage
//!   of each pair's kept [`ecg_core::FormStats`], SL's and SDSL's
//!   added pair by pair, tree over blocked.
//!
//! The nearest-center engine is forced through the scheme's hidden
//! hook, whatever k is. Every pair is run ten times (three with
//! `--quick`), each call one formation plus its GIC evaluation. A cell
//! reports the median total of its side's calls with their min and max,
//! and the median of each formation stage (`FormContext::stats`) over
//! the same calls. The cells the grid and the crossover share (N = 5k
//! at k = 50 and N = 20k at k = 200, one thread, both engines and
//! schemes) are sampled in both of their pairs and keep their grid
//! pair's row.
//! `gic_ms`, `seed_ms` and `neighbour_build_ms` are side measurements on
//! the formed outcome, each sampled as often on its own
//! (`sample`): the GIC evaluation, one seeding draw of the
//! scheme's initializer and one neighbour-table build over the final
//! centers; `neighbour_share` is the share of points those tables
//! settle. The oracle is generated once per N, outside every timing.
//!
//! Every call is also a determinism check: it must reproduce the
//! assignments and the bit-exact GIC of the first call of its K-means
//! variant at that (scheme, N, k) — across thread counts *and across
//! assignment engines*, because the KD-tree scan is contractually
//! bit-identical to the blocked scan — or the run panics.
//! Optimizations change time, never results.
//!
//! ```text
//! cargo run --release -p ecg-bench -- time scale           # full, writes BENCH_scale.json
//! cargo run --release -p ecg-bench -- time scale --quick   # CI smoke grid
//! cargo run --release -p ecg-bench -- time scale --out /tmp/s.json
//! ```
//!
//! The emitted JSON records the host context (logical CPUs, the
//! `ECG_THREADS` environment override, quick/full mode) alongside the
//! timings, because wall-clock scaling is only meaningful relative to
//! the cores the run actually had.

use crate::sampler::{sample, sample_pairs, Ratio, Summary};
use crate::{logical_cpus, write_host_context};
use ecg_clustering::{
    server_distance_weights, AssignMode, CenterTree, Initializer, KmeansVariant, MiniBatchConfig,
    NeighbourTiles, NEIGHBOURS,
};
use ecg_core::{form, FormContext, FormPlan, FormStats, GroupingOutcome, SchemeConfig};
use ecg_obs::json::JsonWriter;
use ecg_topology::{CacheId, RttSource, SyntheticRtt, SyntheticRttConfig};
use edge_cache_groups::cli::stdout_error;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::Write;

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

    /// The formation the cell times: its scheme at k, L = 8, M = 4, at
    /// most 15 Lloyd iterations, on its forced engine.
    fn config(self) -> SchemeConfig {
        let assign = match self.engine {
            Engine::Tree => AssignMode::Tree,
            _ => AssignMode::Blocked,
        };
        let config = match self.scheme {
            Scheme::Sl => SchemeConfig::sl(self.k),
            Scheme::Sdsl => SchemeConfig::sdsl(self.k, 1.0),
        }
        .landmarks(8)
        .plset_multiplier(4)
        .kmeans_max_iterations(15)
        .force_assign(assign);
        if self.engine == Engine::MiniBatch {
            let mb = MiniBatchConfig::default().batch_size(2_048).iterations(40);
            return config.kmeans_variant(KmeansVariant::MiniBatch(mb));
        }
        config
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

/// The fixed grid as paired runs, in N order so that one oracle serves
/// every pair of an N: each configuration at k = N/100 at one thread
/// against `widest`, then each crossover (N, k) and scheme, blocked
/// against tree at one thread.
fn pairs(quick: bool, widest: usize) -> Vec<[Cell; 2]> {
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
    let mut pairs = Vec::new();
    for (engine, sizes) in engines {
        for &n in sizes {
            for scheme in SCHEMES {
                let cell = |threads| Cell::new(scheme, engine, n, (n / 100).max(2), threads);
                pairs.push([cell(1), cell(widest)]);
            }
        }
    }
    let (sizes, ks) = crossover(quick);
    for &n in sizes {
        for &k in ks {
            for scheme in SCHEMES {
                let cell = |engine| Cell::new(scheme, engine, n, k, 1);
                pairs.push([cell(Engine::Blocked), cell(Engine::Tree)]);
            }
        }
    }
    pairs.sort_by_key(|[cell, _]| cell.n);
    pairs
}

/// The first call's assignments and GIC, which every later call of a
/// cell that shares it must reproduce.
type Baseline = Option<(Vec<usize>, f64)>;

/// Holds one call's output to `baseline`, or makes it the baseline when
/// there is none yet.
fn check(baseline: &mut Baseline, cell: Cell, assignments: &[usize], gic: f64) {
    match baseline {
        None => *baseline = Some((assignments.to_vec(), gic)),
        Some((expected, expected_gic)) => {
            let at = || cell.label();
            assert!(expected == assignments, "{}: assignments diverged", at());
            assert!(
                expected_gic.to_bits() == gic.to_bits(),
                "{}: GIC diverged",
                at()
            );
        }
    }
}

/// What one call of a cell returns: the formed outcome, its stage
/// times and its GIC.
type Formed = (GroupingOutcome, FormStats, f64);

/// One side of a paired run: what its `keep` collected.
struct Side {
    cell: Cell,
    /// The side's first output, which each later call must reproduce.
    first: Baseline,
    /// Every call's stage times, the warm-up's first.
    stages: Vec<FormStats>,
    /// The last call's outcome.
    formed: Option<GroupingOutcome>,
}

impl Side {
    fn keep(&mut self, (outcome, stage, gic): Formed) {
        check(&mut self.first, self.cell, outcome.assignments(), gic);
        self.stages.push(stage);
        self.formed = Some(outcome);
    }
}

/// One measured cell: each timed call's total in milliseconds and its
/// stage times, in pair order; side times the medians of their samples.
struct Run {
    cell: Cell,
    landmarks: usize,
    total_ms: Vec<f64>,
    stages: Vec<FormStats>,
    seed_ms: f64,
    neighbour_build_ms: f64,
    neighbour_share: f64,
    gic_ms: f64,
    gic_value: f64,
}

impl Run {
    /// The statistics of the timed calls' totals.
    fn total(&self) -> Summary {
        Summary::of(&self.total_ms).expect("at least one pair")
    }

    /// The median of one stage over the timed calls.
    fn stage(&self, of: fn(&FormStats) -> f64) -> f64 {
        let ms: Vec<f64> = self.stages.iter().map(of).collect();
        Summary::of(&ms).map_or(0.0, |s| s.median)
    }
}

/// The RTT between two caches of `net`: they are its nodes 1..=n (node
/// 0 is the origin).
fn cache_rtt(net: &SyntheticRtt) -> impl Fn(CacheId, CacheId) -> f64 + Sync + Copy + '_ {
    move |a, b| net.rtt_ms(a.index() + 1, b.index() + 1)
}

/// Samples the two `cells` on `net` as one paired run of `pairs` pairs,
/// each call setting its cell's thread count, and holds every call to
/// `baseline` (set by the first call when empty): the same assignments,
/// the same GIC bits. All RNG seeds are fixed per (scheme, n), so the
/// thread count and the nearest-center engine, which draws no RNG, can
/// change time only.
fn measure(
    cells: [Cell; 2],
    net: &SyntheticRtt,
    pairs: usize,
    baseline: &mut Baseline,
) -> [Run; 2] {
    let configs = cells.map(Cell::config);
    let plans = configs.each_ref().map(|c| FormPlan::new(net, c).per_row());
    let rtt = cache_rtt(net);
    let call = |at: usize| {
        let (cell, plan) = (cells[at], &plans[at]);
        move || -> Formed {
            ecg_par::set_max_threads(Some(cell.threads));
            let mut ctx = FormContext::new();
            let rng = &mut StdRng::seed_from_u64(1_000 + cell.n as u64);
            let outcome = form(plan, &mut ctx, rng).expect("scaled formation");
            let gic = outcome.average_interaction_cost(rtt);
            (outcome, ctx.stats(), gic)
        }
    };
    let [mut a, mut b] = cells.map(|cell| Side {
        cell,
        first: None,
        stages: Vec::new(),
        formed: None,
    });
    let (a_ns, b_ns) = sample_pairs(
        pairs,
        (call(0), |out| a.keep(out)),
        (call(1), |out| b.keep(out)),
    );
    // Each side reproduced its first call; both firsts must reproduce
    // the variant's.
    for side in [&a, &b] {
        let (assignments, gic) = side.first.as_ref().expect("the warm-up call ran");
        check(baseline, side.cell, assignments, *gic);
    }
    let runs = [(a, a_ns), (b, b_ns)].map(|(side, ns)| side_run(side, &ns, net, pairs, baseline));
    ecg_par::set_max_threads(None);
    runs
}

/// The run of one side of a pair: its totals and stages, and the side
/// measurements on its formed outcome, each sampled `samples` times at
/// the cell's thread count: the GIC evaluation (held to `baseline`),
/// one seeding draw of the scheme's initializer and, on the tree engine
/// above `NEIGHBOURS` centers, one neighbour-table build over the final
/// centers.
fn side_run(
    side: Side,
    total_ns: &[f64],
    net: &SyntheticRtt,
    samples: usize,
    baseline: &mut Baseline,
) -> Run {
    let Side {
        cell,
        mut stages,
        formed,
        ..
    } = side;
    let Cell {
        scheme,
        engine,
        n,
        k,
        threads,
    } = cell;
    let formed = formed.expect("the warm-up call ran");
    // The warm-up call's stages are not samples.
    stages.remove(0);
    ecg_par::set_max_threads(Some(threads));
    let rtt = cache_rtt(net);
    let gic_ns = sample(
        samples,
        || formed.average_interaction_cost(rtt),
        |gic| check(baseline, cell, formed.assignments(), gic),
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
    let median_ms = |ns: &[f64]| Summary::of(ns).map_or(0.0, |s| s.median / 1e6);
    Run {
        cell,
        landmarks: formed.landmarks().landmarks.len(),
        total_ms: total_ns.iter().map(|ns| ns / 1e6).collect(),
        stages,
        seed_ms: median_ms(&seed_ns),
        neighbour_build_ms: median_ms(&neighbour_ns),
        neighbour_share,
        gic_ms: median_ms(&gic_ns),
        gic_value: baseline.as_ref().expect("set by the first call").1,
    }
}

/// Runs the `quick` or the full grid, printing each cell to stderr as
/// it lands, and writes the document to `out_path`, then its name to
/// `out`.
pub fn run(quick: bool, out_path: &str, out: &mut impl Write) -> Result<(), String> {
    let pair_count = if quick { 3 } else { 10 };
    let widest = logical_cpus().max(2);

    let mut runs: Vec<Run> = Vec::new();
    let mut speedups: Vec<(String, Ratio)> = Vec::new();
    // Per crossover (N, k): each pair's K-means milliseconds, blocked
    // and tree, SL's and SDSL's added pair by pair.
    let mut crossover_ms: HashMap<(usize, usize), [Vec<f64>; 2]> = HashMap::new();
    let mut net: Option<(usize, SyntheticRtt)> = None;
    // One baseline per (scheme, K-means variant, k) at each N, shared
    // across thread counts and nearest-center engines.
    let mut baselines: HashMap<(Scheme, bool, usize), Baseline> = HashMap::new();
    for [a, b] in pairs(quick, widest) {
        if net.as_ref().is_none_or(|&(n, _)| n != a.n) {
            // Node 0 is the origin; n edge caches follow.
            let oracle = SyntheticRttConfig.generate(a.n + 1, 9_000 + a.n as u64);
            net = Some((a.n, oracle));
            baselines.clear();
        }
        let (_, oracle) = net.as_ref().expect("generated above");
        let baseline = baselines
            .entry((a.scheme, a.engine == Engine::MiniBatch, a.k))
            .or_default();
        let measured = measure([a, b], oracle, pair_count, baseline);
        if a.threads == b.threads {
            let sums = crossover_ms
                .entry((a.n, a.k))
                .or_insert_with(|| [vec![0.0; pair_count], vec![0.0; pair_count]]);
            for (sum, run) in sums.iter_mut().zip(&measured) {
                for (ms, stage) in sum.iter_mut().zip(&run.stages) {
                    *ms += stage.clustering_ms;
                }
            }
        } else {
            let [scheme, variant, assign] = a.names();
            let key = format!("{scheme}_{variant}_{assign}_n{}_t{widest}", a.n);
            let [one, wide] = &measured;
            let ratio = Ratio::of(&one.total_ms, &wide.total_ms).expect("at least one pair");
            eprintln!("{key}: {ratio}");
            speedups.push((key, ratio));
        }
        for r in measured {
            let total = r.total();
            eprintln!(
                "{}: total {:.1} ms [{:.1}, {:.1}] (landmarks {:.1}, features {:.1}, kmeans {:.1} [tree build {:.1}], gic {:.1})",
                r.cell.label(), total.median, total.min, total.max,
                r.stage(|s| s.landmarks_ms), r.stage(|s| s.features_ms),
                r.stage(|s| s.clustering_ms), r.stage(|s| s.tree_build_ms), r.gic_ms
            );
            // A cell the grid and the crossover share keeps its grid row.
            if !runs.iter().any(|kept| kept.cell == r.cell) {
                runs.push(r);
            }
        }
    }
    let (sizes, ks) = crossover(quick);
    let mut tree_vs_blocked: Vec<(String, Ratio)> = Vec::new();
    for &n in sizes {
        for &k in ks {
            let [blocked, tree] = &crossover_ms[&(n, k)];
            let ratio = Ratio::of(tree, blocked).expect("at least one pair");
            eprintln!("tree_vs_blocked n{n}_k{k}: {ratio}");
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
                let total = r.total();
                w.object(|w| {
                    w.key("scheme").str(scheme);
                    w.key("variant").str(variant);
                    w.key("assign").str(assign);
                    w.key("n").usize(r.cell.n);
                    w.key("threads").usize(r.cell.threads);
                    w.key("k").usize(r.cell.k);
                    w.key("landmarks").usize(r.landmarks);
                    w.key("samples").usize(total.samples);
                    w.key("total_ms").f64(total.median);
                    w.key("total_ms_min").f64(total.min);
                    w.key("total_ms_max").f64(total.max);
                    w.key("kernels").object(|w| {
                        w.key("landmarks_ms").f64(r.stage(|s| s.landmarks_ms));
                        w.key("features_ms").f64(r.stage(|s| s.features_ms));
                        w.key("kmeans_ms").f64(r.stage(|s| s.clustering_ms));
                        w.key("tree_build_ms").f64(r.stage(|s| s.tree_build_ms));
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
                for (key, ratio) in entries {
                    ratio.write(w.key(key));
                }
            });
        }
    });
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(out_path, doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(out, "wrote {out_path}").map_err(stdout_error)
}
