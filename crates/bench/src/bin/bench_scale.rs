//! Large-N scaling sweep for full SL / SDSL group formation.
//!
//! Drives the formation pipeline through [`ecg_core::form`] under a
//! per-row plan ([`ecg_core::FormPlan::per_row`]) — landmark selection
//! and feature matrix construction on per-row derived RNG streams,
//! K-means through the configured engine — plus the group
//! interaction cost metric, over an
//! implicit [`SyntheticRtt`] oracle (O(n) state, so N = 100 000 fits
//! where a dense RTT matrix would need ~80 GB), sweeping
//! N × variant × assignment engine × thread counts through
//! [`ecg_par::set_max_threads`]. A full run takes the thread counts
//! 1, 2, 4, … up to the host's logical CPUs, and never fewer than
//! `[1, 2]`, so every configuration is checked at two counts at least.
//!
//! Every configuration is also a determinism check: the run at each
//! thread count must reproduce the first run's assignments and the
//! bit-exact GIC value — *across assignment engines too*, because the
//! KD-tree scan is contractually bit-identical to the blocked scan — or
//! the binary panics. Optimizations change time, never results.
//!
//! ```text
//! cargo run --release -p ecg-bench --bin bench_scale             # full, writes BENCH_scale.json
//! cargo run --release -p ecg-bench --bin bench_scale -- --quick  # CI smoke sizes
//! cargo run --release -p ecg-bench --bin bench_scale -- --variant minibatch
//! cargo run --release -p ecg-bench --bin bench_scale -- --assign tree
//! cargo run --release -p ecg-bench --bin bench_scale -- --mb-batch 4096 --mb-iters 60
//! cargo run --release -p ecg-bench --bin bench_scale -- --out /tmp/s.json
//! cargo run --release -p ecg-bench --bin bench_scale -- --variant lloyd --sizes 5000,20000 --k 16,64,200
//! ```
//!
//! `--variant lloyd|minibatch|both` picks the K-means engine(s);
//! `--assign blocked|tree|both` picks the nearest-center engine(s) for
//! the full-batch Lloyd sweep (k = N/100, so N = 50k scans 500 centers
//! per point — the tree makes that sublinear). The tree sweep goes one
//! size class higher (to N = 100 000, k = 1 000) where the flat scan is
//! impractical on small hosts; mini-batch (whose cost is batch-sized,
//! not N-sized) stays on the blocked kernel for continuity with the
//! PR 7 baseline. `--mb-batch` and `--mb-iters` tune the mini-batch
//! schedule. `--sizes` replaces every engine's N list and `--k` runs
//! each N at the listed group counts instead of k = N/100 — the sweep
//! behind `TREE_AUTO_MIN_K` (DESIGN.md).
//!
//! The synthetic oracle is generated once per N, outside the timing
//! loop, so per-kernel timings measure formation kernels only — never
//! topology setup. Tree (re)build time is reported separately from the
//! kmeans total (`tree_build_ms`: one rebuild per Lloyd iteration plus
//! the neighbour tables of the iterations that use them). `seed_ms`,
//! `neighbour_build_ms` and `neighbour_share` are side measurements on
//! the formed outcome — one seeding draw, one table build over the
//! final centers, and the share of points those tables settle.
//!
//! The emitted JSON records the host context (logical CPUs, the
//! `ECG_THREADS` environment override, quick/full mode) alongside
//! per-kernel timings, because wall-clock scaling is only meaningful
//! relative to the cores the run actually had.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_bench::{logical_cpus, write_host_context};
use ecg_clustering::{
    server_distance_weights, AssignMode, CenterTree, Initializer, KmeansVariant, MiniBatchConfig,
    NeighbourTiles, NEIGHBOURS,
};
use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
use ecg_obs::json::JsonWriter;
use ecg_topology::{RttSource, SyntheticRtt, SyntheticRttConfig};
use edge_cache_groups::cli::{finish, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// One formation scheme to sweep.
#[derive(Clone, Copy)]
enum Scheme {
    Sl,
    /// SDSL with the given θ.
    Sdsl(f64),
}

impl Scheme {
    fn name(self) -> &'static str {
        match self {
            Scheme::Sl => "sl",
            Scheme::Sdsl(_) => "sdsl",
        }
    }
}

/// Which K-means engine the run clusters with.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Lloyd,
    MiniBatch,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Lloyd => "lloyd",
            Variant::MiniBatch => "minibatch",
        }
    }
}

/// One (K-means engine, nearest-center engine) combination to sweep.
/// The nearest-center engine is forced through the scheme's hidden
/// hook, whatever k is, so the sweep can time each engine on every k.
#[derive(Clone, Copy)]
struct Engine {
    variant: Variant,
    assign: AssignMode,
}

impl Engine {
    fn assign_name(self) -> &'static str {
        match self.assign {
            AssignMode::Blocked => "blocked",
            AssignMode::Tree => "tree",
        }
    }
}

struct RunResult {
    scheme: &'static str,
    variant: &'static str,
    assign: &'static str,
    n: usize,
    threads: usize,
    k: usize,
    landmarks: usize,
    landmarks_ms: f64,
    features_ms: f64,
    kmeans_ms: f64,
    tree_build_ms: f64,
    seed_ms: f64,
    neighbour_build_ms: f64,
    neighbour_share: f64,
    gic_ms: f64,
    total_ms: f64,
    gic_value: f64,
    assignments: Vec<usize>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Runs one full formation at a forced thread count through the scaled
/// pipeline and records its per-kernel timings. All RNG seeds are fixed
/// per (scheme, n), so two runs that differ only in `threads` — or in
/// the assignment engine, which draws no RNG — must produce identical
/// results.
fn run_formation(
    scheme: Scheme,
    engine: Engine,
    mb: MiniBatchConfig,
    net: &SyntheticRtt,
    n: usize,
    k: usize,
    threads: usize,
) -> RunResult {
    const LANDMARKS: usize = 8;
    const PLSET_MULTIPLIER: usize = 4;
    const KMEANS_ITERS: usize = 15;

    ecg_par::set_max_threads(Some(threads));
    let mut config = match scheme {
        Scheme::Sl => SchemeConfig::sl(k),
        Scheme::Sdsl(theta) => SchemeConfig::sdsl(k, theta),
    }
    .landmarks(LANDMARKS)
    .plset_multiplier(PLSET_MULTIPLIER)
    .kmeans_max_iterations(KMEANS_ITERS)
    .force_assign(engine.assign);
    if engine.variant == Variant::MiniBatch {
        config = config.kmeans_variant(KmeansVariant::MiniBatch(mb));
    }

    let mut rng = StdRng::seed_from_u64(1_000 + n as u64);
    let mut ctx = FormContext::new();
    let formed =
        form(&FormPlan::new(net, &config).per_row(), &mut ctx, &mut rng).expect("scaled formation");

    // Caches are nodes 1..=n of the oracle (node 0 is the origin).
    let t = Instant::now();
    let gic_value =
        formed.average_interaction_cost(|a, b| net.rtt_ms(a.index() + 1, b.index() + 1));
    let gic_ms = ms(t);

    // Side measurements of two K-means stages, taken on the formed
    // outcome and outside every total: one seeding draw of this
    // scheme's initializer; and, where Lloyd's exact scans run on
    // neighbour tables, one table build over the final centers and the
    // share of all points whose two-nearest query those tables settle.
    let points = formed.points();
    let initializer = match scheme {
        Scheme::Sl => Initializer::RandomRepresentative,
        Scheme::Sdsl(theta) => {
            Initializer::Weighted(server_distance_weights(formed.server_distances_ms(), theta))
        }
    };
    let t = Instant::now();
    initializer
        .select(points, k, &mut StdRng::seed_from_u64(n as u64))
        .expect("seeding draw");
    let seed_ms = ms(t);
    let tabled =
        engine.variant == Variant::Lloyd && engine.assign == AssignMode::Tree && k > NEIGHBOURS;
    let (neighbour_build_ms, neighbour_share) = if tabled {
        let centers = formed.centers();
        let tree = CenterTree::new(centers);
        let t = Instant::now();
        let tables = NeighbourTiles::new(centers, &tree);
        let build_ms = ms(t);
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
        (build_ms, settled as f64 / n as f64)
    } else {
        (0.0, 0.0)
    };
    ecg_par::set_max_threads(None);

    let timings = ctx.stats();
    RunResult {
        scheme: scheme.name(),
        variant: engine.variant.name(),
        assign: engine.assign_name(),
        n,
        threads,
        k,
        landmarks: formed.landmarks().landmarks.len(),
        landmarks_ms: timings.landmarks_ms,
        features_ms: timings.features_ms,
        kmeans_ms: timings.clustering_ms,
        tree_build_ms: timings.tree_build_ms,
        seed_ms,
        neighbour_build_ms,
        neighbour_share,
        gic_ms,
        total_ms: timings.total_ms + gic_ms,
        gic_value,
        assignments: formed.assignments().to_vec(),
    }
}

fn main() -> ExitCode {
    finish(run())
}

fn run() -> Result<(), String> {
    let args = Args::parse(
        std::env::args().skip(1),
        &["quick"],
        &[
            "out", "variant", "assign", "mb-batch", "mb-iters", "sizes", "k",
        ],
    )?;
    args.no_positionals()?;
    let quick = args.switch("quick");
    let out_path = args.value("out").unwrap_or("BENCH_scale.json");
    let variants: Vec<Variant> = match args.value("variant") {
        None | Some("both") => vec![Variant::Lloyd, Variant::MiniBatch],
        Some("lloyd") => vec![Variant::Lloyd],
        Some("minibatch") => vec![Variant::MiniBatch],
        Some(v) => return Err(format!("--variant is lloyd, minibatch or both, not {v:?}")),
    };
    let lloyd_assigns: Vec<AssignMode> = match args.value("assign") {
        None | Some("both") => vec![AssignMode::Blocked, AssignMode::Tree],
        Some("blocked") => vec![AssignMode::Blocked],
        Some("tree") => vec![AssignMode::Tree],
        Some(v) => return Err(format!("--assign is blocked, tree or both, not {v:?}")),
    };
    let mb = MiniBatchConfig::default()
        .batch_size(args.parsed("mb-batch", 2_048)?)
        .iterations(args.parsed("mb-iters", 40)?);
    let sizes_override: Option<Vec<usize>> = args.list("sizes")?;
    let k_override: Option<Vec<usize>> = args.list("k")?;
    // The (scheme, k) cells run at each N: k = N/100 unless `--k` sweeps it.
    let schemes = [Scheme::Sl, Scheme::Sdsl(1.0)];
    let cells_for = |n: usize| -> Vec<(Scheme, usize)> {
        let default_k = [(n / 100).max(2)];
        let ks = k_override.as_deref().unwrap_or(&default_k);
        schemes
            .iter()
            .flat_map(|&s| ks.iter().map(move |&k| (s, k)))
            .collect()
    };

    // The engine grid: Lloyd sweeps the requested assignment engines;
    // mini-batch stays on the blocked kernel (its scan is batch-sized,
    // and the PR 7 baseline numbers were recorded on it).
    let engines: Vec<Engine> = variants
        .iter()
        .flat_map(|&variant| match variant {
            Variant::Lloyd => lloyd_assigns
                .iter()
                .map(|&assign| Engine { variant, assign })
                .collect::<Vec<_>>(),
            Variant::MiniBatch => vec![Engine {
                variant,
                assign: AssignMode::Blocked,
            }],
        })
        .collect();

    // Mini-batch exists to go past Lloyd's ceiling, so its sweep sits
    // one size class higher; the tree-assign Lloyd sweep joins it at
    // N = 100k (k = 1 000), where the flat scan is impractical.
    let lloyd_sizes: &[usize] = if quick {
        &[500, 2_000]
    } else {
        &[5_000, 20_000, 50_000]
    };
    let lloyd_tree_sizes: &[usize] = if quick {
        &[500, 2_000]
    } else {
        &[5_000, 20_000, 50_000, 100_000]
    };
    let minibatch_sizes: &[usize] = if quick {
        &[20_000]
    } else {
        &[20_000, 50_000, 100_000]
    };
    let sizes_for = |engine: Engine| match (&sizes_override, engine.variant, engine.assign) {
        (Some(sizes), _, _) => sizes.as_slice(),
        (None, Variant::Lloyd, AssignMode::Tree) => lloyd_tree_sizes,
        (None, Variant::Lloyd, _) => lloyd_sizes,
        (None, Variant::MiniBatch, _) => minibatch_sizes,
    };
    let thread_counts: Vec<usize> = if quick {
        vec![1, 2]
    } else {
        let cpus = logical_cpus().max(2);
        std::iter::successors(Some(1), |&t| Some(t * 2))
            .take_while(|&t| t <= cpus)
            .collect()
    };

    let mut all_sizes: Vec<usize> = engines
        .iter()
        .flat_map(|&e| sizes_for(e).iter().copied())
        .collect();
    all_sizes.sort_unstable();
    all_sizes.dedup();

    let mut runs: Vec<RunResult> = Vec::new();
    for &n in &all_sizes {
        // Node 0 is the origin; n edge caches follow. Generated once
        // per N, outside the timing loop — kernel timings never include
        // topology setup.
        let net = SyntheticRttConfig::default().generate(n + 1, 9_000 + n as u64);
        for (scheme, k) in cells_for(n) {
            // One baseline per K-means variant, shared across thread
            // counts AND assignment engines: the tree scan must
            // reproduce the blocked scan bit for bit.
            let mut lloyd_baseline: Option<(Vec<usize>, f64)> = None;
            let mut minibatch_baseline: Option<(Vec<usize>, f64)> = None;
            for &engine in engines.iter().filter(|&&e| sizes_for(e).contains(&n)) {
                let baseline = match engine.variant {
                    Variant::Lloyd => &mut lloyd_baseline,
                    Variant::MiniBatch => &mut minibatch_baseline,
                };
                for &threads in &thread_counts {
                    let run = run_formation(scheme, engine, mb, &net, n, k, threads);
                    eprintln!(
                        "{}/{}/{} n={} k={} threads={}: total {:.0} ms (landmarks {:.0}, features {:.0}, kmeans {:.0} [tree build {:.1}], gic {:.0})",
                        run.scheme,
                        run.variant,
                        run.assign,
                        run.n,
                        run.k,
                        run.threads,
                        run.total_ms,
                        run.landmarks_ms,
                        run.features_ms,
                        run.kmeans_ms,
                        run.tree_build_ms,
                        run.gic_ms
                    );
                    match &*baseline {
                        None => *baseline = Some((run.assignments.clone(), run.gic_value)),
                        Some((assignments, gic)) => {
                            assert_eq!(
                                assignments, &run.assignments,
                                "{}/{}/{} n={n}: assignments diverged at {threads} threads",
                                run.scheme, run.variant, run.assign
                            );
                            assert_eq!(
                                gic.to_bits(),
                                run.gic_value.to_bits(),
                                "{}/{}/{} n={n}: GIC diverged at {threads} threads",
                                run.scheme,
                                run.variant,
                                run.assign
                            );
                        }
                    }
                    runs.push(run);
                }
            }
        }
    }

    // End-to-end speedups of the widest run vs threads = 1, per
    // (scheme, variant, assign, n).
    let max_threads = *thread_counts.last().expect("non-empty thread list");
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &engine in &engines {
        for &n in sizes_for(engine) {
            for (scheme, k) in cells_for(n) {
                let time_at = |threads: usize| {
                    runs.iter()
                        .find(|r| {
                            r.scheme == scheme.name()
                                && r.variant == engine.variant.name()
                                && r.assign == engine.assign_name()
                                && r.n == n
                                && r.k == k
                                && r.threads == threads
                        })
                        .expect("run present")
                        .total_ms
                };
                // The key names k only when `--k` made it a swept axis.
                let k_axis = k_override
                    .as_ref()
                    .map_or(String::new(), |_| format!("_k{k}"));
                speedups.push((
                    format!(
                        "{}_{}_{}_n{n}{k_axis}_t{max_threads}",
                        scheme.name(),
                        engine.variant.name(),
                        engine.assign_name(),
                    ),
                    time_at(1) / time_at(max_threads),
                ));
            }
        }
    }

    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("context").object(|w| {
            write_host_context(w, std::env::var("ECG_THREADS").ok().as_deref(), quick);
        });
        w.key("runs").array(|w| {
            for r in &runs {
                w.object(|w| {
                    w.key("scheme").str(r.scheme);
                    w.key("variant").str(r.variant);
                    w.key("assign").str(r.assign);
                    w.key("n").usize(r.n);
                    w.key("threads").usize(r.threads);
                    w.key("k").usize(r.k);
                    w.key("landmarks").usize(r.landmarks);
                    w.key("total_ms").f64(r.total_ms);
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
                    // A diverging run panicked above.
                    w.key("determinism_ok").bool(true);
                });
            }
        });
        w.key("end_to_end_speedups").object(|w| {
            for (name, speedup) in &speedups {
                w.key(name).f64(*speedup);
            }
        });
    });
    let mut doc = w.finish();
    doc.push('\n');
    std::fs::write(out_path, doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}
