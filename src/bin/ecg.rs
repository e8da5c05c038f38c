//! `ecg` — command-line driver for edge cache group formation.
//!
//! ```text
//! ecg gen-network --caches 100 --seed 1 --out net.rtt
//! ecg form       --network net.rtt --scheme sdsl --groups 10 --theta 1.0 --out groups.txt
//! ecg scale      --caches 50000 --scheme sdsl --minibatch true
//! ecg gen-trace  --caches 100 --duration-secs 120 --out run.trace
//! ecg stats      --trace run.trace
//! ecg simulate   --network net.rtt --groups groups.txt --trace run.trace
//! ```
//!
//! * `gen-network` generates a transit-stub topology, places an origin
//!   plus N caches, and writes the RTT matrix (origin at index 0) in
//!   the `rtt` text format.
//! * `form` reads such a matrix, runs SL or SDSL, and writes/prints the
//!   groups (one line of cache ids per group).
//! * `scale` runs the large-N pipeline ([`GfCoordinator::form_groups_scaled`])
//!   over an implicit synthetic RTT oracle — no matrix file, O(n) state —
//!   and prints per-stage timings plus group-size statistics.
//! * `simulate` runs a synthetic sporting-event workload over the
//!   groups and prints the latency/hit-rate report.
//! * `replay` runs the same entry point ([`simulate`]) over a
//!   *streamed* workload, an implicit synthetic oracle and contiguous
//!   groups on the worker pool — the large-N counterpart of
//!   `simulate`, byte-identical output at any thread count.
//! * `lifecycle` runs the [`FormationSupervisor`] over a generated
//!   churn schedule: windows tick, caches crash/recover/retire, and a
//!   re-formation policy decides hold / repair / partial / full each
//!   window. Prints the decision timeline; `--replay` additionally
//!   runs a workload epoch by epoch under the evolving groupings
//!   ([`simulate_epochs`]).
//!
//! Argument parsing is hand-rolled (no CLI dependency); every flag has
//! a default so each subcommand runs bare.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use edge_cache_groups::prelude::*;
use edge_cache_groups::topology::{read_rtt_matrix, write_rtt_matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  ecg gen-network [--caches N] [--seed S] [--origin transit|stub] --out FILE
  ecg form        --network FILE [--scheme sl|sdsl] [--groups K] [--theta T]
                  [--landmarks L] [--plset-multiplier M] [--max-group-size S]
                  [--seed S] [--out FILE]
  ecg scale       [--caches N] [--groups K] [--scheme sl|sdsl] [--theta T]
                  [--landmarks L] [--plset-multiplier M] [--seed S]
                  [--minibatch true|false] [--batch-size B] [--iters I]
                  [--assign auto|blocked|tree]
  ecg gen-trace   [--caches N] [--docs D] [--duration-secs T] [--rate R]
                  [--preset sporting|news|flashcrowd] [--seed S] --out FILE
  ecg stats       --trace FILE
  ecg simulate    --network FILE --groups FILE [--trace FILE] [--docs D]
                  [--duration-secs T] [--rate R] [--capacity-kib C]
                  [--preset sporting|news|flashcrowd]
                  [--policy utility|lru|lfu|gdsf]
                  [--placement single-holder|adaptive|dchoices] [--seed S]
  ecg replay      [--caches N] [--group-size G] [--docs D]
                  [--duration-secs T] [--rate R] [--capacity-kib C]
                  [--policy utility|lru|lfu|gdsf]
                  [--placement single-holder|adaptive|dchoices]
                  [--seed S] [--threads T] [--verify true|false]
  ecg lifecycle   [--caches N] [--groups K] [--landmarks L]
                  [--duration-secs T] [--step-secs W] [--seed S]
                  [--churn-rate CRASHES_PER_HOUR_PER_CACHE]
                  [--mean-downtime-secs D] [--retirement-fraction F]
                  [--policy static|repair|eager|balanced]
                  [--timeline-out FILE] [--replay true|false]
                  [--docs D] [--rate R] [--preset sporting|news|flashcrowd]
                  [--threads T]

simulate runs `simulate` over a materialized trace: regenerated from its
flags unless --trace is given; with --trace, --docs must match the
catalog the trace was generated for (use the same --seed/--docs as
gen-trace).
replay runs `simulate` over a streamed workload, group by group on the
worker pool (nothing is materialized globally); --verify additionally
runs `simulate` serially on the equivalent materialized trace and full
RTT matrix and asserts bit-identical reports (small N only). Stdout is
byte-identical at any --threads / ECG_THREADS setting; wall-clock
timings go to stderr.
--duration-secs, --rate and --mean-downtime-secs must be positive and
finite; --caches, --docs, --groups and --group-size at least 1.
lifecycle runs the formation supervisor over a generated churn schedule
and prints the decision timeline; --timeline-out writes the full
timeline JSON, --replay additionally runs `simulate_epochs`: a workload
epoch by epoch under the evolving groupings. Stdout and the timeline JSON are
byte-identical at any --threads / ECG_THREADS setting.";

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(rest)?;
    // Each subcommand with every flag it reads: a flag outside its list
    // would be silently ignored, so it is a mistake to report.
    type Handler = fn(&HashMap<String, String>) -> Result<(), String>;
    let (handler, known): (Handler, &[&str]) = match command.as_str() {
        "gen-network" => (gen_network, &["caches", "seed", "origin", "out"]),
        "form" => (
            form,
            &[
                "network",
                "scheme",
                "groups",
                "theta",
                "landmarks",
                "plset-multiplier",
                "max-group-size",
                "seed",
                "out",
            ],
        ),
        "scale" => (
            scale_cmd,
            &[
                "caches",
                "groups",
                "scheme",
                "theta",
                "landmarks",
                "plset-multiplier",
                "seed",
                "minibatch",
                "batch-size",
                "iters",
                "assign",
            ],
        ),
        "gen-trace" => (
            gen_trace,
            &[
                "caches",
                "docs",
                "duration-secs",
                "rate",
                "preset",
                "seed",
                "out",
            ],
        ),
        "stats" => (stats_cmd, &["trace"]),
        "simulate" => (
            simulate_cmd,
            &[
                "network",
                "groups",
                "trace",
                "docs",
                "duration-secs",
                "rate",
                "preset",
                "capacity-kib",
                "policy",
                "placement",
                "seed",
            ],
        ),
        "replay" => (
            replay_cmd,
            &[
                "caches",
                "group-size",
                "docs",
                "duration-secs",
                "rate",
                "capacity-kib",
                "policy",
                "placement",
                "seed",
                "threads",
                "verify",
            ],
        ),
        "lifecycle" => (
            lifecycle_cmd,
            &[
                "caches",
                "groups",
                "landmarks",
                "duration-secs",
                "step-secs",
                "seed",
                "churn-rate",
                "mean-downtime-secs",
                "retirement-fraction",
                "policy",
                "timeline-out",
                "replay",
                "docs",
                "rate",
                "preset",
                "threads",
            ],
        ),
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    // The alphabetically first, so the message does not depend on map order.
    if let Some(unknown) = flags.keys().filter(|f| !known.contains(&f.as_str())).min() {
        return Err(format!("unknown flag --{unknown} for `ecg {command}`"));
    }
    handler(&flags)
}

/// Parses `--key value` pairs into a map.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got {key:?}"));
        };
        let Some(value) = iter.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        if flags.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(flags)
}

fn get_parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for --{name}: {raw:?}")),
    }
}

/// The cache capacity in bytes from `--capacity-kib` (default 512):
/// positive and small enough that the byte count fits a `u64`.
fn capacity_bytes(flags: &HashMap<String, String>) -> Result<u64, String> {
    let kib: u64 = get_parsed(flags, "capacity-kib", 512)?;
    kib.checked_mul(1024)
        .filter(|&bytes| bytes > 0)
        .ok_or_else(|| format!("--capacity-kib must be between 1 and {}", u64::MAX / 1024))
}

/// SDSL's exponent from `--theta` (default 1): finite and non-negative,
/// the invariant `SchemeConfig::sdsl` asserts.
fn theta(flags: &HashMap<String, String>) -> Result<f64, String> {
    let theta: f64 = get_parsed(flags, "theta", 1.0)?;
    if theta.is_finite() && theta >= 0.0 {
        Ok(theta)
    } else {
        Err("--theta must be finite and non-negative".into())
    }
}

/// A count from `--{name}` (default `default`): at least 1, the
/// invariant the generators and `KmeansConfig::new` assert.
fn at_least_one(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, String> {
    match get_parsed(flags, name, default)? {
        0 => Err(format!("--{name} must be positive")),
        n => Ok(n),
    }
}

/// A duration or rate from `--{name}` (default `default`): positive and
/// finite, the invariant the workload and churn generators assert.
fn positive(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    let value: f64 = get_parsed(flags, name, default)?;
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!("--{name} must be positive and finite"))
    }
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn gen_network(flags: &HashMap<String, String>) -> Result<(), String> {
    let caches: usize = get_parsed(flags, "caches", 100)?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let origin = match flags.get("origin").map(String::as_str).unwrap_or("transit") {
        "transit" => OriginPlacement::TransitNode,
        "stub" => OriginPlacement::StubNode,
        other => return Err(format!("--origin must be transit or stub, got {other:?}")),
    };
    let out = require(flags, "out")?;

    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, origin, &mut rng).map_err(|e| e.to_string())?;

    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_rtt_matrix(BufWriter::new(file), network.rtt_matrix())
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: origin + {} caches, mean origin RTT {:.1} ms",
        network.cache_count(),
        network.mean_origin_rtt()
    );
    Ok(())
}

fn load_network(path: &str) -> Result<EdgeNetwork, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let matrix = read_rtt_matrix(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    if matrix.len() < 2 {
        return Err(format!("{path}: matrix too small for an edge network"));
    }
    Ok(EdgeNetwork::from_rtt_matrix(matrix))
}

fn form(flags: &HashMap<String, String>) -> Result<(), String> {
    let theta = theta(flags)?;
    let network = load_network(require(flags, "network")?)?;
    let k = at_least_one(flags, "groups", (network.cache_count() / 10).max(1))?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let landmarks: usize = get_parsed(flags, "landmarks", 25)?;
    let plset: usize = get_parsed(flags, "plset-multiplier", 4)?;

    let mut scheme = match flags.get("scheme").map(String::as_str).unwrap_or("sdsl") {
        "sl" => SchemeConfig::sl(k),
        "sdsl" => SchemeConfig::sdsl(k, theta),
        other => return Err(format!("--scheme must be sl or sdsl, got {other:?}")),
    }
    .landmarks(landmarks)
    .plset_multiplier(plset);
    if let Some(cap) = flags.get("max-group-size") {
        let cap: usize = cap
            .parse()
            .map_err(|_| format!("bad value for --max-group-size: {cap:?}"))?;
        scheme = scheme.max_group_size(cap);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = GfCoordinator::new(scheme)
        .form_groups(&network, &mut rng)
        .map_err(|e| e.to_string())?;

    let rendered = render_groups(outcome.groups());
    match flags.get("out") {
        Some(path) => {
            let mut file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            file.write_all(rendered.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    let gic = outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
    println!(
        "# {} groups, sizes {:?}, avg interaction cost {:.2} ms, {} probes",
        outcome.groups().len(),
        outcome.groups().iter().map(Vec::len).collect::<Vec<_>>(),
        gic,
        outcome.probes_sent(),
    );
    Ok(())
}

/// The large-N pipeline over an implicit synthetic RTT oracle: no
/// matrix file, O(n) state, derived-seed parallel kernels throughout.
fn scale_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let caches: usize = get_parsed(flags, "caches", 10_000)?;
    let k = at_least_one(flags, "groups", (caches / 100).max(2))?;
    let theta = theta(flags)?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let landmarks: usize = get_parsed(flags, "landmarks", 8)?;
    let plset: usize = get_parsed(flags, "plset-multiplier", 4)?;
    let minibatch: bool = get_parsed(flags, "minibatch", false)?;
    let batch_size = at_least_one(flags, "batch-size", 2_048)?;
    let iters: usize = get_parsed(flags, "iters", 40)?;
    let assign: AssignMode = get_parsed(flags, "assign", AssignMode::Auto)?;

    let mut scheme = match flags.get("scheme").map(String::as_str).unwrap_or("sdsl") {
        "sl" => SchemeConfig::sl(k),
        "sdsl" => SchemeConfig::sdsl(k, theta),
        other => return Err(format!("--scheme must be sl or sdsl, got {other:?}")),
    }
    .landmarks(landmarks)
    .plset_multiplier(plset)
    .kmeans_assign(assign);
    if minibatch {
        scheme = scheme.kmeans_variant(KmeansVariant::MiniBatch(
            MiniBatchConfig::default()
                .batch_size(batch_size)
                .iterations(iters),
        ));
    }

    // Node 0 is the origin; the caches are nodes 1..=caches.
    let net = SyntheticRttConfig::default().generate(caches + 1, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let formed = GfCoordinator::new(scheme)
        .form_groups_scaled(&net, &mut rng)
        .map_err(|e| e.to_string())?;

    let outcome = &formed.outcome;
    let sizes: Vec<usize> = outcome.groups().iter().map(Vec::len).collect();
    let gic = outcome.average_interaction_cost(|a, b| net.rtt_ms(a.index() + 1, b.index() + 1));
    println!(
        "{} caches -> {} groups ({}), sizes min/mean/max {}/{:.1}/{}",
        caches,
        outcome.groups().len(),
        if minibatch {
            format!(
                "mini-batch {batch_size}x{iters}, {} assign",
                assign_name(assign)
            )
        } else {
            format!("full-batch Lloyd, {} assign", assign_name(assign))
        },
        sizes.iter().min().copied().unwrap_or(0),
        caches as f64 / sizes.len().max(1) as f64,
        sizes.iter().max().copied().unwrap_or(0),
    );
    println!(
        "avg interaction cost {:.2} ms, {} probes, {} k-means iterations",
        gic,
        outcome.probes_sent(),
        outcome.kmeans_iterations(),
    );
    let t = formed.timings;
    println!(
        "timings: landmarks {:.0} ms, features {:.0} ms, clustering {:.0} ms \
         (tree build {:.1} ms), total {:.0} ms",
        t.landmarks_ms, t.features_ms, t.clustering_ms, t.tree_build_ms, t.total_ms,
    );
    Ok(())
}

/// Display name of an assignment engine choice.
fn assign_name(mode: AssignMode) -> &'static str {
    match mode {
        AssignMode::Auto => "auto",
        AssignMode::Blocked => "blocked",
        AssignMode::Tree => "tree",
    }
}

/// Builds the workload a set of flags describes (shared by `gen-trace`
/// and `simulate`).
fn build_workload(
    flags: &HashMap<String, String>,
    caches: usize,
) -> Result<
    (
        edge_cache_groups::workload::DocumentCatalog,
        Vec<edge_cache_groups::workload::TraceEvent>,
    ),
    String,
> {
    let docs = at_least_one(flags, "docs", 1_500)?;
    let duration_ms = positive(flags, "duration-secs", 120.0)? * 1_000.0;
    let rate = positive(flags, "rate", 2.0)?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    match flags
        .get("preset")
        .map(String::as_str)
        .unwrap_or("sporting")
    {
        "sporting" => {
            let w = SportingEventConfig::default()
                .caches(caches)
                .documents(docs)
                .duration_ms(duration_ms)
                .rate_per_sec_per_cache(rate)
                .generate(&mut rng);
            Ok((w.catalog.clone(), w.merged_trace()))
        }
        "news" => {
            let w = edge_cache_groups::workload::NewsSiteConfig::default()
                .caches(caches)
                .documents(docs)
                .duration_ms(duration_ms)
                .rate_per_sec_per_cache(rate)
                .generate(&mut rng);
            Ok((w.catalog.clone(), w.merged_trace()))
        }
        "flashcrowd" => {
            let w = edge_cache_groups::workload::RegionalFlashCrowdConfig::default()
                .caches(caches)
                .documents(docs)
                .duration_ms(duration_ms)
                .rate_per_sec_per_cache(rate)
                .generate(&mut rng);
            Ok((w.catalog.clone(), w.merged_trace()))
        }
        other => Err(format!(
            "--preset must be sporting, news, or flashcrowd, got {other:?}"
        )),
    }
}

fn gen_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let caches = at_least_one(flags, "caches", 100)?;
    let out = require(flags, "out")?;
    let (_, trace) = build_workload(flags, caches)?;
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    edge_cache_groups::workload::write_trace(BufWriter::new(file), &trace)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}: {} events", trace.len());
    Ok(())
}

fn stats_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = require(flags, "trace")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let trace = edge_cache_groups::workload::read_trace(BufReader::new(file))
        .map_err(|e| format!("{path}: {e}"))?;
    let s = edge_cache_groups::workload::TraceStats::compute(&trace);
    println!("events            {}", s.requests + s.updates);
    println!("requests          {}", s.requests);
    println!("updates           {}", s.updates);
    println!("span              {:.1} s", s.span_ms / 1_000.0);
    println!("active caches     {}", s.active_caches);
    println!("distinct docs     {}", s.distinct_docs);
    println!("busiest cache     {} requests", s.max_cache_load);
    if let Some(imbalance) = s.load_imbalance() {
        println!("load imbalance    {imbalance:.2}x");
    }
    println!("top doc share     {:.1}%", 100.0 * s.top_doc_share);
    println!("top-10 share      {:.1}%", 100.0 * s.top10_share);
    Ok(())
}

fn simulate_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let network = load_network(require(flags, "network")?)?;
    let groups_path = require(flags, "groups")?;
    let text = std::fs::read_to_string(groups_path)
        .map_err(|e| format!("cannot read {groups_path}: {e}"))?;
    let groups = parse_groups(&text).map_err(|e| format!("{groups_path}: {e}"))?;
    let map = GroupMap::new(network.cache_count(), groups).map_err(|e| e.to_string())?;

    let duration_ms = positive(flags, "duration-secs", 120.0)? * 1_000.0;
    let capacity_bytes = capacity_bytes(flags)?;
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("utility") {
        "utility" => PolicyKind::Utility,
        "lru" => PolicyKind::Lru,
        "lfu" => PolicyKind::Lfu,
        "gdsf" => PolicyKind::Gdsf,
        other => return Err(format!("unknown --policy {other:?}")),
    };
    let placement = match flags
        .get("placement")
        .map(String::as_str)
        .unwrap_or("single-holder")
    {
        "single-holder" => PlacementKind::SingleHolder,
        "adaptive" => PlacementKind::adaptive(),
        "dchoices" => PlacementKind::d_choices(),
        other => return Err(format!("unknown --placement {other:?}")),
    };

    // Workload: regenerate from flags, or replay a persisted trace
    // against the flag-described catalog.
    let (catalog, trace) = {
        let (catalog, generated) = build_workload(flags, network.cache_count())?;
        match flags.get("trace") {
            None => (catalog, generated),
            Some(path) => {
                let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                let trace = edge_cache_groups::workload::read_trace(BufReader::new(file))
                    .map_err(|e| format!("{path}: {e}"))?;
                (catalog, trace)
            }
        }
    };
    let config = SimConfig::default()
        .cache_capacity_bytes(capacity_bytes)
        .policy(policy)
        .placement(placement)
        .warmup_ms(duration_ms / 6.0);
    let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).config(config);
    let report = simulate(&plan, &map, &mut RunContext::pooled()).map_err(|e| e.to_string())?;

    println!("{report}");
    Ok(())
}

/// `simulate` over a streamed workload, an implicit synthetic RTT
/// oracle and contiguous groups, on the worker pool: the large-N
/// counterpart of the `simulate` subcommand. Nothing global is
/// materialized — each shard regenerates its members' request streams
/// from the master seed — so stdout is byte-identical at any
/// `--threads` / `ECG_THREADS` setting.
fn replay_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    use edge_cache_groups::workload::generate_updates;
    use rand::Rng;

    let caches = at_least_one(flags, "caches", 200)?;
    let group_size = at_least_one(flags, "group-size", 25)?;
    let docs = at_least_one(flags, "docs", 1_500)?;
    let duration_ms = positive(flags, "duration-secs", 60.0)? * 1_000.0;
    let rate = positive(flags, "rate", 2.0)?;
    let capacity_bytes = capacity_bytes(flags)?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let verify: bool = get_parsed(flags, "verify", false)?;
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("utility") {
        "utility" => PolicyKind::Utility,
        "lru" => PolicyKind::Lru,
        "lfu" => PolicyKind::Lfu,
        "gdsf" => PolicyKind::Gdsf,
        other => return Err(format!("unknown --policy {other:?}")),
    };
    let placement = match flags
        .get("placement")
        .map(String::as_str)
        .unwrap_or("single-holder")
    {
        "single-holder" => PlacementKind::SingleHolder,
        "adaptive" => PlacementKind::adaptive(),
        "dchoices" => PlacementKind::d_choices(),
        other => return Err(format!("unknown --placement {other:?}")),
    };
    let threads: Option<usize> = match flags.get("threads") {
        None => None,
        Some(raw) => {
            let t: usize = raw
                .parse()
                .map_err(|_| format!("bad value for --threads: {raw:?}"))?;
            if t == 0 {
                return Err("--threads must be positive".into());
            }
            Some(t)
        }
    };

    // Node 0 is the origin; the caches are nodes 1..=caches.
    let net = SyntheticRttConfig::default().generate(caches + 1, seed);
    let groups: Vec<Vec<CacheId>> = (0..caches)
        .collect::<Vec<_>>()
        .chunks(group_size)
        .map(|chunk| chunk.iter().map(|&c| CacheId(c)).collect())
        .collect();
    let map = GroupMap::new(caches, groups).map_err(|e| e.to_string())?;

    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = CatalogConfig::default().documents(docs).generate(&mut rng);
    let updates = generate_updates(&catalog, duration_ms, &mut rng);
    let master: u64 = rng.gen();
    let workload = StreamedWorkload::new(
        RequestConfig::default().rate_per_sec_per_cache(rate),
        master,
        duration_ms,
    )
    .updates(&updates);
    let config = SimConfig::default()
        .cache_capacity_bytes(capacity_bytes)
        .policy(policy)
        .placement(placement)
        .warmup_ms(duration_ms / 6.0);
    let plan = SimPlan::streamed(&net, &catalog, &workload).config(config);
    let mut ctx = RunContext::pooled();

    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(threads);
    }
    let outcome = simulate(&plan, &map, &mut ctx).map_err(|e| e.to_string());
    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(None);
    }
    let report = outcome?;

    let stats = ctx.stats();
    println!(
        "{} caches in {} shards (group size <= {group_size}), {} shard events",
        caches, stats.shards, stats.shard_events
    );
    println!("{report}");
    eprintln!(
        "timings: plan {:.0} ms, shards {:.0} ms, merge {:.0} ms, total {:.0} ms",
        stats.plan_ms,
        stats.shards_ms,
        stats.merge_ms,
        stats.total_ms()
    );

    if verify {
        let full = RttMatrix::from_fn(caches + 1, |a, b| net.rtt_ms(a, b));
        let trace = workload.materialize_trace(&catalog, caches);
        let plan = SimPlan::new(&full, &catalog, &trace).config(config);
        let materialized =
            simulate(&plan, &map, &mut RunContext::serial()).map_err(|e| e.to_string())?;
        if materialized != report {
            return Err("sharded replay diverged from simulate on the materialized trace".into());
        }
        println!("verify: sharded report is bit-identical to simulate on the materialized trace");
    }
    Ok(())
}

/// Runs the formation supervisor over a generated churn schedule on a
/// transit-stub network, prints the per-window decision timeline, and
/// (optionally) runs a sporting-event workload epoch by epoch under
/// the groupings the supervisor served (`simulate_epochs`). The
/// supervisor itself is serial and a timeline run folds its shards in
/// a fixed order, so
/// stdout and the `--timeline-out` JSON are byte-identical at any
/// `--threads` / `ECG_THREADS` setting.
fn lifecycle_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let caches = at_least_one(flags, "caches", 60)?;
    let groups = at_least_one(flags, "groups", (caches / 8).max(2))?;
    let landmarks: usize = get_parsed(flags, "landmarks", 8)?;
    let duration_secs = positive(flags, "duration-secs", 120.0)?;
    let step_secs: f64 = get_parsed(flags, "step-secs", 10.0)?;
    let seed: u64 = get_parsed(flags, "seed", 1)?;
    let churn_rate: f64 = get_parsed(flags, "churn-rate", 12.0)?;
    let mean_downtime_secs = positive(flags, "mean-downtime-secs", 15.0)?;
    let retirement_fraction: f64 = get_parsed(flags, "retirement-fraction", 0.1)?;
    // The workload flags are checked before the supervisor runs.
    let workload = match get_parsed(flags, "replay", false)? {
        true => Some(build_workload(flags, caches)?),
        false => None,
    };
    if !churn_rate.is_finite() || churn_rate < 0.0 {
        return Err("--churn-rate must be finite and non-negative".into());
    }
    if !(0.0..=1.0).contains(&retirement_fraction) {
        return Err("--retirement-fraction must be in [0, 1]".into());
    }
    let policy_name = flags
        .get("policy")
        .map(String::as_str)
        .unwrap_or("balanced");
    let policy = ReformPolicy::by_name(policy_name)
        .ok_or_else(|| format!("unknown --policy {policy_name:?}"))?;
    let threads: Option<usize> = match flags.get("threads") {
        None => None,
        Some(raw) => {
            let t: usize = raw
                .parse()
                .map_err(|_| format!("bad value for --threads: {raw:?}"))?;
            if t == 0 {
                return Err("--threads must be positive".into());
            }
            Some(t)
        }
    };

    let duration_ms = duration_secs * 1_000.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
        .map_err(|e| e.to_string())?;

    // Churn plan and supervisor RNG are derived from --seed so the whole
    // run is reproducible from the command line alone.
    let plan = ChurnConfig::default()
        .crashes_per_hour_per_cache(churn_rate)
        .mean_downtime_ms(mean_downtime_secs * 1_000.0)
        .retirement_fraction(retirement_fraction)
        .generate(
            caches,
            duration_ms,
            &mut StdRng::seed_from_u64(seed ^ 0x9e37),
        );
    let schedule = plan.schedule();

    let supervisor = FormationSupervisor::new(
        SupervisorConfig::new(SchemeConfig::sl(groups).landmarks(landmarks))
            .step_ms(step_secs * 1_000.0)
            .policy(policy),
    );
    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(threads);
    }
    let run_outcome = (|| -> Result<_, String> {
        let timeline = supervisor
            .run(&network, &schedule, duration_ms, &mut rng)
            .map_err(|e| e.to_string())?;

        println!(
            "{caches} caches, K = {groups}, policy {policy_name}: \
             {} windows of {:.0} s over {:.0} s",
            timeline.decisions().len(),
            step_secs,
            duration_secs,
        );
        println!(
            "{} epochs | holds {} repairs {} partial {} full {} | max drift {:.2}",
            timeline.epochs().len(),
            timeline.decision_count(ReformDecision::Hold),
            timeline.decision_count(ReformDecision::Repair),
            timeline.decision_count(ReformDecision::PartialReform),
            timeline.decision_count(ReformDecision::FullReform),
            timeline.max_drift(),
        );
        for d in timeline.decisions() {
            if d.decision == ReformDecision::Hold && d.demoted_from.is_none() {
                continue;
            }
            let demoted = match d.demoted_from {
                Some(from) => format!(" (demoted from {from})"),
                None => String::new(),
            };
            let escalated = if d.escalated { " (escalated)" } else { "" };
            println!(
                "  t={:>5.0}s {}{demoted}{escalated}: drift {:.2}, \
                 {} down, {} retired, {} dead landmarks -> epoch {}",
                d.window_end_ms / 1_000.0,
                d.decision,
                d.signals.drift,
                d.signals.down_caches,
                d.signals.retirements,
                d.signals.dead_landmarks,
                d.epoch,
            );
        }

        if let Some(path) = flags.get("timeline-out") {
            let mut json = timeline.to_json();
            json.push('\n');
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}");
        }

        if let Some((catalog, trace)) = &workload {
            let epochs: Vec<ReplayEpoch> = timeline
                .epoch_spans()
                .map(|(start, map)| ReplayEpoch::new(start, map.clone()))
                .collect();
            let plan = SimPlan::new(network.rtt_matrix(), catalog, trace)
                .config(SimConfig::default().warmup_ms(duration_ms / 6.0))
                .faults(&schedule);
            let report = simulate_epochs(&plan, &epochs, &mut RunContext::pooled())
                .map_err(|e| e.to_string())?;
            println!("epoch-spanning replay across {} epochs:", epochs.len());
            println!("{report}");
        }
        Ok(())
    })();
    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(None);
    }
    run_outcome
}

/// Renders groups as one line of space-separated cache ids per group.
fn render_groups(groups: &[Vec<CacheId>]) -> String {
    let mut out = String::new();
    for group in groups {
        let ids: Vec<String> = group.iter().map(|c| c.index().to_string()).collect();
        out.push_str(&ids.join(" "));
        out.push('\n');
    }
    out
}

/// Parses the `render_groups` format (comments with `#`, blank lines
/// ignored).
fn parse_groups(text: &str) -> Result<Vec<Vec<CacheId>>, String> {
    let mut groups = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut group = Vec::new();
        for token in trimmed.split_ascii_whitespace() {
            let id: usize = token
                .parse()
                .map_err(|_| format!("line {}: bad cache id {token:?}", idx + 1))?;
            group.push(CacheId(id));
        }
        groups.push(group);
    }
    if groups.is_empty() {
        return Err("no groups found".into());
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_key_value_pairs() {
        let args: Vec<String> = ["--caches", "50", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags.get("caches").map(String::as_str), Some("50"));
        assert_eq!(get_parsed(&flags, "seed", 0u64).unwrap(), 9);
        assert_eq!(get_parsed(&flags, "missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn capacity_flag_is_validated_not_panicked_on() {
        let capacity = |kib: &str| {
            let args = ["--capacity-kib".to_string(), kib.to_string()];
            capacity_bytes(&parse_flags(&args).unwrap())
        };
        assert_eq!(capacity("512"), Ok(512 * 1024));
        assert_eq!(capacity_bytes(&HashMap::new()), Ok(512 * 1024));
        // Zero, and the smallest value whose byte count wraps to zero.
        for bad in ["0", "18014398509481984"] {
            let err = capacity(bad).unwrap_err();
            assert!(err.starts_with("--capacity-kib must be"), "{err}");
        }
        assert!(capacity("lots").unwrap_err().contains("bad value"));
        // Both subcommands that take the flag report it the same way.
        let flags = parse_flags(&["--capacity-kib".to_string(), "0".to_string()]).unwrap();
        assert!(replay_cmd(&flags).unwrap_err().contains("--capacity-kib"));
    }

    #[test]
    fn theta_flag_is_validated_not_panicked_on() {
        let flags = |value: &str| parse_flags(&["--theta".to_string(), value.to_string()]).unwrap();
        assert_eq!(theta(&flags("0")), Ok(0.0));
        assert_eq!(theta(&flags("2.5")), Ok(2.5));
        assert_eq!(theta(&HashMap::new()), Ok(1.0));
        for bad in ["nan", "inf", "-inf", "-1"] {
            let err = theta(&flags(bad)).unwrap_err();
            assert_eq!(err, "--theta must be finite and non-negative", "{bad}");
        }
        assert!(theta(&flags("far")).unwrap_err().contains("bad value"));
        // Both subcommands that take the flag report it the same way.
        let mut scale = flags("nan");
        scale.insert("caches".into(), "50".into());
        assert!(scale_cmd(&scale).unwrap_err().contains("--theta"));
        assert!(form(&flags("-1")).unwrap_err().contains("--theta"));
    }

    #[test]
    fn unknown_flags_and_zero_groups_are_errors() {
        // A misspelt flag used to be ignored (`--group 50` formed the
        // default K); `--groups 0` formed one group or panicked.
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        let err = run(&to_args(&["scale", "--caches", "2000", "--bogus", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag --bogus for `ecg scale`");
        let err = run(&to_args(&["replay", "--zeta", "1", "--alpha", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag --alpha for `ecg replay`");
        // A flag another subcommand reads is still unknown here.
        assert!(run(&to_args(&["stats", "--seed", "1"])).is_err());
        for command in ["scale", "lifecycle"] {
            let err = run(&to_args(&[command, "--groups", "0"])).unwrap_err();
            assert_eq!(err, "--groups must be positive", "{command}");
        }
        let zero = parse_flags(&["--groups".to_string(), "0".to_string()]).unwrap();
        assert_eq!(
            at_least_one(&zero, "groups", 5).unwrap_err(),
            "--groups must be positive"
        );
        assert_eq!(at_least_one(&HashMap::new(), "groups", 5), Ok(5));
    }

    #[test]
    fn workload_flags_are_range_checked_not_asserted() {
        // Each of these used to reach a library `assert!` and panic.
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        let finite = "must be positive and finite";
        let cases: &[(&[&str], &str, &str)] = &[
            (&["replay"], "duration-secs", "-1"),
            (&["replay"], "duration-secs", "nan"),
            (&["replay"], "duration-secs", "inf"),
            (&["replay"], "rate", "nan"),
            (&["replay"], "rate", "-1"),
            (&["replay"], "rate", "0"),
            (&["replay"], "docs", "0"),
            (&["lifecycle"], "duration-secs", "0"),
            (&["lifecycle"], "mean-downtime-secs", "0"),
            (&["lifecycle", "--replay", "true"], "rate", "nan"),
            (&["lifecycle", "--replay", "true"], "docs", "0"),
            (&["gen-trace", "--out", "/nonexistent/x"], "rate", "nan"),
            (
                &["gen-trace", "--out", "/nonexistent/x"],
                "duration-secs",
                "-3",
            ),
            (&["gen-trace", "--out", "/nonexistent/x"], "docs", "0"),
            (&["gen-trace", "--out", "/nonexistent/x"], "caches", "0"),
        ];
        for &(command, flag, value) in cases {
            let mut args = to_args(command);
            args.extend([format!("--{flag}"), value.to_string()]);
            let expected = match flag {
                "docs" | "caches" => format!("--{flag} must be positive"),
                _ => format!("--{flag} {finite}"),
            };
            assert_eq!(run(&args), Err(expected), "{args:?}");
        }
        // `ecg simulate` reads the same workload flags through the same
        // helper, after it has loaded its network.
        for (flag, value) in [("rate", "inf"), ("duration-secs", "0"), ("docs", "0")] {
            let flags = parse_flags(&to_args(&[&format!("--{flag}"), value])).unwrap();
            let err = build_workload(&flags, 10).unwrap_err();
            assert!(
                err.starts_with(&format!("--{flag} must be positive")),
                "{err}"
            );
        }
        assert_eq!(positive(&HashMap::new(), "rate", 2.0), Ok(2.0));
        assert_eq!(at_least_one(&HashMap::new(), "docs", 7), Ok(7));
    }

    #[test]
    fn flags_reject_malformed_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_flags(&args).is_err()
        };
        assert!(bad(&["caches", "50"])); // missing --
        assert!(bad(&["--caches"])); // missing value
        assert!(bad(&["--a", "1", "--a", "2"])); // duplicate
    }

    #[test]
    fn groups_round_trip() {
        let groups = vec![
            vec![CacheId(0), CacheId(3)],
            vec![CacheId(1)],
            vec![CacheId(2), CacheId(4), CacheId(5)],
        ];
        let text = render_groups(&groups);
        let back = parse_groups(&text).unwrap();
        assert_eq!(back, groups);
    }

    #[test]
    fn parse_groups_skips_comments_and_rejects_garbage() {
        let ok = parse_groups("# header\n0 1\n\n2\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert!(parse_groups("0 x\n").is_err());
        assert!(parse_groups("# only comments\n").is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let args = vec!["frobnicate".to_string()];
        assert!(run(&args).is_err());
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir();
        let net = dir.join("ecg_cli_test.rtt");
        let grp = dir.join("ecg_cli_test.groups");
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };

        run(&to_args(&[
            "gen-network",
            "--caches",
            "24",
            "--seed",
            "3",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "form",
            "--network",
            net.to_str().unwrap(),
            "--scheme",
            "sdsl",
            "--groups",
            "4",
            "--landmarks",
            "6",
            "--out",
            grp.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "simulate",
            "--network",
            net.to_str().unwrap(),
            "--groups",
            grp.to_str().unwrap(),
            "--docs",
            "200",
            "--duration-secs",
            "10",
        ]))
        .unwrap();

        // Trace tooling: generate, inspect, replay.
        let trc = dir.join("ecg_cli_test.trace");
        run(&to_args(&[
            "gen-trace",
            "--caches",
            "24",
            "--docs",
            "200",
            "--duration-secs",
            "10",
            "--out",
            trc.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&["stats", "--trace", trc.to_str().unwrap()])).unwrap();
        run(&to_args(&[
            "simulate",
            "--network",
            net.to_str().unwrap(),
            "--groups",
            grp.to_str().unwrap(),
            "--docs",
            "200",
            "--duration-secs",
            "10",
            "--trace",
            trc.to_str().unwrap(),
        ]))
        .unwrap();

        // A hand-edited trace whose one request lies a thousand years
        // out passes every per-value check; it used to size the
        // degradation timeline (5.9 GB) and abort the process.
        std::fs::write(&trc, "R 1000000000000 3 7\n").unwrap();
        let err = run(&to_args(&[
            "simulate",
            "--network",
            net.to_str().unwrap(),
            "--groups",
            grp.to_str().unwrap(),
            "--docs",
            "200",
            "--trace",
            trc.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("horizon"), "{err}");

        std::fs::remove_file(&net).ok();
        std::fs::remove_file(&grp).ok();
        std::fs::remove_file(&trc).ok();
    }

    #[test]
    fn placement_flag_and_flashcrowd_preset() {
        let dir = std::env::temp_dir();
        let net = dir.join("ecg_cli_place.rtt");
        let grp = dir.join("ecg_cli_place.groups");
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };

        run(&to_args(&[
            "gen-network",
            "--caches",
            "12",
            "--seed",
            "5",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&to_args(&[
            "form",
            "--network",
            net.to_str().unwrap(),
            "--groups",
            "3",
            "--landmarks",
            "5",
            "--out",
            grp.to_str().unwrap(),
        ]))
        .unwrap();
        for placement in ["single-holder", "adaptive", "dchoices"] {
            run(&to_args(&[
                "simulate",
                "--network",
                net.to_str().unwrap(),
                "--groups",
                grp.to_str().unwrap(),
                "--preset",
                "flashcrowd",
                "--docs",
                "150",
                "--duration-secs",
                "8",
                "--placement",
                placement,
            ]))
            .unwrap();
        }
        assert!(run(&to_args(&[
            "simulate",
            "--network",
            net.to_str().unwrap(),
            "--groups",
            grp.to_str().unwrap(),
            "--placement",
            "bogus",
        ]))
        .is_err());

        std::fs::remove_file(&net).ok();
        std::fs::remove_file(&grp).ok();
    }

    #[test]
    fn scale_subcommand_runs_both_variants() {
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        run(&to_args(&[
            "scale",
            "--caches",
            "300",
            "--groups",
            "6",
            "--landmarks",
            "6",
            "--seed",
            "2",
        ]))
        .unwrap();
        run(&to_args(&[
            "scale",
            "--caches",
            "300",
            "--scheme",
            "sl",
            "--groups",
            "5",
            "--landmarks",
            "6",
            "--minibatch",
            "true",
            "--batch-size",
            "64",
            "--iters",
            "10",
        ]))
        .unwrap();
        // Forced tree assignment must run (and match the other engines
        // bit for bit — pinned by the scaled-pipeline suite).
        run(&to_args(&[
            "scale",
            "--caches",
            "300",
            "--groups",
            "6",
            "--landmarks",
            "6",
            "--seed",
            "2",
            "--assign",
            "tree",
        ]))
        .unwrap();
        assert!(run(&to_args(&[
            "scale",
            "--minibatch",
            "true",
            "--batch-size",
            "0"
        ]))
        .is_err());
        assert!(run(&to_args(&["scale", "--scheme", "bogus"])).is_err());
        assert!(run(&to_args(&["scale", "--assign", "kd"])).is_err());
    }

    #[test]
    fn replay_subcommand_verifies_against_monolithic() {
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        // Small N with --verify: the streamed, sharded report must be
        // bit-identical to the serial run over the materialized trace, at
        // an explicit thread count too.
        run(&to_args(&[
            "replay",
            "--caches",
            "18",
            "--group-size",
            "5",
            "--docs",
            "150",
            "--duration-secs",
            "8",
            "--verify",
            "true",
        ]))
        .unwrap();
        run(&to_args(&[
            "replay",
            "--caches",
            "18",
            "--group-size",
            "5",
            "--docs",
            "150",
            "--duration-secs",
            "8",
            "--threads",
            "2",
            "--placement",
            "adaptive",
            "--verify",
            "true",
        ]))
        .unwrap();
        assert!(run(&to_args(&["replay", "--caches", "0"])).is_err());
        assert!(run(&to_args(&["replay", "--group-size", "0"])).is_err());
        assert!(run(&to_args(&["replay", "--threads", "0"])).is_err());
        assert!(run(&to_args(&["replay", "--policy", "bogus"])).is_err());
    }

    #[test]
    fn lifecycle_subcommand_is_thread_count_invariant() {
        let dir = std::env::temp_dir();
        let t1 = dir.join("ecg_cli_lifecycle_t1.json");
        let t2 = dir.join("ecg_cli_lifecycle_t2.json");
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        // Heavy churn on a small network so the policy actually acts;
        // the timeline JSON must not depend on the worker count.
        let base = |out: &str, threads: &str| {
            to_args(&[
                "lifecycle",
                "--caches",
                "24",
                "--groups",
                "4",
                "--landmarks",
                "5",
                "--duration-secs",
                "60",
                "--step-secs",
                "10",
                "--churn-rate",
                "120",
                "--seed",
                "7",
                "--timeline-out",
                out,
                "--threads",
                threads,
            ])
        };
        run(&base(t1.to_str().unwrap(), "1")).unwrap();
        run(&base(t2.to_str().unwrap(), "2")).unwrap();
        let a = std::fs::read(&t1).unwrap();
        let b = std::fs::read(&t2).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "timeline JSON differs across thread counts");

        // Epoch-spanning replay path over the same run.
        run(&to_args(&[
            "lifecycle",
            "--caches",
            "24",
            "--groups",
            "4",
            "--landmarks",
            "5",
            "--duration-secs",
            "60",
            "--step-secs",
            "10",
            "--churn-rate",
            "120",
            "--seed",
            "7",
            "--docs",
            "150",
            "--replay",
            "true",
        ]))
        .unwrap();

        assert!(run(&to_args(&["lifecycle", "--caches", "0"])).is_err());
        assert!(run(&to_args(&["lifecycle", "--churn-rate", "-1"])).is_err());
        assert!(run(&to_args(&["lifecycle", "--threads", "0"])).is_err());
        assert!(run(&to_args(&["lifecycle", "--policy", "bogus"])).is_err());
        assert!(run(&to_args(&["lifecycle", "--retirement-fraction", "2"])).is_err());

        std::fs::remove_file(&t1).ok();
        std::fs::remove_file(&t2).ok();
    }

    #[test]
    fn news_preset_and_bad_preset() {
        let dir = std::env::temp_dir();
        let trc = dir.join("ecg_cli_news.trace");
        let to_args =
            |parts: &[&str]| -> Vec<String> { parts.iter().map(|s| s.to_string()).collect() };
        run(&to_args(&[
            "gen-trace",
            "--caches",
            "6",
            "--docs",
            "100",
            "--duration-secs",
            "5",
            "--preset",
            "news",
            "--out",
            trc.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(run(&to_args(&[
            "gen-trace",
            "--preset",
            "bogus",
            "--out",
            trc.to_str().unwrap(),
        ]))
        .is_err());
        std::fs::remove_file(&trc).ok();
    }
}
