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
//! * `scale` runs the large-N pipeline ([`form`] under a per-row plan)
//!   over an implicit synthetic RTT oracle — no matrix file, O(n) state —
//!   and prints per-stage timings plus group-size statistics.
//! * `simulate` runs a synthetic sporting-event workload over the
//!   groups and prints the latency/hit-rate report.
//! * `replay` runs the same entry point ([`simulate`]) over a
//!   *streamed* workload, an implicit synthetic oracle and contiguous
//!   groups on `ecg-par`'s scoped threads — the large-N counterpart of
//!   `simulate`, byte-identical output at any thread count.
//! * `lifecycle` runs the [`FormationSupervisor`] over a generated
//!   churn schedule: windows tick, caches crash/recover/retire, and a
//!   re-formation policy decides hold / repair / partial / full each
//!   window. Prints the decision timeline; `--replay` additionally
//!   runs a workload epoch by epoch under the evolving groupings
//!   ([`simulate_epochs`]).
//!
//! Each subcommand is a row of [`COMMANDS`]: its handler and its flags,
//! each flag with what an absent value means (a default, required, or
//! unset). A flag is declared once, as a [`Flag`] constant with its
//! usage placeholder and its range [`Check`]. The table drives the
//! known-flag check, the range checks (all of them, on given and default
//! values, before a subcommand starts), and the usage text; values are
//! parsed by [`edge_cache_groups::cli::Args`].

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use edge_cache_groups::cli::{parse_value, stdout_error, Args};
use edge_cache_groups::prelude::*;
use edge_cache_groups::topology::{read_rtt_matrix, write_rtt_matrix};
use edge_cache_groups::workload::{
    read_trace, write_trace, DocumentCatalog, NewsSiteConfig, RegionalFlashCrowdConfig, TraceEvent,
    TraceStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = match asks_for_help(&args) {
        true => writeln!(out, "{}", usage()).map_err(Error::from),
        false => run(&args, &mut out),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Stdout(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(Error::Input(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand failed: its input (reported with the usage), or a
/// write to stdout (a closed pipe, reported alone). A file's I/O error
/// is an `Input` message naming the file; an `io::Error` that reaches
/// `?` unnamed is stdout's.
enum Error {
    Input(String),
    Stdout(String),
}

impl From<String> for Error {
    fn from(message: String) -> Error {
        Error::Input(message)
    }
}

impl From<io::Error> for Error {
    fn from(err: io::Error) -> Error {
        Error::Stdout(stdout_error(err))
    }
}

/// `ecg help`, or `--help` / `-h` anywhere on the command line: a
/// request for the usage, not a subcommand or a flag to reject.
fn asks_for_help(args: &[String]) -> bool {
    args.first().is_some_and(|arg| arg == "help")
        || args.iter().any(|arg| arg == "--help" || arg == "-h")
}

/// What a flag's value must satisfy.
#[derive(Clone, Copy)]
enum Check {
    /// Anything the handler's type parses.
    Any,
    /// An integer from 1 to the bound.
    Count(u64),
    /// A finite number above zero.
    Positive,
    /// A finite number at or above zero.
    NonNegative,
    /// A number in [0, 1].
    Fraction,
}

use Check::{Any, Count, Fraction, NonNegative, Positive};

/// An integer of at least 1: the invariant the generators,
/// `KmeansConfig::new` and the group-size cap assert.
const COUNT: Check = Count(u64::MAX);

impl Check {
    /// `Err` naming `--name` unless `raw` passes.
    fn check(self, name: &str, raw: &str) -> Result<(), String> {
        let number = || parse_value::<f64>(name, raw);
        let passes = match self {
            Any => true,
            Count(max) => (1..=max).contains(&parse_value::<u64>(name, raw)?),
            Positive => number().map(|x| x.is_finite() && x > 0.0)?,
            NonNegative => number().map(|x| x.is_finite() && x >= 0.0)?,
            Fraction => (0.0..=1.0).contains(&number()?),
        };
        if passes {
            Ok(())
        } else {
            Err(format!("--{name} must be {}", self.rule()))
        }
    }

    fn rule(self) -> String {
        match self {
            Any => "parseable".into(),
            Count(u64::MAX) => "positive".into(),
            Count(max) => format!("between 1 and {max}"),
            Positive => "positive and finite".into(),
            NonNegative => "finite and non-negative".into(),
            Fraction => "in [0, 1]".into(),
        }
    }
}

/// One flag: `--name PLACEHOLDER`, and the check its value must pass.
struct Flag {
    name: &'static str,
    value: &'static str,
    check: Check,
}

const fn flag(name: &'static str, value: &'static str, check: Check) -> Flag {
    Flag { name, value, check }
}

// Two names mean different things to different subcommands: `--groups`
// is K or a groups file, `--policy` a cache or a re-formation policy.
const CACHES: Flag = flag("caches", "N", COUNT);
const SEED: Flag = flag("seed", "S", Any);
const OUT: Flag = flag("out", "FILE", Any);
const ORIGIN: Flag = flag("origin", "transit|stub", Any);
const NETWORK: Flag = flag("network", "FILE", Any);
const SCHEME: Flag = flag("scheme", "sl|sdsl", Any);
const GROUPS: Flag = flag("groups", "K", COUNT);
const GROUPS_FILE: Flag = flag("groups", "FILE", Any);
const THETA: Flag = flag("theta", "T", NonNegative);
const LANDMARKS: Flag = flag("landmarks", "L", Any);
const PLSET: Flag = flag("plset-multiplier", "M", Any);
const MAX_GROUP_SIZE: Flag = flag("max-group-size", "S", COUNT);
const MINIBATCH: Flag = flag("minibatch", "true|false", Any);
const BATCH_SIZE: Flag = flag("batch-size", "B", COUNT);
const ITERS: Flag = flag("iters", "I", COUNT);
const TRACE: Flag = flag("trace", "FILE", Any);
const DOCS: Flag = flag("docs", "D", COUNT);
const DURATION: Flag = flag("duration-secs", "T", Positive);
const RATE: Flag = flag("rate", "R", Positive);
const PRESET: Flag = flag("preset", "sporting|news|flashcrowd", Any);
/// In KiB; the byte count must fit a `u64`.
const CAPACITY: Flag = flag("capacity-kib", "C", Count(u64::MAX / 1024));
const POLICY: Flag = flag("policy", "utility|lru|lfu|gdsf", Any);
const PLACEMENT: Flag = flag("placement", "single-holder|adaptive|dchoices", Any);
const GROUP_SIZE: Flag = flag("group-size", "G", COUNT);
const THREADS: Flag = flag("threads", "T", COUNT);
const VERIFY: Flag = flag("verify", "true|false", Any);
const STEP: Flag = flag("step-secs", "W", Positive);
const CHURN_RATE: Flag = flag("churn-rate", "CRASHES_PER_HOUR_PER_CACHE", NonNegative);
const DOWNTIME: Flag = flag("mean-downtime-secs", "D", Positive);
const RETIREMENT: Flag = flag("retirement-fraction", "F", Fraction);
const REFORM_POLICY: Flag = flag("policy", "static|repair|eager|balanced", Any);
const TIMELINE_OUT: Flag = flag("timeline-out", "FILE", Any);
const REPLAY: Flag = flag("replay", "true|false", Any);

/// What a subcommand takes a flag it was not given to mean.
enum Absent {
    /// This value, parsed and checked like a given one.
    Default(&'static str),
    /// An error.
    Required,
    /// Nothing: the handler derives a value or does without.
    Unset,
}

use Absent::{Default as D, Required, Unset};

/// A subcommand: its name, what it does, its flags, and its handler.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [(Flag, Absent)],
    run: fn(&Opts, &mut dyn Write) -> Result<(), Error>,
}

impl Command {
    fn entry(&self, name: &str) -> Option<&(Flag, Absent)> {
        self.flags.iter().find(|(flag, _)| flag.name == name)
    }
}

/// Every subcommand, in usage order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "gen-network", run: gen_network, about: "", flags: &[
        (CACHES, D("100")), (SEED, D("1")), (ORIGIN, D("transit")), (OUT, Required),
    ] },
    Command { name: "form", run: form_cmd, about: "", flags: &[
        (NETWORK, Required), (SCHEME, D("sdsl")), (GROUPS, Unset), (THETA, D("1")),
        (LANDMARKS, D("25")), (PLSET, D("4")), (MAX_GROUP_SIZE, Unset), (SEED, D("1")),
        (OUT, Unset),
    ] },
    Command { name: "scale", run: scale_cmd, about: "", flags: &[
        (CACHES, D("10000")), (GROUPS, Unset), (SCHEME, D("sdsl")), (THETA, D("1")),
        (LANDMARKS, D("8")), (PLSET, D("4")), (SEED, D("1")), (MINIBATCH, D("false")),
        (BATCH_SIZE, D("2048")), (ITERS, D("40")),
    ] },
    Command { name: "gen-trace", run: gen_trace, about: "", flags: &[
        (CACHES, D("100")), (DOCS, D("1500")), (DURATION, D("120")), (RATE, D("2")),
        (PRESET, D("sporting")), (SEED, D("1")), (OUT, Required),
    ] },
    Command { name: "stats", run: stats_cmd, about: "", flags: &[(TRACE, Required)] },
    Command { name: "simulate", run: simulate_cmd, flags: &[
        (NETWORK, Required), (GROUPS_FILE, Required), (TRACE, Unset), (DOCS, D("1500")),
        (DURATION, D("120")), (RATE, D("2")), (CAPACITY, D("512")), (PRESET, D("sporting")),
        (POLICY, D("utility")), (PLACEMENT, D("single-holder")), (SEED, D("1")),
    ], about: "regenerates the workload from its flags unless given a trace file, \
        which must come from gen-trace with the same seed and document count." },
    Command { name: "replay", run: replay_cmd, flags: &[
        (CACHES, D("200")), (GROUP_SIZE, D("25")), (DOCS, D("1500")), (DURATION, D("60")),
        (RATE, D("2")), (CAPACITY, D("512")), (POLICY, D("utility")),
        (PLACEMENT, D("single-holder")), (SEED, D("1")), (THREADS, Unset), (VERIFY, D("false")),
    ], about: "streams the workload group by group on scoped worker threads; verifying also \
        simulates the materialized trace serially and asserts a bit-identical report \
        (small N only). Timings go to stderr." },
    Command { name: "lifecycle", run: lifecycle_cmd, flags: &[
        (CACHES, D("60")), (GROUPS, Unset), (LANDMARKS, D("8")), (DURATION, D("120")),
        (STEP, D("10")), (SEED, D("1")), (CHURN_RATE, D("12")), (DOWNTIME, D("15")),
        (RETIREMENT, D("0.1")), (REFORM_POLICY, D("balanced")), (TIMELINE_OUT, Unset),
        (REPLAY, D("false")), (DOCS, D("1500")), (RATE, D("2")), (PRESET, D("sporting")),
        (THREADS, Unset),
    ], about: "when replaying, also simulates the workload epoch by epoch under the \
        evolving groupings. Stdout and the timeline JSON are byte-identical at any thread count." },
];

/// The usage text, generated from [`COMMANDS`].
fn usage() -> String {
    let mut out = String::from("usage:\n");
    for command in COMMANDS {
        let items = command.flags.iter().map(|(flag, absent)| match absent {
            Required => format!("--{} {}", flag.name, flag.value),
            _ => format!("[--{} {}]", flag.name, flag.value),
        });
        out += &wrap(format!("  ecg {:<11}", command.name), items, 17);
    }
    for command in COMMANDS.iter().filter(|c| !c.about.is_empty()) {
        let about = format!("{} {}", command.name, command.about);
        out.push('\n');
        out += &wrap(String::new(), about.split(' ').map(str::to_owned), 0);
    }
    out.pop();
    out
}

/// `head` and then `items`, space-separated, in lines of at most 78
/// columns, each continuation line indented by `indent`.
fn wrap(head: String, items: impl Iterator<Item = String>, indent: usize) -> String {
    let mut out = String::new();
    let mut line = head;
    for item in items {
        if !line.trim().is_empty() && line.len() + 1 + item.len() > 78 {
            out += &line;
            out.push('\n');
            line = " ".repeat(indent);
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line += &item;
    }
    out + &line + "\n"
}

/// A subcommand's flags as given, read through its row of the table.
struct Opts {
    command: &'static Command,
    args: Args,
}

impl Opts {
    /// The given value of `flag`, else its default.
    fn raw(&self, flag: &Flag) -> Option<&str> {
        self.args
            .value(flag.name)
            .or(match self.command.entry(flag.name) {
                Some((_, D(value))) => Some(value),
                _ => None,
            })
    }

    /// `flag`'s value (given or default) parsed, if it has one.
    fn opt<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, String> {
        self.raw(flag)
            .map(|raw| parse_value(flag.name, raw))
            .transpose()
    }

    /// `flag`'s value (given or default) parsed; an error if it has none.
    fn get<T: FromStr>(&self, flag: &Flag) -> Result<T, String> {
        self.opt(flag)?
            .ok_or_else(|| format!("missing required flag --{}", flag.name))
    }
}

/// Parses `args` (subcommand first) against the table and runs every
/// range check.
fn parse(args: &[String]) -> Result<Opts, String> {
    let Some((name, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    // `Args` takes every `--token` for a flag, so this finds the first
    // one the subcommand does not read: a misspelt or misplaced flag is
    // a mistake to report, not to run past.
    let mut flags = rest.iter().filter_map(|arg| arg.strip_prefix("--"));
    if let Some(unknown) = flags.find(|f| command.entry(f).is_none()) {
        let readers = COMMANDS.iter().filter(|c| c.entry(unknown).is_some());
        let readers: Vec<&str> = readers.map(|c| c.name).collect();
        let read_by = match readers.is_empty() {
            true => String::new(),
            false => format!(" (read by {})", readers.join(", ")),
        };
        return Err(format!(
            "unknown flag --{unknown} for `ecg {name}`{read_by}"
        ));
    }
    let names: Vec<&str> = command.flags.iter().map(|(flag, _)| flag.name).collect();
    let args = Args::parse(rest.iter().cloned(), &[], &names)?;
    args.no_positionals()?;
    let opts = Opts { command, args };
    for (flag, _) in command.flags {
        if let Some(raw) = opts.raw(flag) {
            flag.check.check(flag.name, raw)?;
        }
    }
    Ok(opts)
}

/// Runs the subcommand `args` names, writing its report to `out`.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), Error> {
    let opts = parse(args)?;
    let threads: Option<usize> = opts.opt(&THREADS)?;
    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(threads);
    }
    let outcome = (opts.command.run)(&opts, out);
    if threads.is_some() {
        edge_cache_groups::par::set_max_threads(None);
    }
    outcome
}

fn gen_network(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let caches: usize = opts.get(&CACHES)?;
    let origin: OriginPlacement = opts.get(&ORIGIN)?;
    let path: String = opts.get(&OUT)?;

    let mut rng = StdRng::seed_from_u64(opts.get(&SEED)?);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, origin, &mut rng).map_err(|e| e.to_string())?;

    let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write_rtt_matrix(BufWriter::new(file), network.rtt_matrix())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(
        out,
        "wrote {path}: origin + {} caches, mean origin RTT {:.1} ms",
        network.cache_count(),
        network.mean_origin_rtt()
    )?;
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

/// The SL or SDSL scheme the scheme flag names, for `k` groups, with the
/// landmark flags applied.
fn scheme(opts: &Opts, k: usize) -> Result<SchemeConfig, String> {
    let scheme = match opts.get::<String>(&SCHEME)?.as_str() {
        "sl" => SchemeConfig::sl(k),
        "sdsl" => SchemeConfig::sdsl(k, opts.get(&THETA)?),
        other => {
            return Err(format!(
                "--{} must be sl or sdsl, got {other:?}",
                SCHEME.name
            ))
        }
    };
    Ok(scheme
        .landmarks(opts.get(&LANDMARKS)?)
        .plset_multiplier(opts.get(&PLSET)?))
}

fn form_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let network = load_network(&opts.get::<String>(&NETWORK)?)?;
    let k = opts
        .opt(&GROUPS)?
        .unwrap_or((network.cache_count() / 10).max(1));
    let mut scheme = scheme(opts, k)?;
    if let Some(cap) = opts.opt(&MAX_GROUP_SIZE)? {
        scheme = scheme.max_group_size(cap);
    }

    let mut rng = StdRng::seed_from_u64(opts.get(&SEED)?);
    let outcome = form(
        &FormPlan::new(network.rtt_matrix(), &scheme),
        &mut FormContext::new(),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;

    let rendered = render_groups(outcome.groups());
    match opts.opt::<String>(&OUT)? {
        Some(path) => {
            let mut file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
            file.write_all(rendered.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "wrote {path}")?;
        }
        None => write!(out, "{rendered}")?,
    }
    let gic = outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
    writeln!(
        out,
        "# {} groups, sizes {:?}, avg interaction cost {:.2} ms, {} probes",
        outcome.groups().len(),
        outcome.groups().iter().map(Vec::len).collect::<Vec<_>>(),
        gic,
        outcome.probes_sent(),
    )?;
    Ok(())
}

/// The large-N pipeline over an implicit synthetic RTT oracle: no
/// matrix file, O(n) state, derived-seed parallel kernels throughout.
fn scale_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let caches: usize = opts.get(&CACHES)?;
    let seed: u64 = opts.get(&SEED)?;
    let minibatch: bool = opts.get(&MINIBATCH)?;
    let batch_size: usize = opts.get(&BATCH_SIZE)?;
    let iters: usize = opts.get(&ITERS)?;

    let k = opts.opt(&GROUPS)?.unwrap_or((caches / 100).max(2));
    let mut scheme = scheme(opts, k)?;
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
    let mut ctx = FormContext::new();
    let outcome = form(&FormPlan::new(&net, &scheme).per_row(), &mut ctx, &mut rng)
        .map_err(|e| e.to_string())?;

    let sizes: Vec<usize> = outcome.groups().iter().map(Vec::len).collect();
    let gic = outcome.average_interaction_cost(|a, b| net.rtt_ms(a.index() + 1, b.index() + 1));
    let engine = if minibatch {
        format!("mini-batch {batch_size}x{iters}")
    } else {
        "full-batch Lloyd".into()
    };
    writeln!(
        out,
        "{} caches -> {} groups ({engine}), sizes min/mean/max {}/{:.1}/{}",
        caches,
        outcome.groups().len(),
        sizes.iter().min().copied().unwrap_or(0),
        caches as f64 / sizes.len().max(1) as f64,
        sizes.iter().max().copied().unwrap_or(0),
    )?;
    writeln!(
        out,
        "avg interaction cost {:.2} ms, {} probes, {} k-means iterations",
        gic,
        outcome.probes_sent(),
        outcome.kmeans_iterations(),
    )?;
    let t = ctx.stats();
    writeln!(
        out,
        "timings: landmarks {:.0} ms, features {:.0} ms, clustering {:.0} ms \
         (tree build {:.1} ms), total {:.0} ms",
        t.landmarks_ms, t.features_ms, t.clustering_ms, t.tree_build_ms, t.total_ms,
    )?;
    Ok(())
}

/// The workload the preset, document, duration, rate and seed flags
/// describe, over `caches` caches (shared by `gen-trace`, `simulate`
/// and `lifecycle`).
fn build_workload(
    opts: &Opts,
    caches: usize,
) -> Result<(DocumentCatalog, Vec<TraceEvent>), String> {
    let docs: usize = opts.get(&DOCS)?;
    let duration_ms = opts.get::<f64>(&DURATION)? * 1_000.0;
    let rate: f64 = opts.get(&RATE)?;
    let mut rng = StdRng::seed_from_u64(opts.get(&SEED)?);
    macro_rules! generate {
        ($config:ty) => {{
            let w = <$config>::default()
                .caches(caches)
                .documents(docs)
                .duration_ms(duration_ms)
                .rate_per_sec_per_cache(rate)
                .generate(&mut rng);
            let trace = w.merged_trace();
            Ok((w.catalog, trace))
        }};
    }
    match opts.get::<String>(&PRESET)?.as_str() {
        "sporting" => generate!(SportingEventConfig),
        "news" => generate!(NewsSiteConfig),
        "flashcrowd" => generate!(RegionalFlashCrowdConfig),
        other => Err(format!(
            "--{} must be sporting, news, or flashcrowd, got {other:?}",
            PRESET.name
        )),
    }
}

fn read_trace_file(path: &str) -> Result<Vec<TraceEvent>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_trace(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn gen_trace(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let path: String = opts.get(&OUT)?;
    let (_, trace) = build_workload(opts, opts.get(&CACHES)?)?;
    let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
    write_trace(BufWriter::new(file), &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "wrote {path}: {} events", trace.len())?;
    Ok(())
}

fn stats_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let s = TraceStats::compute(&read_trace_file(&opts.get::<String>(&TRACE)?)?);
    writeln!(out, "events            {}", s.requests + s.updates)?;
    writeln!(out, "requests          {}", s.requests)?;
    writeln!(out, "updates           {}", s.updates)?;
    writeln!(out, "span              {:.1} s", s.span_ms / 1_000.0)?;
    writeln!(out, "active caches     {}", s.active_caches)?;
    writeln!(out, "distinct docs     {}", s.distinct_docs)?;
    writeln!(out, "busiest cache     {} requests", s.max_cache_load)?;
    if let Some(imbalance) = s.load_imbalance() {
        writeln!(out, "load imbalance    {imbalance:.2}x")?;
    }
    writeln!(out, "top doc share     {:.1}%", 100.0 * s.top_doc_share)?;
    writeln!(out, "top-10 share      {:.1}%", 100.0 * s.top10_share)?;
    Ok(())
}

/// The cache capacity, policy and placement flags, and a warm-up of a
/// sixth of the run.
fn sim_config(opts: &Opts, duration_ms: f64) -> Result<SimConfig, String> {
    Ok(SimConfig::default()
        .cache_capacity_bytes(opts.get::<u64>(&CAPACITY)? * 1024)
        .policy(opts.get(&POLICY)?)
        .placement(opts.get(&PLACEMENT)?)
        .warmup_ms(duration_ms / 6.0))
}

fn simulate_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let network = load_network(&opts.get::<String>(&NETWORK)?)?;
    let groups_path: String = opts.get(&GROUPS_FILE)?;
    let text = std::fs::read_to_string(&groups_path)
        .map_err(|e| format!("cannot read {groups_path}: {e}"))?;
    let groups = parse_groups(&text).map_err(|e| format!("{groups_path}: {e}"))?;
    let map = GroupMap::new(network.cache_count(), groups).map_err(|e| e.to_string())?;
    let config = sim_config(opts, opts.get::<f64>(&DURATION)? * 1_000.0)?;

    // Workload: regenerate from flags, or replay a persisted trace
    // against the flag-described catalog.
    let (catalog, mut trace) = build_workload(opts, network.cache_count())?;
    if let Some(path) = opts.opt::<String>(&TRACE)? {
        trace = read_trace_file(&path)?;
    }
    let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace).config(config);
    let report = simulate(&plan, &map, &mut RunContext::pooled()).map_err(|e| e.to_string())?;

    writeln!(out, "{report}")?;
    Ok(())
}

/// `simulate` over a streamed workload, an implicit synthetic RTT
/// oracle and contiguous groups, on scoped threads: the large-N
/// counterpart of the `simulate` subcommand. Nothing global is
/// materialized — each shard regenerates its members' request streams
/// from the master seed — so stdout is byte-identical at any
/// `--threads` / `ECG_THREADS` setting.
fn replay_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    use edge_cache_groups::workload::generate_updates;
    use rand::Rng;

    let caches: usize = opts.get(&CACHES)?;
    let group_size: usize = opts.get(&GROUP_SIZE)?;
    let duration_ms = opts.get::<f64>(&DURATION)? * 1_000.0;
    let seed: u64 = opts.get(&SEED)?;
    let verify: bool = opts.get(&VERIFY)?;
    let config = sim_config(opts, duration_ms)?;

    // Node 0 is the origin; the caches are nodes 1..=caches.
    let net = SyntheticRttConfig::default().generate(caches + 1, seed);
    let groups: Vec<Vec<CacheId>> = (0..caches)
        .collect::<Vec<_>>()
        .chunks(group_size)
        .map(|chunk| chunk.iter().map(|&c| CacheId(c)).collect())
        .collect();
    let map = GroupMap::new(caches, groups).map_err(|e| e.to_string())?;

    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = CatalogConfig::default()
        .documents(opts.get(&DOCS)?)
        .generate(&mut rng);
    let updates = generate_updates(&catalog, duration_ms, &mut rng);
    let master: u64 = rng.gen();
    let workload = StreamedWorkload::new(
        RequestConfig::default().rate_per_sec_per_cache(opts.get(&RATE)?),
        master,
        duration_ms,
    )
    .updates(&updates);
    let plan = SimPlan::streamed(&net, &catalog, &workload).config(config);
    let mut ctx = RunContext::pooled();
    let report = simulate(&plan, &map, &mut ctx).map_err(|e| e.to_string())?;

    let stats = ctx.stats();
    writeln!(
        out,
        "{} caches in {} shards (group size <= {group_size}), {} shard events",
        caches, stats.shards, stats.shard_events
    )?;
    writeln!(out, "{report}")?;
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
            let diverged = "sharded replay diverged from simulate on the materialized trace";
            return Err(Error::Input(diverged.into()));
        }
        writeln!(
            out,
            "verify: sharded report is bit-identical to simulate on the materialized trace"
        )?;
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
fn lifecycle_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), Error> {
    let caches: usize = opts.get(&CACHES)?;
    let groups = opts.opt(&GROUPS)?.unwrap_or((caches / 8).max(2));
    let duration_secs: f64 = opts.get(&DURATION)?;
    let step_secs: f64 = opts.get(&STEP)?;
    let seed: u64 = opts.get(&SEED)?;
    let policy_name: String = opts.get(&REFORM_POLICY)?;
    let policy: ReformPolicy = opts.get(&REFORM_POLICY)?;
    let workload = match opts.get(&REPLAY)? {
        true => Some(build_workload(opts, caches)?),
        false => None,
    };

    let duration_ms = duration_secs * 1_000.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
    let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
        .map_err(|e| e.to_string())?;

    // Churn plan and supervisor RNG are derived from --seed so the whole
    // run is reproducible from the command line alone.
    let plan = ChurnConfig::default()
        .crashes_per_hour_per_cache(opts.get(&CHURN_RATE)?)
        .mean_downtime_ms(opts.get::<f64>(&DOWNTIME)? * 1_000.0)
        .retirement_fraction(opts.get(&RETIREMENT)?)
        .generate(
            caches,
            duration_ms,
            &mut StdRng::seed_from_u64(seed ^ 0x9e37),
        );
    let schedule = plan.schedule();

    let supervisor = FormationSupervisor::new(
        SupervisorConfig::new(SchemeConfig::sl(groups).landmarks(opts.get(&LANDMARKS)?))
            .step_ms(step_secs * 1_000.0)
            .policy(policy),
    );
    let timeline = supervisor
        .run(&network, &schedule, duration_ms, &mut rng, None)
        .map_err(|e| e.to_string())?;

    writeln!(
        out,
        "{caches} caches, K = {groups}, policy {policy_name}: \
         {} windows of {:.0} s over {:.0} s",
        timeline.decisions().len(),
        step_secs,
        duration_secs,
    )?;
    writeln!(
        out,
        "{} epochs | holds {} repairs {} partial {} full {} | max drift {:.2}",
        timeline.epochs().len(),
        timeline.decision_count(ReformDecision::Hold),
        timeline.decision_count(ReformDecision::Repair),
        timeline.decision_count(ReformDecision::PartialReform),
        timeline.decision_count(ReformDecision::FullReform),
        timeline.max_drift(),
    )?;
    for d in timeline.decisions() {
        if d.decision == ReformDecision::Hold && d.demoted_from.is_none() {
            continue;
        }
        let demoted = match d.demoted_from {
            Some(from) => format!(" (demoted from {from})"),
            None => String::new(),
        };
        let escalated = if d.escalated { " (escalated)" } else { "" };
        writeln!(
            out,
            "  t={:>5.0}s {}{demoted}{escalated}: drift {:.2}, \
             {} down, {} retired, {} dead landmarks -> epoch {}",
            d.window_end_ms / 1_000.0,
            d.decision,
            d.signals.drift,
            d.signals.down_caches,
            d.signals.retirements,
            d.signals.dead_landmarks,
            d.epoch,
        )?;
    }

    if let Some(path) = opts.opt::<String>(&TIMELINE_OUT)? {
        let mut json = timeline.to_json();
        json.push('\n');
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
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
        writeln!(out, "epoch-spanning replay across {} epochs:", epochs.len())?;
        writeln!(out, "{report}")?;
    }
    Ok(())
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
#[path = "../../tests/support/mutation.rs"]
mod mutation;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation;
    use proptest::prelude::*;

    /// [`super::run`] with its report discarded and its error as text.
    fn run(args: &[String]) -> Result<(), String> {
        super::run(args, &mut io::sink()).map_err(|(Error::Input(m) | Error::Stdout(m))| m)
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_key_value_pairs() {
        let opts = parse(&argv(&["gen-network", "--caches", "50", "--seed", "9"])).unwrap();
        assert_eq!(opts.get::<usize>(&CACHES), Ok(50));
        assert_eq!(opts.get::<u64>(&SEED), Ok(9));
        // An absent flag reads as its row's default, or as nothing.
        assert_eq!(opts.get::<String>(&ORIGIN).unwrap(), "transit");
        assert_eq!(opts.opt::<String>(&OUT), Ok(None));
        assert_eq!(
            opts.get::<String>(&OUT).unwrap_err(),
            "missing required flag --out"
        );
    }

    #[test]
    fn capacity_flag_is_validated_not_panicked_on() {
        let capacity = |args: &[&str]| parse(&argv(args)).and_then(|o| o.get::<u64>(&CAPACITY));
        assert_eq!(capacity(&["replay", "--capacity-kib", "512"]), Ok(512));
        assert_eq!(capacity(&["replay"]), Ok(512));
        // Zero, and the smallest value whose byte count wraps to zero.
        for bad in ["0", "18014398509481984"] {
            let err = capacity(&["replay", "--capacity-kib", bad]).unwrap_err();
            assert!(err.starts_with("--capacity-kib must be"), "{err}");
        }
        let err = capacity(&["replay", "--capacity-kib", "lots"]).unwrap_err();
        assert!(err.contains("bad value"), "{err}");
        // Both subcommands that take the flag report it the same way.
        for command in ["replay", "simulate"] {
            let err = run(&argv(&[command, "--capacity-kib", "0"])).unwrap_err();
            assert!(err.contains("--capacity-kib"), "{command}: {err}");
        }
    }

    #[test]
    fn theta_flag_is_validated_not_panicked_on() {
        let theta = |args: &[&str]| parse(&argv(args)).and_then(|o| o.get::<f64>(&THETA));
        assert_eq!(theta(&["form", "--theta", "0"]), Ok(0.0));
        assert_eq!(theta(&["form", "--theta", "2.5"]), Ok(2.5));
        assert_eq!(theta(&["form"]), Ok(1.0));
        for bad in ["nan", "inf", "-inf", "-1"] {
            let err = theta(&["form", "--theta", bad]).unwrap_err();
            assert_eq!(err, "--theta must be finite and non-negative", "{bad}");
        }
        let err = theta(&["form", "--theta", "far"]).unwrap_err();
        assert!(err.contains("bad value"), "{err}");
        // Both subcommands that take the flag report it the same way.
        let scale = run(&argv(&["scale", "--caches", "50", "--theta", "nan"]));
        assert!(scale.unwrap_err().contains("--theta"));
        assert!(run(&argv(&["form", "--theta", "-1"]))
            .unwrap_err()
            .contains("--theta"));
    }

    #[test]
    fn unknown_flags_and_zero_groups_are_errors() {
        // A misspelt flag used to be ignored (`--group 50` formed the
        // default K); `--groups 0` formed one group or panicked.
        let err = run(&argv(&["scale", "--caches", "2000", "--bogus", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag --bogus for `ecg scale`");
        // The first unknown flag in argv order.
        let err = run(&argv(&["replay", "--zeta", "1", "--alpha", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag --zeta for `ecg replay`");
        // A flag another subcommand reads is still unknown here, and the
        // error names the subcommands that read it.
        let err = run(&argv(&["stats", "--seed", "1"])).unwrap_err();
        assert!(
            err.starts_with("unknown flag --seed for `ecg stats` (read by gen-network, form,"),
            "{err}"
        );
        for command in ["scale", "lifecycle", "form"] {
            let err = run(&argv(&[command, "--groups", "0"])).unwrap_err();
            assert_eq!(err, "--groups must be positive", "{command}");
        }
        // Absent, K is derived from the network size.
        assert_eq!(
            parse(&argv(&["scale"])).unwrap().opt::<usize>(&GROUPS),
            Ok(None)
        );
    }

    #[test]
    fn zero_group_size_cap_is_an_error_not_a_panic() {
        // `form --max-group-size 0` used to reach the scheme's
        // `assert!` and exit 101.
        let net = std::env::temp_dir().join("ecg_cli_cap.rtt");
        let net = net.to_str().unwrap();
        run(&argv(&["gen-network", "--caches", "12", "--out", net])).unwrap();
        let err = run(&argv(&["form", "--network", net, "--max-group-size", "0"]));
        assert_eq!(err, Err("--max-group-size must be positive".into()));
        run(&argv(&[
            "form",
            "--network",
            net,
            "--groups",
            "3",
            "--max-group-size",
            "6",
        ]))
        .unwrap();
        std::fs::remove_file(net).ok();
    }

    #[test]
    fn workload_flags_are_range_checked_not_asserted() {
        // Each of these used to reach a library `assert!` and panic.
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
            let mut args = argv(command);
            args.extend([format!("--{flag}"), value.to_string()]);
            let expected = match flag {
                "docs" | "caches" => format!("--{flag} must be positive"),
                _ => format!("--{flag} {finite}"),
            };
            assert_eq!(run(&args), Err(expected), "{args:?}");
        }
        // `ecg simulate` checks the same workload flags, before it loads
        // its network.
        for (flag, value) in [("rate", "inf"), ("duration-secs", "0"), ("docs", "0")] {
            let err = run(&argv(&["simulate", &format!("--{flag}"), value])).unwrap_err();
            assert!(
                err.starts_with(&format!("--{flag} must be positive")),
                "{err}"
            );
        }
        let defaults = parse(&argv(&["replay"])).unwrap();
        assert_eq!(defaults.get::<f64>(&RATE), Ok(2.0));
        assert_eq!(defaults.get::<usize>(&DOCS), Ok(1_500));
    }

    #[test]
    fn flags_reject_malformed_input() {
        let bad = |args: &[&str]| parse(&argv(args)).is_err();
        assert!(bad(&["gen-network", "caches", "50"])); // missing --
        assert!(bad(&["gen-network", "--caches"])); // missing value
        assert!(bad(&["gen-network", "--seed", "1", "--seed", "2"])); // duplicate
                                                                      // A value the range checks do not cover is parsed when read.
        assert!(parse(&argv(&["gen-network", "--seed", "x"]))
            .unwrap()
            .get::<u64>(&SEED)
            .is_err());
    }

    #[test]
    fn every_row_parses_bare_and_shows_in_the_usage() {
        // Every default passes its own check, no row names a flag twice,
        // and the generated usage shows every flag.
        let usage = usage();
        for command in COMMANDS {
            parse(&argv(&[command.name])).unwrap_or_else(|e| panic!("{}: {e}", command.name));
            for (at, (flag, _)) in command.flags.iter().enumerate() {
                let later = &command.flags[at + 1..];
                assert!(
                    later.iter().all(|(f, _)| f.name != flag.name),
                    "{}",
                    flag.name
                );
                assert!(usage.contains(&format!("--{} {}", flag.name, flag.value)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn damaged_groups_files_are_refused_or_round_trip(
            groups in proptest::collection::vec(
                proptest::collection::vec(0usize..500, 1..6),
                1..6,
            ),
            edits in proptest::collection::vec(mutation::arb_mutation(), 1..4),
        ) {
            let groups: Vec<Vec<CacheId>> = groups
                .into_iter()
                .map(|g| g.into_iter().map(CacheId).collect())
                .collect();
            let damaged = mutation::mutate(render_groups(&groups).as_bytes(), &edits);
            if let Ok(parsed) = parse_groups(&String::from_utf8_lossy(&damaged)) {
                prop_assert_eq!(parse_groups(&render_groups(&parsed)), Ok(parsed));
            }
        }
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
    fn asking_for_help_is_not_an_error() {
        for asked in [
            &["help"][..],
            &["--help"],
            &["-h"],
            &["replay", "--help"],
            &["replay", "--caches", "40", "-h"],
            &["help", "replay"],
        ] {
            assert!(asks_for_help(&argv(asked)), "{asked:?}");
        }
        for not_asked in [
            &[][..],
            &["replay"],
            &["replay", "--caches", "40"],
            &["helpful"],
        ] {
            assert!(!asks_for_help(&argv(not_asked)), "{not_asked:?}");
        }
        assert!(usage().starts_with("usage:\n"));
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

        run(&argv(&[
            "gen-network",
            "--caches",
            "24",
            "--seed",
            "3",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
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
        run(&argv(&[
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
        run(&argv(&[
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
        run(&argv(&["stats", "--trace", trc.to_str().unwrap()])).unwrap();
        run(&argv(&[
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
        let err = run(&argv(&[
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

        run(&argv(&[
            "gen-network",
            "--caches",
            "12",
            "--seed",
            "5",
            "--out",
            net.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
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
            run(&argv(&[
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
        assert!(run(&argv(&[
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
        run(&argv(&[
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
        run(&argv(&[
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
        // k = 70 clusters on the KD-tree, the engine picked by k alone.
        run(&argv(&[
            "scale",
            "--caches",
            "700",
            "--groups",
            "70",
            "--landmarks",
            "6",
            "--seed",
            "2",
        ]))
        .unwrap();
        // Zero mini-batch iterations would print the seeding as a
        // formed grouping.
        for flag in ["batch-size", "iters"] {
            let err = run(&argv(&[
                "scale",
                "--minibatch",
                "true",
                &format!("--{flag}"),
                "0",
            ]));
            assert_eq!(err, Err(format!("--{flag} must be positive")));
        }
        assert!(run(&argv(&["scale", "--scheme", "bogus"])).is_err());
        // The engine is not a user option.
        let err = run(&argv(&["scale", "--assign", "tree"])).unwrap_err();
        assert_eq!(err, "unknown flag --assign for `ecg scale`");
    }

    #[test]
    fn replay_subcommand_verifies_against_monolithic() {
        // Small N with --verify: the streamed, sharded report must be
        // bit-identical to the serial run over the materialized trace, at
        // an explicit thread count too.
        run(&argv(&[
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
        run(&argv(&[
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
        assert!(run(&argv(&["replay", "--caches", "0"])).is_err());
        assert!(run(&argv(&["replay", "--group-size", "0"])).is_err());
        assert!(run(&argv(&["replay", "--threads", "0"])).is_err());
        assert!(run(&argv(&["replay", "--policy", "bogus"])).is_err());
    }

    #[test]
    fn lifecycle_subcommand_is_thread_count_invariant() {
        let dir = std::env::temp_dir();
        let t1 = dir.join("ecg_cli_lifecycle_t1.json");
        let t2 = dir.join("ecg_cli_lifecycle_t2.json");
        // Heavy churn on a small network so the policy actually acts;
        // the timeline JSON must not depend on the worker count.
        let base = |out: &str, threads: &str| {
            argv(&[
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
        run(&argv(&[
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

        assert!(run(&argv(&["lifecycle", "--caches", "0"])).is_err());
        assert!(run(&argv(&["lifecycle", "--churn-rate", "-1"])).is_err());
        assert!(run(&argv(&["lifecycle", "--threads", "0"])).is_err());
        assert!(run(&argv(&["lifecycle", "--policy", "bogus"])).is_err());
        assert!(run(&argv(&["lifecycle", "--retirement-fraction", "2"])).is_err());

        std::fs::remove_file(&t1).ok();
        std::fs::remove_file(&t2).ok();
    }

    #[test]
    fn news_preset_and_bad_preset() {
        let dir = std::env::temp_dir();
        let trc = dir.join("ecg_cli_news.trace");
        run(&argv(&[
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
        assert!(run(&argv(&[
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
