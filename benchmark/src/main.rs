//! The end-to-end, layer-by-layer benchmark of the edge-cache-groups
//! chain. See `README.md` beside this crate and `BENCHMARK.json` at the
//! repository root.
//!
//! ```text
//! ecg-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ecg-benchmark [--seed N] [--seconds S]     # every workload, untraced then traced
//! ```
//!
//! A run of one workload prints every metric by name and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`; it exits
//! non-zero when a pass or a check failed. Without `--workload` the
//! program runs itself once per workload and mode, a fresh process each,
//! so peak memory and allocator state are per workload.

mod adapter;
mod alloc;
mod clock;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

pub const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: u64 = 15;
/// More threads than this are not used, so that numbers from hosts of
/// different widths stay comparable.
const MAX_THREADS: usize = 4;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            // A bare `--trace` means 1.
            "--trace" => {
                parsed.trace = match it.next_if(|next| !next.starts_with("--")) {
                    None => true,
                    Some(v) if v == "1" => true,
                    Some(v) if v == "0" => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where reports and traces go unless `--out` says otherwise.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The host and settings a report was recorded under, so that a run on
/// one CPU is never read as a scaling result.
fn context(args: &Args, threads: usize) -> Json {
    let logical_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::obj([
        ("logical_cpus", Json::U64(logical_cpus as u64)),
        ("threads", Json::U64(threads as u64)),
        ("ecg_threads_env", text(std::env::var("ECG_THREADS").ok())),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a run's report goes unless `--out` says otherwise.
fn default_report_path(workload: &str, traced: bool) -> PathBuf {
    let mode = if traced { "-trace" } else { "" };
    out_dir().join(format!("{workload}{mode}.json"))
}

/// Runs one workload in this process. `Ok(false)` is a run that finished
/// with a failed pass or check.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = host.min(MAX_THREADS);
    adapter::set_threads(Some(threads));

    let report = if args.trace {
        run::traced(workload, args.seed, args.seconds, threads)?
    } else {
        run::untraced(workload, args.seed, args.seconds, threads)?
    };

    let context = context(args, threads);
    if let Some(spans) = &report.spans {
        let trace = Json::obj([
            ("workload", Json::Str(name.into())),
            ("context", context.clone()),
            ("spans", spans.clone()),
        ]);
        let path = out_dir().join(format!("trace-{name}.json"));
        write_file(&path, &trace.render())?;
    }
    let mut doc = vec![("context".to_string(), context)];
    if let Json::Obj(fields) = report.to_json() {
        doc.extend(fields);
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| default_report_path(name, args.trace));
    write_file(&path, &Json::Obj(doc).render_pretty())?;

    println!("{name}: {}", workload.why);
    report.print();
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Runs every workload, untraced then traced, each in a process of its
/// own, and gathers their reports into one file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut reports = Vec::new();
    for workload in &WORKLOADS {
        for trace in ["0", "1"] {
            let path = default_report_path(workload.name, trace == "1");
            let status = Command::new(&exe)
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            reports.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("report.json"));
    write_file(&path, &Json::Arr(reports).render_pretty())?;
    println!("every report: {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ecg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse(&[
            "--workload",
            "form-100k",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload.as_deref(), Some("form-100k"));
        assert_eq!((args.seed, args.seconds, args.trace), (11, 10, true));
        assert!(!parse(&["--trace", "0"]).expect("valid").trace);
    }

    #[test]
    fn bare_trace_flag_defaults_and_errors() {
        assert!(parse(&["--trace"]).expect("valid").trace);
        let args = parse(&["--trace", "--seed", "3"]).expect("valid");
        assert!(args.trace);
        assert_eq!(args.seed, 3);
        let defaults = parse(&[]).expect("valid");
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
