//! `ecg-bench`: the one runner of every figure and ablation.
//!
//! `ecg-bench list` names them. `ecg-bench run NAME... [--metrics-out
//! PATH]` prints their text, writes side documents under `results/` and
//! the metrics document to PATH. `ecg-bench run --all [--out DIR]` writes
//! every row's golden files into DIR (default `results/`); with
//! `--check` it compares them in memory with DIR instead, both ways, and
//! exits 1 on any difference. Usage errors, and a failed write to stdout
//! (a closed pipe), exit 2.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_bench::experiments::{check, find, EXPERIMENTS};
use edge_cache_groups::cli::{finish, stdout_error, Args};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ecg-bench list | run NAME... [--metrics-out PATH] | run --all [--out DIR] [--check]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut out = io::stdout().lock();
    let result = match args.next().as_deref() {
        Some("list") => Args::parse(args, &[], &[])
            .and_then(|a| a.no_positionals())
            .and_then(|()| list(&mut out).map_err(stdout_error)),
        Some("run") => Args::parse(args, &["all", "check"], &["out", "metrics-out"])
            .and_then(|args| run(args, &mut out)),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
        None => Err(format!("missing command\n{USAGE}")),
    };
    finish(result.and_then(|code| out.flush().map(|()| code).map_err(stdout_error)))
}

fn list(out: &mut impl Write) -> io::Result<ExitCode> {
    for e in EXPERIMENTS {
        writeln!(out, "{}", e.name)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `ecg-bench run`: the text of each experiment to `out`.
fn run(args: Args, out: &mut impl Write) -> Result<ExitCode, String> {
    let metrics_out = args.value("metrics-out");
    if args.switch("all") {
        if let Some(name) = args.positionals().first() {
            return Err(format!("--all runs every experiment; drop {name:?}"));
        }
        if metrics_out.is_some() {
            return Err("--metrics-out takes one named experiment, not --all".into());
        }
        return run_all(
            Path::new(args.value("out").unwrap_or("results")),
            args.switch("check"),
            out,
        );
    }
    if args.switch("check") || args.value("out").is_some() {
        return Err("--check and --out go with --all".into());
    }
    let rows = args.positionals().iter().map(|name| {
        find(name)
            .ok_or_else(|| format!("unknown experiment {name:?} (`ecg-bench list` names them)"))
    });
    let rows = rows.collect::<Result<Vec<_>, _>>()?;
    if rows.is_empty() {
        return Err(format!("name an experiment, or pass --all\n{USAGE}"));
    }
    if metrics_out.is_some() && rows.len() > 1 {
        return Err("--metrics-out takes exactly one experiment".into());
    }
    // The text to stdout, the metrics document to PATH, side documents
    // under results/.
    for e in rows {
        for (file, contents) in e.execute(metrics_out.is_some()) {
            match metrics_out {
                _ if file == format!("{}.txt", e.name) => {
                    write!(out, "{contents}").map_err(stdout_error)?
                }
                Some(path) if file == format!("metrics_{}.json", e.name) => {
                    std::fs::write(path, contents)
                        .map_err(|err| format!("cannot write {path}: {err}"))?;
                    eprintln!("metrics written to {path}");
                }
                _ => write_file(Path::new("results"), &file, &contents)?,
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Every row's golden files: written into `dir`, or with `check_only`
/// compared with it.
fn run_all(dir: &Path, check_only: bool, out: &mut impl Write) -> Result<ExitCode, String> {
    let mut produced = BTreeMap::new();
    for e in EXPERIMENTS {
        writeln!(out, "=== {}", e.name).map_err(stdout_error)?;
        for (name, contents) in e.execute(e.metrics_golden()) {
            if !check_only {
                write_file(dir, &name, &contents)?;
            }
            produced.insert(name, contents);
        }
    }
    if !check_only {
        writeln!(out, "all outputs written to {}/", dir.display()).map_err(stdout_error)?;
        return Ok(ExitCode::SUCCESS);
    }
    let problems =
        check(&produced, dir).map_err(|err| format!("cannot read {}: {err}", dir.display()))?;
    problems.iter().for_each(|problem| eprintln!("{problem}"));
    if !problems.is_empty() {
        return Ok(ExitCode::FAILURE);
    }
    writeln!(
        out,
        "check passed: outputs match {}/ byte for byte",
        dir.display()
    )
    .map_err(stdout_error)?;
    Ok(ExitCode::SUCCESS)
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}
