//! The `ecg` binary as a user drives it: asking for help is not an
//! error, a bad flag or value is an `error:` line and never a panic, a
//! closed stdout is an error like any other, and `replay` and
//! `lifecycle` print the same bytes at any thread count.
//!
//! Every child runs in a scratch directory under the target directory,
//! so a run a check lets through by mistake writes nothing into the
//! tree.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A fresh scratch directory named `name` for this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ecg_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    dir
}

/// `ecg` with `args` (split on spaces), run in a scratch directory.
fn ecg(args: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ecg"));
    command
        .args(args.split_whitespace())
        .current_dir(scratch("runs"));
    command
}

fn output(command: &mut Command) -> Output {
    command
        .output()
        .unwrap_or_else(|e| panic!("cannot run {command:?}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `ecg args`, which must fail with a line of stderr that
/// `error_line` accepts and no panic.
fn refused(args: &str, error_line: impl Fn(&str) -> bool) {
    let out = output(&mut ecg(args));
    let err = stderr(&out);
    assert!(!out.status.success(), "accepted: ecg {args}");
    assert!(err.lines().any(error_line), "ecg {args}:\n{err}");
    assert!(!err.contains("panicked"), "ecg {args}:\n{err}");
}

/// Runs `ecg args` with `ECG_THREADS=threads`; it must succeed.
/// Returns its stdout.
fn stdout_at(threads: &str, args: &str, dir: &str) -> Vec<u8> {
    let out = output(
        ecg(args)
            .env("ECG_THREADS", threads)
            .current_dir(scratch(dir)),
    );
    assert!(
        out.status.success(),
        "ecg {args} at ECG_THREADS={threads}:\n{}",
        stderr(&out)
    );
    out.stdout
}

#[test]
fn asking_for_help_prints_the_usage_on_stdout() {
    let out = output(&mut ecg("--help"));
    assert!(out.status.success(), "{}", stderr(&out));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.lines().any(|l| l.starts_with("usage:")), "{help}");
    assert!(!help.contains("error:") && !stderr(&out).contains("error:"));
}

#[test]
fn a_bad_flag_value_is_an_error_not_a_panic() {
    refused("replay --caches 40 --group-size 10 --capacity-kib 0", |l| {
        l.starts_with("error:")
    });
    refused("scale --caches 50 --theta nan", |l| {
        l.starts_with("error: --theta must be finite")
    });
    // A flag the subcommand does not read, and a zero group count, are
    // mistakes to report, not to run past.
    refused("scale --caches 2000 --bogus 3", |l| {
        l.starts_with("error: unknown flag --bogus for `ecg scale`")
    });
    // The K-means engine is not a user option: k picks it.
    refused("scale --caches 2000 --assign tree", |l| {
        l.starts_with("error: unknown flag --assign for `ecg scale`")
    });
    refused("scale --caches 2000 --groups 0", |l| {
        l.starts_with("error: --groups must be positive")
    });
}

#[test]
fn workload_flags_are_range_checked_where_they_are_parsed() {
    // Each of these used to reach a library assertion (exit 101).
    const INVOCATIONS: [&str; 18] = [
        "replay --duration-secs -1",
        "replay --duration-secs nan",
        "replay --duration-secs inf",
        "replay --rate nan",
        "replay --rate -1",
        "replay --rate 0",
        "replay --docs 0",
        "lifecycle --duration-secs 0",
        "lifecycle --mean-downtime-secs 0",
        "lifecycle --replay true --rate nan",
        "lifecycle --replay true --docs 0",
        "gen-trace --out never.trace --rate nan",
        "gen-trace --out never.trace --duration-secs -3",
        "gen-trace --out never.trace --docs 0",
        "gen-trace --out never.trace --caches 0",
        "form --network never.rtt --max-group-size 0",
        "scale --minibatch true --batch-size 0",
        "scale --minibatch true --iters 0",
    ];
    for invocation in INVOCATIONS {
        refused(invocation, |l| {
            l.strip_prefix("error: --")
                .is_some_and(|rest| rest.contains(" must be positive"))
        });
    }
}

#[test]
fn every_subcommand_the_usage_lists_refuses_a_flag_it_does_not_read() {
    // The usage is generated from ecg's flag table.
    let out = output(&mut ecg(""));
    let usage = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    let subcommands: Vec<&str> = usage
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some("ecg")).then(|| fields.next())?
        })
        .collect();
    assert!(!subcommands.is_empty(), "no subcommand in:\n{usage}");
    for sub in subcommands {
        let unknown = format!("error: unknown flag --bogus for `ecg {sub}`");
        refused(&format!("{sub} --bogus 1"), |l| l.starts_with(&unknown));
    }
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    for args in ["--help", "scale --caches 300 --groups 6 --landmarks 6"] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = output(ecg(args).stdout(Stdio::from(writer)));
        let err = stderr(&out);
        assert!(!out.status.success(), "ecg {args}: exit 0:\n{err}");
        assert_ne!(out.status.code(), Some(101), "ecg {args}:\n{err}");
        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "ecg {args}:\n{err}");
        assert!(
            !err.contains("usage:"),
            "ecg {args} dumped the usage:\n{err}"
        );
        assert!(!err.contains("panicked"), "ecg {args}:\n{err}");
    }
}

#[test]
fn sharded_replay_is_thread_invariant() {
    let args = "replay --caches 400 --group-size 32 --duration-secs 20 --verify true";
    let explicit = stdout_at("8", &format!("{args} --threads 1"), "replay_t1");
    let text = String::from_utf8_lossy(&explicit);
    assert!(text.contains("bit-identical"), "{text}");
    for threads in ["1", "8"] {
        let env = stdout_at(threads, args, "replay_env");
        assert!(
            env == explicit,
            "ecg replay stdout at ECG_THREADS={threads} differs from --threads 1"
        );
    }
}

#[test]
fn lifecycle_timeline_is_thread_invariant() {
    let args = "lifecycle --caches 40 --groups 5 --duration-secs 90 --churn-rate 60 \
                --seed 11 --replay true --timeline-out timeline.json";
    let explicit = stdout_at("8", &format!("{args} --threads 1"), "lifecycle_t1");
    let timeline = |dir: &str| {
        let path = scratch(dir).join("timeline.json");
        std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
    };
    let explicit_timeline = timeline("lifecycle_t1");
    let text = String::from_utf8_lossy(&explicit_timeline);
    assert!(text.contains(r#""schema":"ecg-lifecycle/v1""#), "{text}");
    for threads in ["1", "8"] {
        let dir = format!("lifecycle_env{threads}");
        let env = stdout_at(threads, args, &dir);
        assert!(
            env == explicit,
            "ecg lifecycle stdout at ECG_THREADS={threads} differs from --threads 1"
        );
        assert!(
            timeline(&dir) == explicit_timeline,
            "timeline.json at ECG_THREADS={threads} differs from --threads 1"
        );
    }
}
