//! `ecg-bench` reads its flags with the workspace's one parser
//! (`edge_cache_groups::cli`): an unknown command, experiment, timing
//! target or flag, or a missing or malformed value, is a usage error
//! (exit 2), never a panic; and a closed stdout is an error like any
//! other.

use std::process::{Command, Output, Stdio};

fn output(command: &mut Command) -> Output {
    command
        .output()
        .unwrap_or_else(|e| panic!("cannot run {command:?}: {e}"))
}

#[test]
fn a_bad_invocation_is_a_usage_error_not_a_panic() {
    let invocations = [
        "nosuch",
        "run nosuch",
        "run fig5 --bogus 1",
        "run fig5 --metrics-out",
        "time",
        "time nosuch",
        "time hotpaths scale",
        "time scale --variant x",
        "time scale --k 16",
    ];
    for args in invocations {
        let exe = env!("CARGO_BIN_EXE_ecg-bench");
        let out = output(Command::new(exe).args(args.split_whitespace()));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}:\n{err}");
        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args}:\n{err}");
        assert!(!err.contains("panicked"), "{args}:\n{err}");
    }
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    let words =
        |args: &str| -> Vec<String> { args.split_whitespace().map(str::to_owned).collect() };
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let outs = ["hotpaths.json", "scale.json"]
        .map(|name| out_dir.join(format!("{}_closed_{name}", std::process::id())));
    let timing = |target: &str, out: &std::path::Path| -> Vec<String> {
        let mut args = words(&format!("time {target} --quick --out"));
        args.push(out.display().to_string());
        args
    };
    let invocations = [
        words("list"),
        words("run fig6"),
        timing("hotpaths", &outs[0]),
        timing("scale", &outs[1]),
    ];
    for args in &invocations {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let exe = env!("CARGO_BIN_EXE_ecg-bench");
        let out = output(Command::new(exe).args(args).stdout(Stdio::from(writer)));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{err}");
        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{args:?}:\n{err}");
        assert!(!err.contains("usage:"), "{args:?}:\n{err}");
        assert!(!err.contains("panicked"), "{args:?}:\n{err}");
    }
    for out in outs {
        let _ = std::fs::remove_file(out);
    }
}
