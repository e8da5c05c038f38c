//! The experiment runner and the timing binaries share one flag parser
//! (`edge_cache_groups::cli`): an unknown experiment or flag, or a
//! missing or malformed value, is a usage error (exit 2), never a
//! panic; and a closed stdout is an error like any other.

use std::process::{Command, Output, Stdio};

fn output(command: &mut Command) -> Output {
    command
        .output()
        .unwrap_or_else(|e| panic!("cannot run {command:?}: {e}"))
}

#[test]
fn a_bad_invocation_is_a_usage_error_not_a_panic() {
    let invocations = [
        (env!("CARGO_BIN_EXE_ecg-bench"), "run nosuch"),
        (env!("CARGO_BIN_EXE_ecg-bench"), "run fig5 --bogus 1"),
        (env!("CARGO_BIN_EXE_ecg-bench"), "run fig5 --metrics-out"),
        (env!("CARGO_BIN_EXE_bench_scale"), "--variant x"),
        (env!("CARGO_BIN_EXE_bench_scale"), "--k 16"),
    ];
    for (exe, args) in invocations {
        let out = output(Command::new(exe).args(args.split_whitespace()));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args}:\n{err}");
        assert!(
            err.lines().any(|l| l.starts_with("error:")),
            "{exe} {args}:\n{err}"
        );
        assert!(!err.contains("panicked"), "{exe} {args}:\n{err}");
    }
}

#[test]
fn a_closed_stdout_is_an_error_not_a_panic() {
    for args in ["list", "run fig6"] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let mut command = Command::new(env!("CARGO_BIN_EXE_ecg-bench"));
        let out = output(
            command
                .args(args.split_whitespace())
                .stdout(Stdio::from(writer)),
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "ecg-bench {args}: exit 0:\n{err}");
        assert_ne!(out.status.code(), Some(101), "ecg-bench {args}:\n{err}");
        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "ecg-bench {args}:\n{err}");
        assert!(!err.contains("usage:"), "ecg-bench {args}:\n{err}");
        assert!(!err.contains("panicked"), "ecg-bench {args}:\n{err}");
    }
}
