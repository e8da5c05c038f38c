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
    let words = |args: &str| args.split_whitespace().map(str::to_owned).collect();
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let outs = ["hotpaths.json", "scale.json"]
        .map(|name| out_dir.join(format!("{}_closed_{name}", std::process::id())));
    let timing = |out: &std::path::Path| -> Vec<String> {
        vec!["--quick".into(), "--out".into(), out.display().to_string()]
    };
    let invocations: [(&str, Vec<String>); 4] = [
        (env!("CARGO_BIN_EXE_ecg-bench"), words("list")),
        (env!("CARGO_BIN_EXE_ecg-bench"), words("run fig6")),
        (env!("CARGO_BIN_EXE_bench_hotpaths"), timing(&outs[0])),
        (env!("CARGO_BIN_EXE_bench_scale"), timing(&outs[1])),
    ];
    for (exe, args) in &invocations {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = output(Command::new(exe).args(args).stdout(Stdio::from(writer)));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{exe} {args:?}: exit 0:\n{err}");
        assert_ne!(out.status.code(), Some(101), "{exe} {args:?}:\n{err}");
        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{exe} {args:?}:\n{err}");
        assert!(!err.contains("usage:"), "{exe} {args:?}:\n{err}");
        assert!(!err.contains("panicked"), "{exe} {args:?}:\n{err}");
    }
    for out in outs {
        let _ = std::fs::remove_file(out);
    }
}
