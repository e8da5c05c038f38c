//! The timing binaries' smoke runs: `bench_hotpaths --quick` and
//! `bench_scale --quick`, each written into the target's scratch
//! directory and read back with `ecg_obs::json`. A row cannot be added
//! or renamed without regenerating the committed baseline, and the
//! quick grid is the one the docs describe. (The committed files' own
//! invariants are a root-package test, `tests/committed_documents.rs`.)

#[path = "../../../tests/support/doc.rs"]
mod doc;

use doc::{arr, assert_context, field, keys, num, read, text};
use ecg_obs::json::JsonValue;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the timing binary `exe` with `--quick`, writing `name` into the
/// scratch directory, and returns the document.
fn quick_run(exe: &str, name: &str) -> JsonValue {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}_{name}", std::process::id()));
    let out = Command::new(exe)
        .args(["--quick", "--out"])
        .arg(&path)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} --quick failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = read(&path);
    let _ = std::fs::remove_file(&path);
    doc
}

/// The committed baseline `name` at the repository root.
fn committed(name: &str) -> JsonValue {
    read(
        &Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name),
    )
}

#[test]
fn hotpaths_quick_run_has_the_committed_rows() {
    let quick = quick_run(env!("CARGO_BIN_EXE_bench_hotpaths"), "hotpaths.json");
    let committed = committed("BENCH_hotpaths.json");
    assert_context(&quick);
    let names = |doc: &JsonValue| -> Vec<String> {
        let rows = arr(doc, "benchmarks");
        rows.iter().map(|r| text(r, "name").to_owned()).collect()
    };
    assert_eq!(names(&quick), names(&committed));
    assert_eq!(
        keys(field(&quick, "speedups")),
        keys(field(&committed, "speedups"))
    );
    for row in arr(&quick, "benchmarks") {
        let name = text(row, "name");
        assert!(num(row, "samples") >= 1.0, "{name}");
        let (min, median, max) = (
            num(row, "min_ns"),
            num(row, "median_ns"),
            num(row, "max_ns"),
        );
        assert!(min <= median && median <= max, "{name}");
    }
}

#[test]
fn scale_quick_run_covers_the_smoke_grid() {
    // Every call reproduced its variant's first call (the binary panics
    // otherwise), at 1 and 2 threads. Quick mode runs mini-batch at
    // N = 20 000 and tree-assign Lloyd up to N = 8 000 (k = 80: k alone
    // picks the tree there, and its exact scans run on the neighbour
    // tables).
    let quick = quick_run(env!("CARGO_BIN_EXE_bench_scale"), "scale.json");
    assert_context(&quick);
    let runs = arr(&quick, "runs");
    // The sizes of the runs whose `key` reads `value`.
    let sizes = |key: &str, value: &str| -> BTreeSet<u64> {
        let runs = runs.iter().filter(|r| text(r, key) == value);
        runs.map(|r| num(r, "n") as u64).collect()
    };
    assert_eq!(sizes("variant", "minibatch"), BTreeSet::from([20_000]));
    assert_eq!(sizes("assign", "tree"), BTreeSet::from([500, 2_000, 8_000]));
    for run in runs {
        if text(run, "assign") == "tree" && num(run, "n") == 8_000.0 {
            assert!(
                num(field(run, "kernels"), "neighbour_share") > 0.0,
                "{run:?}"
            );
        }
        assert_eq!(
            field(run, "determinism_ok"),
            &JsonValue::Bool(true),
            "{run:?}"
        );
        assert!(num(run, "samples") >= 1.0, "{run:?}");
        let (min, total, max) = (
            num(run, "total_ms_min"),
            num(run, "total_ms"),
            num(run, "total_ms_max"),
        );
        assert!(min <= total && total <= max, "{run:?}");
    }
}
