//! End-to-end thread-count invariance: `ecg-bench run` must emit
//! byte-identical output whatever `ECG_THREADS` says.
//!
//! This is the binary-level counterpart of the in-process invariance
//! tests in `ecg-par`, `ecg-clustering`, `ecg-coords`, and
//! `ecg-workload`: one figure and one ablation (the observability
//! golden, including its `--metrics-out` document) run at 1 and 4
//! threads and their bytes are compared — with each other, and with the
//! committed goldens the registry names, so the runner's stdout path is
//! checked too. Parallelism may change time, never results.

use ecg_bench::experiments::find;
use std::path::{Path, PathBuf};
use std::process::Command;

fn run(threads: &str, args: &[&str]) -> Vec<u8> {
    let exe = env!("CARGO_BIN_EXE_ecg-bench");
    let out = Command::new(exe)
        .args(args)
        .env("ECG_THREADS", threads)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {exe}: {e}"));
    assert!(
        out.status.success(),
        "ecg-bench {args:?} with ECG_THREADS={threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The committed golden `file` of the experiment `name`, as the
/// registry lists it.
fn golden(name: &str, file: &str) -> Vec<u8> {
    let row = find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    assert!(
        row.goldens.contains(&file),
        "{name} does not produce {file}"
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ecg_thread_invariance_{}_{name}",
        std::process::id()
    ))
}

#[test]
fn fig_stdout_is_thread_count_invariant_and_matches_its_golden() {
    let one = run("1", &["run", "fig6"]);
    let four = run("4", &["run", "fig6"]);
    assert!(!one.is_empty(), "fig6 produced no output");
    assert_eq!(one, four, "fig6 stdout differs between 1 and 4 threads");
    assert_eq!(one, golden("fig6", "fig6.txt"), "fig6 stdout drifted");
}

#[test]
fn ablation_stdout_and_metrics_are_thread_count_invariant_and_match_their_goldens() {
    let metrics_one = scratch_path("metrics_t1.json");
    let metrics_four = scratch_path("metrics_t4.json");
    let run_at = |threads: &str, metrics: &Path| {
        let metrics = metrics.to_str().expect("utf-8 path");
        run(
            threads,
            &["run", "ablation_maintenance", "--metrics-out", metrics],
        )
    };
    let one = run_at("1", &metrics_one);
    let four = run_at("4", &metrics_four);
    assert!(!one.is_empty(), "ablation_maintenance produced no output");
    assert_eq!(
        one, four,
        "ablation_maintenance stdout differs between 1 and 4 threads"
    );
    let doc_one = std::fs::read(&metrics_one).expect("metrics written at 1 thread");
    let doc_four = std::fs::read(&metrics_four).expect("metrics written at 4 threads");
    assert!(!doc_one.is_empty(), "empty metrics document");
    assert_eq!(
        doc_one, doc_four,
        "metrics JSON differs between 1 and 4 threads"
    );
    let name = "ablation_maintenance";
    assert_eq!(one, golden(name, "ablation_maintenance.txt"));
    assert_eq!(doc_one, golden(name, "metrics_ablation_maintenance.json"));
    let _ = std::fs::remove_file(&metrics_one);
    let _ = std::fs::remove_file(&metrics_four);
}
