//! The committed bench baselines and the committed metrics golden are
//! well-formed: read with `ecg_obs::json`, they hold the invariants the
//! documentation quotes. Every ratio in the bench files is a paired run
//! of at least 10 pairs, the fewest whose quartiles mean something.
//! (`ecg-bench`'s own tests hold the smoke runs to these files' row
//! names and regenerate the golden byte for byte.)

#[path = "support/doc.rs"]
mod doc;

use doc::{arr, assert_context, assert_ratios, field, keys, num, read, text};
use ecg_obs::json::JsonValue;
use std::path::Path;

fn committed(name: &str) -> JsonValue {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join(name))
}

#[test]
fn the_hotpaths_baseline_is_well_formed() {
    let doc = committed("BENCH_hotpaths.json");
    assert_context(&doc);
    for row in arr(&doc, "benchmarks") {
        let name = text(row, "name");
        assert!(num(row, "samples") >= 1.0, "{name}");
        let (min, median, max) = (
            num(row, "min_ns"),
            num(row, "median_ns"),
            num(row, "max_ns"),
        );
        assert!(min <= median && median <= max, "{name}");
    }
    assert_ratios(field(&doc, "speedups"), 10.0);
}

#[test]
fn the_scale_baseline_is_full_mode_and_honest_about_its_host() {
    let doc = committed("BENCH_scale.json");
    assert_context(&doc);
    let context = field(&doc, "context");
    assert!(num(context, "logical_cpus") >= 1.0);
    assert_eq!(text(context, "mode"), "full");
    let runs = arr(&doc, "runs");
    for run in runs {
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
    assert!(runs.iter().any(|r| text(r, "variant") == "lloyd"
        && text(r, "assign") == "tree"
        && num(r, "n") >= 100_000.0));

    // The `TREE_AUTO_MIN_K` crossover: tree over blocked at each (N, k).
    let crossover = field(&doc, "tree_vs_blocked");
    let expected: Vec<String> = [5_000, 20_000]
        .iter()
        .flat_map(|n| [16, 25, 32, 50, 64, 100, 200].map(|k| format!("n{n}_k{k}")))
        .collect();
    assert_eq!(
        keys(crossover),
        expected.iter().map(String::as_str).collect()
    );
    assert_ratios(crossover, 10.0);
    assert_ratios(field(&doc, "end_to_end_speedups"), 10.0);
}

#[test]
fn the_metrics_golden_is_well_formed() {
    let doc = committed("results/metrics_ablation_maintenance.json");
    assert_eq!(text(&doc, "schema"), "ecg-obs/v1");
    let metrics = field(&doc, "metrics");
    let counters = field(metrics, "counters");
    for key in [
        "kmeans.iterations",
        "probe.measurements",
        "maintenance.admissions",
        "scheme.probes_sent",
    ] {
        assert!(num(counters, key) > 0.0, "{key}");
    }
    let rtt = field(field(metrics, "histograms"), "probe.rtt_ms");
    assert!(num(rtt, "count") > 0.0);
    assert!(!arr(&doc, "phases").is_empty());
    assert!(num(field(&doc, "trace"), "recorded") > 0.0);
}
