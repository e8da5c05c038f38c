//! The experiment registry: every figure and ablation of
//! `EXPERIMENTS.md`, one row each. A row is data — a name, the function
//! that runs it, and the golden files it produces under `results/`:
//! the files [`Run::finish`] names, with `metrics_<name>.json` listed
//! only when the metrics document is a golden (`--all` then runs the row
//! with metrics collected).

use crate::run::Run;
use std::collections::BTreeMap;
use std::path::Path;

mod ablation_churn;
mod ablation_freshness;
mod ablation_init;
mod ablation_lifecycle;
mod ablation_m;
mod ablation_maintenance;
mod ablation_noise;
mod ablation_origin;
mod ablation_placement;
mod ablation_policy;
mod ablation_probing;
mod ablation_representation;
mod ablation_resilience;
mod ablation_theta;
mod ablation_workload;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;

/// One row of the registry.
#[derive(Debug)]
pub struct Experiment {
    /// The name `ecg-bench run` takes.
    pub name: &'static str,
    /// Runs the experiment.
    pub body: fn(&mut Run),
    /// The files the row produces as goldens under `results/`.
    pub goldens: &'static [&'static str],
}

/// The rows: each module's `run`, its text golden, and the other golden
/// files listed.
macro_rules! registry {
    ($($name:ident $(($($golden:literal),+))?,)+) => {
        /// Every experiment, in the order `--all` runs them.
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            body: $name::run,
            goldens: &[concat!(stringify!($name), ".txt") $($(, $golden)+)?],
        }),+];
    };
}

registry! {
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    ablation_theta,
    ablation_noise,
    ablation_m,
    ablation_init,
    ablation_policy,
    ablation_origin,
    ablation_representation,
    ablation_freshness,
    ablation_probing,
    ablation_workload,
    ablation_maintenance("metrics_ablation_maintenance.json"),
    ablation_churn("ablation_churn.json"),
    ablation_resilience("ablation_resilience.json"),
    ablation_placement("ablation_placement.json", "metrics_ablation_placement.json"),
    ablation_lifecycle("ablation_lifecycle.json"),
}

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

impl Experiment {
    /// Runs the experiment into its files (see [`Run::finish`]),
    /// collecting metrics when `collect_metrics` is set.
    pub fn execute(&self, collect_metrics: bool) -> Vec<(String, String)> {
        let mut run = Run::new(collect_metrics);
        (self.body)(&mut run);
        run.finish(self.name)
    }

    /// Whether the row's metrics document is a golden.
    pub fn metrics_golden(&self) -> bool {
        let metrics = format!("metrics_{}.json", self.name);
        self.goldens.contains(&metrics.as_str())
    }
}

/// Compares produced goldens with the files directly under `dir`, both
/// ways: a committed file nothing produced is `MISSING`, a produced file
/// with no committed copy `UNTRACKED`, different bytes `DRIFT`. An empty
/// list is a pass.
pub fn check(produced: &BTreeMap<String, String>, dir: &Path) -> std::io::Result<Vec<String>> {
    let mut committed = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            committed.insert(name, std::fs::read(entry.path())?);
        }
    }
    let mut problems: Vec<String> = committed
        .keys()
        .filter(|name| !produced.contains_key(*name))
        .map(|name| format!("MISSING: {name} was not produced by any experiment"))
        .collect();
    for (name, fresh) in produced {
        match committed.get(name) {
            None => problems.push(format!("UNTRACKED: {name} has no committed copy")),
            Some(golden) if golden != fresh.as_bytes() => {
                problems.push(format!("DRIFT: {name} differs from the committed copy"));
            }
            Some(_) => {}
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_and_results_claim_each_other_exactly() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names repeat");
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ is readable")
            .map(|entry| entry.expect("a directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        for e in EXPERIMENTS {
            for golden in e.goldens {
                assert!(
                    committed.contains(*golden),
                    "{}: results/{golden} is not committed",
                    e.name
                );
            }
        }
        for file in &committed {
            let claims = EXPERIMENTS
                .iter()
                .filter(|e| e.goldens.contains(&file.as_str()))
                .count();
            assert_eq!(claims, 1, "results/{file} is claimed by {claims} rows");
        }
        assert!(find("fig5").is_some() && find("nosuch").is_none());
    }

    #[test]
    fn check_reports_missing_untracked_and_drift() {
        let dir = std::env::temp_dir().join(format!("ecg_bench_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temp directory");
        for (name, contents) in [
            ("same.txt", "a\n"),
            ("drift.txt", "a\n"),
            ("gone.txt", "y\n"),
        ] {
            std::fs::write(dir.join(name), contents).expect("a committed file");
        }
        let produced = |files: &[(&str, &str)]| -> BTreeMap<String, String> {
            files
                .iter()
                .map(|(name, contents)| (name.to_string(), contents.to_string()))
                .collect()
        };
        let problems = check(
            &produced(&[
                ("same.txt", "a\n"),
                ("drift.txt", "b\n"),
                ("new.txt", "x\n"),
            ]),
            &dir,
        );
        let clean = check(
            &produced(&[
                ("same.txt", "a\n"),
                ("drift.txt", "a\n"),
                ("gone.txt", "y\n"),
            ]),
            &dir,
        );
        std::fs::remove_dir_all(&dir).expect("temp directory removed");
        assert_eq!(
            problems.expect("readable"),
            [
                "MISSING: gone.txt was not produced by any experiment",
                "DRIFT: drift.txt differs from the committed copy",
                "UNTRACKED: new.txt has no committed copy",
            ]
        );
        assert!(clean.expect("readable").is_empty());
    }
}
