//! Shared experiment harness for reproducing the paper's figures.
//!
//! Every figure (`fig3` … `fig9`) and ablation is one row of the
//! [`experiments::EXPERIMENTS`] registry, run by the `ecg-bench` binary
//! (`ecg-bench run fig5`, `ecg-bench run --all --check`) into a [`Run`].
//! All of them use the same scenario construction so results are
//! comparable:
//!
//! * a transit-stub topology sized for the requested cache count,
//! * an [`EdgeNetwork`] with the origin on a transit node,
//! * the sporting-event workload standing in for the IBM Sydney
//!   Olympics trace,
//! * the default latency model and utility-based caches.
//!
//! Results are printed as aligned text tables (one row per x-axis point,
//! one column per scheme), which is the `EXPERIMENTS.md` source format.
//!
//! The same binary writes the timing baselines: `ecg-bench time
//! hotpaths` ([`hotpaths`], `BENCH_hotpaths.json`) and `ecg-bench time
//! scale` ([`scale`], `BENCH_scale.json`). Both time their calls on one
//! private sampler, every ratio they record read from one paired run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use ecg_core::GroupingOutcome;
use ecg_obs::json::JsonWriter;
use ecg_obs::Obs;
use ecg_sim::{simulate, GroupMap, LatencyModel, RunContext, SimConfig, SimPlan, SimReport};
use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
use ecg_workload::{SportingEventConfig, SportingEventWorkload, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod experiments;
pub mod hotpaths;
mod run;
mod sampler;
pub mod scale;

pub use run::Run;

/// A fully built experiment scenario: network + workload + trace.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The placed edge network.
    pub network: EdgeNetwork,
    /// The generated workload (catalog, requests, updates).
    pub workload: SportingEventWorkload,
    /// The merged, time-sorted trace.
    pub trace: Vec<TraceEvent>,
}

impl Scenario {
    /// Builds the standard scenario for `caches` caches.
    ///
    /// Deterministic per `seed`; the workload runs for `duration_ms`.
    ///
    /// # Panics
    ///
    /// Panics if placement fails (cannot happen for the sizes the
    /// harness uses — `TransitStubConfig::for_caches` guarantees room).
    pub fn build(caches: usize, duration_ms: f64, seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        let network = EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
            .expect("scenario placement");
        let workload = SportingEventConfig::default()
            .caches(caches)
            .documents(1_500)
            .duration_ms(duration_ms)
            .generate(&mut rng);
        let trace = workload.merged_trace();
        Scenario {
            network,
            workload,
            trace,
        }
    }

    /// Builds a network-only scenario (no workload) for the clustering
    /// accuracy figures that never run the simulator.
    pub fn network_only(caches: usize, seed: u64) -> EdgeNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = TransitStubConfig::for_caches(caches).generate(&mut rng);
        EdgeNetwork::place(&topo, caches, OriginPlacement::TransitNode, &mut rng)
            .expect("scenario placement")
    }

    /// The harness-standard simulator configuration: 512 KiB caches,
    /// utility replacement, 1/6 of the trace as warm-up.
    pub fn sim_config(&self, duration_ms: f64) -> SimConfig {
        SimConfig::default()
            .cache_capacity_bytes(512 * 1024)
            .warmup_ms(duration_ms / 6.0)
    }

    /// What the simulator runs on this scenario: its network, catalog
    /// and trace under `config`, fault-free until the caller attaches a
    /// schedule.
    pub fn plan(&self, config: SimConfig) -> SimPlan<'_> {
        SimPlan::new(
            self.network.rtt_matrix(),
            &self.workload.catalog,
            &self.trace,
        )
        .config(config)
    }

    /// Simulates a grouping on this scenario, serially on the caller's
    /// thread (the callers are cells of their own parallel sweeps),
    /// recording the simulator's telemetry (`sim.*` counters, latency
    /// histogram, event trace) into `obs` when one is supplied.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not partition the scenario's caches.
    pub fn simulate_groups(
        &self,
        groups: &[Vec<ecg_topology::CacheId>],
        config: SimConfig,
        obs: Option<&mut Obs>,
    ) -> SimReport {
        let map = GroupMap::new(self.network.cache_count(), groups.to_vec())
            .expect("grouping partitions the caches");
        simulate(
            &self.plan(config),
            &map,
            &mut RunContext::serial().observe(obs),
        )
        .expect("simulation inputs are consistent")
    }
}

/// The paper's clustering-accuracy metric for a formed grouping: average
/// group interaction cost in milliseconds, where a pair's interaction
/// cost is the latency of moving an 8 KiB (average-sized) document
/// between them under the default latency model.
pub fn interaction_cost_ms(outcome: &GroupingOutcome, network: &EdgeNetwork) -> f64 {
    let model = LatencyModel;
    outcome.average_interaction_cost(|a, b| {
        model.interaction_cost(network.cache_to_cache(a, b), 8.0 * 1024.0)
    })
}

/// Arithmetic mean of a non-empty f64 slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// An aligned text table accumulated row by row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Prints the table into a run's text, columns right-aligned and
    /// width-fitted.
    pub fn print(&self, run: &mut Run) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        run.line(fmt_row(&self.headers));
        run.line("-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        for row in &self.rows {
            run.line(fmt_row(row));
        }
    }
}

/// Formats a float with two decimals (the tables' standard cell format).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// The host's logical CPUs, as the standard library reports them (0 when
/// it cannot tell).
fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// Writes the host-context members of a timing record into the open
/// object: logical CPUs, the operating system and CPU architecture, the
/// `ECG_THREADS` override (`null` when unset) and the size mode. A
/// timing baseline is only comparable to runs on the same kind of host
/// with the same core budget and sizes.
fn write_host_context(w: &mut JsonWriter, ecg_threads_env: Option<&str>, quick: bool) {
    w.key("logical_cpus").usize(logical_cpus());
    w.key("os").str(std::env::consts::OS);
    w.key("arch").str(std::env::consts::ARCH);
    w.key("ecg_threads_env");
    match ecg_threads_env {
        Some(v) => w.str(v),
        None => w.null(),
    };
    w.key("mode").str(if quick { "quick" } else { "full" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
    use ecg_obs::json::{parse, JsonValue};

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::build(20, 5_000.0, 3);
        let b = Scenario::build(20, 5_000.0, 3);
        assert_eq!(a.network, b.network);
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, Scenario::build(20, 5_000.0, 4).trace);
    }

    #[test]
    fn scenario_simulation_round_trip() {
        let s = Scenario::build(12, 10_000.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = form(
            &FormPlan::new(s.network.rtt_matrix(), &SchemeConfig::sl(3).landmarks(4)),
            &mut FormContext::new(),
            &mut rng,
        )
        .unwrap();
        let report = s.simulate_groups(outcome.groups(), s.sim_config(10_000.0), None);
        assert!(report.average_latency_ms() > 0.0);
        let gic = interaction_cost_ms(&outcome, &s.network);
        assert!(gic > 0.0);
    }

    #[test]
    fn host_context_names_the_host_and_escapes_the_environment_value() {
        let context = |env: Option<&str>| {
            let mut w = JsonWriter::new();
            w.object(|w| write_host_context(w, env, true));
            parse(&w.finish()).expect("the context parses")
        };
        let doc = context(Some("4\"\\x"));
        assert_eq!(
            doc.get("os").and_then(JsonValue::as_str),
            Some(std::env::consts::OS)
        );
        assert_eq!(
            doc.get("arch").and_then(JsonValue::as_str),
            Some(std::env::consts::ARCH)
        );
        assert_eq!(
            doc.get("ecg_threads_env").and_then(JsonValue::as_str),
            Some("4\"\\x")
        );
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("quick"));
        assert!(context(None)
            .get("ecg_threads_env")
            .is_some_and(JsonValue::is_null));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["K", "SL", "SDSL"]);
        t.row(["10", "1.00", "2.00"]);
        t.row(["100", "10.25", "20.50"]);
        let mut run = Run::new(false);
        t.print(&mut run);
        let s = run.finish("t").remove(0).1;
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("SDSL"));
        assert!(lines[3].contains("100"));
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1"]);
    }

    #[test]
    fn mean_and_f2() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(12.3456), "12.35");
    }
}
