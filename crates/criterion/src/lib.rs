//! Offline drop-in subset of the `criterion` benchmarking API.
//!
//! The real criterion is a registry dependency this workspace cannot
//! fetch offline, so the bench binaries link against this shim instead.
//! It preserves the API shape the benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`)
//! and reports plain wall-clock statistics: each benchmark body is
//! warmed up once, then timed over `sample_size` samples, and the mean,
//! median, minimum, and maximum per-iteration times are printed. A
//! [`Throughput`] annotation additionally reports real units/second
//! derived from the median sample.
//!
//! Every completed benchmark is also recorded as a [`SampleStats`] on
//! the [`Criterion`] driver ([`Criterion::stats`]) for tooling to read
//! (e.g. the `bench_hotpaths` baseline file).
//!
//! No statistical analysis, no HTML reports, no comparison against
//! saved baselines — run times are indicative, not criterion-grade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// An id distinguished only by a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Throughput annotation; recorded for display only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to benchmark closures; [`Bencher::iter`] times the body.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    results_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f` over the configured number of samples (after one
    /// warm-up call) and records per-iteration nanoseconds.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let _warmup = f();
        self.results_ns.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = f();
            let elapsed = start.elapsed();
            std::hint::black_box(&out);
            self.results_ns.push(elapsed.as_nanos() as f64);
        }
    }
}

/// Summary statistics for one benchmark's timed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// Full benchmark name (`group/function/parameter`).
    pub name: String,
    /// Number of timed samples (the warm-up call is excluded).
    pub samples: usize,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample in nanoseconds.
    pub max_ns: f64,
    /// Work per iteration, when annotated.
    pub throughput: Option<Throughput>,
}

impl SampleStats {
    /// Computes the statistics over raw per-iteration samples, or `None`
    /// if there are none.
    pub fn from_samples(
        name: impl Into<String>,
        results_ns: &[f64],
        throughput: Option<Throughput>,
    ) -> Option<Self> {
        if results_ns.is_empty() {
            return None;
        }
        let n = results_ns.len();
        let mut sorted = results_ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample times are not NaN"));
        let median_ns = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(SampleStats {
            name: name.into(),
            samples: n,
            mean_ns: results_ns.iter().sum::<f64>() / n as f64,
            median_ns,
            min_ns: sorted[0],
            max_ns: sorted[n - 1],
            throughput,
        })
    }

    /// Units of annotated work per second, based on the median sample;
    /// `None` without a [`Throughput`] annotation.
    pub fn throughput_per_sec(&self) -> Option<f64> {
        let units = match self.throughput? {
            Throughput::Elements(n) => n as f64,
            Throughput::Bytes(n) => n as f64,
        };
        Some(units / (self.median_ns / 1e9))
    }
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn run_one(
    full_name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) -> Option<SampleStats> {
    let mut bencher = Bencher {
        samples,
        results_ns: Vec::new(),
    };
    f(&mut bencher);
    let Some(stats) = SampleStats::from_samples(full_name, &bencher.results_ns, throughput) else {
        println!("{full_name:<40} (no measurements)");
        return None;
    };
    let mut line = format!(
        "{full_name:<40} mean {:>12}  median {:>12}  min {:>12}  max {:>12}",
        human_ns(stats.mean_ns),
        human_ns(stats.median_ns),
        human_ns(stats.min_ns),
        human_ns(stats.max_ns)
    );
    match (stats.throughput, stats.throughput_per_sec()) {
        (Some(Throughput::Elements(_)), Some(per_sec)) => {
            line.push_str(&format!("  ({per_sec:.0} elem/s)"));
        }
        (Some(Throughput::Bytes(_)), Some(per_sec)) => {
            line.push_str(&format!("  ({:.1} MiB/s)", per_sec / (1024.0 * 1024.0)));
        }
        _ => {}
    }
    println!("{line}");
    Some(stats)
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Annotates subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.label);
        if let Some(stats) = run_one(&full, self.sample_size, self.throughput, &mut f) {
            self.criterion.records.push(stats);
        }
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.label);
        if let Some(stats) = run_one(&full, self.sample_size, self.throughput, &mut |b| {
            f(b, input)
        }) {
            self.criterion.records.push(stats);
        }
        self
    }

    /// Ends the group (kept for API compatibility; prints nothing).
    pub fn finish(self) {}
}

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<SampleStats>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            name,
            sample_size: 10,
            throughput: None,
            criterion: self,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if let Some(stats) = run_one(&id.label, 10, None, &mut f) {
            self.records.push(stats);
        }
        self
    }

    /// Statistics of every benchmark completed so far, in run order.
    pub fn stats(&self) -> &[SampleStats] {
        &self.records
    }
}

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Declares a benchmark group function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            samples: 5,
            results_ns: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(b.results_ns.len(), 5);
        assert_eq!(calls, 6, "one warm-up plus five samples");
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 3).label, "f/3");
        assert_eq!(BenchmarkId::from_parameter(150).label, "150");
        assert_eq!(BenchmarkId::from("x").label, "x");
    }

    #[test]
    fn groups_run_their_benchmarks() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        let mut ran = false;
        group
            .sample_size(2)
            .throughput(Throughput::Elements(10))
            .bench_function("b", |b| {
                b.iter(|| std::hint::black_box(1 + 1));
                ran = true;
            });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn sample_stats_median_and_throughput() {
        let odd = SampleStats::from_samples("odd", &[3.0, 1.0, 2.0], None).unwrap();
        assert_eq!(odd.median_ns, 2.0);
        assert_eq!(odd.min_ns, 1.0);
        assert_eq!(odd.max_ns, 3.0);
        assert_eq!(odd.mean_ns, 2.0);
        assert_eq!(odd.throughput_per_sec(), None);

        let even = SampleStats::from_samples(
            "even",
            &[1e9, 3e9, 2e9, 4e9],
            Some(Throughput::Elements(500)),
        )
        .unwrap();
        assert_eq!(even.median_ns, 2.5e9);
        // 500 elements in a 2.5 s median -> 200 elem/s.
        assert!((even.throughput_per_sec().unwrap() - 200.0).abs() < 1e-9);

        assert!(SampleStats::from_samples("empty", &[], None).is_none());
    }

    #[test]
    fn criterion_collects_stats() {
        let mut c = Criterion::default();
        {
            let mut group = c.benchmark_group("g");
            group
                .sample_size(3)
                .throughput(Throughput::Bytes(1024))
                .bench_function("fast", |b| b.iter(|| std::hint::black_box(2 * 2)));
            group.finish();
        }
        c.bench_function("standalone", |b| b.iter(|| std::hint::black_box(1)));
        assert_eq!(c.stats().len(), 2);
        assert_eq!(c.stats()[0].name, "g/fast");
        assert_eq!(c.stats()[0].samples, 3);
        assert_eq!(c.stats()[1].name, "standalone");
    }

    #[test]
    fn human_ns_picks_sane_units() {
        assert!(human_ns(500.0).ends_with("ns"));
        assert!(human_ns(5_000.0).contains("µs"));
        assert!(human_ns(5_000_000.0).contains("ms"));
        assert!(human_ns(5e9).ends_with(" s"));
    }
}
