//! The one clock of the timing binaries (`bench_hotpaths`,
//! `bench_scale`): a call is warmed up once, then timed `samples`
//! times, and read by its median.

use std::time::Instant;

/// Calls `call` once to warm up, then `samples` more times with the
/// clock read around each call. Every output goes to `keep` after its
/// clock reading, the warm-up's first, so dropping or checking it is
/// never timed. Returns the timed calls' wall times in nanoseconds, in
/// call order.
pub fn sample<R>(samples: usize, mut call: impl FnMut() -> R, mut keep: impl FnMut(R)) -> Vec<f64> {
    keep(call());
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let out = call();
            let elapsed = start.elapsed();
            keep(out);
            elapsed.as_nanos() as f64
        })
        .collect()
}

/// The median, extremes and mean of a set of measurements, in their
/// unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// How many measurements there were.
    pub samples: usize,
    /// Their arithmetic mean.
    pub mean: f64,
    /// Their median: the middle one, or the mean of the middle two.
    pub median: f64,
    /// The smallest.
    pub min: f64,
    /// The largest.
    pub max: f64,
}

impl Summary {
    /// The statistics of `values`, or `None` if there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            samples: n,
            mean: values.iter().sum::<f64>() / n as f64,
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// `elements` per second at the median, read as nanoseconds.
    pub fn per_second(&self, elements: u64) -> f64 {
        elements as f64 / (self.median / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[1.0, 4.0, 3.0, 2.0]).unwrap().median, 2.5);
    }

    #[test]
    fn min_max_and_mean() {
        let s = Summary::of(&[4.0, 1.0, 7.0]).unwrap();
        assert_eq!((s.min, s.max, s.mean, s.samples), (1.0, 7.0, 4.0, 3));
    }

    #[test]
    fn the_warm_up_call_is_not_a_sample() {
        let mut calls = 0;
        let mut kept = Vec::new();
        let times = sample(
            5,
            || {
                calls += 1;
                calls
            },
            |call| kept.push(call),
        );
        assert_eq!(times.len(), 5, "five samples");
        assert_eq!(kept, [1, 2, 3, 4, 5, 6], "one warm-up, then the samples");
    }

    #[test]
    fn elements_per_second_come_from_the_median() {
        // 500 elements in a 2.5 s median: 200 elements/s.
        let s = Summary::of(&[1e9, 3e9, 2e9, 4e9]).unwrap();
        assert!((s.per_second(500) - 200.0).abs() < 1e-9);
        // A 1 s median and a 4 s mean: the median sets the rate.
        let skewed = Summary::of(&[1e9, 1e9, 10e9]).unwrap();
        assert!((skewed.per_second(100) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_samples_yield_no_summary() {
        assert!(Summary::of(&[]).is_none());
        let mut calls = 0;
        assert!(sample(0, || calls += 1, |()| ()).is_empty());
        assert_eq!(calls, 1, "the warm-up still runs");
    }
}
