//! The one clock of `ecg-bench time` ([`crate::hotpaths`],
//! [`crate::scale`]). [`sample`] warms a call up once, then times it
//! `samples` times, read by [`Summary`]. [`sample_pairs`] times two
//! calls interleaved pair by pair, read by [`Ratio`]: every ratio the
//! bench files record comes from one paired run, so the host's drift
//! between the two sides lands in both halves of a pair, not in the
//! ratio.

use ecg_obs::json::JsonWriter;
use std::fmt;
use std::time::Instant;

/// Calls `call` with the clock read around it, then hands the output to
/// `keep`, so dropping or checking it is never timed. Returns the
/// call's wall time in nanoseconds.
fn timed<R>(call: &mut impl FnMut() -> R, keep: &mut impl FnMut(R)) -> f64 {
    let start = Instant::now();
    let out = call();
    let elapsed = start.elapsed();
    keep(out);
    elapsed.as_nanos() as f64
}

/// Calls `call` once to warm up, then `samples` more times with the
/// clock read around each call. Every output goes to `keep` after its
/// clock reading, the warm-up's first. Returns the timed calls' wall
/// times in nanoseconds, in call order.
pub(crate) fn sample<R>(
    samples: usize,
    mut call: impl FnMut() -> R,
    mut keep: impl FnMut(R),
) -> Vec<f64> {
    keep(call());
    (0..samples).map(|_| timed(&mut call, &mut keep)).collect()
}

/// The paired form of [`sample`], over two sides, each a call and the
/// `keep` its outputs go to after their clock readings. One warm-up
/// call of A, then one of B, then `pairs` pairs in ABBA order: A first
/// in even pairs, B first in odd ones, so neither side always runs
/// second. Returns each side's wall times in nanoseconds, in pair order.
pub(crate) fn sample_pairs<A, B>(
    pairs: usize,
    (mut call_a, mut keep_a): (impl FnMut() -> A, impl FnMut(A)),
    (mut call_b, mut keep_b): (impl FnMut() -> B, impl FnMut(B)),
) -> (Vec<f64>, Vec<f64>) {
    keep_a(call_a());
    keep_b(call_b());
    let (mut a, mut b) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        if pair % 2 == 0 {
            a.push(timed(&mut call_a, &mut keep_a));
            b.push(timed(&mut call_b, &mut keep_b));
        } else {
            b.push(timed(&mut call_b, &mut keep_b));
            a.push(timed(&mut call_a, &mut keep_a));
        }
    }
    (a, b)
}

/// The `p`-quantile of ascending `sorted`, interpolated linearly
/// between the two nearest ranks: the median is the middle value, or
/// the mean of the middle two.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (at - lo as f64) * (sorted[hi] - sorted[lo])
}

/// `values` in ascending order.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median, extremes and mean of a set of measurements, in their
/// unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// How many measurements there were.
    pub(crate) samples: usize,
    /// Their arithmetic mean.
    pub(crate) mean: f64,
    /// Their median: the middle one, or the mean of the middle two.
    pub(crate) median: f64,
    /// The smallest.
    pub(crate) min: f64,
    /// The largest.
    pub(crate) max: f64,
}

impl Summary {
    /// The statistics of `values`, or `None` if there are none.
    pub(crate) fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let sorted = sorted(values);
        Some(Summary {
            samples: n,
            mean: values.iter().sum::<f64>() / n as f64,
            median: quantile(&sorted, 0.5),
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// `elements` per second at the median, read as nanoseconds.
    pub(crate) fn per_second(&self, elements: u64) -> f64 {
        elements as f64 / (self.median / 1e9)
    }
}

/// A paired run read as a ratio: the per-pair quotients of a numerator
/// side over a denominator side, by their median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ratio {
    /// The median per-pair ratio.
    median: f64,
    /// The first quartile of the per-pair ratios.
    q1: f64,
    /// The third quartile of the per-pair ratios.
    q3: f64,
    /// How many pairs there were.
    pairs: usize,
    /// How many pairs read above 1; a tie counts for neither side.
    wins: usize,
}

impl Ratio {
    /// The ratios `numerator[i] / denominator[i]` of the pairs of a
    /// [`sample_pairs`] run (or of any per-pair figure taken from its
    /// kept outputs), or `None` if there are no pairs.
    ///
    /// # Panics
    ///
    /// Panics if the two sides differ in length.
    pub(crate) fn of(numerator: &[f64], denominator: &[f64]) -> Option<Ratio> {
        assert_eq!(numerator.len(), denominator.len(), "a ratio reads pairs");
        if numerator.is_empty() {
            return None;
        }
        let ratios: Vec<f64> = numerator
            .iter()
            .zip(denominator)
            .map(|(n, d)| n / d)
            .collect();
        let sorted = sorted(&ratios);
        Some(Ratio {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            pairs: ratios.len(),
            wins: ratios.iter().filter(|&&r| r > 1.0).count(),
        })
    }

    /// Writes the ratio as the value of an open key: an object of its
    /// `median`, `q1`, `q3`, `wins` and `pairs`.
    pub(crate) fn write(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("median").f64(self.median);
            w.key("q1").f64(self.q1);
            w.key("q3").f64(self.q3);
            w.key("wins").usize(self.wins);
            w.key("pairs").usize(self.pairs);
        });
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}x [{:.2}, {:.2}], above 1 in {}/{} pairs",
            self.median, self.q1, self.q3, self.wins, self.pairs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

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

    /// A paired run of `pairs` over two sides that log each call and
    /// each keep, in the order they happen.
    fn logged_pairs(pairs: usize) -> (Vec<String>, usize, usize) {
        let log = RefCell::new(Vec::new());
        let side = |name: &'static str| {
            let log = &log;
            let call = move || {
                log.borrow_mut().push(format!("call {name}"));
                name
            };
            let keep = move |out: &str| log.borrow_mut().push(format!("keep {out}"));
            (call, keep)
        };
        let (a, b) = sample_pairs(pairs, side("A"), side("B"));
        (log.into_inner(), a.len(), b.len())
    }

    #[test]
    fn pairs_run_both_warm_ups_first_then_abba() {
        let (log, a, b) = logged_pairs(4);
        assert_eq!((a, b), (4, 4), "one time per side per pair");
        let calls: Vec<&str> = log
            .iter()
            .filter_map(|entry| entry.strip_prefix("call "))
            .collect();
        assert_eq!(calls, ["A", "B", "A", "B", "B", "A", "A", "B", "B", "A"]);
    }

    #[test]
    fn each_paired_output_is_kept_after_its_call_returns() {
        // Every call is followed at once by the keep of its own output:
        // `keep` runs after the clock reading, before the next call.
        let (log, ..) = logged_pairs(3);
        assert_eq!(log.len(), 2 * (2 + 2 * 3));
        for step in log.chunks(2) {
            let side = step[0].strip_prefix("call ").expect("a call first");
            assert_eq!(step[1], format!("keep {side}"), "{log:?}");
        }
    }

    #[test]
    fn keeping_an_output_is_not_timed() {
        let slow_keep = || |()| std::thread::sleep(std::time::Duration::from_millis(50));
        let (a, b) = sample_pairs(2, (|| (), slow_keep()), (|| (), slow_keep()));
        for ns in a.into_iter().chain(b) {
            assert!(ns < 50e6, "a 50 ms keep was timed: {ns} ns");
        }
    }

    #[test]
    fn zero_pairs_run_only_the_warm_ups_and_yield_no_ratio() {
        let (log, a, b) = logged_pairs(0);
        assert_eq!((a, b), (0, 0));
        assert_eq!(log, ["call A", "keep A", "call B", "keep B"]);
        assert!(Ratio::of(&[], &[]).is_none());
    }

    #[test]
    fn ratio_quartiles_on_odd_and_even_pair_counts() {
        // Ratios 1, 2, 3, 4, 5 (given out of order): ranks 1 and 3.
        let odd = Ratio::of(&[6.0, 2.0, 12.0, 4.0, 10.0], &[2.0, 2.0, 3.0, 2.0, 2.0]).unwrap();
        assert_eq!((odd.q1, odd.median, odd.q3), (2.0, 3.0, 4.0));
        assert_eq!((odd.pairs, odd.wins), (5, 4));
        // Ratios 1, 2, 3, 4: interpolated at ranks 0.75, 1.5 and 2.25.
        let even = Ratio::of(&[4.0, 1.0, 3.0, 2.0], &[1.0; 4]).unwrap();
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        assert_eq!((even.pairs, even.wins), (4, 3));
        let one = Ratio::of(&[3.0], &[2.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (1.5, 1.5, 1.5));
    }

    #[test]
    fn a_tie_counts_for_neither_side() {
        let times = [5.0, 7.0, 9.0];
        for (numerator, denominator) in [(&times, &[5.0, 1.0, 10.0]), (&[5.0, 1.0, 10.0], &times)] {
            let ratio = Ratio::of(numerator, denominator).unwrap();
            assert_eq!((ratio.pairs, ratio.wins), (3, 1), "one win each way");
        }
        let level = Ratio::of(&times, &times).unwrap();
        assert_eq!((level.median, level.wins), (1.0, 0));
    }

    #[test]
    fn a_ratio_writes_its_five_members() {
        let mut w = JsonWriter::new();
        Ratio::of(&[2.0, 4.0], &[1.0, 1.0]).unwrap().write(&mut w);
        let doc = ecg_obs::json::parse(&w.finish()).expect("the ratio parses");
        let member = |key| doc.get(key).and_then(ecg_obs::json::JsonValue::as_f64);
        assert_eq!(member("median"), Some(3.0));
        assert_eq!(member("q1"), Some(2.5));
        assert_eq!(member("q3"), Some(3.5));
        assert_eq!(member("wins"), Some(2.0));
        assert_eq!(member("pairs"), Some(2.0));
    }
}
