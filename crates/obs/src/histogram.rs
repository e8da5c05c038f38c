//! Log-scale histograms with a fixed geometric bucket layout.
//!
//! Generalized from the simulator's latency histogram so every crate
//! shares one bucket layout: values are recorded into geometrically
//! spaced bins, so percentiles cost O(1) memory per run, independent of
//! sample count.

use crate::json::JsonWriter;

/// A histogram over `[min, max)` with geometrically spaced bins.
///
/// Values below the range land in the first bin, values above in the
/// overflow bin, so percentiles are always defined (with saturated
/// resolution at the edges). The default layout (256 bins over
/// 0.05 ms – 60 s) suits network latencies in milliseconds, but any
/// positive-ranged quantity works.
///
/// # Examples
///
/// ```
/// use ecg_obs::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.percentile(0.5).unwrap();
/// assert!(p50 >= 2.0 && p50 <= 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bin counts; the last entry is the overflow bin.
    bins: Vec<u64>,
    count: u64,
    /// Cached parameters: lower bound, per-bin growth factor, and the
    /// growth factor's natural log — `record`'s divisor, taken once here
    /// instead of once per sample (as integers-in-disguise they stay
    /// `Eq`-friendly via bit patterns).
    min_bits: u64,
    growth_bits: u64,
    ln_growth_bits: u64,
}

impl Default for Histogram {
    /// 256 bins from 0.05 to 60 000 — ample for latencies in ms.
    fn default() -> Self {
        Histogram::new(0.05, 60_000.0, 256)
    }
}

impl Histogram {
    /// Creates a histogram over `[min, max)` with `bins` geometric bins
    /// (plus one overflow bin).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min < max` and `bins >= 1`.
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min > 0.0 && min < max,
            "invalid histogram range [{min}, {max})"
        );
        assert!(bins >= 1, "need at least one bin");
        let growth = (max / min).powf(1.0 / bins as f64);
        Histogram {
            bins: vec![0; bins + 1],
            count: 0,
            min_bits: min.to_bits(),
            growth_bits: growth.to_bits(),
            ln_growth_bits: growth.ln().to_bits(),
        }
    }

    fn min(&self) -> f64 {
        f64::from_bits(self.min_bits)
    }

    fn growth(&self) -> f64 {
        f64::from_bits(self.growth_bits)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` before the first sample.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Forgets every sample, keeping the bins' range and buffer: equal
    /// to a new histogram of the same shape.
    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.count = 0;
    }

    /// Records `count` samples of the same `value`: what `count` calls
    /// of [`record`](Self::record) leave, for one bin lookup. Bins only
    /// count, so it does not matter when, relative to other samples, a
    /// caller that sees one value many times hands them over.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not finite.
    pub fn record_n(&mut self, value: f64, count: u64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "sample must be finite and >= 0, got {value}"
        );
        let idx = self.bin_index(value);
        self.bins[idx] += count;
        self.count += count;
    }

    fn bin_index(&self, value: f64) -> usize {
        if value < self.min() {
            return 0;
        }
        let idx = (value / self.min()).ln() / f64::from_bits(self.ln_growth_bits);
        (idx as usize).min(self.bins.len() - 1)
    }

    /// Lower edge of bin `idx` (the overflow bin's lower edge is the
    /// configured maximum).
    fn bin_lower(&self, idx: usize) -> f64 {
        self.min() * self.growth().powi(idx as i32)
    }

    /// The `p`-quantile (`p` in `[0, 1]`) as the upper edge of the bin
    /// containing it, or `None` before the first sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bin_lower(idx + 1));
            }
        }
        Some(self.bin_lower(self.bins.len()))
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram shape mismatch"
        );
        assert_eq!(self.min_bits, other.min_bits, "histogram range mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Appends the export summary (`count` plus p50/p90/p99/max bucket
    /// edges) as a JSON object.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("count").u64(self.count);
            for (label, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0)] {
                w.key(label).opt_f64(self.percentile(p));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn percentiles_bracket_true_quantiles() {
        let mut h = Histogram::new(0.1, 10_000.0, 400);
        // 1..=1000 ms uniformly.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p95 = h.percentile(0.95).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((p50 / 500.0 - 1.0).abs() < 0.1, "p50 {p50}");
        assert!((p95 / 950.0 - 1.0).abs() < 0.1, "p95 {p95}");
        assert!((p99 / 990.0 - 1.0).abs() < 0.1, "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut h = Histogram::default();
        for i in 0..500 {
            h.record((i % 97) as f64 + 0.5);
        }
        let mut prev = 0.0;
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn out_of_range_values_saturate() {
        let mut h = Histogram::new(1.0, 100.0, 10);
        h.record(0.001); // below range → first bin
        h.record(1e6); // above range → overflow bin
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.01).unwrap() <= 2.0);
        assert!(h.percentile(1.0).unwrap() >= 100.0);
    }

    #[test]
    fn bucket_edges_are_geometric_and_assign_consistently() {
        // With min 1, max 16, 4 bins the edges are exactly 1, 2, 4, 8,
        // 16: a value must land in the bin whose [lower, upper) range
        // contains it, and the percentile for that single sample must
        // report the bin's upper edge.
        let edges = [1.0, 2.0, 4.0, 8.0, 16.0];
        for (bin, window) in edges.windows(2).enumerate() {
            let (lo, hi) = (window[0], window[1]);
            for v in [lo, (lo + hi) / 2.0, hi * (1.0 - 1e-12)] {
                let mut h = Histogram::new(1.0, 16.0, 4);
                h.record(v);
                let p = h.percentile(0.5).unwrap();
                assert!(
                    (p - hi).abs() < 1e-9 * hi,
                    "value {v} in bin {bin}: upper edge {p}, expected {hi}"
                );
            }
        }
        // At or above max: overflow bin, upper edge = max * growth.
        let mut h = Histogram::new(1.0, 16.0, 4);
        h.record(16.0);
        assert!(h.percentile(1.0).unwrap() >= 16.0);
    }

    #[test]
    fn cached_log_divisor_bins_exactly_like_the_per_sample_one() {
        // The expression `bin_index` evaluated before the divisor was
        // cached, on a histogram's own parameters.
        fn uncached(h: &Histogram, value: f64) -> usize {
            if value < h.min() {
                return 0;
            }
            let idx = (value / h.min()).ln() / h.growth().ln();
            (idx as usize).min(h.bins.len() - 1)
        }
        let step =
            |v: f64, up: bool| f64::from_bits(if up { v.to_bits() + 1 } else { v.to_bits() - 1 });
        for h in [
            Histogram::default(),
            Histogram::new(1.0, 16.0, 4),
            Histogram::new(0.1, 10_000.0, 400),
        ] {
            let mut probes = vec![0.0, h.min() / 2.0, step(h.min(), false), 1e9, f64::MAX];
            // Every bin edge (the last one is the overflow threshold)
            // and its neighbours one ulp either side.
            for idx in 0..=h.bins.len() {
                let edge = h.bin_lower(idx);
                probes.extend([step(edge, false), edge, step(edge, true)]);
            }
            // A dense geometric sweep across and beyond the range.
            let sweep = 100_000;
            let ratio =
                (h.bin_lower(h.bins.len()) * 4.0 / (h.min() / 4.0)).powf(1.0 / sweep as f64);
            let mut v = h.min() / 4.0;
            for _ in 0..sweep {
                probes.push(v);
                v *= ratio;
            }
            for v in probes {
                assert_eq!(h.bin_index(v), uncached(&h, v), "value {v:e}");
            }
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 1..=10 {
            a.record(i as f64);
            b.record((i * 100) as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        // Median sits between the two clusters.
        let p50 = a.percentile(0.5).unwrap();
        assert!((10.0..=110.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn a_cleared_histogram_is_a_new_one() {
        let mut h = Histogram::new(1.0, 100.0, 8);
        for i in 0..20 {
            h.record(i as f64 * 7.0);
        }
        h.clear();
        assert_eq!(h, Histogram::new(1.0, 100.0, 8));
    }

    #[test]
    fn record_n_is_n_records_in_any_order() {
        let mut one_by_one = Histogram::default();
        let mut bulk = Histogram::default();
        for i in 0..40 {
            one_by_one.record(1.5);
            one_by_one.record(i as f64);
            bulk.record(i as f64);
        }
        bulk.record_n(1.5, 40);
        bulk.record_n(9.0, 0);
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.count(), 80);
    }

    #[test]
    fn zero_value_is_allowed() {
        let mut h = Histogram::default();
        h.record(0.0);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(0.5).is_some());
    }

    #[test]
    fn json_summary_shape() {
        let json = |h: &Histogram| {
            let mut w = JsonWriter::new();
            h.write_json(&mut w);
            w.finish()
        };
        let mut h = Histogram::default();
        let s = json(&h);
        assert!(
            s.contains("\"count\":0") && s.contains("\"p50\":null"),
            "{s}"
        );
        h.record(5.0);
        let s = json(&h);
        assert!(s.contains("\"count\":1") && !s.contains("null"), "{s}");
    }

    #[test]
    #[should_panic(expected = "invalid histogram range")]
    fn bad_range_panics() {
        let _ = Histogram::new(10.0, 1.0, 8);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let mut h = Histogram::default();
        h.record(1.0);
        let _ = h.percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = Histogram::new(1.0, 100.0, 8);
        let b = Histogram::new(1.0, 100.0, 16);
        a.merge(&b);
    }
}
