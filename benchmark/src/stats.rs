//! Sample summaries: the median, and the tail percentile rule the
//! benchmark reports timings by.

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail percentile: `value` is the sample at percentile `level_pct`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub level_pct: f64,
    pub value: f64,
}

/// The highest percentile that still has at least ten samples beyond
/// it: with `n` samples that is the (n − 10)-th smallest, at level
/// 100 · (n − 10) / n. `None` when `n ≤ 10` — no percentile of so few
/// samples is worth reporting.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    Some(Tail {
        level_pct: 100.0 * (n - 10) as f64 / n as f64,
        value: sorted(samples)[n - 11],
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);

        // 100 samples: p90 is the 90th smallest, with 91..=100 beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("enough samples");
        assert_eq!(t.level_pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);

        // 11 samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("enough samples");
        assert_eq!(t.value, 1.0);
        assert!((t.level_pct - 100.0 / 11.0).abs() < 1e-12);
    }
}
