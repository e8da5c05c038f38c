//! Measurement outcomes, probe-level fault injection, and retry policy.
//!
//! The base [`Prober`](crate::Prober) API reports a plain `f64` for
//! every measurement, which forces a lossy encoding: a measurement
//! whose probes were *all* lost comes back as the timeout value, and
//! downstream code cannot tell a slow link from a dead one. This module
//! makes the outcome explicit:
//!
//! * [`Measurement`] — `Ok(rtt)`, `Timeout` (probes sent, none
//!   answered), or `Unreachable` (the link is known dead; probing is
//!   pointless).
//! * [`ProbeFaults`] — the injected failure set a prober consults:
//!   crashed nodes and black-holed links. Faults are fixed for the
//!   lifetime of a prober, modelling the state of the network during
//!   one formation run.
//! * [`RetryPolicy`] — bounded retries with a *deterministic* virtual
//!   exponential-backoff clock. No wall-clock time is involved: the
//!   backoff milliseconds are accounted, not slept, so runs are
//!   reproducible and instantaneous.
//! * [`FeatureMask`] — per-cell observation flags alongside a
//!   [`FeatureMatrix`](crate::FeatureMatrix), marking which feature
//!   components were actually measured.
//!
//! Determinism contract: retries draw from per-attempt derived RNG
//! streams ([`ecg_par::derive_seed`] on a single master value drawn
//! from the caller's stream), so the caller's stream advances by the
//! same amount whether a retry succeeds on the first or the last
//! attempt — and not at all when the first attempt succeeds, keeping
//! healthy-path runs bit-identical to the non-resilient API.

use std::collections::BTreeSet;
use std::fmt;

/// Outcome of one RTT measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measurement {
    /// The average RTT over the probes that answered, in milliseconds.
    Ok(f64),
    /// Every probe of the measurement was lost; the target may still be
    /// alive (transient loss).
    Timeout,
    /// The link is dead (a crashed endpoint or a black-holed path);
    /// retrying cannot help.
    Unreachable,
}

impl Measurement {
    /// The measured RTT, or `None` for a failed measurement.
    pub fn value(&self) -> Option<f64> {
        match self {
            Measurement::Ok(v) => Some(*v),
            _ => None,
        }
    }

    /// The measured RTT, or `fallback` for a failed measurement — the
    /// bridge back to the legacy `f64` API, which reports the probe
    /// timeout in that case.
    pub fn value_or(&self, fallback: f64) -> f64 {
        self.value().unwrap_or(fallback)
    }

    /// `true` for a successful measurement.
    pub fn is_ok(&self) -> bool {
        matches!(self, Measurement::Ok(_))
    }

    /// `true` when every probe was lost but the link is not known dead.
    #[cfg(test)]
    pub(crate) fn is_timeout(&self) -> bool {
        matches!(self, Measurement::Timeout)
    }

    /// `true` when the link is known dead.
    #[cfg(test)]
    pub(crate) fn is_unreachable(&self) -> bool {
        matches!(self, Measurement::Unreachable)
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Measurement::Ok(v) => write!(f, "{v:.3} ms"),
            Measurement::Timeout => f.write_str("timeout"),
            Measurement::Unreachable => f.write_str("unreachable"),
        }
    }
}

/// The injected failure set a [`Prober`](crate::Prober) consults before
/// sending probes. Node indices follow the prober's oracle (for an
/// `EdgeNetwork` matrix, `0` is the origin and `i + 1` is cache
/// `Ec_i`).
///
/// An empty set (the [`Default`]) changes nothing: every probing path
/// behaves exactly as without fault injection.
///
/// # Examples
///
/// ```
/// use ecg_coords::ProbeFaults;
///
/// let faults = ProbeFaults::new().node_down(3).blackhole(1, 5);
/// assert!(faults.link_dead(3, 0)); // any link touching a down node
/// assert!(faults.link_dead(5, 1)); // black-holed pair, either order
/// assert!(!faults.link_dead(1, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeFaults {
    down: BTreeSet<usize>,
    blackholes: BTreeSet<(usize, usize)>,
}

impl ProbeFaults {
    /// Creates an empty (fault-free) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a node as crashed: every link touching it is dead.
    pub fn node_down(mut self, node: usize) -> Self {
        self.down.insert(node);
        self
    }

    /// Black-holes the single link between `a` and `b` (both
    /// directions); the endpoints stay reachable over other links.
    pub fn blackhole(mut self, a: usize, b: usize) -> Self {
        self.blackholes.insert((a.min(b), a.max(b)));
        self
    }

    /// `true` if `node` is marked crashed.
    pub fn is_node_down(&self, node: usize) -> bool {
        self.down.contains(&node)
    }

    /// `true` if probing between `a` and `b` cannot succeed: either
    /// endpoint is down, or the pair is black-holed.
    pub fn link_dead(&self, a: usize, b: usize) -> bool {
        self.down.contains(&a)
            || self.down.contains(&b)
            || self.blackholes.contains(&(a.min(b), a.max(b)))
    }

    /// `true` when no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.down.is_empty() && self.blackholes.is_empty()
    }
}

/// Bounded-retry policy with a deterministic exponential backoff clock.
///
/// The backoff is *virtual*: [`RetryPolicy::backoff_before_ms`] is the
/// wait a real deployment would sleep before the given attempt, and the
/// prober accounts the total in [`Prober::backoff_ms`](crate::Prober::backoff_ms)
/// without ever touching wall-clock time.
///
/// # Examples
///
/// ```
/// use ecg_coords::RetryPolicy;
///
/// let policy = RetryPolicy::default(); // 2 retries, 50 ms base, ×2
/// assert_eq!(policy.backoff_before_ms(1), 50);
/// assert_eq!(policy.backoff_before_ms(2), 100);
/// assert_eq!(RetryPolicy::none().max_retries(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    pub(crate) max_retries: u32,
    pub(crate) base_backoff_ms: u64,
    pub(crate) multiplier: u64,
}

impl Default for RetryPolicy {
    /// Two retries, 50 ms base backoff, doubling per attempt.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 50,
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// Creates the default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy that never retries (first attempt only).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0,
            multiplier: 1,
        }
    }

    /// Number of retries after the initial attempt.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The virtual backoff slept before retry `attempt` (1-based):
    /// `base × multiplier^(attempt-1)`, saturating.
    ///
    /// # Panics
    ///
    /// Panics if `attempt == 0` (the initial attempt has no backoff).
    pub fn backoff_before_ms(&self, attempt: u32) -> u64 {
        assert!(attempt > 0, "attempt is 1-based");
        self.multiplier
            .saturating_pow(attempt - 1)
            .saturating_mul(self.base_backoff_ms)
    }
}

/// Per-cell observation flags for a
/// [`FeatureMatrix`](crate::FeatureMatrix): cell `(i, j)` is `true`
/// when row `i`'s component `j` holds a real measurement and `false`
/// when it holds a placeholder (the measurement timed out or the
/// target was unreachable after retries).
///
/// # Examples
///
/// ```
/// use ecg_coords::FeatureMask;
///
/// let mut mask = FeatureMask::all_observed(2, 3);
/// assert!(mask.is_fully_observed());
/// mask.set(1, 2, false);
/// assert_eq!(mask.observed_count(1), 2);
/// assert!(!mask.is_fully_observed());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureMask {
    cells: Vec<bool>,
    dim: usize,
}

impl FeatureMask {
    /// An empty mask over `dim`-component rows.
    pub fn new(dim: usize) -> Self {
        FeatureMask {
            cells: Vec::new(),
            dim,
        }
    }

    /// A fully-observed `rows × dim` mask.
    pub fn all_observed(rows: usize, dim: usize) -> Self {
        FeatureMask {
            cells: vec![true; rows * dim],
            dim,
        }
    }

    /// Wraps an already-flat row-major buffer of whole `dim`-flag rows.
    pub(crate) fn from_flat(dim: usize, cells: Vec<bool>) -> Self {
        debug_assert_eq!(cells.len() % dim.max(1), 0, "ragged mask buffer");
        FeatureMask { cells, dim }
    }

    /// Appends one row of flags.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[bool]) {
        assert_eq!(row.len(), self.dim, "mask row has wrong dimension");
        self.cells.extend_from_slice(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.dim).unwrap_or(0)
    }

    /// `true` when the mask holds no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Components per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One row of flags.
    pub fn row(&self, i: usize) -> &[bool] {
        &self.cells[i * self.dim..(i + 1) * self.dim]
    }

    /// Whether cell `(i, j)` holds a real measurement.
    pub fn is_observed(&self, i: usize, j: usize) -> bool {
        self.cells[i * self.dim + j]
    }

    /// Sets cell `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, observed: bool) {
        self.cells[i * self.dim + j] = observed;
    }

    /// Number of observed components in row `i`.
    pub fn observed_count(&self, i: usize) -> usize {
        self.row(i).iter().filter(|&&o| o).count()
    }

    /// `true` when every cell is observed — the healthy-path fast case.
    pub fn is_fully_observed(&self) -> bool {
        self.cells.iter().all(|&o| o)
    }

    /// Total number of unobserved (masked) cells.
    pub fn masked_cells(&self) -> usize {
        self.cells.iter().filter(|&&o| !o).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_accessors() {
        assert_eq!(Measurement::Ok(3.5).value(), Some(3.5));
        assert_eq!(Measurement::Timeout.value(), None);
        assert_eq!(Measurement::Unreachable.value_or(9.0), 9.0);
        assert!(Measurement::Ok(1.0).is_ok());
        assert!(Measurement::Timeout.is_timeout());
        assert!(Measurement::Unreachable.is_unreachable());
        assert_eq!(Measurement::Timeout.to_string(), "timeout");
        assert!(Measurement::Ok(2.0).to_string().contains("2.000"));
    }

    #[test]
    fn faults_mark_links_dead() {
        let f = ProbeFaults::new().node_down(2).blackhole(4, 1);
        assert!(f.is_node_down(2));
        assert!(!f.is_node_down(1));
        assert!(f.link_dead(2, 5));
        assert!(f.link_dead(5, 2));
        assert!(f.link_dead(1, 4));
        assert!(f.link_dead(4, 1));
        assert!(!f.link_dead(1, 3));
        assert!(!f.is_empty());
        assert!(ProbeFaults::default().is_empty());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10,
            multiplier: 3,
        };
        assert_eq!(p.backoff_before_ms(1), 10);
        assert_eq!(p.backoff_before_ms(2), 30);
        assert_eq!(p.backoff_before_ms(3), 90);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn backoff_of_attempt_zero_panics() {
        let _ = RetryPolicy::default().backoff_before_ms(0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            max_retries: 200,
            base_backoff_ms: u64::MAX,
            multiplier: 2,
        };
        assert_eq!(p.backoff_before_ms(100), u64::MAX);
        assert_eq!(p.backoff_before_ms(200), u64::MAX);
    }

    #[test]
    fn mask_tracks_cells() {
        let mut m = FeatureMask::new(2);
        assert!(m.is_empty());
        m.push_row(&[true, false]);
        m.push_row(&[true, true]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 2);
        assert!(m.is_observed(0, 0));
        assert!(!m.is_observed(0, 1));
        assert_eq!(m.observed_count(0), 1);
        assert_eq!(m.masked_cells(), 1);
        assert!(!m.is_fully_observed());
        m.set(0, 1, true);
        assert!(m.is_fully_observed());
        assert_eq!(m.row(1), &[true, true]);
    }

    #[test]
    fn all_observed_constructor() {
        let m = FeatureMask::all_observed(3, 4);
        assert_eq!(m.len(), 3);
        assert!(m.is_fully_observed());
        assert_eq!(m.masked_cells(), 0);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_row_width_panics() {
        let mut m = FeatureMask::new(3);
        m.push_row(&[true]);
    }
}
