//! RTT probing model.
//!
//! Real deployments measure RTTs by sending probe packets; measurements
//! jitter around the propagation delay. The paper's schemes compensate by
//! probing each target "multiple times and recording the average RTT".
//! [`Prober`] reproduces that: each probe multiplies the ground-truth RTT
//! by log-normal noise, and a measurement averages a configurable number
//! of probes.

use crate::resilience::{Measurement, ProbeFaults, RetryPolicy};
use ecg_obs::{Histogram, Obs};
use ecg_par::{derive_seed, par_map, DEFAULT_CHUNK};
use ecg_topology::RttSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the probing model.
///
/// # Examples
///
/// ```
/// use ecg_coords::ProbeConfig;
///
/// let cfg = ProbeConfig::default().probes_per_measurement(5).noise_sigma(0.1);
/// assert_eq!(cfg.probes(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    probes: usize,
    noise_sigma: f64,
    loss_rate: f64,
    timeout_ms: f64,
}

impl Default for ProbeConfig {
    /// Three probes per measurement with 5% log-normal jitter, no probe
    /// loss, and a 1 s probe timeout — a light but realistic
    /// measurement error.
    fn default() -> Self {
        ProbeConfig {
            probes: 3,
            noise_sigma: 0.05,
            loss_rate: 0.0,
            timeout_ms: 1_000.0,
        }
    }
}

impl ProbeConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a noise-free configuration (measurements equal ground
    /// truth exactly); useful for isolating algorithmic error.
    pub fn noiseless() -> Self {
        ProbeConfig {
            probes: 1,
            noise_sigma: 0.0,
            loss_rate: 0.0,
            timeout_ms: 1_000.0,
        }
    }

    /// Sets how many probes are averaged per measurement.
    ///
    /// # Panics
    ///
    /// Panics if `probes == 0`.
    pub fn probes_per_measurement(mut self, probes: usize) -> Self {
        assert!(probes > 0, "need at least one probe per measurement");
        self.probes = probes;
        self
    }

    /// Sets the standard deviation of the log-normal noise factor.
    ///
    /// Each probe observes `rtt × exp(σ·z)` with `z ~ N(0, 1)`. A sigma of
    /// `0.05` jitters probes by about ±5%.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn noise_sigma(mut self, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise sigma must be finite and non-negative"
        );
        self.noise_sigma = sigma;
        self
    }

    /// Sets the probability that any single probe is lost in transit.
    ///
    /// A lost probe contributes nothing to the measured average; it is
    /// still counted in [`Prober::probes_sent`] and tallied in
    /// [`Prober::probes_lost`]. If *every* probe of a measurement is
    /// lost, the measurement's true outcome is
    /// [`Measurement::Timeout`], reported as such by
    /// [`Prober::measure_outcome`] and [`Prober::measure_retry`]. The
    /// legacy `f64` API ([`Prober::measure`]) cannot express that and
    /// falls back to reporting [`ProbeConfig::timeout`] as if it were
    /// an RTT — callers that must not average a timeout into a feature
    /// vector should use the outcome-returning API.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)`.
    pub fn loss_rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..1.0).contains(&rate),
            "loss rate must be in [0, 1)"
        );
        self.loss_rate = rate;
        self
    }

    /// Sets how long a prober waits before declaring a probe lost.
    ///
    /// This value doubles as the *sentinel RTT* the legacy `f64` API
    /// reports when a whole measurement times out or the target is
    /// unreachable; the outcome-returning API
    /// ([`Prober::measure_outcome`] / [`Prober::measure_retry`]) never
    /// reports it as a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive and finite.
    pub fn timeout_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "timeout must be positive");
        self.timeout_ms = ms;
        self
    }

    /// Number of probes averaged per measurement.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Standard deviation of the log-normal noise factor.
    pub fn sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Probability that a single probe is lost.
    pub fn loss(&self) -> f64 {
        self.loss_rate
    }

    /// Probe timeout in milliseconds.
    pub fn timeout(&self) -> f64 {
        self.timeout_ms
    }
}

/// Samples a standard normal variate via the Box–Muller transform.
///
/// Implemented locally to keep the dependency set down to `rand` itself.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The *draw discipline* of a [`Prober::measure_batch`] call: fixed by
/// the formation plan, never by configuration.
pub enum Draws<'o> {
    /// One shared RNG stream consumed in enumeration order — the
    /// formation plan's default, which every golden is pinned to.
    /// Sequential, hence the only variant with per-probe telemetry.
    Shared(Option<&'o mut Obs>),
    /// One `StdRng` per row, seeded [`ecg_par::derive_seed`]`(master,
    /// row)` from a single `u64` off the caller's stream; rows measured
    /// on [`ecg_par`] workers, independent of the thread count.
    PerRow,
}

impl Draws<'_> {
    /// The telemetry bundle riding on the shared stream, if any.
    pub fn obs(&mut self) -> Option<&mut Obs> {
        match self {
            Draws::Shared(obs) => obs.as_deref_mut(),
            Draws::PerRow => None,
        }
    }
}

/// Probes sent and lost by measurements not yet added to a
/// [`Prober`]'s shared counters.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeTally {
    sent: u64,
    lost: u64,
}

/// What one call's measurements record into a bundle, gathered apart
/// and added to it once by [`ProbeRecord::flush`]. Counters are sums,
/// histogram bins are counts and the registry's keys are ordered maps,
/// so the document is the one recording each measurement as it happens
/// would write.
#[derive(Debug, Default)]
struct ProbeRecord {
    measurements: u64,
    sent: u64,
    lost: u64,
    /// `probe.rtt_ms`, made by the first successful measurement.
    rtt_ms: Option<Histogram>,
    timeouts: u64,
    unreachable: u64,
    retries: u64,
    gave_up: u64,
}

impl ProbeRecord {
    /// Adds the record to `obs`: `probe.measurements` / `probe.sent` /
    /// `probe.lost` when anything was measured, `probe.rtt_ms` when
    /// something answered, and each outcome counter that is not zero —
    /// the keys a measurement-by-measurement recording creates.
    fn flush(self, obs: &mut Obs) {
        if self.measurements == 0 {
            return;
        }
        let metrics = &mut obs.metrics;
        metrics.add("probe.measurements", self.measurements);
        metrics.add("probe.sent", self.sent);
        metrics.add("probe.lost", self.lost);
        if let Some(rtt_ms) = &self.rtt_ms {
            metrics.merge_histogram("probe.rtt_ms", rtt_ms);
        }
        for (name, count) in [
            ("probe.timeouts", self.timeouts),
            ("probe.unreachable", self.unreachable),
            ("probe.retries", self.retries),
            ("probe.gave_up", self.gave_up),
        ] {
            if count > 0 {
                metrics.add(name, count);
            }
        }
    }
}

/// A simulated prober over a ground-truth RTT oracle.
///
/// The ground truth is any [`RttSource`] — a dense
/// [`RttMatrix`](ecg_topology::RttMatrix) for paper-scale runs, or an
/// implicit oracle like [`SyntheticRtt`](ecg_topology::SyntheticRtt)
/// when N is too large to materialize O(n²) RTTs. Node indices follow
/// the oracle the prober wraps; for an
/// [`EdgeNetwork`](ecg_topology::EdgeNetwork) matrix, index `0` is the
/// origin and `i + 1` is cache `Ec_i`.
///
/// The probe counters are atomics (relaxed ordering — they are plain
/// commutative tallies), so a shared `&Prober` can serve concurrent
/// [`ecg_par`] workers and still report exact totals.
///
/// # Examples
///
/// ```
/// use ecg_coords::{ProbeConfig, Prober};
/// use ecg_topology::fixtures::paper_figure1;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let matrix = paper_figure1();
/// let prober = Prober::new(&matrix, ProbeConfig::noiseless());
/// let mut rng = StdRng::seed_from_u64(1);
/// assert_eq!(prober.measure(1, 2, &mut rng, None), 4.0);
/// ```
#[derive(Debug)]
pub struct Prober<'a> {
    truth: &'a dyn RttSource,
    config: ProbeConfig,
    faults: ProbeFaults,
    probes_sent: AtomicU64,
    probes_lost: AtomicU64,
    retries: AtomicU64,
    gave_up: AtomicU64,
    backoff_ms: AtomicU64,
}

impl Clone for Prober<'_> {
    fn clone(&self) -> Self {
        Prober {
            truth: self.truth,
            config: self.config,
            faults: self.faults.clone(),
            probes_sent: AtomicU64::new(self.probes_sent()),
            probes_lost: AtomicU64::new(self.probes_lost()),
            retries: AtomicU64::new(self.retries()),
            gave_up: AtomicU64::new(self.gave_up()),
            backoff_ms: AtomicU64::new(self.backoff_ms()),
        }
    }
}

impl<'a> Prober<'a> {
    /// Wraps a ground-truth RTT oracle with the given probing behaviour.
    pub fn new(truth: &'a dyn RttSource, config: ProbeConfig) -> Self {
        Prober::with_faults(truth, config, ProbeFaults::default())
    }

    /// Like [`Prober::new`], with an injected failure set: links marked
    /// dead by `faults` report [`Measurement::Unreachable`] instead of
    /// an RTT. An empty set behaves exactly like [`Prober::new`].
    pub fn with_faults(truth: &'a dyn RttSource, config: ProbeConfig, faults: ProbeFaults) -> Self {
        Prober {
            truth,
            config,
            faults,
            probes_sent: AtomicU64::new(0),
            probes_lost: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// The injected failure set (empty unless built with
    /// [`Prober::with_faults`]).
    pub fn faults(&self) -> &ProbeFaults {
        &self.faults
    }

    /// Number of nodes visible to the prober.
    pub fn node_count(&self) -> usize {
        self.truth.node_count()
    }

    /// The probing configuration.
    pub fn config(&self) -> ProbeConfig {
        self.config
    }

    /// Total probes sent so far — the measurement overhead the paper's
    /// greedy PLSet construction is designed to bound.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent.load(Ordering::Relaxed)
    }

    /// Probes lost in transit so far (only with a non-zero
    /// [`ProbeConfig::loss_rate`] or injected faults).
    pub fn probes_lost(&self) -> u64 {
        self.probes_lost.load(Ordering::Relaxed)
    }

    /// Retry attempts performed so far by [`Prober::measure_retry`].
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Measurements [`Prober::measure_retry`] gave up on (exhausted
    /// retries, or the target was unreachable).
    pub fn gave_up(&self) -> u64 {
        self.gave_up.load(Ordering::Relaxed)
    }

    /// Total *virtual* backoff accounted by retries, in milliseconds —
    /// what a real deployment would have slept. Never wall clock.
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms.load(Ordering::Relaxed)
    }

    /// Measures the RTT between `a` and `b`: the average of the
    /// successful probes out of `config.probes()` noisy ones, in
    /// milliseconds. If every probe is lost — or the link is dead under
    /// the injected faults — the measurement times out and reports
    /// [`ProbeConfig::timeout`]; use [`Prober::measure_outcome`] to
    /// tell those cases apart.
    ///
    /// Probing yourself returns `0.0` without sending probes. With a
    /// bundle the measurement is recorded as
    /// [`Prober::measure_outcome`] records it: a timed-out or
    /// unreachable measurement is counted, not sampled into
    /// `probe.rtt_ms`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range of the wrapped matrix.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> f64 {
        self.measure_outcome(a, b, rng, obs)
            .value_or(self.config.timeout_ms)
    }

    /// Measures the RTT between `a` and `b` with an explicit outcome:
    /// [`Measurement::Ok`] with the average of the answering probes,
    /// [`Measurement::Timeout`] when every probe is lost, or
    /// [`Measurement::Unreachable`] when the injected faults mark the
    /// link dead (no RNG draws are consumed in that case, but the
    /// probes are still counted as sent and lost).
    ///
    /// Probing yourself returns `Ok(0.0)` without sending probes.
    ///
    /// With a bundle the attempt is recorded: `probe.measurements` /
    /// `probe.sent` / `probe.lost` counters, a `probe.rtt_ms` histogram
    /// for successful measurements, and `probe.timeouts` /
    /// `probe.unreachable` counters for the failure outcomes.
    /// Instrumentation never touches the RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range of the wrapped matrix.
    pub fn measure_outcome<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> Measurement {
        self.tallied(obs, |record, tally| {
            self.measure_tallied(a, b, rng, record, tally)
        })
    }

    /// [`Prober::measure_outcome`] with the probes it sent and lost
    /// added to `tally` instead of the shared counters, and what it
    /// records to `record` instead of a bundle (see [`Prober::tallied`]).
    fn measure_tallied<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        rng: &mut R,
        record: Option<&mut ProbeRecord>,
        tally: &mut ProbeTally,
    ) -> Measurement {
        let before = *tally;
        let outcome = self.draw_tallied(a, b, rng, tally);
        if let Some(record) = record {
            record.measurements += 1;
            record.sent += tally.sent - before.sent;
            record.lost += tally.lost - before.lost;
            match outcome {
                Measurement::Ok(rtt) => record
                    .rtt_ms
                    .get_or_insert_with(Histogram::default)
                    .record(rtt),
                Measurement::Timeout => record.timeouts += 1,
                Measurement::Unreachable => record.unreachable += 1,
            }
        }
        outcome
    }

    /// The probes of one measurement: the draws and the outcome, its
    /// probes added to `tally`.
    fn draw_tallied<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        rng: &mut R,
        tally: &mut ProbeTally,
    ) -> Measurement {
        if a == b {
            return Measurement::Ok(0.0);
        }
        let probes = self.config.probes as u64;
        tally.sent += probes;
        if !self.faults.is_empty() && self.faults.link_dead(a, b) {
            tally.lost += probes;
            return Measurement::Unreachable;
        }
        let truth = self.truth.rtt_ms(a, b);
        let mut sum = 0.0;
        let mut answered = 0u32;
        for _ in 0..self.config.probes {
            // Short-circuit so a loss-free config draws nothing extra
            // from the RNG (keeps loss_rate = 0 streams identical to
            // the pre-loss model).
            if self.config.loss_rate > 0.0 && rng.gen_bool(self.config.loss_rate) {
                tally.lost += 1;
                continue;
            }
            let noise = if self.config.noise_sigma == 0.0 {
                1.0
            } else {
                (self.config.noise_sigma * standard_normal(rng)).exp()
            };
            sum += truth * noise;
            answered += 1;
        }
        if answered == 0 {
            Measurement::Timeout
        } else {
            Measurement::Ok(sum / answered as f64)
        }
    }

    /// Runs `measure` against a fresh tally, and a fresh record when
    /// there is a bundle, then adds what they counted to the shared
    /// counters and to `obs` — once each, however many measurements ran.
    fn tallied<T>(
        &self,
        obs: Option<&mut Obs>,
        measure: impl FnOnce(Option<&mut ProbeRecord>, &mut ProbeTally) -> T,
    ) -> T {
        let mut tally = ProbeTally::default();
        let mut record = obs.is_some().then(ProbeRecord::default);
        let result = measure(record.as_mut(), &mut tally);
        if tally.sent > 0 {
            self.probes_sent.fetch_add(tally.sent, Ordering::Relaxed);
        }
        if tally.lost > 0 {
            self.probes_lost.fetch_add(tally.lost, Ordering::Relaxed);
        }
        if let (Some(obs), Some(record)) = (obs, record) {
            record.flush(obs);
        }
        result
    }

    /// Measures with bounded retries under `policy`.
    ///
    /// The first attempt consumes the caller's RNG exactly like
    /// [`Prober::measure_outcome`], so on the healthy path (first
    /// attempt succeeds) this is draw-for-draw identical to the
    /// non-retrying API. On a [`Measurement::Timeout`] one `u64` master
    /// value is drawn from the caller's stream and each retry probes on
    /// its own derived stream ([`ecg_par::derive_seed`] of the attempt
    /// number), accounting the policy's virtual backoff — the caller's
    /// stream therefore advances by the same amount no matter how many
    /// retries run. [`Measurement::Unreachable`] gives up immediately:
    /// a dead link cannot be retried into answering.
    ///
    /// With a bundle every attempt is recorded as
    /// [`Prober::measure_outcome`] records it, plus `probe.retries` and
    /// `probe.gave_up` counters.
    pub fn measure_retry<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        policy: &RetryPolicy,
        rng: &mut R,
        obs: Option<&mut Obs>,
    ) -> Measurement {
        self.tallied(obs, |record, tally| {
            self.measure_retry_tallied(a, b, policy, rng, record, tally)
        })
    }

    /// [`Prober::measure_retry`] over [`Prober::measure_tallied`].
    fn measure_retry_tallied<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        policy: &RetryPolicy,
        rng: &mut R,
        mut record: Option<&mut ProbeRecord>,
        tally: &mut ProbeTally,
    ) -> Measurement {
        let first = self.measure_tallied(a, b, rng, record.as_deref_mut(), tally);
        match first {
            Measurement::Ok(_) => return first,
            Measurement::Unreachable => {
                self.gave_up.fetch_add(1, Ordering::Relaxed);
                if let Some(record) = record {
                    record.gave_up += 1;
                }
                return first;
            }
            Measurement::Timeout => {}
        }
        // One master draw regardless of retry count keeps the caller's
        // stream deterministic across policies.
        let master: u64 = rng.gen();
        for attempt in 1..=policy.max_retries() {
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff_ms
                .fetch_add(policy.backoff_before_ms(attempt), Ordering::Relaxed);
            if let Some(record) = record.as_deref_mut() {
                record.retries += 1;
            }
            let mut retry_rng = StdRng::seed_from_u64(derive_seed(master, u64::from(attempt)));
            let outcome = self.measure_tallied(a, b, &mut retry_rng, record.as_deref_mut(), tally);
            match outcome {
                Measurement::Ok(_) => return outcome,
                Measurement::Unreachable => {
                    // Faults are fixed for the prober's lifetime, so a
                    // dead link cannot come back; stop retrying.
                    self.gave_up.fetch_add(1, Ordering::Relaxed);
                    if let Some(record) = record {
                        record.gave_up += 1;
                    }
                    return outcome;
                }
                Measurement::Timeout => {}
            }
        }
        self.gave_up.fetch_add(1, Ordering::Relaxed);
        if let Some(record) = record {
            record.gave_up += 1;
        }
        Measurement::Timeout
    }

    /// Measures the RTT from `from` to every node in `targets`, in
    /// order, each as [`Prober::measure`] does, into `out` (cleared
    /// first, so a caller that probes repeatedly reuses one buffer).
    /// With a bundle the call's measurements are recorded as
    /// [`Prober::measure_outcome`] records one, added to it once.
    pub fn measure_all<R: Rng + ?Sized>(
        &self,
        from: usize,
        targets: &[usize],
        rng: &mut R,
        out: &mut Vec<f64>,
        obs: Option<&mut Obs>,
    ) {
        out.clear();
        self.tallied(obs, |mut record, tally| {
            out.extend(targets.iter().map(|&t| {
                self.measure_tallied(from, t, rng, record.as_deref_mut(), tally)
                    .value_or(self.config.timeout_ms)
            }));
        });
    }

    /// Measures a `rows × width` batch — cell `(r, c)` probes the pair
    /// `pair(r, c)` — into row-major values and observed flags. Both
    /// formation stages (PLSet pairs, feature rows) go through here, so
    /// only this function knows what they may vary: the [`Draws`] and
    /// the retry policy. `None` is [`Prober::measure`]: a failure reports
    /// the timeout sentinel and every cell counts as observed. `Some` is
    /// [`Prober::measure_retry`]: a failure is an unobserved `0.0`.
    pub fn measure_batch<R: Rng + ?Sized>(
        &self,
        rows: usize,
        width: usize,
        pair: impl Fn(usize, usize) -> (usize, usize) + Sync,
        policy: Option<&RetryPolicy>,
        draws: &mut Draws<'_>,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<bool>) {
        let mut values = vec![0.0; rows * width];
        let mut observed = vec![true; rows * width];
        match draws {
            Draws::Shared(obs) => self.tallied(obs.as_deref_mut(), |mut record, tally| {
                for (i, (v, o)) in values.iter_mut().zip(&mut observed).enumerate() {
                    let ab = pair(i / width, i % width);
                    (*v, *o) = self.measure_cell(ab, policy, rng, record.as_deref_mut(), tally);
                }
            }),
            Draws::PerRow => {
                let master: u64 = rng.gen();
                // Workers fill disjoint spans of whole rows in place.
                let span = DEFAULT_CHUNK * width.max(1);
                let spans = values.chunks_mut(span).zip(observed.chunks_mut(span));
                par_map(spans.enumerate().collect(), |(s, (values, observed))| {
                    // One add per span: a shared counter bumped per
                    // measurement is a cache line the workers fight over.
                    self.tallied(None, |_, tally| {
                        let rows = values.chunks_mut(width).zip(observed.chunks_mut(width));
                        for (r, (values, observed)) in (s * DEFAULT_CHUNK..).zip(rows) {
                            let mut rng = StdRng::seed_from_u64(derive_seed(master, r as u64));
                            for (c, (v, o)) in values.iter_mut().zip(observed).enumerate() {
                                (*v, *o) =
                                    self.measure_cell(pair(r, c), policy, &mut rng, None, tally);
                            }
                        }
                    });
                });
            }
        }
        (values, observed)
    }

    /// One cell of [`Prober::measure_batch`]: `(value, observed)`, its
    /// probes added to `tally`.
    fn measure_cell<R: Rng + ?Sized>(
        &self,
        (a, b): (usize, usize),
        policy: Option<&RetryPolicy>,
        rng: &mut R,
        record: Option<&mut ProbeRecord>,
        tally: &mut ProbeTally,
    ) -> (f64, bool) {
        match policy {
            None => {
                let outcome = self.draw_tallied(a, b, rng, tally);
                (outcome.value_or(self.config.timeout_ms), true)
            }
            Some(policy) => {
                let retried = self.measure_retry_tallied(a, b, policy, rng, record, tally);
                (retried.value_or(0.0), retried.is_ok())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_topology::fixtures::paper_figure1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_probe_returns_truth() {
        let m = paper_figure1();
        let p = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(p.measure(i, j, &mut rng, None), m.get(i, j));
            }
        }
    }

    #[test]
    fn self_probe_is_zero_and_free() {
        let m = paper_figure1();
        let p = Prober::new(&m, ProbeConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.measure(3, 3, &mut rng, None), 0.0);
        assert_eq!(p.probes_sent(), 0);
    }

    #[test]
    fn probe_accounting_counts_each_probe() {
        let m = paper_figure1();
        let p = Prober::new(&m, ProbeConfig::default().probes_per_measurement(4));
        let mut rng = StdRng::seed_from_u64(0);
        p.measure(0, 1, &mut rng, None);
        p.measure(1, 2, &mut rng, None);
        assert_eq!(p.probes_sent(), 8);
    }

    #[test]
    fn noisy_measurements_are_near_truth() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::default()
                .probes_per_measurement(50)
                .noise_sigma(0.05),
        );
        let mut rng = StdRng::seed_from_u64(7);
        let measured = p.measure(0, 1, &mut rng, None);
        let truth = m.get(0, 1);
        assert!(
            (measured - truth).abs() / truth < 0.05,
            "measured {measured} vs truth {truth}"
        );
    }

    #[test]
    fn more_probes_reduce_error() {
        let m = paper_figure1();
        let truth = m.get(0, 1);
        let mean_abs_err = |probes: usize| {
            let p = Prober::new(
                &m,
                ProbeConfig::default()
                    .probes_per_measurement(probes)
                    .noise_sigma(0.3),
            );
            let mut rng = StdRng::seed_from_u64(99);
            let mut err = 0.0;
            for _ in 0..200 {
                err += (p.measure(0, 1, &mut rng, None) - truth).abs();
            }
            err / 200.0
        };
        assert!(mean_abs_err(16) < mean_abs_err(1));
    }

    #[test]
    fn measure_all_orders_targets() {
        let m = paper_figure1();
        let p = Prober::new(&m, ProbeConfig::noiseless());
        let mut rng = StdRng::seed_from_u64(0);
        let mut v = vec![99.0];
        p.measure_all(1, &[0, 2, 3], &mut rng, &mut v, None);
        assert_eq!(v, vec![12.0, 4.0, 17.0]);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lossy_probes_are_counted_and_skipped() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::noiseless()
                .probes_per_measurement(200)
                .loss_rate(0.3),
        );
        let mut rng = StdRng::seed_from_u64(11);
        let measured = p.measure(0, 1, &mut rng, None);
        // Survivors are noiseless, so the average is exact truth.
        assert_eq!(measured, m.get(0, 1));
        assert_eq!(p.probes_sent(), 200);
        let lost = p.probes_lost();
        assert!((30..=100).contains(&lost), "lost {lost}");
    }

    #[test]
    fn total_loss_times_out() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::noiseless()
                .probes_per_measurement(3)
                .loss_rate(0.999)
                .timeout_ms(750.0),
        );
        let mut rng = StdRng::seed_from_u64(0);
        // With 99.9% loss the 3 probes are all lost essentially always.
        let measured = p.measure(0, 1, &mut rng, None);
        assert_eq!(measured, 750.0);
        assert_eq!(p.probes_lost(), 3);
    }

    #[test]
    fn zero_loss_rate_draws_no_extra_randomness() {
        // The same seed must produce the same measurements whether the
        // loss machinery is present or not (loss_rate 0 short-circuits).
        let m = paper_figure1();
        let cfg = ProbeConfig::default().probes_per_measurement(5);
        let a = {
            let p = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(42);
            (
                p.measure(0, 1, &mut rng, None),
                p.measure(2, 3, &mut rng, None),
            )
        };
        let b = {
            let p = Prober::new(&m, cfg.loss_rate(0.0));
            let mut rng = StdRng::seed_from_u64(42);
            (
                p.measure(0, 1, &mut rng, None),
                p.measure(2, 3, &mut rng, None),
            )
        };
        assert_eq!(a, b);
    }

    #[test]
    fn observed_measurement_matches_plain_and_records_counters() {
        let m = paper_figure1();
        let cfg = ProbeConfig::default().probes_per_measurement(4);
        let plain = {
            let p = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(5);
            (
                p.measure(0, 1, &mut rng, None),
                p.measure(2, 3, &mut rng, None),
            )
        };
        let p = Prober::new(&m, cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let mut obs = Obs::new();
        let observed = (
            p.measure(0, 1, &mut rng, Some(&mut obs)),
            p.measure(2, 3, &mut rng, Some(&mut obs)),
        );
        // Identical RNG stream: instrumentation must not perturb it.
        assert_eq!(plain, observed);
        assert_eq!(obs.metrics.counter("probe.sent"), 8);
        assert_eq!(obs.metrics.counter("probe.measurements"), 2);
        assert_eq!(obs.metrics.counter("probe.timeouts"), 0);
        let hist = obs.metrics.histogram("probe.rtt_ms").expect("histogram");
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn observed_total_loss_records_timeout() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::noiseless()
                .probes_per_measurement(3)
                .loss_rate(0.999),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut obs = Obs::new();
        let mut out = Vec::new();
        p.measure_all(0, &[1], &mut rng, &mut out, Some(&mut obs));
        assert_eq!(out, [p.config().timeout()]);
        assert_eq!(obs.metrics.counter("probe.lost"), 3);
        assert_eq!(obs.metrics.counter("probe.timeouts"), 1);
    }

    #[test]
    fn observed_failures_are_counted_not_sampled() {
        let m = paper_figure1();
        let lossy = ProbeConfig::noiseless()
            .probes_per_measurement(3)
            .loss_rate(0.999);
        let dead = ProbeFaults::default().blackhole(0, 1);
        for (p, counter) in [
            (Prober::new(&m, lossy), "probe.timeouts"),
            (
                Prober::with_faults(&m, ProbeConfig::noiseless(), dead),
                "probe.unreachable",
            ),
        ] {
            let mut obs = Obs::new();
            let rtt = p.measure(0, 1, &mut StdRng::seed_from_u64(0), Some(&mut obs));
            assert_eq!(rtt, p.config().timeout(), "{counter}");
            assert_eq!(p.measure(0, 1, &mut StdRng::seed_from_u64(0), None), rtt);
            assert_eq!(obs.metrics.counter(counter), 1);
            let failures = ["probe.timeouts", "probe.unreachable"].map(|c| obs.metrics.counter(c));
            assert_eq!(failures.iter().sum::<u64>(), 1, "{counter}");
            assert_eq!(obs.metrics.counter("probe.measurements"), 1);
            let samples = obs
                .metrics
                .histogram("probe.rtt_ms")
                .map_or(0, |h| h.count());
            assert_eq!(samples, 0, "{counter}");
        }
    }

    #[test]
    fn outcome_reports_timeout_not_sentinel() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::noiseless()
                .probes_per_measurement(3)
                .loss_rate(0.999),
        );
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            p.measure_outcome(0, 1, &mut rng, None),
            Measurement::Timeout
        );
    }

    #[test]
    fn dead_link_is_unreachable_without_rng_draws() {
        let m = paper_figure1();
        let faults = ProbeFaults::new().node_down(2);
        let p = Prober::with_faults(&m, ProbeConfig::default(), faults);
        let mut rng = StdRng::seed_from_u64(3);
        let before = rng.clone();
        assert_eq!(
            p.measure_outcome(1, 2, &mut rng, None),
            Measurement::Unreachable
        );
        // No randomness consumed for a known-dead link.
        let mut before = before;
        assert_eq!(rng.gen::<u64>(), before.gen::<u64>());
        // The probes still count as sent and lost.
        assert_eq!(p.probes_sent(), 3);
        assert_eq!(p.probes_lost(), 3);
        // Legacy f64 API maps it onto the timeout sentinel.
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(p.measure(1, 2, &mut rng, None), p.config().timeout());
    }

    #[test]
    fn blackholed_link_leaves_other_links_alive() {
        let m = paper_figure1();
        let faults = ProbeFaults::new().blackhole(1, 2);
        let p = Prober::with_faults(&m, ProbeConfig::noiseless(), faults);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(p.measure_outcome(2, 1, &mut rng, None).is_unreachable());
        assert_eq!(
            p.measure_outcome(1, 3, &mut rng, None),
            Measurement::Ok(17.0)
        );
    }

    #[test]
    fn empty_faults_match_plain_prober_exactly() {
        let m = paper_figure1();
        let cfg = ProbeConfig::default().loss_rate(0.2);
        let a = {
            let p = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(8);
            (
                p.measure(0, 1, &mut rng, None),
                p.measure(2, 3, &mut rng, None),
            )
        };
        let b = {
            let p = Prober::with_faults(&m, cfg, ProbeFaults::default());
            let mut rng = StdRng::seed_from_u64(8);
            (
                p.measure(0, 1, &mut rng, None),
                p.measure(2, 3, &mut rng, None),
            )
        };
        assert_eq!(a, b);
    }

    #[test]
    fn retry_is_draw_identical_to_measure_on_the_healthy_path() {
        let m = paper_figure1();
        let cfg = ProbeConfig::default().probes_per_measurement(4);
        let p = Prober::new(&m, cfg);
        let mut rng_a = StdRng::seed_from_u64(21);
        let plain = (
            p.measure(0, 1, &mut rng_a, None),
            p.measure(2, 3, &mut rng_a, None),
        );
        let after_plain: u64 = rng_a.gen();
        let mut rng_b = StdRng::seed_from_u64(21);
        let policy = RetryPolicy::default();
        let retried = (
            p.measure_retry(0, 1, &policy, &mut rng_b, None)
                .value()
                .unwrap(),
            p.measure_retry(2, 3, &policy, &mut rng_b, None)
                .value()
                .unwrap(),
        );
        assert_eq!(plain, retried);
        // The caller's stream is in the same state afterwards.
        assert_eq!(after_plain, rng_b.gen::<u64>());
        assert_eq!(p.retries(), 0);
        assert_eq!(p.gave_up(), 0);
    }

    #[test]
    fn retry_recovers_transient_loss() {
        // 60% loss with 3 probes times out ~21.6% of the time; two
        // retries cut a measurement's give-up odds to ~1%. Seed-search
        // for a first-attempt timeout and check a retry rescues it.
        let m = paper_figure1();
        let cfg = ProbeConfig::noiseless()
            .probes_per_measurement(3)
            .loss_rate(0.6);
        let policy = RetryPolicy::default().retries(5);
        let mut rescued = false;
        for seed in 0..200 {
            let probe_a = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let plain = probe_a.measure_outcome(0, 1, &mut rng, None);
            if !plain.is_timeout() {
                continue;
            }
            let probe_b = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            let retried = probe_b.measure_retry(0, 1, &policy, &mut rng, None);
            if let Measurement::Ok(v) = retried {
                assert_eq!(v, m.get(0, 1));
                assert!(probe_b.retries() >= 1);
                assert_eq!(probe_b.gave_up(), 0);
                assert!(probe_b.backoff_ms() >= policy.backoff_before_ms(1));
                rescued = true;
                break;
            }
        }
        assert!(rescued, "no seed produced a rescued timeout");
    }

    #[test]
    fn retry_gives_up_immediately_on_unreachable() {
        let m = paper_figure1();
        let faults = ProbeFaults::new().node_down(1);
        let p = Prober::with_faults(&m, ProbeConfig::default(), faults);
        let mut rng = StdRng::seed_from_u64(0);
        let policy = RetryPolicy::default().retries(10);
        let out = p.measure_retry(0, 1, &policy, &mut rng, None);
        assert!(out.is_unreachable());
        assert_eq!(p.retries(), 0, "dead links must not be retried");
        assert_eq!(p.gave_up(), 1);
        assert_eq!(p.backoff_ms(), 0);
    }

    #[test]
    fn exhausted_retries_give_up_with_accounted_backoff() {
        let m = paper_figure1();
        let p = Prober::new(
            &m,
            ProbeConfig::noiseless()
                .probes_per_measurement(2)
                .loss_rate(0.999),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let policy = RetryPolicy::default()
            .retries(3)
            .base_backoff_ms(10)
            .multiplier(2);
        let out = p.measure_retry(0, 1, &policy, &mut rng, None);
        assert!(out.is_timeout());
        assert_eq!(p.retries(), 3);
        assert_eq!(p.gave_up(), 1);
        assert_eq!(p.backoff_ms(), 10 + 20 + 40);
    }

    #[test]
    fn retry_caller_stream_is_policy_independent() {
        // Whether the policy allows 1 or 10 retries, a timed-out
        // measurement advances the caller's stream identically (one
        // master draw): subsequent draws agree.
        let m = paper_figure1();
        let cfg = ProbeConfig::noiseless()
            .probes_per_measurement(2)
            .loss_rate(0.999);
        let drain = |retries: u32| -> u64 {
            let p = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(17);
            let _ = p.measure_retry(
                0,
                1,
                &RetryPolicy::default().retries(retries),
                &mut rng,
                None,
            );
            rng.gen()
        };
        assert_eq!(drain(1), drain(10));
    }

    #[test]
    fn observed_retry_matches_plain_and_records_counters() {
        let m = paper_figure1();
        let cfg = ProbeConfig::noiseless()
            .probes_per_measurement(2)
            .loss_rate(0.999);
        let policy = RetryPolicy::default().retries(2);
        let plain = {
            let p = Prober::new(&m, cfg);
            let mut rng = StdRng::seed_from_u64(4);
            p.measure_retry(0, 1, &policy, &mut rng, None)
        };
        let p = Prober::new(&m, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut obs = Obs::new();
        let observed = p.measure_retry(0, 1, &policy, &mut rng, Some(&mut obs));
        assert_eq!(plain, observed);
        assert_eq!(obs.metrics.counter("probe.retries"), 2);
        assert_eq!(obs.metrics.counter("probe.gave_up"), 1);
        assert_eq!(obs.metrics.counter("probe.measurements"), 3);
        assert_eq!(obs.metrics.counter("probe.timeouts"), 3);
    }

    #[test]
    fn observed_unreachable_is_counted() {
        let m = paper_figure1();
        let faults = ProbeFaults::new().node_down(1);
        let p = Prober::with_faults(&m, ProbeConfig::default(), faults);
        let mut rng = StdRng::seed_from_u64(0);
        let mut obs = Obs::new();
        let out = p.measure_retry(0, 1, &RetryPolicy::default(), &mut rng, Some(&mut obs));
        assert!(out.is_unreachable());
        assert_eq!(obs.metrics.counter("probe.unreachable"), 1);
        assert_eq!(obs.metrics.counter("probe.gave_up"), 1);
        assert_eq!(obs.metrics.counter("probe.retries"), 0);
    }

    /// What recording one measurement as it happens writes: the keyed
    /// updates a call's [`ProbeRecord`] adds up instead.
    fn record_one(obs: &mut Obs, outcome: Measurement, sent: u64, lost: u64) {
        obs.metrics.inc("probe.measurements");
        obs.metrics.add("probe.sent", sent);
        obs.metrics.add("probe.lost", lost);
        match outcome {
            Measurement::Ok(rtt) => obs.metrics.observe("probe.rtt_ms", rtt),
            Measurement::Timeout => obs.metrics.inc("probe.timeouts"),
            Measurement::Unreachable => obs.metrics.inc("probe.unreachable"),
        }
    }

    #[test]
    fn a_call_records_what_recording_each_measurement_records() {
        // Lossy probes over a dead link, with a self-probe: every outcome
        // and every key shows up.
        let m = paper_figure1();
        let config = ProbeConfig::noiseless()
            .probes_per_measurement(2)
            .loss_rate(0.6);
        let faults = ProbeFaults::default().blackhole(0, 3);
        let targets = [1, 0, 3, 2, 4, 5, 6, 1, 2, 4, 5, 6];

        let batched = Prober::with_faults(&m, config, faults.clone());
        let mut obs = Obs::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        batched.measure_all(0, &targets, &mut rng, &mut out, Some(&mut obs));

        let single = Prober::with_faults(&m, config, faults.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let mut expected = Obs::new();
        let mut values = Vec::new();
        for &t in &targets {
            let (sent, lost) = (single.probes_sent(), single.probes_lost());
            let outcome = single.measure_outcome(0, t, &mut rng, None);
            let (sent, lost) = (single.probes_sent() - sent, single.probes_lost() - lost);
            record_one(&mut expected, outcome, sent, lost);
            values.push(outcome.value_or(single.config().timeout()));
        }
        assert_eq!(out, values);
        assert_eq!(obs.to_json(), expected.to_json());
        for key in ["probe.timeouts", "probe.unreachable"] {
            assert!(obs.metrics.counter(key) > 0, "{key}");
        }

        // A retried batch on the shared stream records what one
        // retried measurement per cell records.
        let policy = RetryPolicy::default().retries(2);
        let pair = |r: usize, c: usize| (r % 7, (r + c + 1) % 7);
        let batched = Prober::with_faults(&m, config, faults.clone());
        let mut obs = Obs::new();
        let mut rng = StdRng::seed_from_u64(8);
        let mut draws = Draws::Shared(Some(&mut obs));
        let (values, observed) =
            batched.measure_batch(7, 3, pair, Some(&policy), &mut draws, &mut rng);
        let single = Prober::with_faults(&m, config, faults);
        let mut expected = Obs::new();
        let mut rng = StdRng::seed_from_u64(8);
        for (i, (&value, &seen)) in values.iter().zip(&observed).enumerate() {
            let (a, b) = pair(i / 3, i % 3);
            let outcome = single.measure_retry(a, b, &policy, &mut rng, Some(&mut expected));
            assert_eq!((value, seen), (outcome.value_or(0.0), outcome.is_ok()));
        }
        assert_eq!(obs.to_json(), expected.to_json());
        for key in ["probe.retries", "probe.gave_up"] {
            assert!(obs.metrics.counter(key) > 0, "{key}");
        }

        // Nothing measured, nothing recorded.
        let mut empty = Obs::new();
        let mut rng = StdRng::seed_from_u64(3);
        batched.measure_all(0, &[], &mut rng, &mut out, Some(&mut empty));
        assert!(out.is_empty());
        assert!(empty.metrics.is_empty());
    }

    #[test]
    fn per_row_batch_counts_what_its_measurements_count_one_by_one() {
        // A lossy batch wider than one span, with and without retries:
        // the counters after the span-wise adds equal those of a second
        // prober replaying every row's stream through the public
        // per-measurement calls, at any thread count.
        let m = paper_figure1();
        let nodes = m.len();
        let config = ProbeConfig::default().loss_rate(0.4);
        let rows = 2 * DEFAULT_CHUNK + 7;
        let pair = |r: usize, c: usize| (r % nodes, c % nodes);
        let policy = RetryPolicy::default();
        for policy in [None, Some(&policy)] {
            let replay = Prober::new(&m, config);
            let master: u64 = StdRng::seed_from_u64(9).gen();
            let mut expected = Vec::new();
            for r in 0..rows {
                let mut rng = StdRng::seed_from_u64(derive_seed(master, r as u64));
                for c in 0..3 {
                    let (a, b) = pair(r, c);
                    expected.push(match policy {
                        None => replay.measure(a, b, &mut rng, None),
                        Some(p) => replay.measure_retry(a, b, p, &mut rng, None).value_or(0.0),
                    });
                }
            }
            for threads in [1, 2] {
                ecg_par::set_max_threads(Some(threads));
                let batch = Prober::new(&m, config);
                let mut rng = StdRng::seed_from_u64(9);
                let (values, _) =
                    batch.measure_batch(rows, 3, pair, policy, &mut Draws::PerRow, &mut rng);
                ecg_par::set_max_threads(None);
                assert_eq!(values, expected);
                assert_eq!(batch.probes_sent(), replay.probes_sent());
                assert_eq!(batch.probes_lost(), replay.probes_lost());
                assert!(batch.probes_lost() > 0);
                assert_eq!(batch.retries(), replay.retries());
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn bad_loss_rate_rejected() {
        let _ = ProbeConfig::default().loss_rate(1.0);
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn bad_timeout_rejected() {
        let _ = ProbeConfig::default().timeout_ms(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let _ = ProbeConfig::default().probes_per_measurement(0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = ProbeConfig::default().noise_sigma(-0.1);
    }
}
