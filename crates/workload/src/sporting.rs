//! Sporting-event workload preset.
//!
//! The paper's datasets "were derived from a real trace logged at a major
//! IBM sporting and event web site" — the 2000 Sydney Olympic Games site.
//! That trace is proprietary, so this preset reproduces its published
//! characteristics synthetically (the substitution is documented in
//! DESIGN.md):
//!
//! * highly skewed popularity (medal tables and finals dominate),
//! * a meaningful fraction of *dynamic* documents — scoreboards and
//!   result pages that update continually,
//! * flash crowds around marquee events,
//! * strong cross-region similarity of interest (everyone watches the
//!   same finals), which is exactly the paper's standing assumption
//!   about request patterns.

use crate::documents::{CatalogConfig, DocumentCatalog};
use crate::requests::{RateModulation, Request, RequestConfig};
use crate::trace::{merge_streams, TraceEvent};
use crate::updates::{generate_updates, Update};
use rand::Rng;

/// A complete synthetic sporting-event workload: catalog plus generated
/// request and update streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SportingEventWorkload {
    /// The document catalog (scoreboards first: they are both the most
    /// popular and the most frequently updated documents).
    pub catalog: DocumentCatalog,
    /// Time-sorted client requests.
    pub requests: Vec<Request>,
    /// Time-sorted origin updates.
    pub updates: Vec<Update>,
}

impl SportingEventWorkload {
    /// Merges the request and update streams into a single trace.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        merge_streams(&self.requests, &self.updates)
    }
}

/// Builder for the sporting-event preset.
///
/// # Examples
///
/// ```
/// use ecg_workload::SportingEventConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let workload = SportingEventConfig::default()
///     .caches(10)
///     .duration_ms(30_000.0)
///     .generate(&mut rng);
/// assert!(!workload.requests.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SportingEventConfig {
    documents: usize,
    caches: usize,
    duration_ms: f64,
    rate_per_sec_per_cache: f64,
    similarity: f64,
    flash_crowd: bool,
}

impl Default for SportingEventConfig {
    /// 2 000 documents, 50 caches, a 10-minute window, 2 req/s per cache,
    /// 85% similarity, flash crowd enabled in the middle fifth of the
    /// window.
    fn default() -> Self {
        SportingEventConfig {
            documents: 2_000,
            caches: 50,
            duration_ms: 600_000.0,
            rate_per_sec_per_cache: 2.0,
            similarity: 0.85,
            flash_crowd: true,
        }
    }
}

impl SportingEventConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the catalog size.
    pub fn documents(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one document");
        self.documents = n;
        self
    }

    /// Sets the number of edge caches receiving requests.
    pub fn caches(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one cache");
        self.caches = n;
        self
    }

    /// Sets the trace duration in milliseconds.
    pub fn duration_ms(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "duration must be positive");
        self.duration_ms = ms;
        self
    }

    /// Sets the per-cache request rate in requests/second.
    pub fn rate_per_sec_per_cache(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.rate_per_sec_per_cache = rate;
        self
    }

    /// Enables or disables the mid-trace flash crowd.
    pub fn flash_crowd(mut self, enabled: bool) -> Self {
        self.flash_crowd = enabled;
        self
    }

    /// The catalog configuration this preset uses: Olympics-like sizes
    /// and a 15% dynamic (scoreboard) fraction updating every ~20 s.
    pub fn catalog_config(&self) -> CatalogConfig {
        CatalogConfig::default()
            .documents(self.documents)
            .median_size_bytes(6 * 1024)
            .dynamic_fraction(0.15)
            .dynamic_update_rate_per_sec(1.0 / 20.0)
            .static_update_rate_per_sec(1.0 / 86_400.0)
    }

    /// The request configuration this preset uses.
    pub fn request_config(&self) -> RequestConfig {
        let mut cfg = RequestConfig::default()
            .rate_per_sec_per_cache(self.rate_per_sec_per_cache)
            .zipf_exponent(1.1)
            .similarity(self.similarity);
        if self.flash_crowd {
            cfg = cfg.modulation(RateModulation::FlashCrowd {
                start_ms: self.duration_ms * 0.4,
                end_ms: self.duration_ms * 0.6,
                multiplier: 4.0,
            });
        }
        cfg
    }

    /// Generates the full workload: catalog, requests, updates.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> SportingEventWorkload {
        let catalog = self.catalog_config().generate(rng);
        let requests = self
            .request_config()
            .generate(&catalog, self.caches, self.duration_ms, rng);
        let updates = generate_updates(&catalog, self.duration_ms, rng);
        SportingEventWorkload {
            catalog,
            requests,
            updates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> SportingEventConfig {
        SportingEventConfig::default()
            .documents(200)
            .caches(5)
            .duration_ms(60_000.0)
    }

    #[test]
    fn generates_consistent_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = small().generate(&mut rng);
        assert_eq!(w.catalog.len(), 200);
        assert!(!w.requests.is_empty());
        assert!(!w.updates.is_empty());
        assert!(w.requests.iter().all(|r| r.doc.index() < 200));
        assert!(w.updates.iter().all(|u| u.doc.index() < 200));
    }

    #[test]
    fn merged_trace_is_sorted() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = small().generate(&mut rng);
        let trace = w.merged_trace();
        assert_eq!(trace.len(), w.requests.len() + w.updates.len());
        for pair in trace.windows(2) {
            assert!(pair[0].time_ms() <= pair[1].time_ms());
        }
    }

    #[test]
    fn updates_hit_the_scoreboard_fraction() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = small().generate(&mut rng);
        // Dynamic fraction is 15%: (nearly) all updates land in the top
        // 15% of the catalog; static docs update ~once/day so a 1-minute
        // window should see none.
        let cutoff = 200 * 15 / 100;
        let hot = w.updates.iter().filter(|u| u.doc.index() < cutoff).count();
        assert!(
            hot as f64 / w.updates.len() as f64 > 0.95,
            "{hot}/{}",
            w.updates.len()
        );
    }

    #[test]
    fn flash_crowd_toggle_changes_volume_shape() {
        let volume_mid = |flash: bool| {
            let mut rng = StdRng::seed_from_u64(4);
            let w = small().flash_crowd(flash).generate(&mut rng);
            w.requests
                .iter()
                .filter(|r| r.time_ms >= 24_000.0 && r.time_ms < 36_000.0)
                .count()
        };
        assert!(volume_mid(true) as f64 > 2.0 * volume_mid(false) as f64);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| small().generate(&mut StdRng::seed_from_u64(seed));
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_rejected() {
        let _ = SportingEventConfig::default().duration_ms(0.0);
    }
}
