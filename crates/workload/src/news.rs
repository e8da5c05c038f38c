//! News-site workload preset.
//!
//! A second dynamic-content profile alongside the sporting-event
//! preset, for checking that scheme comparisons are not artifacts of
//! one workload shape:
//!
//! * larger catalog with *milder* popularity skew (long-tail article
//!   archive),
//! * diurnal request modulation instead of a flash crowd,
//! * a small, intensely updated hot set (front page, tickers) — 3% of
//!   documents updating every ~60 s,
//! * lower cross-region similarity (regional editions differ more than
//!   Olympics interest did).

use crate::documents::{CatalogConfig, DocumentCatalog};
use crate::requests::{RateModulation, Request, RequestConfig};
use crate::trace::{merge_streams, TraceEvent};
use crate::updates::{generate_updates, Update};
use rand::Rng;

/// A generated news-site workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NewsSiteWorkload {
    /// The document catalog (front-page/ticker documents first).
    pub catalog: DocumentCatalog,
    /// Time-sorted client requests.
    pub requests: Vec<Request>,
    /// Time-sorted origin updates.
    pub updates: Vec<Update>,
}

impl NewsSiteWorkload {
    /// Merges requests and updates into one time-sorted trace.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        merge_streams(&self.requests, &self.updates)
    }
}

/// Builder for the news-site preset.
///
/// # Examples
///
/// ```
/// use ecg_workload::NewsSiteConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let workload = NewsSiteConfig::default()
///     .caches(8)
///     .duration_ms(20_000.0)
///     .generate(&mut rng);
/// assert!(!workload.requests.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewsSiteConfig {
    documents: usize,
    caches: usize,
    duration_ms: f64,
    rate_per_sec_per_cache: f64,
    similarity: f64,
}

impl Default for NewsSiteConfig {
    /// 5 000 documents, 50 caches, a 10-minute window, 2 req/s per
    /// cache, 70% similarity.
    fn default() -> Self {
        NewsSiteConfig {
            documents: 5_000,
            caches: 50,
            duration_ms: 600_000.0,
            rate_per_sec_per_cache: 2.0,
            similarity: 0.7,
        }
    }
}

impl NewsSiteConfig {
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

    /// Sets the number of edge caches.
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

    /// The catalog configuration: long-tail archive, small hot dynamic
    /// set (front page and tickers) updating every ~60 s.
    pub fn catalog_config(&self) -> CatalogConfig {
        CatalogConfig::default()
            .documents(self.documents)
            .median_size_bytes(12 * 1024)
            .dynamic_fraction(0.03)
            .dynamic_update_rate_per_sec(1.0 / 60.0)
            .static_update_rate_per_sec(1.0 / (7.0 * 86_400.0))
    }

    /// The request configuration: mild skew, diurnal cycle.
    pub fn request_config(&self) -> RequestConfig {
        RequestConfig::default()
            .rate_per_sec_per_cache(self.rate_per_sec_per_cache)
            .zipf_exponent(0.75)
            .similarity(self.similarity)
            .modulation(RateModulation::Diurnal {
                // One "day" per trace window so the cycle is visible in
                // short runs.
                period_ms: self.duration_ms,
                amplitude: 0.5,
            })
    }

    /// Generates the full workload.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> NewsSiteWorkload {
        let catalog = self.catalog_config().generate(rng);
        let requests = self
            .request_config()
            .generate(&catalog, self.caches, self.duration_ms, rng);
        let updates = generate_updates(&catalog, self.duration_ms, rng);
        NewsSiteWorkload {
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

    fn small() -> NewsSiteConfig {
        NewsSiteConfig::default()
            .documents(500)
            .caches(6)
            .duration_ms(120_000.0)
    }

    #[test]
    fn generates_consistent_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = small().generate(&mut rng);
        assert_eq!(w.catalog.len(), 500);
        assert!(!w.requests.is_empty());
        assert!(w.requests.iter().all(|r| r.cache < 6));
        let trace = w.merged_trace();
        for pair in trace.windows(2) {
            assert!(pair[0].time_ms() <= pair[1].time_ms());
        }
    }

    #[test]
    fn hot_set_is_small_and_updated() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = small().generate(&mut rng);
        let cutoff = 500 * 3 / 100; // 3% dynamic
        let hot_updates = w.updates.iter().filter(|u| u.doc.index() < cutoff).count();
        assert!(
            hot_updates as f64 / w.updates.len().max(1) as f64 > 0.9,
            "{hot_updates}/{}",
            w.updates.len()
        );
    }

    #[test]
    fn popularity_is_milder_than_sporting_preset() {
        // Compare top-document request share between presets at matched
        // volume: news must be flatter.
        let mut rng = StdRng::seed_from_u64(3);
        let news = NewsSiteConfig {
            similarity: 1.0,
            ..small()
        }
        .generate(&mut rng);
        let sport = crate::sporting::SportingEventConfig::default()
            .documents(500)
            .caches(6)
            .duration_ms(120_000.0)
            .flash_crowd(false)
            .generate(&mut rng);
        let top_share = |reqs: &[crate::requests::Request]| -> f64 {
            let top = reqs.iter().filter(|r| r.doc.index() == 0).count();
            top as f64 / reqs.len() as f64
        };
        assert!(
            top_share(&news.requests) < top_share(&sport.requests),
            "news {} vs sport {}",
            top_share(&news.requests),
            top_share(&sport.requests)
        );
    }

    #[test]
    fn diurnal_cycle_shapes_volume() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = small().generate(&mut rng);
        // The diurnal peak is in the first half (sin > 0), the trough
        // in the second.
        let first: usize = w.requests.iter().filter(|r| r.time_ms < 60_000.0).count();
        let second = w.requests.len() - first;
        assert!(first as f64 > 1.2 * second as f64, "{first} vs {second}");
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| small().generate(&mut StdRng::seed_from_u64(seed));
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }
}
