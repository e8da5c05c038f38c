//! Correlated regional flash-crowd workload preset.
//!
//! The sporting-event preset's flash crowd ([`RateModulation::FlashCrowd`])
//! multiplies *every* cache's request rate uniformly. Real flash crowds
//! are lumpier: a regional event (a local final, a breaking story) sends
//! a **subset of regions** into surge, and within the surge everyone
//! hammers the **same few documents** — exactly the situation where
//! in-group replica placement matters, because the affected groups' hot
//! set no longer fits behind a single holder.
//!
//! This preset models that shape:
//!
//! * caches are split into `regions` contiguous blocks (cache `c`
//!   belongs to region `c · regions / caches`, matching how the
//!   topology generator lays transit-stub domains out in id order);
//! * the first `affected_regions` blocks surge: their request rate
//!   multiplies by `surge_multiplier` inside the surge window;
//! * during the surge, an affected cache redirects each request with
//!   probability `hot_share` onto a small shared **hot set** (the top
//!   `hot_docs` catalog ranks, Zipf-weighted, *without* the per-cache
//!   rotation) — so the surge is correlated across the whole region;
//! * outside the window — and at unaffected caches always — requests
//!   follow the usual Zipf-plus-similarity rule of
//!   [`RequestConfig::generate`](crate::requests::RequestConfig::generate).
//!
//! Generation threads a single caller-supplied RNG through the caches in
//! id order, so a fixed seed reproduces the trace bit for bit.

use crate::documents::{CatalogConfig, DocId, DocumentCatalog};
use crate::requests::{RateModulation, Request};
use crate::trace::{merge_streams, TraceEvent};
use crate::updates::{generate_updates, Update};
use crate::zipf::ZipfSampler;
use rand::Rng;

/// A complete regional flash-crowd workload: catalog plus generated
/// request and update streams.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionalFlashCrowdWorkload {
    /// The document catalog (the hot set is its head: ranks
    /// `0..hot_docs`).
    pub catalog: DocumentCatalog,
    /// Time-sorted client requests.
    pub requests: Vec<Request>,
    /// Time-sorted origin updates.
    pub updates: Vec<Update>,
}

impl RegionalFlashCrowdWorkload {
    /// Merges the request and update streams into a single trace.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        merge_streams(&self.requests, &self.updates)
    }
}

/// Builder for the regional flash-crowd preset.
///
/// # Examples
///
/// ```
/// use ecg_workload::RegionalFlashCrowdConfig;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let config = RegionalFlashCrowdConfig::default()
///     .caches(12)
///     .duration_ms(60_000.0);
/// let workload = config.generate(&mut rng);
/// assert!(!workload.requests.is_empty());
/// assert!(config.is_affected(0) && !config.is_affected(11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalFlashCrowdConfig {
    documents: usize,
    caches: usize,
    regions: usize,
    affected_regions: usize,
    duration_ms: f64,
    rate_per_sec_per_cache: f64,
    surge_multiplier: f64,
    surge_start_frac: f64,
    surge_end_frac: f64,
    hot_docs: usize,
    hot_share: f64,
    similarity: f64,
    zipf_exponent: f64,
}

impl Default for RegionalFlashCrowdConfig {
    /// 2 000 documents, 60 caches in 6 regions with 2 affected, a
    /// 10-minute window surging 6× over its middle fifth, a 24-document
    /// hot set drawing 75% of surge traffic, 85% baseline similarity.
    fn default() -> Self {
        RegionalFlashCrowdConfig {
            documents: 2_000,
            caches: 60,
            regions: 6,
            affected_regions: 2,
            duration_ms: 600_000.0,
            rate_per_sec_per_cache: 2.0,
            surge_multiplier: 6.0,
            surge_start_frac: 0.4,
            surge_end_frac: 0.6,
            hot_docs: 24,
            hot_share: 0.75,
            similarity: 0.85,
            zipf_exponent: 1.1,
        }
    }
}

impl RegionalFlashCrowdConfig {
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

    /// Sets the baseline per-cache request rate in requests/second.
    pub fn rate_per_sec_per_cache(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.rate_per_sec_per_cache = rate;
        self
    }

    /// The region of cache `c`: contiguous id blocks, matching the
    /// transit-stub generator's domain layout.
    pub fn region_of(&self, cache: usize) -> usize {
        assert!(cache < self.caches, "cache {cache} out of range");
        cache * self.regions / self.caches
    }

    /// Whether cache `c` belongs to a surging region.
    pub fn is_affected(&self, cache: usize) -> bool {
        self.region_of(cache) < self.affected_regions
    }

    /// The surge window in milliseconds.
    pub fn surge_window_ms(&self) -> (f64, f64) {
        (
            self.duration_ms * self.surge_start_frac,
            self.duration_ms * self.surge_end_frac,
        )
    }

    /// The catalog configuration this preset uses: news-flash sizes with
    /// a 20% dynamic fraction updating every ~30 s (live coverage of the
    /// event driving the crowd).
    pub fn catalog_config(&self) -> CatalogConfig {
        CatalogConfig::default()
            .documents(self.documents)
            .median_size_bytes(8 * 1024)
            .dynamic_fraction(0.2)
            .dynamic_update_rate_per_sec(1.0 / 30.0)
            .static_update_rate_per_sec(1.0 / 86_400.0)
    }

    /// Generates the full workload: catalog, requests, updates.
    ///
    /// # Panics
    ///
    /// Panics if `affected_regions > regions` or `hot_docs > documents`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> RegionalFlashCrowdWorkload {
        assert!(
            self.affected_regions <= self.regions,
            "affected regions exceed region count"
        );
        assert!(
            self.hot_docs <= self.documents,
            "hot set exceeds the catalog"
        );
        let catalog = self.catalog_config().generate(rng);
        let requests = self.generate_requests(rng);
        let updates = generate_updates(&catalog, self.duration_ms, rng);
        RegionalFlashCrowdWorkload {
            catalog,
            requests,
            updates,
        }
    }

    /// Generates just the request stream (time-sorted).
    fn generate_requests<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Request> {
        let n_docs = self.documents;
        let zipf = ZipfSampler::new(n_docs, self.zipf_exponent);
        let hot_zipf = ZipfSampler::new(self.hot_docs, self.zipf_exponent);
        let (surge_start, surge_end) = self.surge_window_ms();
        let surge = RateModulation::FlashCrowd {
            start_ms: surge_start,
            end_ms: surge_end,
            multiplier: self.surge_multiplier,
        };

        // Per-cache rotation offsets, exactly as RequestConfig::generate.
        let offsets: Vec<usize> = (0..self.caches).map(|_| rng.gen_range(0..n_docs)).collect();

        let mut requests = Vec::new();
        for (cache, &offset) in offsets.iter().enumerate() {
            let affected = self.is_affected(cache);
            let max_factor = if affected { surge.max_factor() } else { 1.0 };
            let max_rate_per_ms = self.rate_per_sec_per_cache * max_factor / 1_000.0;
            let mut t = 0.0f64;
            loop {
                // Exponential gap at the envelope rate, then thinning —
                // the same non-homogeneous Poisson realization as
                // RequestConfig::generate, but with a per-cache envelope.
                let u: f64 = 1.0 - rng.gen::<f64>();
                t += -u.ln() / max_rate_per_ms;
                if t >= self.duration_ms {
                    break;
                }
                let factor = if affected { surge.factor(t) } else { 1.0 };
                if rng.gen::<f64>() >= factor / max_factor {
                    continue;
                }
                let surging = affected && t >= surge_start && t < surge_end;
                let doc = if surging && rng.gen::<f64>() < self.hot_share {
                    // Correlated: every affected cache draws from the
                    // same hot ranks, no rotation.
                    hot_zipf.sample(rng)
                } else {
                    let rank = zipf.sample(rng);
                    if rng.gen::<f64>() < self.similarity {
                        rank
                    } else {
                        (rank + offset) % n_docs
                    }
                };
                requests.push(Request {
                    time_ms: t,
                    cache,
                    doc: DocId(doc),
                });
            }
        }
        requests.sort_by(|a, b| {
            a.time_ms
                .partial_cmp(&b.time_ms)
                .expect("times are not NaN")
        });
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> RegionalFlashCrowdConfig {
        RegionalFlashCrowdConfig {
            regions: 4,
            affected_regions: 1,
            ..RegionalFlashCrowdConfig::default()
        }
        .documents(300)
        .caches(12)
        .duration_ms(120_000.0)
        .rate_per_sec_per_cache(4.0)
    }

    #[test]
    fn generates_consistent_sorted_workload() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = small().generate(&mut rng);
        assert_eq!(w.catalog.len(), 300);
        assert!(!w.requests.is_empty());
        assert!(!w.updates.is_empty());
        assert!(w.requests.iter().all(|r| r.cache < 12));
        assert!(w.requests.iter().all(|r| r.doc.index() < 300));
        let trace = w.merged_trace();
        for pair in trace.windows(2) {
            assert!(pair[0].time_ms() <= pair[1].time_ms());
        }
    }

    #[test]
    fn regions_are_contiguous_blocks() {
        let cfg = small();
        assert_eq!(cfg.region_of(0), 0);
        assert_eq!(cfg.region_of(2), 0);
        assert_eq!(cfg.region_of(3), 1);
        assert_eq!(cfg.region_of(11), 3);
        assert!(cfg.is_affected(2));
        assert!(!cfg.is_affected(3));
    }

    #[test]
    fn surge_hits_only_affected_regions() {
        let cfg = small();
        let mut rng = StdRng::seed_from_u64(2);
        let w = cfg.generate(&mut rng);
        let (start, end) = cfg.surge_window_ms();
        let window = end - start;
        // Requests per cache inside vs outside the window, normalized by
        // window length.
        let in_rate = |caches: &dyn Fn(usize) -> bool| {
            let inside = w
                .requests
                .iter()
                .filter(|r| caches(r.cache) && r.time_ms >= start && r.time_ms < end)
                .count() as f64
                / window;
            let outside = w
                .requests
                .iter()
                .filter(|r| caches(r.cache) && (r.time_ms < start || r.time_ms >= end))
                .count() as f64
                / (cfg.duration_ms - window);
            inside / outside
        };
        let affected_ratio = in_rate(&|c| cfg.is_affected(c));
        let calm_ratio = in_rate(&|c| !cfg.is_affected(c));
        assert!(affected_ratio > 4.0, "affected ratio {affected_ratio}");
        assert!((0.7..1.3).contains(&calm_ratio), "calm ratio {calm_ratio}");
    }

    #[test]
    fn surge_concentrates_on_the_shared_hot_set() {
        let cfg = RegionalFlashCrowdConfig {
            hot_docs: 10,
            hot_share: 0.8,
            ..small()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let w = cfg.generate(&mut rng);
        let (start, end) = cfg.surge_window_ms();
        let surge_reqs: Vec<_> = w
            .requests
            .iter()
            .filter(|r| cfg.is_affected(r.cache) && r.time_ms >= start && r.time_ms < end)
            .collect();
        let hot = surge_reqs.iter().filter(|r| r.doc.index() < 10).count();
        let share = hot as f64 / surge_reqs.len() as f64;
        // hot_share 0.8 directly, plus whatever the baseline Zipf head
        // contributes on the remaining 20%.
        assert!(share > 0.8, "hot share {share}");
        // Every affected cache individually leans on the same set.
        for cache in 0..3 {
            let mine: Vec<_> = surge_reqs.iter().filter(|r| r.cache == cache).collect();
            let hot = mine.iter().filter(|r| r.doc.index() < 10).count();
            assert!(
                hot as f64 / mine.len() as f64 > 0.6,
                "cache {cache}: {hot}/{}",
                mine.len()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| small().generate(&mut StdRng::seed_from_u64(seed));
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    #[should_panic(expected = "affected regions")]
    fn too_many_affected_regions_rejected() {
        let cfg = RegionalFlashCrowdConfig {
            affected_regions: 9,
            ..small()
        };
        let _ = cfg.generate(&mut StdRng::seed_from_u64(0));
    }
}
