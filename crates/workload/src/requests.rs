//! Client request stream generation.
//!
//! The caches in the paper's simulator "are driven by request-log files"
//! derived from the 2000 Sydney Olympics IBM site. That trace is
//! proprietary, so this module generates the synthetic equivalent: each
//! edge cache receives a Poisson stream of requests over a Zipf document
//! popularity distribution, with a **similarity** knob controlling how
//! much the caches' request patterns overlap (the paper assumes "the
//! request patterns of the edge caches exhibit considerable degree of
//! similarity") and optional non-stationary rate modulation (diurnal
//! cycles, flash crowds).

use crate::documents::{DocId, DocumentCatalog};
use crate::zipf::ZipfSampler;
use rand::Rng;

/// One client request arriving at an edge cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time in milliseconds since the start of the run.
    pub time_ms: f64,
    /// Index of the edge cache the request arrives at.
    pub cache: usize,
    /// The requested document.
    pub doc: DocId,
}

/// Time-varying request rate envelope.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RateModulation {
    /// Stationary arrivals. The default.
    #[default]
    Constant,
    /// Sinusoidal day/night cycle: the factor swings between
    /// `1 - amplitude` and `1 + amplitude` over each period.
    Diurnal {
        /// Cycle length in milliseconds.
        period_ms: f64,
        /// Swing amplitude in `[0, 1)`.
        amplitude: f64,
    },
    /// A flash crowd: rate multiplies by `multiplier` between `start_ms`
    /// and `end_ms` — the gold-medal-final moment of a sporting-event
    /// site.
    FlashCrowd {
        /// Surge start, ms.
        start_ms: f64,
        /// Surge end, ms.
        end_ms: f64,
        /// Rate multiplier during the surge (≥ 1).
        multiplier: f64,
    },
}

impl RateModulation {
    /// Rate multiplier at time `t_ms` (always ≥ 0).
    pub fn factor(&self, t_ms: f64) -> f64 {
        match *self {
            RateModulation::Constant => 1.0,
            RateModulation::Diurnal {
                period_ms,
                amplitude,
            } => 1.0 + amplitude * (std::f64::consts::TAU * t_ms / period_ms).sin(),
            RateModulation::FlashCrowd {
                start_ms,
                end_ms,
                multiplier,
            } => {
                if t_ms >= start_ms && t_ms < end_ms {
                    multiplier
                } else {
                    1.0
                }
            }
        }
    }

    /// Upper bound of the factor over all times (used for thinning).
    pub fn max_factor(&self) -> f64 {
        match *self {
            RateModulation::Constant => 1.0,
            RateModulation::Diurnal { amplitude, .. } => 1.0 + amplitude,
            RateModulation::FlashCrowd { multiplier, .. } => multiplier.max(1.0),
        }
    }
}

/// Configuration of per-cache request streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestConfig {
    rate_per_sec_per_cache: f64,
    zipf_exponent: f64,
    similarity: f64,
    modulation: RateModulation,
}

impl Default for RequestConfig {
    /// Two requests/second per cache, Zipf exponent 0.9, 80% pattern
    /// similarity, stationary arrivals.
    fn default() -> Self {
        RequestConfig {
            rate_per_sec_per_cache: 2.0,
            zipf_exponent: 0.9,
            similarity: 0.8,
            modulation: RateModulation::Constant,
        }
    }
}

impl RequestConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the Poisson arrival rate per cache, in requests/second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn rate_per_sec_per_cache(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.rate_per_sec_per_cache = rate;
        self
    }

    /// Sets the Zipf popularity exponent.
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "exponent must be >= 0");
        self.zipf_exponent = s;
        self
    }

    /// Sets the request pattern similarity across caches, in `[0, 1]`.
    ///
    /// With probability `similarity` a request draws from the shared
    /// global popularity ranking; otherwise it draws from a cache-local
    /// rotation of the catalog, so different caches favour different
    /// documents.
    pub fn similarity(mut self, similarity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&similarity),
            "similarity must be in [0, 1]"
        );
        self.similarity = similarity;
        self
    }

    /// Sets the time-varying rate envelope.
    pub fn modulation(mut self, modulation: RateModulation) -> Self {
        self.modulation = modulation;
        self
    }

    /// The configured Zipf popularity exponent. Consumers that share one
    /// [`ZipfSampler`] across shards (see
    /// [`RequestConfig::stream_cache`]) build it with this value.
    pub fn zipf_exponent_value(&self) -> f64 {
        self.zipf_exponent
    }

    /// Generates the merged, time-sorted request stream for `caches`
    /// edge caches over `duration_ms` milliseconds.
    ///
    /// Arrivals are a non-homogeneous Poisson process realized by
    /// thinning; document choice is Zipf over the catalog with the
    /// similarity rule above.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or `caches == 0`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        catalog: &DocumentCatalog,
        caches: usize,
        duration_ms: f64,
        rng: &mut R,
    ) -> Vec<Request> {
        assert!(!catalog.is_empty(), "catalog must contain documents");
        assert!(caches > 0, "need at least one cache");
        let zipf = ZipfSampler::new(catalog.len(), self.zipf_exponent);
        let n_docs = catalog.len();

        // Per-cache rotation offsets implement dissimilarity cheaply: a
        // cache's "local" popularity ranking is the global one rotated by
        // a random offset, so local hot sets differ but stay Zipf-shaped.
        let offsets: Vec<usize> = (0..caches).map(|_| rng.gen_range(0..n_docs)).collect();

        let max_rate_per_ms = self.rate_per_sec_per_cache * self.modulation.max_factor() / 1_000.0;
        let mut requests = Vec::new();
        for (cache, &offset) in offsets.iter().enumerate() {
            let mut t = 0.0f64;
            loop {
                // Exponential gap at the envelope rate.
                let u: f64 = 1.0 - rng.gen::<f64>();
                t += -u.ln() / max_rate_per_ms;
                if t >= duration_ms {
                    break;
                }
                // Thinning: accept with probability factor(t)/max_factor.
                let accept = self.modulation.factor(t) / self.modulation.max_factor();
                if rng.gen::<f64>() >= accept {
                    continue;
                }
                let rank = zipf.sample(rng);
                let doc = if rng.gen::<f64>() < self.similarity {
                    rank
                } else {
                    (rank + offset) % n_docs
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

    /// Eager, thread-count-invariant request generation from an explicit
    /// master seed: every cache's stream is realized by
    /// [`RequestConfig::stream_cache`] on an [`ecg_par`] worker, then
    /// the streams are concatenated in cache order and stably sorted by
    /// time (so simultaneous arrivals order by ascending cache id —
    /// exactly the order the shards of `ecg-sim`'s `StreamedWorkload`
    /// reproduce without ever materializing this vector).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or `caches == 0`.
    pub fn generate_with_master(
        &self,
        catalog: &DocumentCatalog,
        caches: usize,
        duration_ms: f64,
        master: u64,
    ) -> Vec<Request> {
        assert!(!catalog.is_empty(), "catalog must contain documents");
        assert!(caches > 0, "need at least one cache");
        let zipf = ZipfSampler::new(catalog.len(), self.zipf_exponent);

        let per_cache: Vec<Vec<Request>> = ecg_par::par_map((0..caches).collect(), |cache| {
            self.stream_cache(&zipf, cache, master, duration_ms)
                .collect()
        });
        let mut requests: Vec<Request> = per_cache.into_iter().flatten().collect();
        // Stable sort: simultaneous arrivals keep cache order, exactly
        // like the sequential generator's concatenation-then-sort.
        requests.sort_by(|a, b| {
            a.time_ms
                .partial_cmp(&b.time_ms)
                .expect("times are not NaN")
        });
        requests
    }

    /// One cache's request stream as a lazy iterator — the derived-seed
    /// streaming primitive behind [`RequestConfig::generate_with_master`].
    ///
    /// The stream is a pure function of `(master, cache, config,
    /// catalog size)`: it seeds an [`rand::rngs::StdRng`] with
    /// [`ecg_par::derive_seed`]`(master, cache)`, draws the cache's
    /// rotation offset, then yields thinned non-homogeneous Poisson
    /// arrivals until `duration_ms`. Any shard can therefore (re)build
    /// exactly its own caches' arrivals from the master seed alone —
    /// no shared generator state, no materialized global trace — which
    /// is what lets `ecg-sim` run 50k-cache, million-request replays
    /// in bounded memory.
    ///
    /// `zipf` must be built over the catalog's document count with this
    /// config's exponent (it is shared read-only across shards; see
    /// [`ZipfSampler`]).
    ///
    /// # Panics
    ///
    /// Panics if `zipf` is empty.
    pub fn stream_cache<'a>(
        &self,
        zipf: &'a ZipfSampler,
        cache: usize,
        master: u64,
        duration_ms: f64,
    ) -> RequestStream<'a> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        assert!(!zipf.is_empty(), "catalog must contain documents");
        let mut rng = StdRng::seed_from_u64(ecg_par::derive_seed(master, cache as u64));
        let offset = rng.gen_range(0..zipf.len());
        RequestStream {
            config: *self,
            zipf,
            cache,
            offset,
            duration_ms,
            max_rate_per_ms: self.rate_per_sec_per_cache * self.modulation.max_factor() / 1_000.0,
            t: 0.0,
            rng,
            done: false,
        }
    }
}

/// Lazy per-cache request stream created by
/// [`RequestConfig::stream_cache`].
///
/// Yields one cache's arrivals in time order and stops (fused) once the
/// next arrival would land at or past the configured horizon. Dropping
/// and re-creating the stream from the same `(master, cache)` pair
/// replays it identically — resumability comes from derived seeding,
/// not from checkpointing generator state.
#[derive(Debug, Clone)]
pub struct RequestStream<'a> {
    config: RequestConfig,
    zipf: &'a ZipfSampler,
    cache: usize,
    offset: usize,
    duration_ms: f64,
    max_rate_per_ms: f64,
    t: f64,
    rng: rand::rngs::StdRng,
    done: bool,
}

impl RequestStream<'_> {
    /// The cache whose arrivals this stream yields.
    pub fn cache(&self) -> usize {
        self.cache
    }
}

impl Iterator for RequestStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.done {
            return None;
        }
        let n_docs = self.zipf.len();
        loop {
            // Exponential gap at the envelope rate.
            let u: f64 = 1.0 - self.rng.gen::<f64>();
            self.t += -u.ln() / self.max_rate_per_ms;
            if self.t >= self.duration_ms {
                self.done = true;
                return None;
            }
            // Thinning: accept with probability factor(t)/max_factor.
            let accept =
                self.config.modulation.factor(self.t) / self.config.modulation.max_factor();
            if self.rng.gen::<f64>() >= accept {
                continue;
            }
            let rank = self.zipf.sample(&mut self.rng);
            let doc = if self.rng.gen::<f64>() < self.config.similarity {
                rank
            } else {
                (rank + self.offset) % n_docs
            };
            return Some(Request {
                time_ms: self.t,
                cache: self.cache,
                doc: DocId(doc),
            });
        }
    }
}

impl std::iter::FusedIterator for RequestStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::documents::CatalogConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(n: usize, seed: u64) -> DocumentCatalog {
        CatalogConfig::default()
            .documents(n)
            .generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn stream_is_sorted_and_in_range() {
        let cat = catalog(100, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let reqs = RequestConfig::default().generate(&cat, 5, 60_000.0, &mut rng);
        assert!(!reqs.is_empty());
        for pair in reqs.windows(2) {
            assert!(pair[0].time_ms <= pair[1].time_ms);
        }
        assert!(reqs.iter().all(|r| r.cache < 5));
        assert!(reqs.iter().all(|r| r.doc.index() < 100));
        assert!(reqs
            .iter()
            .all(|r| r.time_ms >= 0.0 && r.time_ms < 60_000.0));
    }

    #[test]
    fn volume_matches_rate() {
        let cat = catalog(50, 0);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(5.0);
        let mut rng = StdRng::seed_from_u64(2);
        let reqs = cfg.generate(&cat, 4, 100_000.0, &mut rng);
        // 5 requests/s on each of 4 caches for 100 s.
        let expected = 2_000.0;
        let actual = reqs.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.1,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn full_similarity_gives_identical_popularity() {
        // With similarity 1.0 every cache's most-requested doc should be
        // the global rank-0 document.
        let cat = catalog(200, 0);
        let cfg = RequestConfig::default()
            .similarity(1.0)
            .zipf_exponent(1.2)
            .rate_per_sec_per_cache(20.0);
        let mut rng = StdRng::seed_from_u64(3);
        let reqs = cfg.generate(&cat, 3, 200_000.0, &mut rng);
        for cache in 0..3 {
            let mut counts = vec![0usize; 200];
            for r in reqs.iter().filter(|r| r.cache == cache) {
                counts[r.doc.index()] += 1;
            }
            let top = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .expect("non-empty");
            assert_eq!(top, 0, "cache {cache} top doc {top}");
        }
    }

    #[test]
    fn zero_similarity_decorrelates_hot_sets() {
        // With similarity 0 and distinct rotations, at least one pair of
        // caches should disagree on the hottest doc.
        let cat = catalog(500, 0);
        let cfg = RequestConfig::default()
            .similarity(0.0)
            .zipf_exponent(1.2)
            .rate_per_sec_per_cache(20.0);
        let mut rng = StdRng::seed_from_u64(5);
        let reqs = cfg.generate(&cat, 4, 100_000.0, &mut rng);
        let tops: Vec<usize> = (0..4)
            .map(|cache| {
                let mut counts = vec![0usize; 500];
                for r in reqs.iter().filter(|r| r.cache == cache) {
                    counts[r.doc.index()] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .expect("non-empty")
            })
            .collect();
        let all_same = tops.iter().all(|&t| t == tops[0]);
        assert!(!all_same, "tops {tops:?}");
    }

    #[test]
    fn flash_crowd_concentrates_requests() {
        let cat = catalog(50, 0);
        let cfg = RequestConfig::default()
            .rate_per_sec_per_cache(2.0)
            .modulation(RateModulation::FlashCrowd {
                start_ms: 40_000.0,
                end_ms: 60_000.0,
                multiplier: 10.0,
            });
        let mut rng = StdRng::seed_from_u64(6);
        let reqs = cfg.generate(&cat, 2, 100_000.0, &mut rng);
        let surge = reqs
            .iter()
            .filter(|r| r.time_ms >= 40_000.0 && r.time_ms < 60_000.0)
            .count() as f64;
        let calm = reqs.iter().filter(|r| r.time_ms < 20_000.0).count() as f64;
        // The surge window is the same length as the calm window but at
        // 10x the rate.
        assert!(surge > 5.0 * calm, "surge {surge} vs calm {calm}");
    }

    #[test]
    fn diurnal_factor_is_bounded() {
        let m = RateModulation::Diurnal {
            period_ms: 1_000.0,
            amplitude: 0.5,
        };
        for i in 0..100 {
            let f = m.factor(i as f64 * 37.0);
            assert!((0.5..=1.5).contains(&f));
        }
        assert_eq!(m.max_factor(), 1.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let cat = catalog(50, 0);
        let gen = |seed| {
            RequestConfig::default().generate(&cat, 3, 10_000.0, &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(gen(4), gen(4));
    }

    #[test]
    fn par_stream_is_thread_count_invariant() {
        let cat = catalog(80, 0);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(5.0);
        let gen = |threads| {
            ecg_par::set_max_threads(Some(threads));
            let reqs = cfg.generate_with_master(&cat, 6, 20_000.0, 21);
            ecg_par::set_max_threads(None);
            reqs
        };
        let one = gen(1);
        let four = gen(4);
        assert!(!one.is_empty());
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits());
            assert_eq!((a.cache, a.doc), (b.cache, b.doc));
        }
    }

    #[test]
    fn stream_cache_realizes_generate_with_master_per_cache() {
        let cat = catalog(60, 0);
        let cfg = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .modulation(RateModulation::FlashCrowd {
                start_ms: 2_000.0,
                end_ms: 6_000.0,
                multiplier: 5.0,
            });
        let master = 0xBEEF_CAFE;
        let eager = cfg.generate_with_master(&cat, 4, 15_000.0, master);
        let zipf = ZipfSampler::new(cat.len(), 0.9);
        for cache in 0..4 {
            let streamed: Vec<Request> = cfg.stream_cache(&zipf, cache, master, 15_000.0).collect();
            let expected: Vec<Request> =
                eager.iter().filter(|r| r.cache == cache).copied().collect();
            assert_eq!(streamed, expected, "cache {cache} stream diverged");
        }
    }

    #[test]
    fn generate_with_master_output_is_pinned() {
        // Recorded with the binary-search Zipf sampler: the guide table
        // (and anything else under the generator) must not move a bit.
        let cat = catalog(1_500, 0);
        let cfg = RequestConfig::default()
            .rate_per_sec_per_cache(4.0)
            .modulation(RateModulation::FlashCrowd {
                start_ms: 2_000.0,
                end_ms: 6_000.0,
                multiplier: 5.0,
            });
        let reqs = cfg.generate_with_master(&cat, 12, 15_000.0, 0xBEEF_CAFE);
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &reqs {
            for word in [r.time_ms.to_bits(), r.cache as u64, r.doc.index() as u64] {
                fnv = (fnv ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(reqs.len(), 1_465);
        assert_eq!(fnv, 0x3d44_90f9_bc5a_fd2a);
        assert_eq!(
            reqs[0],
            Request {
                time_ms: 89.757_037_467_802_42,
                cache: 8,
                doc: DocId(130),
            }
        );
    }

    #[test]
    fn stream_cache_is_resumable_and_fused() {
        let cat = catalog(40, 0);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(6.0);
        let zipf = ZipfSampler::new(cat.len(), 0.9);
        // Re-creating the stream from the same (master, cache) replays it.
        let a: Vec<Request> = cfg.stream_cache(&zipf, 2, 9, 10_000.0).collect();
        let b: Vec<Request> = cfg.stream_cache(&zipf, 2, 9, 10_000.0).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(cfg.stream_cache(&zipf, 2, 9, 10_000.0).cache(), 2);
        // Fused: keeps returning None after exhaustion.
        let mut s = cfg.stream_cache(&zipf, 0, 9, 500.0);
        while s.next().is_some() {}
        assert!(s.next().is_none());
        assert!(s.next().is_none());
    }

    #[test]
    fn par_stream_is_sorted_valid_and_rate_matched() {
        let cat = catalog(100, 0);
        let cfg = RequestConfig::default().rate_per_sec_per_cache(5.0);
        let reqs = cfg.generate_with_master(&cat, 4, 100_000.0, 8);
        for pair in reqs.windows(2) {
            assert!(pair[0].time_ms <= pair[1].time_ms);
        }
        assert!(reqs.iter().all(|r| r.cache < 4 && r.doc.index() < 100));
        // 5 requests/s on each of 4 caches for 100 s.
        let expected = 2_000.0;
        let actual = reqs.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.1,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    #[should_panic(expected = "similarity")]
    fn bad_similarity_panics() {
        let _ = RequestConfig::default().similarity(2.0);
    }
}
