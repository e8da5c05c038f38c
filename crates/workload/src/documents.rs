//! Document catalogs.
//!
//! The origin server in the paper serves *dynamic* web content: documents
//! have sizes, popularity ranks, and — crucially — update rates (the
//! origin "reads continuously from an update log file"). A
//! [`DocumentCatalog`] captures those static properties; request and
//! update streams are generated against it by
//! [`crate::requests`] and [`crate::updates`].

use rand::Rng;
use std::fmt;

/// Identifier of a document, dense in `0..document_count`.
///
/// Documents are ordered by popularity: `DocId(0)` is the most popular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub usize);

impl DocId {
    /// Returns the id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

impl From<usize> for DocId {
    fn from(index: usize) -> Self {
        DocId(index)
    }
}

/// Static properties of one document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Document {
    /// The document's id (== its popularity rank).
    pub id: DocId,
    /// Body size in bytes.
    pub size_bytes: u64,
    /// Mean updates per second at the origin (Poisson rate). Zero for
    /// fully static documents.
    pub update_rate_per_sec: f64,
}

/// Configuration for generating a document catalog.
///
/// Defaults model a sporting-event site: 10 000 documents, log-normal
/// sizes with an ~8 KiB median, and 10% of documents *dynamic* (live
/// scoreboards, news tickers) updating every 30 s on average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    documents: usize,
    size_log_mean: f64,
    min_size_bytes: u64,
    dynamic_fraction: f64,
    dynamic_update_rate_per_sec: f64,
    static_update_rate_per_sec: f64,
}

/// The log-normal shape parameter of document sizes.
const SIZE_LOG_SIGMA: f64 = 1.0;

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            documents: 10_000,
            size_log_mean: (8.0 * 1024.0f64).ln(),
            min_size_bytes: 128,
            dynamic_fraction: 0.1,
            dynamic_update_rate_per_sec: 1.0 / 30.0,
            static_update_rate_per_sec: 1.0 / 86_400.0,
        }
    }
}

impl CatalogConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of documents.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn documents(mut self, n: usize) -> Self {
        assert!(n > 0, "catalog needs at least one document");
        self.documents = n;
        self
    }

    /// Sets the median document size in bytes (log-normal location).
    pub fn median_size_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "median size must be positive");
        self.size_log_mean = (bytes as f64).ln();
        self
    }

    /// Sets the fraction of documents that are dynamic, in `[0, 1]`.
    pub fn dynamic_fraction(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
        self.dynamic_fraction = frac;
        self
    }

    /// Sets the mean update rate (per second) of dynamic documents.
    pub fn dynamic_update_rate_per_sec(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        self.dynamic_update_rate_per_sec = rate;
        self
    }

    /// Sets the mean update rate (per second) of static documents.
    pub fn static_update_rate_per_sec(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        self.static_update_rate_per_sec = rate;
        self
    }

    /// Generates a catalog.
    ///
    /// Dynamic documents are drawn from the *popular* end of the catalog
    /// — on a sporting-event site the hot pages (scores, medal tables)
    /// are exactly the ones that change — matching the workload property
    /// that makes freshness maintenance expensive.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> DocumentCatalog {
        let n = self.documents;
        let dynamic_count = ((n as f64) * self.dynamic_fraction).round() as usize;
        let docs: Vec<Document> = (0..n)
            .map(|i| {
                let z = standard_normal(rng);
                let size = (self.size_log_mean + SIZE_LOG_SIGMA * z).exp().round() as u64;
                let update_rate = if i < dynamic_count {
                    // Jitter per-document rates ±50% around the mean.
                    self.dynamic_update_rate_per_sec * rng.gen_range(0.5..1.5)
                } else {
                    self.static_update_rate_per_sec
                };
                Document {
                    id: DocId(i),
                    size_bytes: size.max(self.min_size_bytes),
                    update_rate_per_sec: update_rate,
                }
            })
            .collect();
        DocumentCatalog { docs }
    }
}

/// Samples a standard normal variate via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// An immutable collection of documents, indexed by [`DocId`].
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentCatalog {
    docs: Vec<Document>,
}

impl DocumentCatalog {
    /// Builds a catalog from explicit documents.
    ///
    /// # Panics
    ///
    /// Panics if the documents' ids are not dense `0..n` in order.
    pub fn from_documents(docs: Vec<Document>) -> Self {
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(d.id.index(), i, "document ids must be dense and ordered");
        }
        DocumentCatalog { docs }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Returns `true` if the catalog has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Looks up a document.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn document(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Iterates over all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> + '_ {
        self.docs.iter()
    }

    /// Total origin update rate (updates per second across all docs).
    pub fn total_update_rate_per_sec(&self) -> f64 {
        self.docs.iter().map(|d| d.update_rate_per_sec).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let mut rng = StdRng::seed_from_u64(1);
        let cat = CatalogConfig::default().documents(500).generate(&mut rng);
        assert_eq!(cat.len(), 500);
        for (i, d) in cat.iter().enumerate() {
            assert_eq!(d.id, DocId(i));
        }
    }

    #[test]
    fn sizes_respect_floor_and_vary() {
        let mut rng = StdRng::seed_from_u64(2);
        let cat = CatalogConfig::default().documents(1000).generate(&mut rng);
        assert!(cat.iter().all(|d| d.size_bytes >= 128));
        let first = cat.document(DocId(0)).size_bytes;
        assert!(cat.iter().any(|d| d.size_bytes != first));
    }

    #[test]
    fn median_size_is_roughly_requested() {
        let mut rng = StdRng::seed_from_u64(3);
        let cat = CatalogConfig::default()
            .documents(4000)
            .median_size_bytes(8192)
            .generate(&mut rng);
        let mut sizes: Vec<u64> = cat.iter().map(|d| d.size_bytes).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64;
        assert!(
            (median / 8192.0) > 0.8 && (median / 8192.0) < 1.25,
            "median {median}"
        );
    }

    #[test]
    fn dynamic_fraction_applies_to_popular_documents() {
        let mut rng = StdRng::seed_from_u64(4);
        let cat = CatalogConfig::default()
            .documents(100)
            .dynamic_fraction(0.2)
            .dynamic_update_rate_per_sec(0.1)
            .static_update_rate_per_sec(0.0)
            .generate(&mut rng);
        let dynamic: Vec<usize> = cat
            .iter()
            .filter(|d| d.update_rate_per_sec > 0.0)
            .map(|d| d.id.index())
            .collect();
        assert_eq!(dynamic.len(), 20);
        // Dynamic docs are the top-popularity ones.
        assert!(dynamic.iter().all(|&i| i < 20));
    }

    #[test]
    fn mean_size_and_update_rate_aggregate() {
        let docs = vec![
            Document {
                id: DocId(0),
                size_bytes: 100,
                update_rate_per_sec: 0.5,
            },
            Document {
                id: DocId(1),
                size_bytes: 300,
                update_rate_per_sec: 0.25,
            },
        ];
        let cat = DocumentCatalog::from_documents(docs);
        assert_eq!(cat.total_update_rate_per_sec(), 0.75);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            CatalogConfig::default()
                .documents(50)
                .generate(&mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn from_documents_validates_ids() {
        let _ = DocumentCatalog::from_documents(vec![Document {
            id: DocId(5),
            size_bytes: 1,
            update_rate_per_sec: 0.0,
        }]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let _ = CatalogConfig::default().dynamic_fraction(1.5);
    }

    #[test]
    fn doc_id_display() {
        assert_eq!(DocId(3).to_string(), "doc3");
    }
}
