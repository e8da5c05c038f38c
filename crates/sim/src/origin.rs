//! The origin server.

use ecg_workload::{DocId, DocumentCatalog};

/// The origin server's state: the authoritative version of every
/// document.
///
/// Versions start at 1 and bump on every update event; caches compare
/// their copies' versions against these to detect staleness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginServer {
    versions: Vec<u64>,
    updates_applied: u64,
    fetches_served: u64,
}

impl OriginServer {
    /// Creates an origin serving every document of `catalog` at
    /// version 1.
    pub fn new(catalog: &DocumentCatalog) -> Self {
        OriginServer {
            versions: vec![1; catalog.len()],
            updates_applied: 0,
            fetches_served: 0,
        }
    }

    /// Returns the server to [`OriginServer::new`]'s state for
    /// `catalog`, keeping its version table's buffer.
    pub(crate) fn reset(&mut self, catalog: &DocumentCatalog) {
        self.versions.clear();
        self.versions.resize(catalog.len(), 1);
        self.updates_applied = 0;
        self.fetches_served = 0;
    }

    /// Current version of `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    #[inline]
    pub fn version(&self, doc: DocId) -> u64 {
        self.versions[doc.index()]
    }

    /// Applies one update to `doc`, bumping its version.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn apply_update(&mut self, doc: DocId) {
        self.versions[doc.index()] += 1;
        self.updates_applied += 1;
    }

    /// Records (and counts) a fetch served to a cache, returning the
    /// version the cache receives.
    pub fn serve_fetch(&mut self, doc: DocId) -> u64 {
        self.fetches_served += 1;
        self.version(doc)
    }

    /// Updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Fetches served to caches so far — the origin load the cooperative
    /// network is supposed to absorb.
    pub fn fetches_served(&self) -> u64 {
        self.fetches_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecg_workload::CatalogConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn origin(n: usize) -> OriginServer {
        let cat = CatalogConfig::default()
            .documents(n)
            .generate(&mut StdRng::seed_from_u64(0));
        OriginServer::new(&cat)
    }

    #[test]
    fn versions_start_at_one() {
        let o = origin(5);
        for i in 0..5 {
            assert_eq!(o.version(DocId(i)), 1);
        }
    }

    #[test]
    fn updates_bump_versions_independently() {
        let mut o = origin(3);
        o.apply_update(DocId(1));
        o.apply_update(DocId(1));
        o.apply_update(DocId(2));
        assert_eq!(o.version(DocId(0)), 1);
        assert_eq!(o.version(DocId(1)), 3);
        assert_eq!(o.version(DocId(2)), 2);
        assert_eq!(o.updates_applied(), 3);
    }

    #[test]
    fn a_reset_origin_is_a_new_one() {
        let mut o = origin(6);
        o.apply_update(DocId(4));
        o.serve_fetch(DocId(1));
        let fresh = origin(3);
        let cat = CatalogConfig::default()
            .documents(3)
            .generate(&mut StdRng::seed_from_u64(0));
        o.reset(&cat);
        assert_eq!(o, fresh);
    }

    #[test]
    fn serving_returns_current_version_and_counts() {
        let mut o = origin(2);
        o.apply_update(DocId(0));
        assert_eq!(o.serve_fetch(DocId(0)), 2);
        assert_eq!(o.serve_fetch(DocId(1)), 1);
        assert_eq!(o.fetches_served(), 2);
    }
}
