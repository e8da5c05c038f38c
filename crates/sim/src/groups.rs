//! Cooperative group membership.

use ecg_topology::CacheId;
use std::fmt;

/// Error from [`GroupMap::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupMapError {
    /// A cache id appears in no group.
    Unassigned(CacheId),
    /// A cache id appears in more than one group (or twice in one).
    Duplicate(CacheId),
    /// A group references a cache id outside `0..cache_count`.
    OutOfRange(CacheId),
    /// A group has no members.
    EmptyGroup {
        /// Index of the empty group.
        group: usize,
    },
}

impl fmt::Display for GroupMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupMapError::Unassigned(c) => write!(f, "cache {c} belongs to no group"),
            GroupMapError::Duplicate(c) => write!(f, "cache {c} assigned more than once"),
            GroupMapError::OutOfRange(c) => write!(f, "cache {c} is out of range"),
            GroupMapError::EmptyGroup { group } => write!(f, "group {group} is empty"),
        }
    }
}

impl std::error::Error for GroupMapError {}

/// A validated partition of the caches into cooperative groups.
///
/// # Examples
///
/// ```
/// use ecg_sim::GroupMap;
/// use ecg_topology::CacheId;
///
/// let groups = vec![vec![CacheId(0), CacheId(2)], vec![CacheId(1)]];
/// let map = GroupMap::new(3, groups)?;
/// assert_eq!(map.group_of(CacheId(2)), 0);
/// assert_eq!(map.peers(CacheId(0)).collect::<Vec<_>>(), [CacheId(2)]);
/// # Ok::<(), ecg_sim::GroupMapError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    groups: Vec<Vec<CacheId>>,
    group_of: Vec<usize>,
}

impl GroupMap {
    /// Validates that `groups` is a partition of `0..cache_count` and
    /// builds the lookup structures.
    ///
    /// # Errors
    ///
    /// Returns [`GroupMapError`] if any cache is missing, duplicated, or
    /// out of range, or any group is empty.
    pub fn new(cache_count: usize, groups: Vec<Vec<CacheId>>) -> Result<Self, GroupMapError> {
        let mut group_of = vec![usize::MAX; cache_count];
        for (g, members) in groups.iter().enumerate() {
            if members.is_empty() {
                return Err(GroupMapError::EmptyGroup { group: g });
            }
            for &c in members {
                if c.index() >= cache_count {
                    return Err(GroupMapError::OutOfRange(c));
                }
                if group_of[c.index()] != usize::MAX {
                    return Err(GroupMapError::Duplicate(c));
                }
                group_of[c.index()] = g;
            }
        }
        if let Some(idx) = group_of.iter().position(|&g| g == usize::MAX) {
            return Err(GroupMapError::Unassigned(CacheId(idx)));
        }
        Ok(GroupMap { groups, group_of })
    }

    /// Puts every cache in one singleton group: no cooperation. The
    /// "group size 1" end of Figure 3.
    pub fn singletons(cache_count: usize) -> Self {
        let groups: Vec<Vec<CacheId>> = (0..cache_count).map(|c| vec![CacheId(c)]).collect();
        GroupMap::new(cache_count, groups).expect("singleton partition is valid")
    }

    /// Puts every cache in one big group — the "group size N" end of
    /// Figure 3.
    ///
    /// # Panics
    ///
    /// Panics if `cache_count == 0`.
    pub fn one_group(cache_count: usize) -> Self {
        assert!(cache_count > 0, "need at least one cache");
        let groups = vec![(0..cache_count).map(CacheId).collect()];
        GroupMap::new(cache_count, groups).expect("single partition is valid")
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of caches.
    pub fn cache_count(&self) -> usize {
        self.group_of.len()
    }

    /// The groups, as given at construction.
    pub fn groups(&self) -> &[Vec<CacheId>] {
        &self.groups
    }

    /// Index of the group containing `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub fn group_of(&self, cache: CacheId) -> usize {
        self.group_of[cache.index()]
    }

    /// The other members of `cache`'s group, in group order. Read off
    /// the group's member list, so the map stores no per-cache copies.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is out of range.
    pub fn peers(&self, cache: CacheId) -> impl Iterator<Item = CacheId> + '_ {
        self.groups[self.group_of[cache.index()]]
            .iter()
            .copied()
            .filter(move |&p| p != cache)
    }

    /// Mean group size.
    pub fn mean_group_size(&self) -> f64 {
        self.cache_count() as f64 / self.group_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(ids: &[usize]) -> Vec<CacheId> {
        ids.iter().copied().map(CacheId).collect()
    }

    #[test]
    fn valid_partition_builds() {
        let map = GroupMap::new(4, vec![cid(&[0, 1]), cid(&[2, 3])]).unwrap();
        assert_eq!(map.group_count(), 2);
        assert_eq!(map.cache_count(), 4);
        assert_eq!(map.group_of(CacheId(3)), 1);
        assert_eq!(map.peers(CacheId(1)).collect::<Vec<_>>(), [CacheId(0)]);
        assert_eq!(map.mean_group_size(), 2.0);
    }

    #[test]
    fn rejects_unassigned() {
        let err = GroupMap::new(3, vec![cid(&[0, 1])]).unwrap_err();
        assert_eq!(err, GroupMapError::Unassigned(CacheId(2)));
    }

    #[test]
    fn rejects_duplicates() {
        let err = GroupMap::new(3, vec![cid(&[0, 1]), cid(&[1, 2])]).unwrap_err();
        assert_eq!(err, GroupMapError::Duplicate(CacheId(1)));
        let err2 = GroupMap::new(2, vec![cid(&[0, 0]), cid(&[1])]).unwrap_err();
        assert_eq!(err2, GroupMapError::Duplicate(CacheId(0)));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GroupMap::new(2, vec![cid(&[0, 5])]).unwrap_err();
        assert_eq!(err, GroupMapError::OutOfRange(CacheId(5)));
    }

    #[test]
    fn rejects_empty_group() {
        let err = GroupMap::new(2, vec![cid(&[0, 1]), vec![]]).unwrap_err();
        assert_eq!(err, GroupMapError::EmptyGroup { group: 1 });
    }

    #[test]
    fn singletons_have_no_peers() {
        let map = GroupMap::singletons(3);
        assert_eq!(map.group_count(), 3);
        for c in 0..3 {
            assert_eq!(map.peers(CacheId(c)).count(), 0);
        }
    }

    #[test]
    fn one_group_has_all_peers() {
        let map = GroupMap::one_group(4);
        assert_eq!(map.group_count(), 1);
        let peers: Vec<CacheId> = map.peers(CacheId(2)).collect();
        assert_eq!(peers, [CacheId(0), CacheId(1), CacheId(3)]);
    }

    #[test]
    fn error_messages_name_the_cache() {
        assert!(GroupMapError::Unassigned(CacheId(7))
            .to_string()
            .contains("Ec7"));
    }
}
