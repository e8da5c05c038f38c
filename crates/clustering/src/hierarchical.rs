//! Agglomerative (hierarchical) clustering.
//!
//! Not part of the paper's schemes — included as the ablation baseline
//! the paper gestures at ("any standard clustering algorithm may be
//! similarly modified", §4.1). Operating directly on a dissimilarity
//! matrix, it also provides a best-effort "ideal" clustering of the true
//! RTT space against which the landmark-based schemes' accuracy loss can
//! be measured.

/// Clusters `n` items into `k` groups by greedy agglomeration.
///
/// Starts from singletons and repeatedly merges the pair of clusters at
/// minimum average linkage (the mean pairwise distance, UPGMA: the
/// linkage closest to the group-interaction-cost objective) until `k`
/// clusters remain. `O(n^3)` with the naive implementation, which is
/// fine at the experiment scale (≤ 500 caches).
///
/// Returns the clusters as ascending-sorted index lists, ordered by their
/// smallest member.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
///
/// # Examples
///
/// ```
/// use ecg_clustering::hierarchical::agglomerative;
///
/// // Two tight pairs on a line: 0-1 and 10-11.
/// let pos = [0.0f64, 1.0, 10.0, 11.0];
/// let clusters = agglomerative(4, 2, |a, b| (pos[a] - pos[b]).abs());
/// assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
/// ```
pub fn agglomerative(n: usize, k: usize, dist: impl Fn(usize, usize) -> f64) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one cluster");
    assert!(k <= n, "cannot form {k} clusters from {n} items");

    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    while clusters.len() > k {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let d = average_linkage(&clusters[a], &clusters[b], &dist);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        let (a, b, _) = best.expect("more than k clusters remain");
        let merged = clusters.swap_remove(b);
        clusters[a].extend(merged);
    }
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// The mean distance over every pair of a member of `a` and one of `b`.
fn average_linkage(a: &[usize], b: &[usize], dist: &impl Fn(usize, usize) -> f64) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for d in a.iter().flat_map(|&x| b.iter().map(move |&y| dist(x, y))) {
        sum += d;
        count += 1;
    }
    sum / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pos: &[f64]) -> impl Fn(usize, usize) -> f64 + '_ {
        move |a, b| (pos[a] - pos[b]).abs()
    }

    #[test]
    fn merges_obvious_pairs() {
        let pos = [0.0, 0.5, 20.0, 20.5, 40.0, 40.5];
        let c = agglomerative(6, 3, line(&pos));
        assert_eq!(c, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn k_equals_n_returns_singletons() {
        let pos = [1.0, 2.0, 3.0];
        let c = agglomerative(3, 3, line(&pos));
        assert_eq!(c, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn k_one_returns_everything() {
        let pos = [1.0, 5.0, 9.0];
        let c = agglomerative(3, 1, line(&pos));
        assert_eq!(c, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn clusters_partition_items() {
        let pos: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
        let c = agglomerative(12, 4, line(&pos));
        let mut all: Vec<usize> = c.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn too_many_clusters_panics() {
        let _ = agglomerative(2, 3, |_, _| 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_clusters_panics() {
        let _ = agglomerative(2, 0, |_, _| 1.0);
    }
}
