//! Cluster quality metrics.
//!
//! The paper's headline accuracy metric is the **average group
//! interaction cost** (§2): the interaction cost of a group is the mean
//! pairwise cost between its members, and the network-wide figure is the
//! mean over groups.
//!
//! The O(Σ|g|²) pairwise sums fan out across [`ecg_par`] workers with
//! the crate's standing determinism contract: each group's
//! order-sensitive f64 pairwise sum is computed whole inside one work
//! item, and the cross-item reduction folds the returned values
//! sequentially in group order — so the metric is bit-identical to its
//! sequential loop at any thread count.

/// Group interaction cost of one group: the mean of `cost(a, b)` over all
/// unordered member pairs (§2's `GICost`).
///
/// A group with fewer than two members has no pairs; its interaction cost
/// is zero (its members never talk to a peer).
pub fn group_interaction_cost(members: &[usize], cost: impl Fn(usize, usize) -> f64) -> f64 {
    let n = members.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += cost(members[i], members[j]);
        }
    }
    sum / (n * (n - 1) / 2) as f64
}

/// Average group interaction cost over a set of groups — the paper's
/// clustering-accuracy metric ("the mean of the group interaction costs
/// of all groups within the edge cache network").
///
/// The per-group pairwise sums run on [`ecg_par`] workers (one group
/// per work item, its summation chain intact) and the outer mean folds
/// the per-group costs in group order, so the result is bit-identical
/// to the sequential computation at any thread count.
///
/// Returns `0.0` for an empty group set.
pub fn average_group_interaction_cost(
    groups: &[Vec<usize>],
    cost: impl Fn(usize, usize) -> f64 + Sync,
) -> f64 {
    if groups.is_empty() {
        return 0.0;
    }
    let per_group = ecg_par::par_map(groups.iter().collect(), |g: &Vec<usize>| {
        group_interaction_cost(g, &cost)
    });
    per_group.into_iter().sum::<f64>() / groups.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_cost(a: usize, b: usize) -> f64 {
        (a as f64 - b as f64).abs()
    }

    #[test]
    fn single_group_cost_is_mean_pairwise() {
        // Members 0, 2, 6 on a line: pairs (0,2)=2, (0,6)=6, (2,6)=4.
        let gic = group_interaction_cost(&[0, 2, 6], line_cost);
        assert!((gic - 4.0).abs() < 1e-12);
    }

    #[test]
    fn small_groups_cost_zero() {
        assert_eq!(group_interaction_cost(&[], line_cost), 0.0);
        assert_eq!(group_interaction_cost(&[3], line_cost), 0.0);
    }

    #[test]
    fn average_over_groups() {
        let groups = vec![vec![0, 2], vec![10, 16]];
        // Group costs 2 and 6 → average 4.
        let avg = average_group_interaction_cost(&groups, line_cost);
        assert!((avg - 4.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_no_groups_is_zero() {
        assert_eq!(average_group_interaction_cost(&[], line_cost), 0.0);
    }

    #[test]
    fn tight_clusters_beat_loose_ones() {
        // Points 0..4 and 100..104; correct split vs. mixed split.
        let good = vec![vec![0, 1, 2, 3], vec![100, 101, 102, 103]];
        let bad = vec![vec![0, 1, 102, 103], vec![2, 3, 100, 101]];
        assert!(
            average_group_interaction_cost(&good, line_cost)
                < average_group_interaction_cost(&bad, line_cost)
        );
    }
}
