//! K-medoids (PAM) clustering over a dissimilarity function.
//!
//! Unlike K-means, PAM needs no vector space — it clusters straight
//! from pairwise dissimilarities. For cache grouping that means
//! clustering the *measured RTT matrix itself*, which is exactly what
//! the paper's landmark machinery exists to avoid: measuring all
//! `N(N-1)/2` pairs. The probing-overhead ablation uses this module to
//! quantify what that avoided measurement would have bought.

use rand::Rng;

/// Result of a PAM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Medoids {
    /// The chosen medoid indices, one per cluster.
    pub medoids: Vec<usize>,
    /// Cluster index of each item.
    pub assignments: Vec<usize>,
    /// Swap-phase iterations executed.
    pub iterations: usize,
}

impl Medoids {
    /// Groups item indices by cluster, ascending within each cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.medoids.len()];
        for (item, &c) in self.assignments.iter().enumerate() {
            groups[c].push(item);
        }
        groups
    }

    /// Total dissimilarity of items to their medoids — PAM's objective.
    pub fn cost(&self, dist: impl Fn(usize, usize) -> f64) -> f64 {
        self.assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| dist(i, self.medoids[c]))
            .sum()
    }
}

/// Runs PAM: random build phase, then greedy swap phase until no swap
/// improves the objective (or `max_iterations` passes).
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
///
/// # Examples
///
/// ```
/// use ecg_clustering::medoids::pam;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pos = [0.0f64, 1.0, 50.0, 51.0];
/// let mut rng = StdRng::seed_from_u64(1);
/// let r = pam(4, 2, |a, b| (pos[a] - pos[b]).abs(), 20, &mut rng);
/// let mut clusters = r.clusters();
/// clusters.sort();
/// assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
/// ```
pub fn pam<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    dist: impl Fn(usize, usize) -> f64,
    max_iterations: usize,
    rng: &mut R,
) -> Medoids {
    assert!(k > 0, "need at least one cluster");
    assert!(k <= n, "cannot form {k} clusters from {n} items");

    // Build: k distinct random medoids.
    let mut indices: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    let mut medoids: Vec<usize> = indices[..k].to_vec();

    let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
        let mut assignments = vec![0usize; n];
        let mut total = 0.0;
        for (i, slot) in assignments.iter_mut().enumerate() {
            let (best_c, best_d) = medoids
                .iter()
                .enumerate()
                .map(|(c, &m)| (c, dist(i, m)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
                .expect("at least one medoid");
            *slot = best_c;
            total += best_d;
        }
        (assignments, total)
    };

    let (mut assignments, mut best_cost) = assign(&medoids);
    let mut iterations = 0;
    while iterations < max_iterations {
        iterations += 1;
        let mut improved = false;
        for c in 0..k {
            for candidate in 0..n {
                if medoids.contains(&candidate) {
                    continue;
                }
                let old = medoids[c];
                medoids[c] = candidate;
                let (new_assignments, new_cost) = assign(&medoids);
                if new_cost + 1e-12 < best_cost {
                    best_cost = new_cost;
                    assignments = new_assignments;
                    improved = true;
                } else {
                    medoids[c] = old;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Medoids {
        medoids,
        assignments,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(pos: &[f64]) -> impl Fn(usize, usize) -> f64 + '_ {
        move |a, b| (pos[a] - pos[b]).abs()
    }

    #[test]
    fn recovers_separated_clusters() {
        let pos = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0];
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = pam(6, 2, line(&pos), 50, &mut rng);
            let mut clusters = r.clusters();
            clusters.sort();
            assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4, 5]], "seed {seed}");
        }
    }

    #[test]
    fn medoids_are_members_of_their_clusters() {
        let pos: Vec<f64> = (0..15).map(|i| (i * i) as f64).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let r = pam(15, 4, line(&pos), 50, &mut rng);
        for (c, &m) in r.medoids.iter().enumerate() {
            assert_eq!(r.assignments[m], c, "medoid {m} not in its own cluster");
        }
    }

    #[test]
    fn output_is_a_partition() {
        let pos: Vec<f64> = (0..20).map(|i| (i * 7 % 13) as f64).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let r = pam(20, 5, line(&pos), 50, &mut rng);
        let mut all: Vec<usize> = r.clusters().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn swaps_never_worsen_cost() {
        // PAM's final cost is no worse than its random initialization.
        let pos: Vec<f64> = (0..25).map(|i| ((i * 31) % 17) as f64).collect();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = pam(25, 4, line(&pos), 0, &mut rng); // build only
            let mut rng = StdRng::seed_from_u64(seed);
            let full = pam(25, 4, line(&pos), 50, &mut rng);
            assert!(full.cost(line(&pos)) <= init.cost(line(&pos)) + 1e-9);
        }
    }

    #[test]
    fn k_equals_n_is_perfect() {
        let pos = [3.0, 9.0, 27.0];
        let mut rng = StdRng::seed_from_u64(3);
        let r = pam(3, 3, line(&pos), 10, &mut rng);
        assert_eq!(r.cost(line(&pos)), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn too_many_clusters_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = pam(2, 3, |_, _| 1.0, 10, &mut rng);
    }
}
