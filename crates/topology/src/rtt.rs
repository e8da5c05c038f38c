//! Symmetric round-trip-time matrices.
//!
//! [`RttMatrix`] is the currency every other crate trades in: the group
//! formation schemes read it through the probing model, the clustering
//! quality metrics average over it, and the simulator uses it as the
//! ground-truth network delay between caches.

use std::fmt;

/// A read-only oracle of pairwise round-trip times.
///
/// [`RttMatrix`] is the materialized implementation; implicit
/// implementations (e.g. [`SyntheticRtt`](crate::SyntheticRtt)) compute
/// RTTs on the fly from O(n) state, which is what makes N ≈ 50k-cache
/// runs feasible — a dense 50k × 50k matrix alone would need ~20 GB.
/// Consumers such as the probing model hold `&dyn RttSource`, so either
/// form plugs in unchanged.
///
/// Implementations must be symmetric (`rtt_ms(a, b) == rtt_ms(b, a)`),
/// zero on the diagonal, and return finite non-negative values. The
/// `Sync` supertrait lets parallel kernels share the oracle across
/// worker threads; the `Debug` supertrait keeps holders derivable.
pub trait RttSource: fmt::Debug + Sync {
    /// Number of nodes the oracle spans.
    fn node_count(&self) -> usize;

    /// Round-trip time between nodes `a` and `b` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    fn rtt_ms(&self, a: usize, b: usize) -> f64;

    /// The dense sub-matrix over `nodes`, in the given order: entry
    /// `(a, b)` is `rtt_ms(nodes[a], nodes[b])`, the diagonal is zero.
    /// This is the batched form of the pairwise query — one call builds a
    /// group's whole `[origin, members…]` topology for the simulator.
    ///
    /// The default asks `rtt_ms` once per unordered pair. An
    /// implementation may override it to fill the block faster, but is
    /// obliged to return **bit-identical** entries (`to_bits()`-equal to
    /// the default's, repeated nodes and `nodes.len() < 2` included) and
    /// to keep every check `rtt_ms` makes: consumers rely on the two
    /// forms being interchangeable, and the equivalence of a group-major
    /// simulation to a whole-map one rests on it.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range, as `rtt_ms` does (the default
    /// meets a node only through a pair, so a lone out-of-range node in
    /// a one-element list passes it unnoticed).
    fn submatrix(&self, nodes: &[usize]) -> RttMatrix {
        RttMatrix::from_fn(nodes.len(), |a, b| self.rtt_ms(nodes[a], nodes[b]))
    }
}

impl RttSource for RttMatrix {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn rtt_ms(&self, a: usize, b: usize) -> f64 {
        self.get(a, b)
    }

    fn submatrix(&self, nodes: &[usize]) -> RttMatrix {
        // The inherent row-gather: stored entries are already symmetric
        // and validated, so copying them equals re-deriving them.
        RttMatrix::submatrix(self, nodes)
    }
}

/// A symmetric matrix of round-trip times in milliseconds.
///
/// Storage is a dense `n × n` `Vec<f64>`; `set` writes both `(i, j)` and
/// `(j, i)` so symmetry holds by construction, and the diagonal is pinned
/// at zero.
///
/// # Examples
///
/// ```
/// use ecg_topology::RttMatrix;
///
/// let mut m = RttMatrix::zeros(3);
/// m.set(0, 1, 10.0);
/// m.set(1, 2, 4.0);
/// assert_eq!(m.get(1, 0), 10.0);
/// assert_eq!(m.get(2, 2), 0.0);
/// assert_eq!(m.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RttMatrix {
    n: usize,
    data: Vec<f64>,
}

impl RttMatrix {
    /// Creates an `n × n` matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        RttMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` for every `i < j`.
    ///
    /// The function is called once per unordered pair; the result is
    /// mirrored and the diagonal stays zero.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = RttMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Completes a row-major `n × n` block whose strict upper triangle
    /// the caller has filled: mirrors it into the lower half, zeroes the
    /// diagonal, and makes the check [`RttMatrix::set`] makes per entry
    /// over the whole block at once — so a batched producer need not go
    /// through `set` pair by pair.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n` or an upper-triangle entry is
    /// negative or not finite.
    pub(crate) fn from_upper_triangle(n: usize, mut data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "block is not {n} x {n}");
        for a in 0..n {
            data[a * n + a] = 0.0;
            for b in (a + 1)..n {
                data[b * n + a] = data[a * n + b];
            }
        }
        // `0 <= v <= MAX` is `set`'s "finite and non-negative" (NaN fails
        // both comparisons). Counted, not short-circuited: a branch-free
        // pass vectorizes.
        let invalid = data
            .iter()
            .filter(|v| !(0.0..=f64::MAX).contains(*v))
            .count();
        assert!(invalid == 0, "rtt must be finite and non-negative");
        RttMatrix { n, data }
    }

    /// Builds an RTT matrix from per-source *one-way* latency rows, i.e.
    /// the output of an all-pairs shortest path run. RTT is twice the
    /// one-way latency; asymmetries from floating-point noise are averaged
    /// away.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not square, or if any entry is infinite
    /// (disconnected graph) or NaN.
    pub fn from_rows_one_way(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
        }
        RttMatrix::from_fn(n, |i, j| {
            let one_way = 0.5 * (rows[i][j] + rows[j][i]);
            assert!(
                one_way.is_finite(),
                "infinite latency between {i} and {j}: graph disconnected?"
            );
            2.0 * one_way
        })
    }

    /// Matrix dimension (number of nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the 0 × 0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// RTT between nodes `i` and `j` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "rtt index out of range");
        self.data[i * self.n + j]
    }

    /// Row `i` of the matrix: the RTT from node `i` to every node, in
    /// node order (`row(i)[j] == get(i, j)`). One bounds check for a
    /// caller that reads many entries of one node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "rtt index out of range");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Sets the RTT between `i` and `j` (and `j` and `i`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, if `i == j` with a non-zero
    /// value, or if the value is negative or not finite.
    pub fn set(&mut self, i: usize, j: usize, rtt_ms: f64) {
        assert!(i < self.n && j < self.n, "rtt index out of range");
        assert!(
            rtt_ms.is_finite() && rtt_ms >= 0.0,
            "rtt must be finite and non-negative, got {rtt_ms}"
        );
        if i == j {
            assert!(rtt_ms == 0.0, "diagonal rtt must be zero");
            return;
        }
        self.data[i * self.n + j] = rtt_ms;
        self.data[j * self.n + i] = rtt_ms;
    }

    /// Extracts the sub-matrix over `indices`, in the given order.
    ///
    /// Entry `(a, b)` of the result is `self.get(indices[a], indices[b])`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn submatrix(&self, indices: &[usize]) -> RttMatrix {
        let mut out = RttMatrix::zeros(0);
        self.submatrix_into(indices, &mut out);
        out
    }

    /// [`RttMatrix::submatrix`] into a caller-owned matrix, reusing its
    /// storage when the capacity suffices. Repeated extraction (e.g. a
    /// maintenance sweep removing caches one at a time) then re-copies
    /// entries into one buffer instead of allocating a fresh matrix per
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn submatrix_into(&self, indices: &[usize], out: &mut RttMatrix) {
        let n = indices.len();
        out.n = n;
        out.data.clear();
        out.data.reserve(n * n);
        // Checked before any row is read: an index is also a column.
        assert!(
            indices.iter().all(|&i| i < self.n),
            "rtt index out of range"
        );
        for &i in indices {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            out.data.extend(indices.iter().map(|&j| row[j]));
        }
        // Symmetry and a zero diagonal are inherited from `self`, except
        // for repeated indices, where the diagonal picks up off-diagonal
        // source entries; pin it back to zero.
        for a in 0..n {
            out.data[a * n + a] = 0.0;
        }
    }

    /// Indices of the `k` nodes nearest to `from` (excluding `from`),
    /// sorted by ascending RTT. Returns fewer than `k` if the matrix is
    /// small.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn nearest_to(&self, from: usize, k: usize) -> Vec<usize> {
        let mut others: Vec<usize> = (0..self.n).filter(|&i| i != from).collect();
        others.sort_by(|&a, &b| {
            self.get(from, a)
                .partial_cmp(&self.get(from, b))
                .expect("rtts are not NaN")
                .then(a.cmp(&b))
        });
        others.truncate(k);
        others
    }

    /// Indices of the `k` nodes farthest from `from` (excluding `from`),
    /// sorted by descending RTT.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn farthest_from(&self, from: usize, k: usize) -> Vec<usize> {
        let mut others = self.nearest_to(from, self.n.saturating_sub(1));
        others.reverse();
        others.truncate(k);
        others
    }
}

impl fmt::Display for RttMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RttMatrix({} nodes)", self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:8.2}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::paper_figure1;

    #[test]
    fn symmetric_by_construction() {
        let m = paper_figure1();
        for i in 0..7 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..7 {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert_eq!(m.row(i)[j], m.get(i, j));
            }
        }
    }

    #[test]
    fn from_fn_fills_upper_triangle() {
        let m = RttMatrix::from_fn(4, |i, j| (i + j) as f64);
        assert_eq!(m.get(1, 3), 4.0);
        assert_eq!(m.get(3, 1), 4.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn from_upper_triangle_mirrors_and_pins_the_diagonal() {
        // Lower half and diagonal hold junk the constructor must not keep.
        let block = vec![9.0, 1.0, 2.0, 9.0, 9.0, 3.0, 9.0, 9.0, 9.0];
        let m = RttMatrix::from_upper_triangle(3, block);
        assert_eq!(m, RttMatrix::from_fn(3, |i, j| (i + j) as f64));
        assert_eq!(RttMatrix::from_upper_triangle(0, Vec::new()).len(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_upper_triangle_rejects_what_set_rejects() {
        let _ = RttMatrix::from_upper_triangle(2, vec![0.0, f64::NAN, 0.0, 0.0]);
    }

    #[test]
    fn from_rows_averages_asymmetry() {
        let rows = vec![vec![0.0, 3.0], vec![5.0, 0.0]];
        let m = RttMatrix::from_rows_one_way(&rows);
        assert_eq!(m.get(0, 1), 8.0); // 2 * (3+5)/2
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn from_rows_rejects_infinite() {
        let rows = vec![vec![0.0, f64::INFINITY], vec![f64::INFINITY, 0.0]];
        let _ = RttMatrix::from_rows_one_way(&rows);
    }

    #[test]
    fn submatrix_reindexes() {
        let m = paper_figure1();
        let sub = m.submatrix(&[1, 3, 5]); // Ec0, Ec2, Ec4
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(0, 1), 17.0); // Ec0-Ec2
        assert_eq!(sub.get(1, 2), 17.0); // Ec2-Ec4
    }

    #[test]
    fn submatrix_into_reuses_storage_and_matches_submatrix() {
        let m = paper_figure1();
        let mut out = RttMatrix::zeros(0);
        // Shrinking sweep: each extraction must equal the allocating
        // variant regardless of what was in the buffer before.
        for indices in [vec![0, 1, 2, 3, 4], vec![1, 3, 5], vec![6, 2]] {
            m.submatrix_into(&indices, &mut out);
            assert_eq!(out, m.submatrix(&indices));
        }
        // Repeated index: diagonal still zero, cross entries defined.
        m.submatrix_into(&[1, 1, 3], &mut out);
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(1, 1), 0.0);
        assert_eq!(out.get(0, 1), 0.0); // Ec0 to itself
        assert_eq!(out.get(0, 2), m.get(1, 3));
    }

    #[test]
    fn nearest_and_farthest_are_ordered() {
        let m = paper_figure1();
        // From the origin (index 0): Ec1 (8), Ec3 (8), Ec5 (8) then 12s.
        let near = m.nearest_to(0, 3);
        assert_eq!(near, vec![2, 4, 6]);
        let far = m.farthest_from(0, 3);
        for pair in far.windows(2) {
            assert!(m.get(0, pair[0]) >= m.get(0, pair[1]));
        }
        assert_eq!(far.len(), 3);
        assert!(far.iter().all(|&i| m.get(0, i) == 12.0));
    }

    #[test]
    fn nearest_to_truncates_gracefully() {
        let m = RttMatrix::zeros(2);
        assert_eq!(m.nearest_to(0, 10), vec![1]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_rejects_nonzero_diagonal() {
        let mut m = RttMatrix::zeros(2);
        m.set(1, 1, 3.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_rejects_nan() {
        let mut m = RttMatrix::zeros(2);
        m.set(0, 1, f64::NAN);
    }

    #[test]
    fn display_contains_dimension() {
        let m = RttMatrix::zeros(2);
        assert!(m.to_string().contains("2 nodes"));
    }
}
