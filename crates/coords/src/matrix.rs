//! Contiguous row-major storage for point sets.
//!
//! The clustering hot loops (Lloyd iterations, k-means++ seeding,
//! silhouette sweeps) spend nearly all their time in point×center
//! distance kernels. Storing points as `Vec<Vec<f64>>` puts every row
//! behind its own heap allocation, so those kernels chase a pointer per
//! row and the prefetcher gets nothing to work with. [`FeatureMatrix`]
//! packs all rows into one flat `Vec<f64>`; a row is a `&[f64]` slice at
//! a computed offset, and iterating rows walks memory linearly.

use std::fmt;
use std::ops::Index;

/// A dense row-major matrix of points: `len()` rows of `dim()` columns
/// in one contiguous allocation.
///
/// Row `i` occupies `data[i * dim .. (i + 1) * dim]`. All rows share one
/// dimension by construction, so code consuming a `FeatureMatrix` never
/// needs to re-validate row lengths.
///
/// # Examples
///
/// ```
/// use ecg_coords::FeatureMatrix;
///
/// let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.dim(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m[0][1], 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    rows: usize,
    dim: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// An empty matrix whose future rows will have `dim` components.
    pub fn new(dim: usize) -> Self {
        FeatureMatrix {
            rows: 0,
            dim,
            data: Vec::new(),
        }
    }

    /// An empty matrix with storage reserved for `rows` rows of `dim`.
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        FeatureMatrix {
            rows: 0,
            dim,
            data: Vec::with_capacity(rows * dim),
        }
    }

    /// Packs ragged rows into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the rows disagree on dimension.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map(Vec::len).unwrap_or(0);
        let mut m = FeatureMatrix::with_capacity(rows.len(), dim);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Wraps an already-flat buffer of `data.len() / dim` rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` with a non-empty buffer, or if `data` is not
    /// a whole number of rows.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        if data.is_empty() {
            return FeatureMatrix { rows: 0, dim, data };
        }
        assert!(dim > 0, "non-empty flat buffer needs a positive dimension");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer of {} values is not a whole number of {dim}-dim rows",
            data.len()
        );
        FeatureMatrix {
            rows: data.len() / dim,
            dim,
            data,
        }
    }

    /// Number of rows (points).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the matrix holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns every row has.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a flat slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable access to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dim,
            "row of dim {} pushed into a dim-{} matrix",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Iterates rows in order as flat slices.
    pub fn iter_rows(&self) -> std::slice::ChunksExact<'_, f64> {
        // chunks_exact(0) panics; an empty matrix with dim 0 has no rows
        // to yield, so chunk by 1 over the (empty) buffer instead.
        self.data.chunks_exact(self.dim.max(1))
    }

    /// The whole matrix as one flat row-major slice.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Copies the matrix back out into ragged rows (for interop with
    /// code that has not been converted to flat storage).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter_rows().map(<[f64]>::to_vec).collect()
    }
}

impl Index<usize> for FeatureMatrix {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl From<Vec<Vec<f64>>> for FeatureMatrix {
    fn from(rows: Vec<Vec<f64>>) -> Self {
        FeatureMatrix::from_rows(&rows)
    }
}

impl fmt::Display for FeatureMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FeatureMatrix({} x {})", self.rows, self.dim)?;
        for row in self.iter_rows() {
            for v in row {
                write!(f, "{v:9.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn rows_are_contiguous_slices() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(&m[1], &[3.0, 4.0]);
        assert_eq!(m[1][0], 3.0);
    }

    #[test]
    fn push_and_set_row() {
        let mut m = FeatureMatrix::with_capacity(2, 3);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 2);
        m.row_mut(0).copy_from_slice(&[9.0, 8.0, 7.0]);
        assert_eq!(m.row(0), &[9.0, 8.0, 7.0]);
        m.row_mut(1)[2] = 0.0;
        assert_eq!(m.row(1), &[4.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dim-2 matrix")]
    fn ragged_push_panics() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dim")]
    fn ragged_from_rows_panics() {
        let _ = FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn from_flat_computes_rows() {
        let m = FeatureMatrix::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn from_flat_rejects_partial_rows() {
        let _ = FeatureMatrix::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_matrices_behave() {
        let m = FeatureMatrix::new(0);
        assert!(m.is_empty());
        assert_eq!(m.iter_rows().count(), 0);
        assert_eq!(FeatureMatrix::from_rows(&[]).len(), 0);
        assert_eq!(FeatureMatrix::from_flat(3, Vec::new()).len(), 0);
    }

    #[test]
    fn iter_rows_walks_in_order() {
        let m = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let seen: Vec<f64> = m.iter_rows().map(|r| r[0]).collect();
        assert_eq!(seen, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_contains_shape() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]);
        assert!(m.to_string().contains("1 x 2"));
    }
}
