//! Dense row-major `f64` matrices.
//!
//! Deliberately small: just the operations the classical models and the
//! statistics crate need. The neural-network stack has its own `f32` tensor
//! type in [`crate::nn`].

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from per-row slices.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterates over rows as slices — `rows` of them, empty ones for a
    /// zero-column matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Builds a new matrix keeping only the rows whose indices are listed.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Matrix-vector product (`self · v`).
    ///
    /// # Panics
    /// Panics when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        self.iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix product (`self · other`).
    ///
    /// # Panics
    /// Panics when `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let (dst, src) = (i * other.cols, k * other.cols);
                for j in 0..other.cols {
                    out.data[dst + j] += a * other.data[src + j];
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Per-column means.
    pub fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Per-column population standard deviations.
    pub fn col_stds(&self) -> Vec<f64> {
        let means = self.col_means();
        let mut vars = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for ((v, x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        vars.into_iter().map(|v| (v / n).sqrt()).collect()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when `row.len() != cols` (unless the matrix is empty, in which
    /// case the row defines the width).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reshapes in place to `rows × cols`, zeroing every element.
    ///
    /// Keeps the existing allocation when it is large enough — the batched
    /// scoring paths call this once per batch to reuse one scratch matrix
    /// instead of allocating a fresh one.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

impl phishinghook_persist::Snapshot for Matrix {
    fn snapshot(&self, w: &mut phishinghook_persist::Writer) {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        for &v in &self.data {
            w.put_f64(v);
        }
    }
}

impl phishinghook_persist::Restore for Matrix {
    fn restore(
        r: &mut phishinghook_persist::Reader<'_>,
    ) -> Result<Self, phishinghook_persist::PersistError> {
        let rows = r.take_usize()?;
        let cols = r.take_usize()?;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            phishinghook_persist::PersistError::Malformed(format!(
                "matrix shape {rows}×{cols} overflows"
            ))
        })?;
        // 8 bytes per element: rejects absurd shapes before allocating.
        if n.saturating_mul(8) > r.remaining() {
            return Err(phishinghook_persist::PersistError::Truncated {
                needed: n.saturating_mul(8),
                available: r.remaining(),
            });
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.take_f64()?);
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn bad_buffer_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matvec_known_result() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn select_rows_picks_subset() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn stats_match_hand_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 10.0]]);
        assert_eq!(m.col_means(), vec![2.0, 10.0]);
        assert_eq!(m.col_stds(), vec![1.0, 0.0]);
    }

    #[test]
    fn zero_column_matrix_still_has_rows() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.iter_rows().count(), 3);
        assert!(m.iter_rows().all(<[f64]>::is_empty));
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    proptest! {
        #[test]
        fn transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
            let mut v = Vec::with_capacity(rows * cols);
            let mut s = seed;
            for _ in 0..rows * cols {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                v.push((s >> 11) as f64 / (1u64 << 53) as f64);
            }
            let m = Matrix::from_vec(rows, cols, v);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity(n in 1usize..6, seed in any::<u64>()) {
            let mut v = Vec::with_capacity(n * n);
            let mut s = seed;
            for _ in 0..n * n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                v.push((s >> 40) as f64);
            }
            let m = Matrix::from_vec(n, n, v);
            let mut id = Matrix::zeros(n, n);
            for i in 0..n { id[(i, i)] = 1.0; }
            prop_assert_eq!(m.matmul(&id), m);
        }
    }
}
