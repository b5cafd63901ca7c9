//! Dense row-major `f32` matrices.
//!
//! This is the numeric workhorse of the NN substrate. It deliberately stays
//! small: two-dimensional, `f32`, row-major, with exactly the operations the
//! autodiff tape needs (general matrix products in the three orientations
//! used by backprop, broadcast row operations, element-wise maps and
//! reductions). All operations are bounds-checked in debug builds and rely
//! on iterators/slices in release builds so the compiler can elide checks.
//! The three general matrix products delegate to the cache-blocked,
//! deterministically parallel kernels in [`crate::kernels`].

use crate::simd;
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    // deepsd-lint: allow(panic-reach, reason="deliberate constructor contract: data length must equal rows*cols")
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a `n x 1` column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Matrix {
            rows,
            cols: 1,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Entry accessor.
    #[inline]
    // deepsd-lint: allow(panic-reach, reason="r,c bounded by the rows*cols invariant of the data buffer")
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of row `r`.
    #[inline]
    // deepsd-lint: allow(panic-reach, reason="r bounded by the rows*cols invariant of the data buffer")
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    // deepsd-lint: allow(panic-reach, reason="r bounded by the rows*cols invariant of the data buffer")
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self @ other` (no transposition).
    ///
    /// Backed by the cache-blocked, register-tiled, deterministically
    /// parallel kernel in [`crate::kernels`]; bit-identical to
    /// [`crate::kernels::matmul_ref`] at any thread count. This is the hot
    /// path of training.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} @ {}x{} mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::kernels::gemm_nn(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `selfᵀ @ other` without materialising the transpose.
    ///
    /// Blocked/parallel like [`Matrix::matmul`]; bit-identical to
    /// [`crate::kernels::matmul_tn_ref`] at any thread count.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: {}x{}ᵀ @ {}x{} mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::kernels::gemm_tn(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `self @ otherᵀ` without materialising the transpose.
    ///
    /// Blocked/parallel like [`Matrix::matmul`]; bit-identical to
    /// [`crate::kernels::matmul_nt_ref`] at any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} @ {}x{}ᵀ mismatch",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::kernels::gemm_nt(
            &self.data,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
        out
    }

    /// Element-wise addition, consuming `self`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[allow(clippy::should_implement_trait)] // by-ref rhs, panics on shape mismatch
    pub fn add(mut self, other: &Matrix) -> Matrix {
        self.add_assign(other);
        self
    }

    /// Element-wise in-place addition (lane-folded).
    // deepsd-lint: allow(panic-reach, reason="shape guard; operand shapes are fixed by the model graph")
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        simd::add_assign(&mut self.data, &other.data);
    }

    /// Element-wise in-place subtraction (lane-folded).
    // deepsd-lint: allow(panic-reach, reason="shape guard; operand shapes are fixed by the model graph")
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        simd::sub_assign(&mut self.data, &other.data);
    }

    /// Element-wise subtraction, consuming `self`.
    #[allow(clippy::should_implement_trait)] // by-ref rhs, panics on shape mismatch
    pub fn sub(mut self, other: &Matrix) -> Matrix {
        self.sub_assign(other);
        self
    }

    /// `self += alpha * other` (AXPY, lane-folded).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        simd::axpy(&mut self.data, alpha, &other.data);
    }

    /// Element-wise (Hadamard) product, consuming `self` (lane-folded).
    // deepsd-lint: allow(panic-reach, reason="shape guard; operand shapes are fixed by the model graph")
    pub fn hadamard(mut self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        simd::hadamard(&mut self.data, &other.data);
        self
    }

    /// Multiplies every entry by a scalar, in place (lane-folded).
    pub fn scale(&mut self, alpha: f32) {
        simd::scale(&mut self.data, alpha);
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, alpha: f32) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias` is not `1 x self.cols`.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            simd::add_assign(row, &bias.data);
        }
    }

    /// Sums all rows into a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            simd::add_assign(&mut out.data, row);
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute entry (0.0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    // deepsd-lint: allow(panic-reach, reason="non-empty/equal-rows asserts; parts come from the model's fixed block list")
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of zero matrices");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "hconcat row count mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let out_row = &mut out.data[r * cols..(r + 1) * cols];
            let mut offset = 0;
            for p in parts {
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Vertically stacks matrices with equal column counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn vconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vconcat of zero matrices");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.cols, cols, "vconcat column count mismatch");
            data.extend_from_slice(&p.data);
        }
        let rows = data.len() / cols.max(1);
        Matrix { rows, cols, data }
    }

    /// Extracts the column range `[start, start + width)` into a new matrix.
    ///
    /// # Panics
    /// Panics if the range exceeds the matrix width.
    // deepsd-lint: allow(panic-reach, reason="explicit range assert; column slices are driven by ModelConfig widths")
    pub fn columns(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols, "column slice out of range");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Gathers rows by index into a new matrix (`out.row(i) = self.row(idx[i])`).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gathers rows by index into `out`, reusing its allocation
    /// (`out.row(i) = self.row(indices[i])`). `out` is resized to
    /// `indices.len() x self.cols`.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &idx in indices {
            assert!(
                idx < self.rows,
                "gather_rows: index {idx} out of {}",
                self.rows
            );
            out.data.extend_from_slice(self.row(idx));
        }
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn zeros_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(a.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[0.5, -1.0, 2.0, 0.0]);
        let sum = a.clone().add(&b);
        assert_eq!(sum.as_slice(), &[1.5, 1.0, 5.0, 4.0]);
        let back = sum.sub(&b);
        assert!(back.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1.0, 1.0, 1.0]);
        let b = m(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn add_row_broadcast_hits_every_row() {
        let mut a = Matrix::zeros(3, 2);
        let bias = m(1, 2, &[1.0, -2.0]);
        a.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(a.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn sum_rows_collapses() {
        let a = m(3, 2, &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(a.sum_rows().as_slice(), &[6.0, 60.0]);
    }

    #[test]
    fn mean_and_sum() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn hconcat_preserves_rows() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let c = Matrix::hconcat(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn columns_inverts_hconcat() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 3, &[5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let c = Matrix::hconcat(&[&a, &b]);
        assert_eq!(c.columns(0, 2), a);
        assert_eq!(c.columns(2, 3), b);
    }

    #[test]
    fn vconcat_stacks() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::vconcat(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = m(3, 2, &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[20.0, 21.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn gather_rows_rejects_out_of_range() {
        let a = Matrix::zeros(2, 2);
        let _ = a.gather_rows(&[5]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn frobenius_norm_of_unit() {
        let a = m(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        assert!((a.frobenius_norm() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn scale_and_map() {
        let mut a = m(1, 3, &[1.0, -2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 6.0]);
        let abs = a.map(f32::abs);
        assert_eq!(abs.as_slice(), &[2.0, 4.0, 6.0]);
    }
}
