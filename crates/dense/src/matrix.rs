//! Column-major dense matrix of `f64`.

use std::fmt;
use std::ops::Range;

/// A dense, column-major `rows x cols` matrix of `f64`.
///
/// Entry `(i, j)` lives at `data[i + j * rows]`. Column-major storage is
/// chosen because every hot kernel in this project (QR panel updates,
/// sketching `A * Omega`, `B = Q^T A`) walks whole columns.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Wrap an existing column-major buffer (`data.len() == rows*cols`).
    pub fn from_column_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Build from row-major data (convenience for tests/examples).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
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

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct columns mutably at once (`j1 != j2`).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j1, j2);
        let r = self.rows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (head, tail) = self.data.split_at_mut(hi * r);
        let a = &mut head[lo * r..lo * r + r];
        let b = &mut tail[..r];
        if j1 < j2 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Entry accessor (bounds-checked in debug builds via the indexer).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i + j * self.rows]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i + j * self.rows] = v;
    }

    /// Copy of the submatrix `rows x cols` starting at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> DenseMatrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        let mut out = DenseMatrix::zeros(rows, cols);
        for j in 0..cols {
            let src = &self.col(c0 + j)[r0..r0 + rows];
            out.col_mut(j).copy_from_slice(src);
        }
        out
    }

    /// Overwrite the block at `(r0, c0)` with `block`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &DenseMatrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for j in 0..block.cols {
            let src = block.col(j);
            let dst = &mut self.col_mut(c0 + j)[r0..r0 + block.rows];
            dst.copy_from_slice(src);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            let col = self.col(j);
            for (i, &v) in col.iter().enumerate() {
                out.data[j + i * self.cols] = v;
            }
        }
        out
    }

    /// Transpose in place: the `rows x cols` buffer becomes the
    /// `cols x rows` one, with no second buffer of its size. With
    /// `w = min(cols, 32)`, each `rows x w` column panel (contiguous) is
    /// transposed through a panel-sized scratch, which leaves a
    /// `rows x (body / w)` matrix, `body` the columns of whole panels,
    /// whose entries are runs of `w` values; that matrix is then
    /// transposed run by run by cycle-following (`transpose_runs`). The
    /// ragged panel of the last `cols % w` columns is transposed the same
    /// way, and each row then moves out to its full length with its
    /// ragged values after it. No pass walks the buffer one scattered
    /// value at a time, whatever the divisors of `cols`. Values are
    /// moved, never recomputed: the result is bitwise
    /// [`transpose`](Self::transpose)'s.
    pub fn transpose_in_place(&mut self) {
        let (rows, cols) = (self.rows, self.cols);
        if rows > 1 && cols > 1 {
            let w = cols.min(32);
            let (body, t) = (cols - cols % w, cols % w);
            let mut scratch = vec![0.0; rows * w];
            for panel in self.data.chunks_mut(rows * w) {
                let pw = panel.len() / rows;
                for (c, col) in panel.chunks_exact(rows).enumerate() {
                    for (r, &v) in col.iter().enumerate() {
                        scratch[c + r * pw] = v;
                    }
                }
                panel.copy_from_slice(&scratch[..panel.len()]);
            }
            transpose_runs(&mut self.data[..rows * body], rows, body / w, w);
            // The ragged panel went through the scratch last. Last row
            // first: a row's new place lies at or after its old one and
            // after every earlier row's.
            if t > 0 {
                for r in (0..rows).rev() {
                    self.data.copy_within(r * body..(r + 1) * body, r * cols);
                    self.data[r * cols + body..][..t].copy_from_slice(&scratch[r * t..][..t]);
                }
            }
        }
        self.rows = cols;
        self.cols = rows;
    }

    /// An empty `rows x 0` matrix that can take `cols` appended columns
    /// without moving: it asks the allocator for the whole buffer up
    /// front. The operating system backs only the pages that get
    /// written, so reserving a true upper bound costs address space,
    /// not memory. If the reservation is refused (overflow, or more
    /// address space than the allocator will map), the matrix grows
    /// like any `Vec` instead.
    pub fn with_column_capacity(rows: usize, cols: usize) -> Self {
        let mut data = Vec::new();
        if let Some(len) = rows.checked_mul(cols) {
            let _ = data.try_reserve_exact(len);
        }
        DenseMatrix {
            rows,
            cols: 0,
            data,
        }
    }

    /// Append `block`'s columns on the right (same row count). Column-
    /// major storage makes this one copy onto the end of the buffer.
    pub fn append_columns<'a>(&mut self, block: impl Into<DenseView<'a>>) {
        let block = block.into();
        assert_eq!(self.rows, block.rows, "append_columns: row mismatch");
        self.data.extend_from_slice(block.data);
        self.cols += block.cols;
    }

    /// Keep the first `cols` columns (no-op if there are fewer): the
    /// buffer is cut where it lies, its capacity kept.
    pub fn truncate_columns(&mut self, cols: usize) {
        if cols < self.cols {
            self.data.truncate(self.rows * cols);
            self.cols = cols;
        }
    }

    /// Give back capacity beyond the current columns (see
    /// [`with_column_capacity`](Self::with_column_capacity)). The
    /// buffer shrinks where it lies: a smaller `realloc` is not a copy.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Borrow the columns `range` as a view: whole columns of a
    /// column-major buffer are one contiguous slice.
    pub fn columns(&self, range: Range<usize>) -> DenseView<'_> {
        assert!(
            range.start <= range.end && range.end <= self.cols,
            "columns out of range"
        );
        DenseView {
            rows: self.rows,
            cols: range.len(),
            data: &self.data[range.start * self.rows..range.end * self.rows],
        }
    }

    /// Horizontal concatenation `[self, rhs]` (same row count).
    pub fn hcat(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, rhs.rows, "hcat: row mismatch");
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        DenseMatrix {
            rows: self.rows,
            cols: self.cols + rhs.cols,
            data,
        }
    }

    /// Vertical concatenation `[self; rhs]` (same column count).
    pub fn vcat(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.cols, "vcat: col mismatch");
        let rows = self.rows + rhs.rows;
        let mut out = DenseMatrix::zeros(rows, self.cols);
        for j in 0..self.cols {
            out.col_mut(j)[..self.rows].copy_from_slice(self.col(j));
            out.col_mut(j)[self.rows..].copy_from_slice(rhs.col(j));
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.fro_norm_sq().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn fro_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Largest absolute entry (0 for empty matrices).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Infinity-norm distance `max |self - other|` (matching shapes).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }

    /// `self += alpha * other` (matching shapes).
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Deviation from orthonormal columns: `max |Q^T Q - I|`.
    ///
    /// This is the loss-of-orthogonality quantity the paper tracks for
    /// `Q_K` in RandQB_EI (reported as `1e-15 .. 1e-13`).
    pub fn orthogonality_error(&self) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..self.cols {
            for i in 0..=j {
                let dot: f64 = self
                    .col(i)
                    .iter()
                    .zip(self.col(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let target = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((dot - target).abs());
            }
        }
        worst
    }

    /// Select a subset of columns into a new matrix.
    pub fn select_columns(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, idx.len());
        for (dst, &j) in idx.iter().enumerate() {
            out.col_mut(dst).copy_from_slice(self.col(j));
        }
        out
    }

    /// Select a subset of rows into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(idx.len(), self.cols);
        for j in 0..self.cols {
            let src = self.col(j);
            let dst = out.col_mut(j);
            for (di, &si) in idx.iter().enumerate() {
                dst[di] = src[si];
            }
        }
        out
    }
}

/// Transpose in place the column-major `rows x cols` matrix in `data`
/// whose entries are runs of `w` consecutive values. The run at
/// position `i = r + c * rows` belongs at `c + r * cols`; each cycle of
/// that permutation is walked once, carrying one run, and a bitset
/// marks the positions already placed.
fn transpose_runs(data: &mut [f64], rows: usize, cols: usize, w: usize) {
    let n = rows * cols;
    let mut placed = vec![0u64; n.div_ceil(64)];
    let (mut carry, mut held) = (vec![0.0; w], vec![0.0; w]);
    for start in 0..n {
        if placed[start / 64] >> (start % 64) & 1 != 0 {
            continue;
        }
        carry.copy_from_slice(&data[start * w..][..w]);
        let mut i = start;
        loop {
            let dest = (i % rows) * cols + i / rows;
            placed[dest / 64] |= 1 << (dest % 64);
            let slot = &mut data[dest * w..][..w];
            held.copy_from_slice(slot);
            slot.copy_from_slice(&carry);
            std::mem::swap(&mut carry, &mut held);
            if dest == start {
                break;
            }
            i = dest;
        }
    }
}

/// A borrowed run of whole columns of a [`DenseMatrix`]
/// ([`DenseMatrix::columns`]), or all of one. The products that read
/// their left operand as a plain column-major slice (`matmul_tn`,
/// `matmul_sub_assign`) take it, so a block of a wider matrix is read
/// where it lies instead of being copied out.
#[derive(Clone, Copy, Debug)]
pub struct DenseView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> DenseView<'a> {
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

    /// The viewed columns, column-major.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

impl<'a> From<&'a DenseMatrix> for DenseView<'a> {
    fn from(m: &'a DenseMatrix) -> Self {
        m.columns(0..m.cols)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_construction_and_indexing() {
        let mut m = DenseMatrix::zeros(3, 2);
        m[(0, 0)] = 1.0;
        m[(2, 1)] = 5.0;
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.col(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.get(1, 2), 6.0);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn transpose_in_place_is_the_copying_transpose() {
        let shapes = [
            (0, 3),
            (3, 0),
            (1, 7),
            (7, 1),
            (4, 4),
            (5, 3),
            (3, 5),
            (64, 9),
            (13, 130),
            (9, 96),
            (40, 37),
            (37, 541),
            (37, 542),
        ];
        for (r, c) in shapes {
            let m = DenseMatrix::from_fn(r, c, |i, j| (i * 1000 + j) as f64 - 0.5);
            let mut t = m.clone();
            t.transpose_in_place();
            assert_eq!(t, m.transpose(), "{r}x{c}");
        }
    }

    #[test]
    fn truncation_keeps_the_leading_block() {
        let m = DenseMatrix::from_fn(7, 5, |i, j| (i * 10 + j) as f64);
        for keep in 0..=8 {
            let mut c = m.clone();
            c.truncate_columns(keep);
            assert_eq!(c, m.submatrix(0, 0, 7, keep.min(5)), "columns {keep}");
        }
    }

    #[test]
    fn appended_blocks_read_back_through_column_views() {
        let a = DenseMatrix::from_fn(4, 2, |i, j| (i + 10 * j) as f64);
        let b = DenseMatrix::from_fn(4, 3, |i, j| -((i + 10 * j) as f64));
        let mut m = DenseMatrix::with_column_capacity(4, 5);
        assert_eq!((m.rows(), m.cols()), (4, 0));
        m.append_columns(&a);
        m.append_columns(b.columns(1..3));
        assert_eq!(m, a.hcat(&b.select_columns(&[1, 2])));
        let v = m.columns(2..4);
        assert_eq!((v.rows(), v.cols()), (4, 2));
        assert_eq!(v.as_slice(), b.columns(1..3).as_slice());
        m.shrink_to_fit();
        assert_eq!(m.as_slice().len(), 16);
        // A reservation the allocator cannot grant still grows.
        let mut huge = DenseMatrix::with_column_capacity(usize::MAX / 2, 4);
        huge.append_columns(&DenseMatrix::zeros(usize::MAX / 2, 0));
        assert_eq!(huge.cols(), 0);
    }

    #[test]
    fn identity_is_orthonormal() {
        let id = DenseMatrix::identity(5);
        assert!(id.orthogonality_error() < 1e-15);
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = DenseMatrix::from_fn(6, 5, |i, j| (i * 10 + j) as f64);
        let b = m.submatrix(2, 1, 3, 2);
        assert_eq!(b.get(0, 0), 21.0);
        assert_eq!(b.get(2, 1), 42.0);
        let mut m2 = DenseMatrix::zeros(6, 5);
        m2.set_submatrix(2, 1, &b);
        assert_eq!(m2.get(3, 2), 32.0);
        assert_eq!(m2.get(0, 0), 0.0);
    }

    #[test]
    fn hcat_vcat() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hcat(&b);
        assert_eq!(h.cols(), 2);
        assert_eq!(h.get(1, 1), 4.0);
        let v = a.vcat(&b);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.get(3, 0), 4.0);
    }

    #[test]
    fn norms() {
        let m = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn select_columns_rows() {
        let m = DenseMatrix::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let c = m.select_columns(&[3, 1]);
        assert_eq!(c.get(0, 0), 30.0);
        assert_eq!(c.get(2, 1), 12.0);
        let r = m.select_rows(&[2, 0]);
        assert_eq!(r.get(0, 1), 12.0);
        assert_eq!(r.get(1, 3), 30.0);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = DenseMatrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let (a, b) = m.two_cols_mut(2, 0);
        a[0] = 100.0;
        b[0] = 200.0;
        assert_eq!(m.get(0, 2), 100.0);
        assert_eq!(m.get(0, 0), 200.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let m = DenseMatrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
