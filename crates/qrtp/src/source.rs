//! Column sources: the abstraction tournament pivoting runs over.
//!
//! The column tournament of LU_CRTP selects from the columns of the
//! sparse Schur complement `A^(i)`; the row tournament selects from the
//! columns of the dense `Q_k^T`. Both are "a bag of columns whose
//! occupied rows you can gather into dense panels", captured by
//! [`ColumnSource`]. A row no candidate column has an entry on adds
//! nothing to the panel's `R^T R`, so a source first reports the rows
//! that matter and then densifies only those: panel work follows the
//! stored entries, not the row dimension.

use lra_dense::DenseMatrix;
use lra_sparse::CscMatrix;

/// A matrix whose columns can be gathered into dense panels, a chunk of
/// rows at a time, without materializing the whole panel.
pub trait ColumnSource: Sync {
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Ascending rows outside which columns `idx` are entirely zero.
    /// Sparse sources return the rows with a stored entry; dense sources
    /// return every row.
    fn row_support(&self, idx: &[usize]) -> Vec<usize>;
    /// Gather the given (ascending) rows of the given columns into a
    /// dense block of shape `rows.len() x idx.len()`.
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix;
}

impl ColumnSource for CscMatrix {
    fn cols(&self) -> usize {
        CscMatrix::cols(self)
    }
    fn row_support(&self, idx: &[usize]) -> Vec<usize> {
        CscMatrix::row_support(self, idx)
    }
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        self.gather_columns_at_rows_dense(idx, rows)
    }
}

impl ColumnSource for DenseMatrix {
    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }
    fn row_support(&self, _idx: &[usize]) -> Vec<usize> {
        (0..self.rows()).collect()
    }
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(rows.len(), idx.len());
        for (dst, &j) in idx.iter().enumerate() {
            let src = self.col(j);
            for (o, &r) in out.col_mut(dst).iter_mut().zip(rows) {
                *o = src[r];
            }
        }
        out
    }
}
