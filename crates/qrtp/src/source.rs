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
use lra_sparse::{CscMatrix, CscRuns};

/// A matrix whose columns can be gathered into dense panels, a chunk of
/// rows at a time, without materializing the whole panel.
pub trait ColumnSource: Sync {
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Stored entries of column `j` (every row for a dense source).
    fn col_nnz(&self, j: usize) -> usize;
    /// Ascending rows outside which columns `idx` are entirely zero.
    /// Sparse sources return the rows with a stored entry; dense sources
    /// return every row.
    fn row_support(&self, idx: &[usize]) -> Vec<usize>;
    /// `min(self.row_support(idx).len(), cap + 1)`: the support's
    /// length, counted no further than one row past `cap`, so a caller
    /// that only asks whether it exceeds `cap` never builds the list.
    fn row_support_len_capped(&self, idx: &[usize], cap: usize) -> usize;
    /// Gather the given (ascending) rows of the given columns into a
    /// dense block of shape `rows.len() x idx.len()`.
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix;
}

impl ColumnSource for CscMatrix {
    fn cols(&self) -> usize {
        CscMatrix::cols(self)
    }
    fn col_nnz(&self, j: usize) -> usize {
        self.col(j).0.len()
    }
    fn row_support(&self, idx: &[usize]) -> Vec<usize> {
        CscMatrix::row_support(self, idx)
    }
    fn row_support_len_capped(&self, idx: &[usize], cap: usize) -> usize {
        CscMatrix::row_support_len_capped(self, idx, cap)
    }
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        self.gather_columns_at_rows_dense(idx, rows)
    }
}

/// The same support and gathers as [`CscMatrix`]'s, over the runs'
/// columns: a tournament over runs selects what it selects over the
/// matrix they concatenate to.
impl ColumnSource for CscRuns {
    fn cols(&self) -> usize {
        CscRuns::cols(self)
    }
    fn col_nnz(&self, j: usize) -> usize {
        self.col(j).0.len()
    }
    fn row_support(&self, idx: &[usize]) -> Vec<usize> {
        CscRuns::row_support(self, idx)
    }
    fn row_support_len_capped(&self, idx: &[usize], cap: usize) -> usize {
        CscRuns::row_support_len_capped(self, idx, cap)
    }
    fn gather_rows(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        self.gather_columns_at_rows_dense(idx, rows)
    }
}

impl ColumnSource for DenseMatrix {
    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }
    fn col_nnz(&self, _j: usize) -> usize {
        self.rows()
    }
    fn row_support(&self, _idx: &[usize]) -> Vec<usize> {
        (0..self.rows()).collect()
    }
    fn row_support_len_capped(&self, _idx: &[usize], cap: usize) -> usize {
        self.rows().min(cap.saturating_add(1))
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
