//! A matrix stored as consecutive column runs.
//!
//! [`CscRuns`] holds a `rows x cols` matrix as consecutive CSC runs of
//! `width` columns each (the last one may be narrower). The
//! shared-memory LU_CRTP engine keeps its Schur complement this way: an
//! update writes run `c` of the next complement from the old runs it
//! reads, and an old run is freed as soon as no unfinished run reads
//! it, so one update holds one complement plus a few runs rather than
//! two complements. Column access, the row support and the dense
//! gathers are [`CscMatrix`]'s own code over the runs' columns, and the
//! runs concatenated are the matrix's storage order, so every read
//! matches the equivalent [`CscMatrix`] bit for bit.

use crate::csc::{gather_at_rows, row_support, row_support_len_capped, CscMatrix};
use crate::dist::gather_csc;
use lra_dense::DenseMatrix;
use lra_par::{parallel_chunks_mut, Parallelism};

/// A `rows x cols` matrix as consecutive `width`-column CSC runs: run
/// `r` holds columns `r * width ..`, every run but the last is full.
#[derive(Clone, Debug, PartialEq)]
pub struct CscRuns {
    rows: usize,
    cols: usize,
    width: usize,
    runs: Vec<CscMatrix>,
}

impl CscRuns {
    /// The matrix whose columns are `runs`' columns in order. Panics
    /// unless every run has `rows` rows and `width` columns, the last
    /// one between 1 and `width`.
    pub fn from_runs(rows: usize, width: usize, runs: Vec<CscMatrix>) -> Self {
        assert!(width > 0, "run width must be positive");
        let last = runs.len().saturating_sub(1);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.rows(), rows, "run {i}: row count");
            if i < last {
                assert_eq!(run.cols(), width, "run {i}: only the last run is narrow");
            } else {
                assert!(
                    (1..=width).contains(&run.cols()),
                    "last run: 1..=width columns"
                );
            }
        }
        CscRuns {
            rows,
            cols: runs.iter().map(CscMatrix::cols).sum(),
            width,
            runs,
        }
    }

    /// `a.select_columns(perm)` cut into runs: column `p` is `a`'s
    /// column `perm[p]`, an exact copy.
    pub fn select_columns(a: &CscMatrix, perm: &[usize], width: usize) -> Self {
        let runs = perm
            .chunks(width.max(1))
            .map(|c| a.select_columns(c))
            .collect();
        Self::from_runs(a.rows(), width, runs)
    }

    /// `a` cut into runs by raw array slicing (explicit zeros kept);
    /// [`CscRuns::to_csc`] inverts it bitwise.
    pub fn from_csc(a: &CscMatrix, width: usize) -> Self {
        let runs = (0..a.cols())
            .step_by(width.max(1))
            .map(|lo| a.slice_columns(lo..(lo + width).min(a.cols())))
            .collect();
        Self::from_runs(a.rows(), width, runs)
    }

    /// The runs concatenated into one matrix.
    pub fn to_csc(&self) -> CscMatrix {
        if self.runs.is_empty() {
            CscMatrix::zeros(self.rows, 0)
        } else {
            gather_csc(&self.runs)
        }
    }

    /// The runs in column order, borrowed.
    pub fn runs(&self) -> &[CscMatrix] {
        &self.runs
    }

    /// Consume the matrix, yielding its runs in column order.
    pub fn into_runs(self) -> Vec<CscMatrix> {
        self.runs
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Columns per run.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.runs.iter().map(CscMatrix::nnz).sum()
    }

    /// Column `j` as `(row_indices, values)`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        self.runs[j / self.width].col(j % self.width)
    }

    /// Heap bytes resident in the runs' CSC arrays.
    pub fn resident_bytes(&self) -> u64 {
        self.runs.iter().map(CscMatrix::resident_bytes).sum()
    }

    /// [`CscMatrix::row_support`] of the given columns.
    pub fn row_support(&self, idx: &[usize]) -> Vec<usize> {
        row_support(self.rows, idx, |j| self.col(j))
    }

    /// [`CscMatrix::row_support_len_capped`] of the given columns.
    pub fn row_support_len_capped(&self, idx: &[usize], cap: usize) -> usize {
        row_support_len_capped(self.rows, idx, cap, |j| self.col(j))
    }

    /// [`CscMatrix::gather_columns_at_rows_dense`] of the given columns.
    pub fn gather_columns_at_rows_dense(&self, idx: &[usize], rows: &[usize]) -> DenseMatrix {
        gather_at_rows(idx, rows, |j| self.col(j))
    }

    /// Drop the entries with `|value| < threshold` in place, the runs
    /// filtered in parallel, each by [`CscMatrix::drop_below_in_place`];
    /// keeps exactly [`CscMatrix::drop_below`]'s entries.
    pub fn drop_below_in_place(&mut self, threshold: f64, par: Parallelism) {
        parallel_chunks_mut(par, &mut self.runs, 1, |_, run| {
            run[0].drop_below_in_place(threshold, Parallelism::SEQ);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // 4 x 7 with an empty column and a stored zero.
        CscMatrix::from_parts(
            4,
            7,
            vec![0, 2, 2, 5, 6, 8, 9, 10],
            vec![0, 3, 0, 1, 2, 3, 0, 2, 1, 2],
            vec![1.0, -2.0, 3.0, 0.0, -4.0, 6.0, -0.25, 8.0, 0.125, 0.5],
        )
    }

    #[test]
    fn runs_round_trip_and_read_like_the_matrix() {
        let a = sample();
        for width in [1, 2, 3, 7, 9] {
            let r = CscRuns::from_csc(&a, width);
            assert_eq!(r.to_csc(), a, "width {width}");
            assert_eq!((r.rows(), r.cols(), r.nnz()), (4, 7, a.nnz()));
            assert_eq!(r.clone().into_runs().len(), 7usize.div_ceil(width));
            for j in 0..7 {
                assert_eq!(r.col(j), a.col(j));
            }
            let perm = [6, 0, 3, 3, 2];
            let s = CscRuns::select_columns(&a, &perm, width);
            assert_eq!(s.to_csc(), a.select_columns(&perm));
        }
        let empty = CscRuns::from_csc(&CscMatrix::zeros(5, 0), 4);
        assert_eq!(empty.to_csc(), CscMatrix::zeros(5, 0));
    }

    #[test]
    fn drop_matches_the_matrix() {
        let a = sample();
        let (kept, _, _) = a.drop_below(1.0);
        for width in [1, 3, 7] {
            let mut r = CscRuns::from_csc(&a, width);
            r.drop_below_in_place(1.0, Parallelism::new(2));
            assert_eq!(r.to_csc(), kept);
        }
    }
}
