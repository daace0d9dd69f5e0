#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! Sparse matrix substrate: COO/CSC formats, Matrix Market I/O, and the
//! sparse kernels (SpMM against dense blocks, SpGEMM, permutation,
//! block splitting, threshold dropping) that the fixed-precision
//! low-rank algorithms are built from.
//!
//! Design notes:
//! - CSC is the single compressed format; `transpose()` doubles as the
//!   CSR view, mirroring how the paper's implementation stores
//!   `A^(i)` column-distributed for tournament pivoting.
//! - `split_blocks` implements the `[Ā11 Ā12; Ā21 Ā22]` partitioning of
//!   Algorithm 2 line 8 in one pass.
//! - `drop_below` returns the dropped Frobenius mass so ILUT_CRTP can
//!   maintain its threshold-control sum (eq. 22) exactly.

mod coo;
mod csc;
mod dist;
mod io;
mod ops;
mod spa;

pub use coo::CooMatrix;
pub use csc::{BlockSplit, CscMatrix, SparseBuilder};
pub use dist::{gather_csc, scatter_csc, slice_columns_recycled, ColSlice};
pub use io::{
    read_matrix_market, read_matrix_market_file, write_matrix_market, write_matrix_market_file,
    MmError,
};
pub use ops::{add_scaled, spgemm, spgemm_reference, spmm_dense, spmm_t_dense, spmv};
pub use spa::SparseAccumulator;
