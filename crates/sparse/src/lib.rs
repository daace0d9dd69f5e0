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
//! - `BlockSplit` classifies the rows and columns of Algorithm 2 line 8's
//!   `[Ā11 Ā12; Ā21 Ā22]` partitioning and routes a rest column into its
//!   `Ā12`/`Ā22` parts as a Schur update reads it; `split_blocks`
//!   materializes all four blocks in one pass, the tests' reference.
//! - `drop_below` returns the dropped Frobenius mass, the reference for
//!   the mass ILUT_CRTP's threshold control sums (eq. 22); the drivers
//!   measure that mass as their Schur kernel writes the complement and
//!   drop in place (`drop_below_in_place`, a pure filter), so a drop
//!   never holds a second copy.
//! - `CscRuns` keeps a matrix as consecutive fixed-width column runs,
//!   the storage that lets a Schur update retire the old complement run
//!   by run while it writes the new one.
//! - `ColRun` is the one column-by-column builder: Schur runs, the
//!   split's blocks and the factors are all appended through it.
//! - A rank's block-column shard is a plain `CscMatrix` cut by
//!   `slice_columns`; `scatter_csc`/`gather_csc` split and join them.

mod coo;
mod csc;
mod dist;
mod io;
mod ops;
mod runs;

pub use coo::CooMatrix;
pub use csc::{BlockSplit, ColRun, CscMatrix};
pub use dist::{gather_csc, scatter_csc};
pub use io::{
    read_matrix_market, read_matrix_market_file, write_matrix_market, write_matrix_market_file,
    MmError,
};
pub use ops::{add_scaled, spgemm, spgemm_reference, spmm_dense, spmm_t_dense, spmv};
pub use runs::CscRuns;
