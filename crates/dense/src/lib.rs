#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! Dense linear algebra substrate for the low-rank approximation stack.
//!
//! This crate replaces the roles that Elemental (dense distributed
//! kernels) and LAPACK played in the paper's C++/MPI implementation:
//! column-major matrices, parallel GEMM variants, Householder QR with
//! explicit thin `Q`, communication-avoiding TSQR, column-pivoted QR
//! (the rank-revealing kernel inside tournament pivoting), dense LU with
//! partial pivoting, and a bidiagonalization-based SVD used as the TSVD
//! reference for the "minimum rank required" curves.
//!
//! All parallel kernels take an explicit [`lra_par::Parallelism`] so the
//! benchmark harness can sweep worker counts like the paper sweeps MPI
//! process counts.

mod blas;
mod householder;
mod isa;
mod jacobi;
mod lu;
mod matrix;
mod qr;
mod qrcp;
mod svd;
mod tsqr;

pub use blas::{matmul, matmul_nt, matmul_sub_assign, matmul_tn};
#[doc(hidden)]
pub use blas::{matmul_naive, matmul_nt_naive, matmul_sub_assign_naive, matmul_tn_naive};
pub use jacobi::jacobi_svd;
pub use lu::{lu, LuFactor};
pub use matrix::{DenseMatrix, DenseView};
#[doc(hidden)]
pub use qr::qr_reference;
pub use qr::{orth, qr, QrFactor};
pub use qrcp::{qrcp, QrcpFactor};
pub use svd::{
    bidiagonal_svd_values, bidiagonalize, min_rank_for_tolerance, singular_values,
};
pub use tsqr::{tsqr, tsqr_r, Tsqr};
