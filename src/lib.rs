//! # lra — parallel fixed-precision low-rank approximation of sparse matrices
//!
//! A Rust implementation of the algorithms studied in *"Accuracy vs.
//! Cost in Parallel Fixed-Precision Low-Rank Approximations of Sparse
//! Matrices"* (Ernstbrunner, Mayer, Gansterer — IEEE IPDPS 2022),
//! including every substrate they depend on: dense/sparse linear
//! algebra, tournament pivoting, fill-reducing orderings, an SPMD
//! message-passing runtime, and synthetic workload generators.
//!
//! ## The problem
//!
//! Given a large sparse `A` and a tolerance `tau`, find a rank `K` and
//! factors `H_K (m x K)`, `W_K (K x n)` with
//! `||A - H_K W_K||_F < tau * ||A||_F` — *without* knowing `K` in
//! advance (the fixed-precision problem, eq. 1 of the paper).
//!
//! ## The methods
//!
//! | Method | Kind | Factors | Error control | Returned rank certified by |
//! |---|---|---|---|---|
//! | [`core::rand_qb_ei`] | randomized | dense `Q B` | indicator eq. 4 (floor `2.1e-7`) | the identity row by row, `\|\|A - Q_l B_l\|\|_F^2 = \|\|A\|\|_F^2 - Σ_{r<l} \|\|B(r,:)\|\|^2`: the smallest certified prefix of the last block |
//! | [`core::lu_crtp`] | deterministic from a fixed internal seed; the column tournament chooses its pivots on a random sketch | sparse `L U` | indicator `\|\|A^(i+1)\|\|_F` | the exact identity `\|\|A - L_l U_l\|\|_F = \|\|A^(K+1) + Σ_{t>=l} L_t U_t^T\|\|_F`: the smallest certified prefix of the last block |
//! | [`core::ilut_crtp`] | as LU_CRTP, + thresholding | sparser `L U` | estimator eq. 26 | inside the last block, the triangle bound `p_l + Σ_j \|\|T_j\|\|_F` over the dropped `T_j`; the block stop itself is still the estimator's, uncertified |
//! | [`core::rand_ubv`] | randomized | dense `U B V^T` | Frobenius update | block resolution: the last block is kept whole |
//!
//! ## Quickstart
//!
//! ```
//! use lra::core::{lu_crtp, rand_qb_ei, LuCrtpOpts, QbOpts, Parallelism};
//!
//! // A sparse test matrix with decaying spectrum.
//! let a = lra::matgen::with_decay(&lra::matgen::circuit(200, 4, 3, 1), 1e-6, 2);
//! let tau = 1e-2;
//!
//! // Randomized: dense factors.
//! let qb = rand_qb_ei(&a, &QbOpts::new(16, tau).with_par(Parallelism::full())).unwrap();
//! assert!(qb.converged);
//! assert!(qb.exact_error(&a, Parallelism::SEQ) < tau * qb.a_norm_f);
//!
//! // Deterministic: sparse factors.
//! let lu = lu_crtp(&a, &LuCrtpOpts::new(16, tau));
//! assert!(lu.converged);
//! assert!(lu.indicator < tau * lu.a_norm_f);
//! ```
//!
//! See `examples/` for domain scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

pub use lra_core as core;
pub use lra_dense as dense;
pub use lra_sparse as sparse;
pub use lra_ordering as ordering;
pub use lra_comm as comm;
pub use lra_qrtp as qrtp;
pub use lra_recover as recover;
pub use lra_serve as serve;
pub use lra_matgen as matgen;
pub use lra_obs as obs;
pub use lra_par as par;
