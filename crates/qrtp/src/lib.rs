#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! QR with tournament pivoting (QR_TP) — the rank-revealing engine of
//! LU_CRTP / ILUT_CRTP.
//!
//! Three drivers are provided over one tree whose nodes rank by QRCP
//! either the panel's `R` factor, computed by memory-bounded incremental
//! QR over the panel's row support (so node cost follows the stored
//! entries), or, given a [`Sketch`] `Ω^T A` of the columns (drawn by
//! [`Omega`]), the candidates' sketch columns when their exact panel
//! would be taller than `max(r, 64)` rows (the `_sketched` entry
//! points; the root pass stays exact):
//! - [`tournament_columns`]: shared-memory, leaves processed with
//!   `lra-par` workers, merged up a binary tree;
//! - [`tournament_columns_spmd`]: rank-distributed over the `lra-comm`
//!   SPMD runtime, mirroring the paper's MPI reduction tree with its
//!   communication-free local stage; the global stage is one
//!   `allreduce` whose op is the tree node;
//! - [`tournament_columns_spmd_sharded`]: like the SPMD driver, but
//!   over a *distributed* matrix — each rank holds only its own
//!   block-column shard, a plain `CscMatrix` at a column offset, and
//!   winner columns travel with their ids as compact panels
//!   (bitwise-identical selections).

mod sketch;
mod source;
mod spmd;
mod tournament;

pub use sketch::{Omega, Sketch};
pub use source::ColumnSource;
pub use spmd::{
    tournament_columns_spmd, tournament_columns_spmd_sharded,
    tournament_columns_spmd_sharded_sketched, tournament_columns_spmd_sketched,
};
pub use tournament::{
    panel_r, tournament_columns, tournament_columns_sketched, tournament_rows_dense,
    ColumnSelection, TournamentTree, TreeArea,
};
