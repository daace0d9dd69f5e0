#![allow(clippy::needless_range_loop)] // indexing parallel arrays is clearest in these kernels
//! QR with tournament pivoting (QR_TP) — the rank-revealing engine of
//! LU_CRTP / ILUT_CRTP.
//!
//! Three drivers are provided over one node kernel (QRCP of a panel `R`
//! factor computed by memory-bounded incremental QR over the panel's
//! row support, so node cost follows the stored entries):
//! - [`tournament_columns`]: shared-memory, leaves processed with
//!   `lra-par` workers, merged up a binary tree;
//! - [`tournament_columns_spmd`]: rank-distributed over the `lra-comm`
//!   SPMD runtime, mirroring the paper's MPI reduction tree with its
//!   communication-free local stage and `log2(P)` global stage;
//! - [`tournament_columns_spmd_sharded`]: like the SPMD driver, but
//!   over a *distributed* matrix — each rank holds only its own
//!   block-column `ColSlice`, and winner columns travel with their ids
//!   as compact panels (bitwise-identical selections).

mod source;
mod spmd;
mod tournament;

pub use source::ColumnSource;
pub use spmd::{tournament_columns_spmd, tournament_columns_spmd_sharded};
pub use tournament::{
    panel_r, tournament_columns, tournament_rows_dense, ColumnSelection, TournamentTree,
};
