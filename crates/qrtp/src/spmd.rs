//! Rank-distributed tournament pivoting over the `lra-comm` SPMD
//! runtime — the port of the paper's MPI reduction tree (Section V).
//!
//! Each rank owns a contiguous block of candidate columns and reduces
//! them to `k` winners with *no communication* (the local stage). The
//! global stage is one [`Ctx::allreduce`] whose op is the tree node:
//! the winner lists travel in one round, and every rank replays the
//! binomial tree's pairwise merges itself, then the root pass. Only
//! column indices travel between ranks — the matrix itself is shared
//! read-only, matching the paper's observation that the selected
//! columns are gathered where needed.

use crate::source::ColumnSource;
use crate::tournament::{node_select, tournament_columns, ColumnSelection, TournamentTree};
use lra_comm::Ctx;
use lra_par::{split_ranges, Parallelism};
use lra_sparse::{gather_csc, CscMatrix};

/// SPMD column tournament: every rank calls this with the same
/// arguments; every rank returns the same [`ColumnSelection`].
pub fn tournament_columns_spmd<S: ColumnSource + ?Sized>(
    ctx: &Ctx,
    src: &S,
    candidates: Option<&[usize]>,
    k: usize,
) -> ColumnSelection {
    let all: Vec<usize>;
    let cand: &[usize] = match candidates {
        Some(c) => c,
        None => {
            all = (0..src.cols()).collect();
            &all
        }
    };
    let rank = ctx.rank();
    let ranges = split_ranges(cand.len(), ctx.size());
    // Local reduction: communication-free.
    let winners: Vec<usize> = lra_obs::trace::span("qrtp.local_stage", || {
        if rank < ranges.len() && !ranges[rank].is_empty() {
            let own = &cand[ranges[rank].clone()];
            if own.len() <= k {
                own.to_vec()
            } else {
                tournament_columns(src, Some(own), k, TournamentTree::Binary, Parallelism::SEQ)
                    .selected
            }
        } else {
            Vec::new()
        }
    });
    // Global stage: the pairwise merges of the binomial tree, then the
    // root pass (which also yields r_diag), on every rank.
    let winners = ctx.allreduce(winners, |mine: Vec<usize>, theirs: Vec<usize>| {
        if theirs.is_empty() {
            mine
        } else {
            node_select(src, &[mine, theirs].concat(), k, Parallelism::SEQ).0
        }
    });
    let (selected, r_diag) = node_select(src, &winners, k, Parallelism::SEQ);
    ColumnSelection { selected, r_diag }
}

/// One tournament node over a compact candidate matrix: ranks all of
/// its columns, returning winning *positions* (so the caller can slice
/// both its id list and the matrix) plus the QRCP `R` diagonal.
///
/// Bitwise-equivalent to [`node_select`] on the full matrix with the
/// same candidate columns: `panel_r`'s chunking depends only on the
/// candidates' row support and count, and its gathers are positional,
/// so a compact copy of the candidates yields the same dense panels.
fn node_select_positions(cols: &CscMatrix, k: usize) -> (Vec<usize>, Vec<f64>) {
    let idx: Vec<usize> = (0..cols.cols()).collect();
    node_select(cols, &idx, k, Parallelism::SEQ)
}

/// Sharded SPMD column tournament: like [`tournament_columns_spmd`],
/// but the matrix is *distributed* — each rank holds only `local`, its
/// own block-column shard of the virtual matrix (full row dimension,
/// first column at global column `offset`), and winner columns travel
/// with their ids as compact CSC panels, so no rank ever materializes
/// more than `O(P k)` foreign columns.
///
/// Every rank returns the same `(selection, panel)`: `selection` holds
/// *global* column ids of the virtual matrix, and `panel` is the
/// compact copy of the selected columns (full row dimension, columns
/// in pivot order) the caller feeds to TSQR and the block split.
///
/// Produces bitwise-identical selections to running
/// [`tournament_columns_spmd`] on the replicated matrix: the ownership
/// partition here *is* the `split_ranges` partition the replicated
/// local stage uses, and every node works on the same dense panels.
pub fn tournament_columns_spmd_sharded(
    ctx: &Ctx,
    local: &CscMatrix,
    offset: usize,
    k: usize,
) -> (ColumnSelection, CscMatrix) {
    // Local reduction: communication-free, over the owned shard only.
    let winners: Vec<usize> = lra_obs::trace::span("qrtp.local_stage", || {
        if local.cols() <= k {
            (0..local.cols()).collect()
        } else {
            tournament_columns(local, None, k, TournamentTree::Binary, Parallelism::SEQ).selected
        }
    });
    let cols = local.select_columns(&winners);
    let winners: Vec<usize> = winners.iter().map(|&c| c + offset).collect();
    // Global stage: winner columns ride along as compact panels, so no
    // rank ever touches another rank's shard.
    let (winners, cols) = ctx.allreduce(
        (winners, cols),
        |(mine, mine_cols): (Vec<usize>, CscMatrix), (theirs, their_cols)| {
            if theirs.is_empty() {
                return (mine, mine_cols);
            }
            let merged = [mine, theirs].concat();
            let merged_cols = gather_csc(&[mine_cols, their_cols]);
            let (pos, _) = node_select_positions(&merged_cols, k);
            (pos.iter().map(|&p| merged[p]).collect(), merged_cols.select_columns(&pos))
        },
    );
    // The root pass ranks the final winners and yields r_diag and the
    // selected panel.
    let (pos, r_diag) = node_select_positions(&cols, k);
    let selected = pos.iter().map(|&p| winners[p]).collect();
    (ColumnSelection { selected, r_diag }, cols.select_columns(&pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::{matmul, singular_values, DenseMatrix};
    use lra_sparse::{CooMatrix, CscMatrix};

    fn rand_sparse(rows: usize, cols: usize, per_col: usize, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x517CC1B727220A95) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut coo = CooMatrix::new(rows, cols);
        for j in 0..cols {
            for _ in 0..per_col {
                let r = (next() % rows as u64) as usize;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
                coo.push(r, j, v);
            }
        }
        coo.to_csc()
    }

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn all_ranks_agree() {
        let a = rand_sparse(100, 48, 4, 1);
        for np in [1usize, 2, 4, 7] {
            let results = lra_comm::run_infallible(np, |ctx| {
                tournament_columns_spmd(ctx, &a, None, 8).selected
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "np={np}: ranks disagree");
            }
            assert_eq!(results[0].len(), 8);
            let mut s = results[0].clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8);
        }
    }

    #[test]
    fn spmd_finds_independent_columns() {
        let base = rand_dense(60, 5, 2);
        let mix = rand_dense(5, 43, 3);
        let deps = matmul(&base, &mix, lra_par::Parallelism::SEQ);
        let full = base.hcat(&deps);
        let a = CscMatrix::from_dense(&full);
        let results = lra_comm::run_infallible(4, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 5).selected
        });
        let picked = full.select_columns(&results[0]);
        let sv = singular_values(&picked);
        assert!(sv[4] > 1e-8, "picked dependent columns: {sv:?}");
    }

    #[test]
    fn more_ranks_than_candidates() {
        let a = rand_sparse(30, 5, 3, 4);
        let results = lra_comm::run_infallible(8, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 3).selected
        });
        assert_eq!(results[0].len(), 3);
        for r in &results {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn r_diag_broadcast_everywhere() {
        let a = rand_sparse(64, 32, 4, 5);
        let results = lra_comm::run_infallible(3, |ctx| {
            tournament_columns_spmd(ctx, &a, None, 4).r_diag
        });
        assert!(!results[0].is_empty());
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
