//! Rank-distributed tournament pivoting over the `lra-comm` SPMD
//! runtime — the port of the paper's MPI reduction tree (Section V).
//!
//! Each rank owns a contiguous block of candidate columns and reduces
//! them to `k` winners with *no communication* (the local stage,
//! written once for both drivers). The global stage is one
//! [`Ctx::allreduce`] whose op is the tree node: the winner lists
//! travel in one round, and every rank replays the binomial tree's
//! pairwise merges itself, then the root pass.
//!
//! [`tournament_columns_spmd`] reads a matrix every rank holds, so only
//! column indices travel between ranks, matching the paper's
//! observation that the selected columns are gathered where needed;
//! [`tournament_columns_spmd_sharded`] reads one block-column shard
//! per rank, so winner columns travel with their ids. Both take the
//! sketch the nodes rank as an `Option`: `None` ranks every node's
//! exact panel.

use crate::sketch::Sketch;
use crate::source::ColumnSource;
use crate::tournament::{node_select, rank_node, reduce, stored, ColumnSelection, TreeArea};
use lra_comm::Ctx;
use lra_par::{split_ranges, Parallelism};
use lra_sparse::{gather_csc, CscMatrix};
use std::cell::Cell;

/// SPMD column tournament over all columns of `src`: every rank calls
/// this with the same arguments; every rank returns the same
/// [`ColumnSelection`] (its `area` excepted: each rank reports its own
/// local stage and the merges it replays). Without a sketch every node
/// ranks its exact panel; with `sketch`, the sketch of every column of
/// `src`, on every rank, the local stage and the merges rank sketches
/// unless their exact panel is short (`tournament_columns_sketched`),
/// and columns with no stored entry are not candidates.
pub fn tournament_columns_spmd<S: ColumnSource + ?Sized>(
    ctx: &Ctx,
    src: &S,
    k: usize,
    sketch: Option<&Sketch>,
) -> ColumnSelection {
    let all: Vec<usize> = (0..src.cols()).collect();
    let ranges = split_ranges(all.len(), ctx.size());
    let own = match ranges.get(ctx.rank()) {
        Some(r) => &all[r.clone()],
        None => &[][..],
    };
    let (winners, local) = local_stage(src, sketch, own, k);
    // Global stage: the pairwise merges of the binomial tree, then the
    // root pass (which also yields r_diag), on every rank.
    let area = Cell::new(local);
    let winners = ctx.allreduce(winners, |mine: Vec<usize>, theirs: Vec<usize>| {
        if theirs.is_empty() {
            return mine;
        }
        let (w, a) = rank_node(src, sketch, &[mine, theirs].concat(), k);
        area.set(area.get().add(a));
        w
    });
    let (selected, r_diag) = node_select(src, &winners, k, Parallelism::SEQ);
    ColumnSelection { selected, r_diag, area: area.get() }
}

/// The communication-free local stage over a rank's candidates `own`:
/// the candidates (the stored ones, given a sketch) if at most `k`,
/// else the tree's winners — after its root pass without a sketch,
/// after its last merge with one (the global stage merges them again).
fn local_stage<S: ColumnSource + ?Sized>(
    src: &S,
    sketch: Option<&Sketch>,
    own: &[usize],
    k: usize,
) -> (Vec<usize>, TreeArea) {
    lra_obs::trace::span("qrtp.local_stage", || {
        let own = match sketch {
            Some(_) => stored(src, own),
            None => own.to_vec(),
        };
        if own.len() <= k {
            return (own, TreeArea::default());
        }
        let (winners, area) = reduce(src, sketch, &own, k, Parallelism::SEQ);
        match sketch {
            Some(_) => (winners, area),
            None => (node_select(src, &winners, k, Parallelism::SEQ).0, area),
        }
    })
}

/// Sharded SPMD column tournament: like [`tournament_columns_spmd`],
/// but the matrix is *distributed* — each rank holds only `local`, its
/// own block-column shard of the virtual matrix (full row dimension,
/// first column at global column `offset`), and `sketch` is the sketch
/// of the shard's columns. Winner columns travel with their ids (and
/// their sketch columns) as compact CSC panels in the global stage's
/// one `allreduce`, so no rank ever materializes more than `O(P k)`
/// foreign columns.
///
/// Every rank returns the same `(selection, panel)`: `selection` holds
/// *global* column ids of the virtual matrix, and `panel` is the
/// compact copy of the selected columns (full row dimension, columns
/// in pivot order) the caller feeds to TSQR and the block split.
///
/// Produces bitwise-identical selections to running
/// [`tournament_columns_spmd`] on the replicated matrix (with the
/// sketch of all its columns): the ownership partition here *is* the
/// `split_ranges` partition the replicated local stage uses, and every
/// node works on the same dense panels: `panel_r`'s chunking depends
/// only on the candidates' row support and count, and its gathers are
/// positional, so a compact copy of the candidates yields the same
/// panels.
pub fn tournament_columns_spmd_sharded(
    ctx: &Ctx,
    local: &CscMatrix,
    offset: usize,
    k: usize,
    sketch: Option<&Sketch>,
) -> (ColumnSelection, CscMatrix) {
    let all: Vec<usize> = (0..local.cols()).collect();
    let (winners, local_area) = local_stage(local, sketch, &all, k);
    let cols = local.select_columns(&winners);
    let sk = sketch.map(|s| s.select(&winners)).unwrap_or_default();
    let winners: Vec<usize> = winners.iter().map(|&c| c + offset).collect();
    // Global stage: winner columns and their sketches ride along as
    // compact panels, so no rank ever touches another rank's shard.
    let area = Cell::new(local_area);
    let (winners, cols, _) = ctx.allreduce(
        (winners, cols, sk),
        |(mine, mine_cols, mine_sk): (Vec<usize>, CscMatrix, Sketch), (theirs, their_cols, their_sk)| {
            if theirs.is_empty() {
                return (mine, mine_cols, mine_sk);
            }
            let merged = [mine, theirs].concat();
            let merged_cols = gather_csc(&[mine_cols, their_cols]);
            let merged_sk = mine_sk.concat(&their_sk);
            let all: Vec<usize> = (0..merged.len()).collect();
            let (pos, a) = rank_node(&merged_cols, sketch.map(|_| &merged_sk), &all, k);
            area.set(area.get().add(a));
            let ids = pos.iter().map(|&p| merged[p]).collect();
            (ids, merged_cols.select_columns(&pos), merged_sk.select(&pos))
        },
    );
    // The root pass ranks the final winners and yields r_diag and the
    // selected panel.
    let all: Vec<usize> = (0..cols.cols()).collect();
    let (pos, r_diag) = node_select(&cols, &all, k, Parallelism::SEQ);
    let selected = pos.iter().map(|&p| winners[p]).collect();
    let sel = ColumnSelection { selected, r_diag, area: area.get() };
    (sel, cols.select_columns(&pos))
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
                tournament_columns_spmd(ctx, &a, 8, None).selected
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
            tournament_columns_spmd(ctx, &a, 5, None).selected
        });
        let picked = full.select_columns(&results[0]);
        let sv = singular_values(&picked);
        assert!(sv[4] > 1e-8, "picked dependent columns: {sv:?}");
    }

    #[test]
    fn more_ranks_than_candidates() {
        let a = rand_sparse(30, 5, 3, 4);
        let results = lra_comm::run_infallible(8, |ctx| {
            tournament_columns_spmd(ctx, &a, 3, None).selected
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
            tournament_columns_spmd(ctx, &a, 4, None).r_diag
        });
        assert!(!results[0].is_empty());
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }
}
