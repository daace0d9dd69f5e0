//! Rank-distributed LU_CRTP / ILUT_CRTP over the `lra-comm` SPMD
//! runtime — the structural port of the paper's MPI implementation
//! (Section V): the one panel loop ([`crate::panel`]) run over two
//! SPMD [`PanelEngine`]s that differ only in where the Schur
//! complement lives. The panel stages that read only the pivot panel
//! are the loop's, run over the rank group: the panel TSQR
//! ([`spmd_panel_tsqr`], rank-owned blocks of the replicated panel's
//! row support, two `allgather`s), the row tournament on `Q_k^T`
//! ([`lra_qrtp::tournament_columns_spmd`]) and the `L21` solve
//! ([`crate::lucrtp::l21`]: `Ā21` rows scattered, the small `X^T`
//! allgathered, since a 1-D column distribution keeps the row panel
//! replicated).
//!
//! **[`SpmdPanelCtx`] — rank-owned shards** (the default,
//! [`crate::Exec::Spmd`]). Each rank holds only its shard of the
//! paper's block-column distribution — a plain [`CscMatrix`] of its
//! columns at a global offset, `O(nnz/np)` resident — never the full
//! matrix. Per iteration:
//!
//! - the column tournament sketches the owned shard, runs its
//!   communication-free local stage on it, then one `allreduce` in
//!   which winner columns travel with their global ids and their
//!   sketch columns as compact panels and every rank replays the
//!   pairwise merges and the root pass
//!   ([`lra_qrtp::tournament_columns_spmd_sharded`]); the
//!   winners' compact panel is the pivot panel the loop's stages read;
//! - the Schur update is computed only for owned columns, with an
//!   `alltoallv` re-sharding from the old column partition to the new
//!   one. The re-shard is a *posted* exchange
//!   ([`lra_comm::Ctx::post_alltoallv`]): the loop's Schur stage has
//!   two halves, so sends go out in the first, factor recording (and
//!   its `gatherv`) runs while the wire drains, and the second half
//!   Schur-updates each received piece as it arrives, measuring each
//!   column as it writes it. A piece is the sender's raw rest columns,
//!   which the receiver routes through the replicated classification as
//!   it updates them. Re-shard part
//!   buffers are recycled across panel iterations from a pool, like
//!   the [`SchurWorkspace`] scratch. Piece-at-a-time updates tile the
//!   new owned range in ascending column order, and the kernel
//!   computes each column independently, so the pipeline moves no bits
//!   against the replicated engine's one pass;
//! - the measurement partials (squared norm, the ILUT drop's mass and
//!   count, nonzeros) are the kernel's per-column partials of the new
//!   shard folded in column order, the `U` fragments are read off the
//!   owned shard, and a drop the loop keeps filters the shard in place.
//!
//! **[`ReplicatedEngine`] — every rank holds the whole Schur
//! complement** (`Exec::SpmdReplicated`). Its column tournament sketches
//! and runs on the whole complement and its Schur update ends in an `allgather`;
//! everything else it computes over the column range the sharded
//! engine would own, through the same code ([`schur_update_ranged`],
//! [`fold_columns`], [`u_fragments_of`], [`owned_run`]), so the two are
//! bit-identical while differing only in resident storage: it is the
//! reference the sharded engine is tested against.
//!
//! Both hand the Schur kernel its columns the way the shared-memory
//! engine does: each rest column is routed into its `Ā12`/`Ā22` parts
//! as [`schur_update_ranged`] reads it, from the replicated complement
//! or from a re-shard piece, and the `U` fragments are routed out of
//! the same columns while they are still held. Neither builds a rest
//! block.
//!
//! Everything else that communicates is the loop's and is the same for
//! both: one `allreduce` of the measurement partials, the `gatherv` of
//! the `U` fragments to rank 0 (the only rank that records factor
//! columns), the snapshot `gatherv` and the memory-peak `allreduce`.
//! No factor is broadcast: rank 0 alone assembles and returns `L`/`U`,
//! and every other rank returns the same result with empty factors.
//!
//! A shard's arrays are recycled from the retired shard, so without a
//! limit they would keep the capacity of the fill peak for the rest of
//! the run, long after an ILUT drop has thinned the complement. After
//! each Schur update the sharded engine gives a new shard's spare
//! capacity back once it exceeds [`SLACK_FACTOR`] times what the shard
//! holds (plus [`SLACK_FLOOR_BYTES`]), and a pooled re-shard buffer
//! that large for the part it would receive is dropped and the part
//! allocated fresh. The check runs after the update and not after the
//! drop: the next update regrows what a drop-time release gave back,
//! and that regrowth page-faults.

use crate::lucrtp::{schur_update_ranged, IlutOpts, LuCrtpOpts, LuCrtpResult, SchurWorkspace};
use crate::panel::{
    block_sums, drive, fold_columns, BlockSums, FactorCol, PanelEngine, PanelSplit, Partials,
    Source,
};
use lra_comm::{Ctx, PendingExchange};
use lra_dense::{qr, tsqr_block_q, tsqr_root, DenseMatrix, QrFactor};
use lra_par::{owned_range, split_ranges, Parallelism};
use lra_qrtp::{
    tournament_columns_spmd, tournament_columns_spmd_sharded, ColumnSelection, Omega, Sketch,
};
use lra_sparse::{gather_csc, BlockSplit, ColRun, CscMatrix};
use std::ops::Range;

/// The shared panel loop over rank-owned shards.
pub(crate) fn run_sharded(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> LuCrtpResult {
    let span = if ilut.is_some() {
        "ilut_crtp_spmd"
    } else {
        "lu_crtp_spmd"
    };
    lra_obs::trace::span(span, || {
        drive(Some(ctx), a, opts, ilut, hooks, |src| {
            SpmdPanelCtx::place(ctx, src, opts)
        })
    })
}

/// The shared panel loop over replicated storage (never checkpointed:
/// it exists to be compared against).
pub(crate) fn run_replicated(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
) -> LuCrtpResult {
    let span = if ilut.is_some() {
        "ilut_crtp_spmd_replicated"
    } else {
        "lu_crtp_spmd_replicated"
    };
    lra_obs::trace::span(span, || {
        drive(Some(ctx), a, opts, ilut, None, |src| ReplicatedEngine {
            ctx,
            s: src.full(),
            opts,
            ws: SchurWorkspace::new(),
            a12: CscMatrix::zeros(0, 0),
            sketch: Sketch::default(),
        })
    })
}

/// Panel TSQR over rank-owned row blocks of the pivot panel's rows
/// `support` (ascending; every row off it is zero): local `qr`,
/// allgather the small `R` factors, the shared root merge
/// ([`lra_dense::tsqr_root`]) on every rank, this rank's block of `Q`
/// ([`lra_dense::tsqr_block_q`]), allgather the `Q` blocks. A rank
/// past the last block sends empty factors. Returns `Q_S`, row `i`
/// being `Q_k`'s row `support[i]`, and `|diag(R)|`.
pub(crate) fn spmd_panel_tsqr(
    ctx: &Ctx,
    panel: &CscMatrix,
    support: &[usize],
) -> (DenseMatrix, Vec<f64>) {
    let (m_s, k_eff) = (support.len(), panel.cols());
    let cols: Vec<usize> = (0..k_eff).collect();
    let blocks = split_ranges(m_s, ctx.size().min((m_s / k_eff.max(1)).max(1)));
    let local = blocks.get(ctx.rank()).map(|rg| {
        qr(&panel.gather_columns_at_rows_dense(&cols, &support[rg.clone()]), Parallelism::SEQ)
    });
    let empty = || DenseMatrix::zeros(0, k_eff);
    let rs = ctx.allgather(local.as_ref().map_or_else(empty, QrFactor::r));
    let (r, mut coeffs) = tsqr_root(&rs, Parallelism::SEQ);
    let r_diag = (0..r.rows()).map(|i| r.get(i, i).abs()).collect();
    let mine = local.map_or_else(empty, |f| tsqr_block_q(&f, &coeffs.swap_remove(ctx.rank())));
    let mut q_s = DenseMatrix::zeros(m_s, k_eff);
    for (rg, q) in blocks.iter().zip(ctx.allgather(mine)) {
        q_s.set_submatrix(rg.start, 0, &q);
    }
    (q_s, r_diag)
}

/// The positions in `rest` (the split's rest columns, ascending) of the
/// ones in the column range `cols`: a contiguous run.
fn owned_run(rest: &[usize], cols: Range<usize>) -> Range<usize> {
    rest.partition_point(|&c| c < cols.start)..rest.partition_point(|&c| c < cols.end)
}

/// Per panel row `t`, the trailing `U` entries of the rest columns
/// `rest` (their ids, ascending) of the current Schur complement, read
/// through `col` and routed through `blocks`: `(original column, value)`
/// in ascending rest-column order.
fn u_fragments_of<'a>(
    blocks: &BlockSplit,
    rest: &[usize],
    col: impl Fn(usize) -> (&'a [usize], &'a [f64]),
    col_map: &[usize],
    k_eff: usize,
) -> Vec<FactorCol> {
    let mut frags: Vec<FactorCol> = vec![Vec::new(); k_eff];
    let mut top = Vec::new();
    for &c in rest {
        blocks.route_rest(col(c), &mut top, |_, _| {});
        for &(t, v) in &top {
            frags[t].push((col_map[c], v));
        }
    }
    frags
}

/// How many times the bytes it holds a shard or a pooled re-shard
/// buffer may reserve (beyond [`SLACK_FLOOR_BYTES`]) before its spare
/// capacity is given back.
const SLACK_FACTOR: u64 = 4;

/// Spare capacity always kept, so small shards never churn the
/// allocator.
const SLACK_FLOOR_BYTES: u64 = 64 << 10;

/// Whether `capacity` bytes reserved for `held` bytes of content is
/// more than the shard path keeps.
fn oversized(capacity: u64, held: u64) -> bool {
    capacity > SLACK_FACTOR * held + SLACK_FLOOR_BYTES
}

/// Panel engine over rank-owned shards: the communicator and the
/// rank's owned block-column shard of the current Schur complement
/// with its global column offset. The shard invariant: after
/// construction and after every re-shard ([`Self::complete_reshard`]),
/// this rank owns exactly `owned_range(split_ranges(n, size), rank)`
/// of the complement's `n` columns (the loop's column map) — the same
/// partition the replicated oracle uses for its per-rank work, which is
/// what makes the two engines bit-identical.
struct SpmdPanelCtx<'a> {
    ctx: &'a Ctx,
    rank: usize,
    size: usize,
    /// The owned columns `offset .. offset + shard.cols()`, full row
    /// dimension.
    shard: CscMatrix,
    offset: usize,
    /// `opts.par` is the intra-rank worker count for the owned-range
    /// kernels (Schur update, threshold pass).
    opts: &'a LuCrtpOpts,
    /// Kernel scratch reused across iterations.
    ws: SchurWorkspace,
    /// The `Ā12` parts of the owned columns, routed out of them by the
    /// last Schur update (column `j` with shard column `j`).
    a12: CscMatrix,
    /// Retired re-shard part buffers recycled across panel iterations:
    /// [`Self::post_reshard`] pops donors instead of allocating `np`
    /// fresh matrices per panel, and the received parts return to the
    /// pool once their columns are folded into the new shard.
    /// Pool capacity is scratch, not resident state — it is *not*
    /// counted by [`PanelEngine::resident`] (the mem gates track the
    /// shard).
    part_pool: Vec<CscMatrix>,
    /// The column tournament's sketch of the shard, its buffer reused
    /// across iterations.
    sketch: Sketch,
}

impl<'a> SpmdPanelCtx<'a> {
    fn place(ctx: &'a Ctx, src: Source<'_>, opts: &'a LuCrtpOpts) -> Self {
        let owned = |n: usize| owned_range(&split_ranges(n, ctx.size()), ctx.rank());
        let (shard, offset) = match src {
            // Only the owned block of the permuted input is extracted;
            // the full Schur complement never exists on any rank.
            Source::Input(a, cols) => {
                let my = owned(cols.len());
                (a.select_columns(&cols[my.clone()]), my.start)
            }
            // Slice this rank's shard out of the snapshot under the
            // *current* rank count — resuming a snapshot written by a
            // larger grid redistributes implicitly.
            Source::Snapshot(s) => {
                let my = owned(s.cols());
                (s.slice_columns(my.clone()), my.start)
            }
        };
        SpmdPanelCtx {
            ctx,
            rank: ctx.rank(),
            size: ctx.size(),
            shard,
            offset,
            opts,
            ws: SchurWorkspace::new(),
            a12: CscMatrix::zeros(0, 0),
            part_pool: Vec::new(),
            sketch: Sketch::default(),
        }
    }

    /// The owned global column range.
    fn owned(&self) -> Range<usize> {
        self.offset..self.offset + self.shard.cols()
    }

    /// Global column `j`, which this rank owns.
    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        debug_assert!(self.owned().contains(&j), "column {j} not owned by {:?}", self.owned());
        self.shard.col(j - self.offset)
    }

    /// Post the re-shard exchange for the just-eliminated panel
    /// without waiting for it: the sends go out now, the receives wait
    /// inside the returned exchange. Each destination's part is cut
    /// straight from the shard's raw rest columns, into a buffer
    /// recycled from [`Self::part_pool`] unless that buffer is
    /// [`oversized`] for the part, which is then allocated fresh. Work
    /// issued between this and [`Self::complete_reshard`] — factor
    /// recording and its `gatherv`, which uses the eager tag namespace,
    /// disjoint from pending-exchange tags, so the reordering cannot
    /// mismatch envelopes — runs while the wire drains.
    fn post_reshard(&mut self, sp: &PanelSplit) -> PendingExchange<'a, CscMatrix> {
        let rest = &sp.blocks.rest_cols;
        let my_run = owned_run(rest, self.owned());
        let new_ranges = split_ranges(rest.len(), self.size);
        let mut parts = Vec::with_capacity(self.size);
        for dst in 0..self.size {
            let drg = owned_range(&new_ranges, dst);
            let js = my_run.start.max(drg.start)..my_run.end.min(drg.end);
            let nnz: usize = js.clone().map(|j| self.col(rest[j]).0.len()).sum();
            // The part's bytes as `resident_bytes` counts them.
            let bytes = ((js.len() + 1 + nnz) * size_of::<usize>() + nnz * size_of::<f64>()) as u64;
            let mut part = match self.part_pool.pop() {
                Some(donor) if !oversized(donor.capacity_bytes(), bytes) => ColRun::recycled(donor),
                _ => ColRun::default(),
            };
            part.reserve(js.len(), nnz);
            for j in js {
                part.push_col(self.col(rest[j]));
            }
            parts.push(part.into_csc(self.shard.rows()));
        }
        self.ctx.post_alltoallv(parts)
    }

    /// Complete a posted re-shard: drain the exchange in source-rank
    /// order, Schur-updating each piece the moment it arrives — per-piece
    /// compute hides the tail of the drain — into the retired shard's
    /// arrays, which become the new shard; the full next Schur complement
    /// is never materialized. Both partitions are ascending contiguous
    /// tilings, so the pieces, in source-rank order, tile the new owned
    /// range in ascending column order; the kernel routes and computes
    /// every column independently (same classification on every rank,
    /// same per-column arithmetic, same ascending emission), so splitting
    /// one pass over the gathered range at piece boundaries moves no bits,
    /// nor does folding the pieces' per-column partials in arrival order:
    /// that is column order. The installed shard gives back its spare
    /// capacity once it is [`oversized`]. Returns the new shard's
    /// partials at `thr`.
    fn complete_reshard(
        &mut self,
        sp: &PanelSplit,
        pend: PendingExchange<'a, CscMatrix>,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Partials {
        let (m_rest, n_rest) = (sp.blocks.rest_rows.len(), sp.blocks.rest_cols.len());
        let my_new = owned_range(&split_ranges(n_rest, self.size), self.rank);
        let retired = std::mem::replace(&mut self.shard, CscMatrix::zeros(0, 0));
        let mut updated = ColRun::recycled(retired).into_csc(m_rest);
        let mut a12 = ColRun::recycled(std::mem::replace(&mut self.a12, CscMatrix::zeros(0, 0)));
        let mut meas = Vec::with_capacity(my_new.len());
        let (ws, pool, par) = (&mut self.ws, &mut self.part_pool, self.opts.par);
        pend.complete_with(|_src, part: CscMatrix| {
            let (col, cols, split) = (|j| part.col(j), 0..part.cols(), &sp.blocks);
            let (out, top) = (&mut updated, &mut a12);
            schur_update_ranged(col, cols, split, x_rows, x, thr, ws, par, out, top, &mut meas);
            pool.push(part);
        });
        self.a12 = a12.into_csc(sp.a11.rows());
        debug_assert_eq!(updated.cols(), my_new.len());
        if oversized(updated.capacity_bytes(), updated.resident_bytes()) {
            updated.shrink_to_fit();
        }
        self.shard = updated;
        self.offset = my_new.start;
        fold_columns(&meas)
    }
}

impl<'a> PanelEngine for SpmdPanelCtx<'a> {
    type Pending = PendingExchange<'a, CscMatrix>;

    fn resident(&self) -> (u64, u64) {
        (self.shard.resident_bytes(), self.shard.nnz() as u64)
    }

    /// Column tournament over the distributed Schur complement: each
    /// rank sketches its shard, and winner columns travel with their
    /// global ids and their sketch columns, so every rank ends up
    /// holding the `O(m b)` pivot columns — the panel the loop's TSQR
    /// and split read, whose dense row blocks equal those the
    /// replicated oracle's copy of the same columns gives.
    fn col_tournament(
        &mut self,
        k_want: usize,
        omega: &Omega,
        row_ids: &[usize],
    ) -> (ColumnSelection, CscMatrix) {
        let shard = &self.shard;
        omega.sketch(row_ids, shard.cols(), |j| shard.col(j), &mut self.sketch, self.opts.par);
        tournament_columns_spmd_sharded(self.ctx, shard, self.offset, k_want, Some(&self.sketch))
    }

    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        _: &[usize],
        _: &DenseMatrix,
        _: f64,
    ) -> Self::Pending {
        self.post_reshard(sp)
    }

    fn schur_finish(
        &mut self,
        sp: &PanelSplit,
        pending: Self::Pending,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Partials {
        self.complete_reshard(sp, pending, x_rows, x, thr)
    }

    /// `(global column, value)` pairs from the owned `Ā12` piece, keyed
    /// by panel row. The owned rest columns are read in the shard, which
    /// the re-shard retires only in [`PanelEngine::schur_finish`].
    fn u_fragments(&self, sp: &PanelSplit, col_map: &[usize], k_eff: usize) -> Vec<FactorCol> {
        let rest = &sp.blocks.rest_cols;
        let owned = &rest[owned_run(rest, self.owned())];
        u_fragments_of(&sp.blocks, owned, |c| self.col(c), col_map, k_eff)
    }

    fn drop_below(&mut self, thr: f64) {
        self.shard.drop_below_in_place(thr, self.opts.par);
    }

    fn schur_pieces(&self) -> Vec<&CscMatrix> {
        vec![&self.shard]
    }

    fn block_sums(&self, xq: &[usize], xt: &DenseMatrix) -> BlockSums {
        let shard = &self.shard;
        block_sums(|j| shard.col(j), &self.a12, xq, xt, self.opts.par)
    }
}

/// Panel engine over fully replicated storage — the bitwise reference
/// for [`SpmdPanelCtx`]. Every rank holds the whole Schur complement
/// and classifies it as `CscMatrix::split_blocks` does; per-rank work
/// (the Schur update and the partials it measures) covers the column
/// range the sharded engine would own.
struct ReplicatedEngine<'a> {
    ctx: &'a Ctx,
    s: CscMatrix,
    opts: &'a LuCrtpOpts,
    ws: SchurWorkspace,
    /// The `Ā12` parts of the columns this rank updated last, as the
    /// sharded engine keeps them.
    a12: CscMatrix,
    /// The column tournament's sketch of the whole complement.
    sketch: Sketch,
}

impl ReplicatedEngine<'_> {
    /// This rank's block of the current column partition.
    fn my_cols(&self) -> Range<usize> {
        owned_range(&split_ranges(self.s.cols(), self.ctx.size()), self.ctx.rank())
    }
}

impl PanelEngine for ReplicatedEngine<'_> {
    /// The next complement, installed once the `U` fragments are read
    /// off this one, and this rank's partials of it.
    type Pending = (CscMatrix, Partials);

    fn resident(&self) -> (u64, u64) {
        (self.s.resident_bytes(), self.s.nnz() as u64)
    }

    /// Sketches the whole complement on every rank.
    fn col_tournament(
        &mut self,
        k_want: usize,
        omega: &Omega,
        row_ids: &[usize],
    ) -> (ColumnSelection, CscMatrix) {
        let s = &self.s;
        omega.sketch(row_ids, s.cols(), |j| s.col(j), &mut self.sketch, self.opts.par);
        let sel = tournament_columns_spmd(self.ctx, s, k_want, Some(&self.sketch));
        let panel = self.s.select_columns(&sel.selected);
        (sel, panel)
    }

    /// Block-column distribution over the complement, read in place,
    /// + allgather.
    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Self::Pending {
        let (s, rest) = (&self.s, &sp.blocks.rest_cols);
        let my_range = owned_range(&split_ranges(rest.len(), self.ctx.size()), self.ctx.rank());
        let mut partial = CscMatrix::zeros(sp.blocks.rest_rows.len(), 0);
        let mut a12 = ColRun::recycled(std::mem::replace(&mut self.a12, CscMatrix::zeros(0, 0)));
        let mut meas = Vec::with_capacity(my_range.len());
        let (ws, par) = (&mut self.ws, self.opts.par);
        let (col, split, out) = (|j: usize| s.col(rest[j]), &sp.blocks, &mut partial);
        schur_update_ranged(col, my_range, split, x_rows, x, thr, ws, par, out, &mut a12, &mut meas);
        self.a12 = a12.into_csc(sp.a11.rows());
        (gather_csc(&self.ctx.allgather(partial)), fold_columns(&meas))
    }

    fn schur_finish(
        &mut self,
        _: &PanelSplit,
        (next, mine): Self::Pending,
        _: &[usize],
        _: &DenseMatrix,
        _: f64,
    ) -> Partials {
        self.s = next;
        mine
    }

    /// The fragments of the rest columns the sharded engine owns.
    fn u_fragments(&self, sp: &PanelSplit, col_map: &[usize], k_eff: usize) -> Vec<FactorCol> {
        let rest = &sp.blocks.rest_cols;
        let owned = &rest[owned_run(rest, self.my_cols())];
        u_fragments_of(&sp.blocks, owned, |c| self.s.col(c), col_map, k_eff)
    }

    fn drop_below(&mut self, thr: f64) {
        self.s.drop_below_in_place(thr, self.opts.par);
    }

    /// The whole complement on rank 0, nothing elsewhere. Never reached
    /// — the oracle is never checkpointed — but gathered in rank order
    /// it is the whole complement, as for the sharded engine.
    fn schur_pieces(&self) -> Vec<&CscMatrix> {
        match self.ctx.rank() {
            0 => vec![&self.s],
            _ => Vec::new(),
        }
    }

    /// Over the columns the sharded engine owns, as it sums them.
    fn block_sums(&self, xq: &[usize], xt: &DenseMatrix) -> BlockSums {
        let (s, off) = (&self.s, self.my_cols().start);
        block_sums(|j| s.col(off + j), &self.a12, xq, xt, self.opts.par)
    }
}
