//! Rank-distributed LU_CRTP / ILUT_CRTP over the `lra-comm` SPMD
//! runtime — the structural port of the paper's MPI implementation
//! (Section V): the one panel loop ([`crate::panel`]) run over two
//! SPMD [`PanelEngine`]s that differ only in where the Schur
//! complement lives.
//!
//! **[`SpmdPanelCtx`] — rank-owned shards** (the default,
//! [`crate::Exec::Spmd`]). Each rank holds only its [`ColSlice`] of the
//! paper's block-column distribution (`O(nnz/np)` resident), never the
//! full matrix. Per iteration:
//!
//! - the column tournament runs its communication-free local stage on
//!   the owned shard, then `log2(P)` pairwise reduction rounds in
//!   which winner columns travel with their global ids as compact
//!   panels ([`lra_qrtp::tournament_columns_spmd_sharded`]);
//! - the panel TSQR gathers its row blocks from the (replicated,
//!   `O(b^2)`-ish) winner panel broadcast by the tournament;
//! - `Ā21` rows are scattered for the `L21` solve and the small `X^T`
//!   is allgathered (a 1-D column distribution keeps the row panel
//!   replicated);
//! - the Schur update is computed only for owned columns, with an
//!   `alltoallv` re-sharding from the old column partition to the new
//!   one. By default the re-shard is a *posted* exchange
//!   ([`lra_comm::Ctx::post_alltoallv`]): the loop's Schur stage has
//!   two halves, so sends go out in the first, factor recording (and
//!   its `gatherv`) runs while the wire drains, and the second half
//!   Schur-updates each received piece as it arrives. Re-shard part
//!   buffers are recycled across panel iterations from a pool, like
//!   the [`SchurWorkspace`] scratch. [`Reshard::Eager`] — reachable
//!   only through `Exec::SpmdEager` — blocks in the first half instead
//!   and is the bitwise oracle for
//!   the pipeline (piece-at-a-time updates tile the new owned range in
//!   ascending column order, and the kernel computes each column
//!   independently, so the reordering moves no bits);
//! - the error indicator is a partial-norm allreduce, and ILUT
//!   thresholding combines per-shard dropped mass through the same
//!   allreduce tree on every rank;
//! - only rank 0 accumulates the factor columns (small per-panel
//!   fragments travel by `gatherv`); the final `L`/`U` are broadcast
//!   once at the end, so every rank returns the same result.
//!
//! **[`ReplicatedEngine`] — every rank holds the whole Schur
//! complement** (`Exec::SpmdReplicated`). It calls the same panel
//! TSQR, row tournament and `L21` solve, and partitions its Schur
//! update, indicator and dropped-mass partials over the *same* column
//! ranges and reduction trees the sharded engine owns, so the two are
//! bit-identical while differing only in resident storage: it is the
//! reference the sharded engine is tested against.

use crate::lucrtp::{
    csc_resident_bytes, schur_update_ranged, u_fragments_of, ColRun, IlutOpts, LuCrtpOpts,
    LuCrtpResult, MemStats, SchurWorkspace,
};
use crate::panel::{assemble_factors, drive, FactorCol, PanelEngine, PanelSplit, Source};
use lra_comm::{Ctx, PendingExchange};
use lra_dense::{qr, DenseMatrix, LuFactor};
use lra_par::{owned_range, split_ranges, Parallelism};
use lra_qrtp::{tournament_columns_spmd, tournament_columns_spmd_sharded, ColumnSelection};
use lra_sparse::{gather_csc, slice_columns_recycled, BlockSplit, ColSlice, CscMatrix};
use std::borrow::Cow;
use std::ops::Range;

/// The shared panel loop over rank-owned shards.
pub(crate) fn run_sharded(
    ctx: &Ctx,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
    reshard: Reshard,
) -> LuCrtpResult {
    let span = match (ilut.is_some(), reshard) {
        (false, Reshard::Overlapped) => "lu_crtp_spmd",
        (true, Reshard::Overlapped) => "ilut_crtp_spmd",
        (false, Reshard::Eager) => "lu_crtp_spmd_eager",
        (true, Reshard::Eager) => "ilut_crtp_spmd_eager",
    };
    lra_obs::trace::span(span, || {
        drive(Some(ctx), a, opts, ilut, hooks, |src| {
            SpmdPanelCtx::place(ctx, src, opts, reshard)
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
        })
    })
}

/// Panel TSQR over rank-owned row blocks of the pivot panel (columns
/// `cols` of `src`): local QR, allgather the small R factors,
/// replicated root QR, local Q reconstruction, allgather the Q blocks.
/// Returns `Q_k` and `|diag(R)|`.
fn spmd_panel_tsqr(ctx: &Ctx, src: &CscMatrix, cols: &[usize]) -> (DenseMatrix, Vec<f64>) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let m_act = src.rows();
    let k_eff = cols.len();
    let blocks = split_ranges(m_act, size.min((m_act / k_eff.max(1)).max(1)));
    let my_block = blocks.get(rank).cloned();
    let (my_r, my_f) = match &my_block {
        Some(rg) => {
            let local = src.gather_columns_rows_dense(cols, rg.clone());
            let f = qr(&local, Parallelism::SEQ);
            (f.r(), Some(f))
        }
        None => (DenseMatrix::zeros(0, k_eff), None),
    };
    let all_r: Vec<DenseMatrix> = ctx.allgather(my_r);
    let mut stacked: Option<DenseMatrix> = None;
    for r in all_r {
        if r.rows() == 0 {
            continue;
        }
        stacked = Some(match stacked {
            None => r,
            Some(prev) => prev.vcat(&r),
        });
    }
    let top = qr(&stacked.expect("empty panel"), Parallelism::SEQ);
    let panel_r_diag: Vec<f64> = top.r_diag().iter().map(|v| v.abs()).take(k_eff).collect();
    let qs = top.q_thin(Parallelism::SEQ);
    // Back-propagate this rank's block of Q.
    let my_q = match (&my_block, my_f) {
        (Some(rg), Some(f)) => {
            // Rows of qs owned by this rank: blocks before ours
            // contribute min(block_len, k_eff) rows each.
            let mut off = 0;
            for (b, brange) in blocks.iter().enumerate() {
                if b == rank {
                    break;
                }
                off += brange.len().min(k_eff);
            }
            let my_rows = rg.len().min(k_eff);
            let mut piece = DenseMatrix::zeros(rg.len(), k_eff);
            for j in 0..k_eff {
                for i in 0..my_rows {
                    piece.set(i, j, qs.get(off + i, j));
                }
            }
            f.apply_q(&mut piece, Parallelism::SEQ);
            piece
        }
        _ => DenseMatrix::zeros(0, k_eff),
    };
    let all_q: Vec<DenseMatrix> = ctx.allgather(my_q);
    let mut qk = DenseMatrix::zeros(m_act, k_eff);
    let mut row0 = 0;
    for q in all_q {
        if q.rows() == 0 {
            continue;
        }
        qk.set_submatrix(row0, 0, &q);
        row0 += q.rows();
    }
    (qk, panel_r_diag)
}

/// Row tournament on `Q_k^T` (replicated input, distributed tree).
fn spmd_row_tournament(ctx: &Ctx, qk: &DenseMatrix, k_eff: usize) -> Vec<usize> {
    tournament_columns_spmd(ctx, &qk.transpose(), None, k_eff).selected
}

/// `L21` solve: `Ā21` rows scattered across ranks, `Ā11` replicated
/// (broadcast in the paper), result allgathered — the small dense
/// `X^T` is needed in full by every rank's Schur correction under a
/// 1-D column distribution. `tbuf` receives `Ā21^T`.
fn spmd_l21(
    ctx: &Ctx,
    a21: &CscMatrix,
    lu11: &LuFactor,
    tbuf: &mut CscMatrix,
) -> (Vec<usize>, DenseMatrix) {
    let k_eff = a21.cols();
    a21.transpose_into(tbuf);
    let a21t = &*tbuf;
    let x_rows: Vec<usize> = (0..a21t.cols()).filter(|&c| a21t.col_nnz(c) > 0).collect();
    let nr = x_rows.len();
    let my_range = owned_range(&split_ranges(nr, ctx.size()), ctx.rank());
    let mut my_xt = DenseMatrix::zeros(k_eff, my_range.len());
    for (slot, xi) in my_range.enumerate() {
        let col = my_xt.col_mut(slot);
        let (ri, vs) = a21t.col(x_rows[xi]);
        for (&t, &v) in ri.iter().zip(vs) {
            col[t] = v;
        }
        lu11.solve_transpose_slice(col);
    }
    let all_xt: Vec<DenseMatrix> = ctx.allgather(my_xt);
    let mut xt = DenseMatrix::zeros(k_eff, nr);
    let mut c0 = 0;
    for part in all_xt {
        if part.cols() == 0 {
            continue;
        }
        xt.set_submatrix(0, c0, &part);
        c0 += part.cols();
    }
    (x_rows, xt)
}

/// Combine per-rank dropped `(mass, count)` partials through the same
/// allreduce tree on every rank.
fn allreduce_drop(ctx: &Ctx, my_mass: f64, my_count: usize) -> (f64, usize) {
    let (mass, count) =
        ctx.allreduce((my_mass, my_count as u64), |x, y| (x.0 + y.0, x.1 + y.1));
    (mass, count as usize)
}

/// An in-flight re-shard: the posted `alltoallv` plus the geometry of
/// the new column partition. Produced by
/// [`SpmdPanelCtx::post_reshard`], consumed by
/// [`SpmdPanelCtx::complete_reshard`]; the compute placed between the
/// two is what the wire time hides behind.
struct PendingReshard<'a> {
    pend: PendingExchange<'a, (CscMatrix, CscMatrix)>,
    new_ranges: Vec<Range<usize>>,
    m_rest: usize,
    n_rest: usize,
}

/// Re-shard scheduling of the sharded engine: `Overlapped` posts the
/// per-panel exchange and hides the wire behind factor recording plus
/// per-piece Schur updates (the default); `Eager` is the original
/// blocking exchange, kept as the bitwise oracle for the pipeline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reshard {
    Overlapped,
    Eager,
}

/// Panel engine over rank-owned shards: the communicator, the rank's
/// owned block-column [`ColSlice`] of the current Schur complement,
/// and the replicated global dimensions, with one method per
/// distributed stage of an LU_CRTP iteration. The shard invariant:
/// after construction and after every re-shard (eager
/// [`Self::schur_redistribute`] or overlapped
/// [`Self::complete_reshard`]), this rank owns exactly
/// `owned_range(split_ranges(n_cur, size),
/// rank)` — the same partition the replicated oracle uses for its
/// per-rank work, which is what makes the two engines bit-identical.
struct SpmdPanelCtx<'a> {
    ctx: &'a Ctx,
    rank: usize,
    size: usize,
    shard: ColSlice,
    /// Global column count of the (virtual) Schur complement.
    n_cur: usize,
    /// `opts.par` is the intra-rank worker count for the owned-range
    /// kernels (Schur update, threshold pass).
    opts: &'a LuCrtpOpts,
    reshard: Reshard,
    /// The pivot panel the last column tournament broadcast: the
    /// `O(m b)` selected columns, whole on every rank.
    panel: CscMatrix,
    /// Kernel scratch reused across iterations.
    ws: SchurWorkspace,
    /// Retired re-shard part buffers recycled across panel iterations:
    /// [`Self::build_reshard_parts`] pops donors instead of allocating
    /// `2·np` fresh matrices per panel, and the received parts return
    /// to the pool once their columns are folded into the new shard.
    /// Pool capacity is scratch, not resident state — it is *not*
    /// counted by [`Self::note_mem`] (the mem gates track the shard).
    part_pool: Vec<CscMatrix>,
    peak_bytes: usize,
    peak_nnz: usize,
}

impl<'a> SpmdPanelCtx<'a> {
    fn place(ctx: &'a Ctx, src: Source<'_>, opts: &'a LuCrtpOpts, reshard: Reshard) -> Self {
        let owned = |n: usize| owned_range(&split_ranges(n, ctx.size()), ctx.rank());
        let (shard, n_cur) = match src {
            // Only the owned block of the permuted input is extracted;
            // the full Schur complement never exists on any rank.
            Source::Input(a, cols) => {
                let my = owned(cols.len());
                let local = a.select_columns(&cols[my.clone()]);
                (ColSlice::new(my.start, local), cols.len())
            }
            // Slice this rank's shard out of the snapshot under the
            // *current* rank count — resuming a snapshot written by a
            // larger grid redistributes implicitly.
            Source::Snapshot(s) => (ColSlice::from_full(&s, owned(s.cols())), s.cols()),
        };
        let mut eng = SpmdPanelCtx {
            ctx,
            rank: ctx.rank(),
            size: ctx.size(),
            shard,
            n_cur,
            opts,
            reshard,
            panel: CscMatrix::zeros(0, 0),
            ws: SchurWorkspace::new(),
            part_pool: Vec::new(),
            peak_bytes: 0,
            peak_nnz: 0,
        };
        eng.note_mem();
        eng
    }

    fn note_mem(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.shard.resident_bytes());
        self.peak_nnz = self.peak_nnz.max(self.shard.nnz());
    }

    /// An empty column run over the arrays of the current shard, which
    /// nothing reads between the split and the next [`Self::install_shard`].
    fn retire_shard(&mut self) -> ColRun {
        let retired = std::mem::replace(&mut self.shard, ColSlice::empty(0, 0));
        ColRun::recycled(retired.into_local())
    }

    /// Install the Schur-updated columns of the new owned range as the
    /// shard — the full next Schur complement is never materialized.
    fn install_shard(&mut self, m_rest: usize, n_rest: usize, my_new: Range<usize>, cols: ColRun) {
        debug_assert_eq!(cols.lens.len(), my_new.len());
        self.shard = ColSlice::new(my_new.start, cols.into_csc(m_rest));
        self.n_cur = n_rest;
        self.note_mem();
    }

    /// Schur update on owned columns only, with an `alltoallv`
    /// re-sharding from the old column partition to the new one. Both
    /// partitions are ascending contiguous tilings, so each (src, dst)
    /// exchange is one contiguous column run and concatenating the
    /// received runs in source-rank order reassembles the new owned
    /// block in order.
    fn schur_redistribute(&mut self, sp: &PanelSplit, x_rows: &[usize], x: &DenseMatrix) {
        let m_rest = sp.a22.rows();
        let n_rest = sp.rest_cols.len();
        let new_ranges = split_ranges(n_rest, self.size);
        let parts = self.build_reshard_parts(sp, &new_ranges);
        let got = self.ctx.alltoallv(parts);
        let (p12, p22): (Vec<CscMatrix>, Vec<CscMatrix>) = got.into_iter().unzip();
        let a12_own = gather_csc(&p12);
        let a22_own = gather_csc(&p22);
        self.part_pool.extend(p12);
        self.part_pool.extend(p22);
        let mut updated = self.retire_shard();
        schur_update_ranged(
            &a22_own,
            x_rows,
            x,
            &a12_own,
            0..a22_own.cols(),
            &mut self.ws,
            self.opts.par,
            &mut updated,
        );
        self.install_shard(m_rest, n_rest, owned_range(&new_ranges, self.rank), updated);
    }

    /// Build the per-destination `(Ā12, Ā22)` column-run parts of the
    /// re-shard exchange. Part buffers retired by previous iterations
    /// are recycled from [`Self::part_pool`], so once part sizes reach
    /// steady state the `2·np` allocations per panel disappear.
    fn build_reshard_parts(
        &mut self,
        sp: &PanelSplit,
        new_ranges: &[Range<usize>],
    ) -> Vec<(CscMatrix, CscMatrix)> {
        let my_run = &sp.my_run;
        let mut parts: Vec<(CscMatrix, CscMatrix)> = Vec::with_capacity(self.size);
        for dst in 0..self.size {
            let drg = owned_range(new_ranges, dst);
            let lo = my_run.start.max(drg.start);
            let hi = my_run.end.min(drg.end);
            let local = if lo < hi {
                (lo - my_run.start)..(hi - my_run.start)
            } else {
                0..0
            };
            let d12 = self.part_pool.pop().unwrap_or_else(|| CscMatrix::zeros(0, 0));
            let d22 = self.part_pool.pop().unwrap_or_else(|| CscMatrix::zeros(0, 0));
            parts.push((
                slice_columns_recycled(&sp.a12, local.clone(), d12),
                slice_columns_recycled(&sp.a22, local, d22),
            ));
        }
        parts
    }

    /// Post the re-shard exchange for the just-eliminated panel
    /// without waiting for it: the sends go out now, the receives wait
    /// inside the returned [`PendingReshard`]. Work issued between
    /// this and [`Self::complete_reshard`] — factor recording and its
    /// `gatherv`, which uses the eager tag namespace, disjoint from
    /// pending-exchange tags, so the reordering cannot mismatch
    /// envelopes — runs while the wire drains.
    fn post_reshard(&mut self, sp: &PanelSplit) -> PendingReshard<'a> {
        let m_rest = sp.a22.rows();
        let n_rest = sp.rest_cols.len();
        let new_ranges = split_ranges(n_rest, self.size);
        let parts = self.build_reshard_parts(sp, &new_ranges);
        PendingReshard {
            pend: self.ctx.post_alltoallv(parts),
            new_ranges,
            m_rest,
            n_rest,
        }
    }

    /// Complete a posted re-shard: drain the exchange in source-rank
    /// order, Schur-updating each `(Ā12, Ā22)` piece the moment it
    /// arrives — per-piece compute hides the tail of the drain — into
    /// one column run over the retired shard's arrays. Bitwise-identical to the
    /// eager [`Self::schur_redistribute`]: the pieces tile the new
    /// owned range in ascending column order and the kernel computes
    /// every column independently (same per-column arithmetic, same
    /// ascending emission), so splitting the single gathered pass at
    /// piece boundaries moves no bits.
    fn complete_reshard(&mut self, pr: PendingReshard<'a>, x_rows: &[usize], x: &DenseMatrix) {
        let PendingReshard {
            pend,
            new_ranges,
            m_rest,
            n_rest,
        } = pr;
        let my_new = owned_range(&new_ranges, self.rank);
        let mut updated = self.retire_shard();
        {
            let ws = &mut self.ws;
            let pool = &mut self.part_pool;
            let par = self.opts.par;
            pend.complete_with(|_src, (p12, p22): (CscMatrix, CscMatrix)| {
                debug_assert_eq!(p22.rows(), m_rest);
                schur_update_ranged(&p22, x_rows, x, &p12, 0..p22.cols(), ws, par, &mut updated);
                pool.push(p12);
                pool.push(p22);
            });
        }
        self.install_shard(m_rest, n_rest, my_new, updated);
    }
}

impl<'a> PanelEngine for SpmdPanelCtx<'a> {
    type Pending = PendingReshard<'a>;

    fn idle_mem() -> Option<MemStats> {
        Some(MemStats::default())
    }

    /// Factor columns accumulate on rank 0 only; everyone else
    /// receives `L`/`U` in the final broadcast.
    fn keeps_factors(&self) -> bool {
        self.rank == 0
    }

    fn dims(&self) -> (usize, usize) {
        (self.shard.rows(), self.n_cur)
    }

    fn resident_bytes(&self) -> u64 {
        self.shard.resident_bytes() as u64
    }

    /// Column tournament over the distributed Schur complement; winner
    /// columns travel with their global ids, and the selected panel is
    /// broadcast so every rank holds the `O(m b)` pivot columns.
    fn col_tournament(&mut self, k_want: usize) -> ColumnSelection {
        let (sel, panel) = tournament_columns_spmd_sharded(self.ctx, &self.shard, k_want);
        self.panel = panel;
        sel
    }

    /// Identical arithmetic to the replicated oracle — the dense row
    /// blocks gathered from the compact panel equal those gathered
    /// from the full Schur complement.
    fn panel_qr(&mut self, sel: &ColumnSelection) -> (DenseMatrix, Vec<f64>) {
        let pidx: Vec<usize> = (0..sel.selected.len()).collect();
        spmd_panel_tsqr(self.ctx, &self.panel, &pidx)
    }

    fn row_tournament(&self, qk: &DenseMatrix, k_eff: usize) -> Vec<usize> {
        spmd_row_tournament(self.ctx, qk, k_eff)
    }

    /// The pivot blocks come from the replicated panel, the rest
    /// blocks only from the owned columns; the classification and the
    /// entry routing are `CscMatrix::split_blocks`'s own.
    fn split(&self, pivot_rows: &[usize], sel: &ColumnSelection) -> PanelSplit {
        let split = BlockSplit::new(self.shard.rows(), self.n_cur, pivot_rows, &sel.selected);
        let (a11, a21) = split.pivot_blocks((0..pivot_rows.len()).map(|p| self.panel.col(p)));
        // The owned rest columns form a contiguous run of `rest_cols`
        // positions (both orderings ascend).
        let rg = self.shard.col_range();
        let lo = split.rest_cols.partition_point(|&c| c < rg.start);
        let hi = split.rest_cols.partition_point(|&c| c < rg.end);
        let owned = split.rest_cols[lo..hi].iter().map(|&c| self.shard.col(c));
        let (a12, a22) = split.rest_blocks(owned, self.shard.nnz());
        PanelSplit {
            a11,
            a21,
            rest_rows: split.rest_rows,
            rest_cols: split.rest_cols,
            my_run: lo..hi,
            a12,
            a22,
        }
    }

    fn solve_l21(
        &mut self,
        sp: &PanelSplit,
        lu11: &LuFactor,
        _qk: &DenseMatrix,
        _pivot_rows: &[usize],
    ) -> (Vec<usize>, DenseMatrix) {
        spmd_l21(self.ctx, &sp.a21, lu11, &mut self.ws.tbuf)
    }

    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
    ) -> Option<Self::Pending> {
        match self.reshard {
            Reshard::Overlapped => Some(self.post_reshard(sp)),
            Reshard::Eager => {
                self.schur_redistribute(sp, x_rows, x);
                None
            }
        }
    }

    fn schur_finish(&mut self, pending: Self::Pending, x_rows: &[usize], x: &DenseMatrix) {
        self.complete_reshard(pending, x_rows, x);
    }

    /// `(global column, value)` pairs from each rank's owned `Ā12`
    /// piece, keyed by panel row, gathered to rank 0.
    fn u_fragments(
        &mut self,
        sp: &PanelSplit,
        col_map: &[usize],
        k_eff: usize,
    ) -> Option<Vec<FactorCol>> {
        let mut frags: Vec<FactorCol> = vec![Vec::new(); k_eff];
        for (slot, j) in sp.my_run.clone().enumerate() {
            let gcol = col_map[sp.rest_cols[j]];
            let (ri, vs) = sp.a12.col(slot);
            for (&t, &v) in ri.iter().zip(vs) {
                frags[t].push((gcol, v));
            }
        }
        let gathered = self.ctx.gatherv(0, frags)?;
        let mut out: Vec<FactorCol> = vec![Vec::new(); k_eff];
        for rank_frags in gathered {
            for (t, f) in rank_frags.into_iter().enumerate() {
                out[t].extend(f);
            }
        }
        Some(out)
    }

    /// Partial squared norm of the owned shard + allreduce — the same
    /// per-column summation nesting and reduction tree as the
    /// replicated oracle.
    fn indicator(&self) -> f64 {
        let local = self.shard.fro_norm_sq_cols();
        self.ctx.allreduce(local, |x, y| x + y).sqrt()
    }

    /// Exact — integer allreduce over shard counts.
    fn schur_nnz(&self) -> usize {
        self.ctx.allreduce(self.shard.nnz() as u64, |x, y| x + y) as usize
    }

    /// Concatenating per-shard candidate lists in rank order and
    /// sorting yields the full matrix's sorted list.
    fn small_magnitudes(&self, cap: f64) -> Vec<f64> {
        let all: Vec<Vec<f64>> = self.ctx.allgather(self.shard.small_entry_magnitudes(cap));
        let mut mags: Vec<f64> = all.concat();
        mags.sort_by(|x, y| x.partial_cmp(y).unwrap());
        mags
    }

    /// Each rank runs the threshold pass over its owned shard in
    /// parallel fixed-width column chunks (per-chunk partials folded in
    /// ascending chunk order, then per-rank partials combined through
    /// the same allreduce tree on every rank), matching the replicated
    /// oracle's [`CscMatrix::dropped_mass_in_cols_par`] partials.
    fn drop_if(&mut self, thr: f64, accept: impl FnOnce(f64, usize) -> bool) {
        let (dropped_shard, my_mass, my_count) = self.shard.drop_below_par(thr, self.opts.par);
        let (mass, count) = allreduce_drop(self.ctx, my_mass, my_count);
        if accept(mass, count) {
            self.shard = dropped_shard;
        }
    }

    /// Gather per-rank shard envelopes to rank 0, which writes the
    /// (full, format-unchanged) checkpoint — sequential and supervised
    /// consumers keep working, and a resume under a smaller grid
    /// re-slices the shards.
    fn gather_schur(&self) -> Option<Cow<'_, CscMatrix>> {
        let parts = self.ctx.gatherv(0, self.shard.local().clone())?;
        Some(Cow::Owned(gather_csc(&parts)))
    }

    /// Materialize the factors on rank 0, then one final broadcast so
    /// every rank returns the same result.
    fn materialize(
        &self,
        m: usize,
        n: usize,
        l_cols: &[FactorCol],
        ut_cols: &[FactorCol],
    ) -> (CscMatrix, CscMatrix) {
        let pair = if self.rank == 0 {
            assemble_factors(m, n, l_cols, ut_cols)
        } else {
            (CscMatrix::zeros(0, 0), CscMatrix::zeros(0, 0))
        };
        self.ctx.broadcast(0, pair)
    }

    /// Max-over-ranks peak shard storage (identical on every rank).
    fn mem_stats(&self) -> Option<MemStats> {
        let (bytes, nnz) = self.ctx.allreduce(
            (self.peak_bytes as u64, self.peak_nnz as u64),
            |x, y| (x.0.max(y.0), x.1.max(y.1)),
        );
        if self.rank == 0 {
            let g = lra_obs::metrics::global();
            g.set_gauge("mem.peak_rank_bytes", bytes as f64);
            g.set_gauge("mem.peak_rank_nnz", nnz as f64);
        }
        Some(MemStats {
            peak_rank_bytes: bytes,
            peak_rank_nnz: nnz,
        })
    }
}

/// Panel engine over fully replicated storage — the bitwise reference
/// for [`SpmdPanelCtx`]. Every rank holds the whole Schur complement
/// and splits it with `CscMatrix::split_blocks`; per-rank work (Schur
/// update, indicator and dropped-mass partials) covers the column
/// range the sharded engine would own.
struct ReplicatedEngine<'a> {
    ctx: &'a Ctx,
    s: CscMatrix,
    opts: &'a LuCrtpOpts,
    ws: SchurWorkspace,
}

impl ReplicatedEngine<'_> {
    /// This rank's block of the current column partition.
    fn my_cols(&self) -> Range<usize> {
        owned_range(&split_ranges(self.s.cols(), self.ctx.size()), self.ctx.rank())
    }
}

impl PanelEngine for ReplicatedEngine<'_> {
    type Pending = std::convert::Infallible;

    fn dims(&self) -> (usize, usize) {
        (self.s.rows(), self.s.cols())
    }

    fn resident_bytes(&self) -> u64 {
        csc_resident_bytes(&self.s)
    }

    fn col_tournament(&mut self, k_want: usize) -> ColumnSelection {
        tournament_columns_spmd(self.ctx, &self.s, None, k_want)
    }

    fn panel_qr(&mut self, sel: &ColumnSelection) -> (DenseMatrix, Vec<f64>) {
        spmd_panel_tsqr(self.ctx, &self.s, &sel.selected)
    }

    fn row_tournament(&self, qk: &DenseMatrix, k_eff: usize) -> Vec<usize> {
        spmd_row_tournament(self.ctx, qk, k_eff)
    }

    /// Replicated — the "local row permutations" of Fig. 5.
    fn split(&self, pivot_rows: &[usize], sel: &ColumnSelection) -> PanelSplit {
        PanelSplit::of_full(&self.s, pivot_rows, &sel.selected)
    }

    fn solve_l21(
        &mut self,
        sp: &PanelSplit,
        lu11: &LuFactor,
        _qk: &DenseMatrix,
        _pivot_rows: &[usize],
    ) -> (Vec<usize>, DenseMatrix) {
        spmd_l21(self.ctx, &sp.a21, lu11, &mut self.ws.tbuf)
    }

    /// Block-column distribution + allgather.
    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
    ) -> Option<Self::Pending> {
        let n_rest = sp.a22.cols();
        let my_range = owned_range(&split_ranges(n_rest, self.ctx.size()), self.ctx.rank());
        let mut partial = ColRun::default();
        schur_update_ranged(
            &sp.a22,
            x_rows,
            x,
            &sp.a12,
            my_range,
            &mut self.ws,
            self.opts.par,
            &mut partial,
        );
        let retired = std::mem::replace(&mut self.s, CscMatrix::zeros(0, 0));
        let mut next = ColRun::recycled(retired);
        for part in self.ctx.allgather(partial) {
            next.extend(&part);
        }
        self.s = next.into_csc(sp.a22.rows());
        None
    }

    fn schur_finish(&mut self, pending: Self::Pending, _: &[usize], _: &DenseMatrix) {
        match pending {}
    }

    /// Replicated bookkeeping: every rank records every factor column.
    fn u_fragments(
        &mut self,
        sp: &PanelSplit,
        col_map: &[usize],
        k_eff: usize,
    ) -> Option<Vec<FactorCol>> {
        Some(u_fragments_of(&sp.a12.transpose(), &sp.rest_cols, col_map, k_eff))
    }

    /// Partial squared norm + allreduce (each rank owns a column slice
    /// in spirit; the replicated matrix makes the local sum trivial,
    /// but the reduction is still exercised) — the same per-column
    /// chains as the sharded engine's partials.
    fn indicator(&self) -> f64 {
        let mut local = 0.0f64;
        for j in self.my_cols() {
            let (_, vs) = self.s.col(j);
            local += vs.iter().map(|v| v * v).sum::<f64>();
        }
        self.ctx.allreduce(local, |a, b| a + b).sqrt()
    }

    fn schur_nnz(&self) -> usize {
        self.s.nnz()
    }

    fn small_magnitudes(&self, cap: f64) -> Vec<f64> {
        self.s.small_entry_magnitudes(cap)
    }

    /// Per-rank dropped-mass partials over the same column partition
    /// the sharded engine owns, combined through the same allreduce
    /// tree — the oracle stays bitwise aligned with the sharded
    /// thresholding decisions.
    fn drop_if(&mut self, thr: f64, accept: impl FnOnce(f64, usize) -> bool) {
        let (my_mass, my_count) =
            self.s.dropped_mass_in_cols_par(thr, self.my_cols(), self.opts.par);
        let (mass, count) = allreduce_drop(self.ctx, my_mass, my_count);
        if accept(mass, count) {
            self.s = self.s.drop_below(thr).0;
        }
    }

    /// Every rank reaching a snapshot point holds identical state, so
    /// rank 0's copy is a consistent global snapshot.
    fn gather_schur(&self) -> Option<Cow<'_, CscMatrix>> {
        (self.ctx.rank() == 0).then_some(Cow::Borrowed(&self.s))
    }
}
