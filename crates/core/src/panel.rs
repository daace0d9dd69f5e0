//! The one LU_CRTP / ILUT_CRTP panel loop.
//!
//! Algorithm 3 is Algorithm 2 plus four lines (`mu`, drop, control),
//! and the paper's MPI code is the same loop run over a block-column
//! distribution. [`drive`] owns everything that *is* Algorithm 2/3 —
//! budget polling, resume, the stage sequence and its
//! [`KernelTimers`] buckets, the NaN guards and [`Breakdown`] exits,
//! the panel stages that read only the pivot panel (TSQR and the row
//! tournament on `Q_k^T`, both over the panel's row support, the split
//! and the `L21` solve, over the rank group when there is one), every
//! agreement, gather and broadcast that does not depend on storage
//! (the measurement, the `U` fragments, the snapshot and the memory
//! peak), factor recording, the
//! ILUT threshold/control decision, the trace, the checkpoint cadence
//! and result assembly. A [`PanelEngine`] supplies only where the Schur
//! complement lives and computes on it there: the shared-memory column
//! runs updated in place (`SeqEngine` in `lucrtp.rs`), the rank-owned
//! shards (`SpmdPanelCtx` in `spmd.rs`) or the fully replicated oracle
//! (`ReplicatedEngine`, same file) — its column tournament, Schur
//! update, `U` fragments, drop and snapshot pieces. The tournament and
//! the Schur update are the only stages whose communication depends on
//! storage, so they are the only engine calls that communicate.
//!
//! Line 13's measurement is the Schur kernel's: every engine runs the
//! one per-column kernel, which records each column's [`Partials`] as it
//! writes the column, folds them in column order over the columns it
//! owns, and hands them back from its Schur stage; the loop agrees on
//! them. No engine reads the complement a second time to measure it.
//!
//! The stop is tested per block, but the returned rank is the column
//! the certificate needs: when a converged run's whole last block is
//! certified, every engine sums, once and over the columns it owns, the
//! `k x k` pieces of every prefix's residual ([`BlockSums`], read off
//! the complement and the `Ā12` its Schur stage kept); they travel in
//! the memory-peak allreduce the loop makes anyway, and every rank
//! keeps the same smallest certified prefix ([`LastBlock::prefix`]).
//!
//! Memory follows the same split: the loop's [`PanelSplit`] holds only
//! what every engine needs of line 8 (`Ā11`, `Ā21`, the classification)
//! and the pivot panel is freed once the split is built; the loop reads
//! each engine's resident storage after placement and after each Schur
//! stage and reports the peak; the ILUT drop is measured as the update
//! writes the complement and applied in place only when the loop keeps
//! it; a snapshot borrows the engine's pieces (under SPMD rank 0 holds
//! one copy of the others' shards) and is written once into its
//! envelope; and when the loop ends the engine is dropped before rank 0
//! assembles the factors from the recorded columns, each of which is
//! freed as it is pushed. Only rank 0 returns `L` and `U`.

use crate::checkpoint::{load_resume, save_snapshot, LuCrtpCheckpoint, LuLoopState, RecoveryHooks};
use crate::lucrtp::{
    accumulate_correction, l21, Breakdown, IlutOpts, IterTrace, LuCrtpOpts, LuCrtpResult,
    MemStats, OrderingMode, ThresholdReport,
};
use crate::outcome::{budget_trip, non_finite};
use crate::spmd::spmd_panel_tsqr;
use crate::timers::{KernelId, KernelTimers};
use lra_comm::Ctx;
use lra_dense::{lu, DenseMatrix};
use lra_par::{parallel_map_fold, Parallelism};
use lra_qrtp::{
    tournament_columns_spmd, tournament_rows_dense, ColumnSelection, Omega, TournamentTree,
};
use lra_recover::BudgetTrip;
use lra_sparse::{BlockSplit, ColRun, CscMatrix};
use std::borrow::Cow;

/// The fill-reducing preprocessing (COLAMD + etree postorder) under a
/// span of its own, so a trace of the `Permute` bucket tells the
/// ordering from the split.
pub(crate) fn fill_reducing_order(a: &CscMatrix) -> Vec<usize> {
    lra_obs::trace::span("ordering.fill_reducing_order", || {
        lra_ordering::fill_reducing_order(a)
    })
}

/// One sparse factor column under construction: `(original id, value)`.
pub(crate) type FactorCol = Vec<(usize, f64)>;

/// Where an engine's first Schur complement comes from.
pub(crate) enum Source<'x> {
    /// The input with its columns taken in this (fill-reducing) order.
    Input(&'x CscMatrix, &'x [usize]),
    /// A resumed checkpoint's Schur complement.
    Snapshot(CscMatrix),
}

impl Source<'_> {
    /// The whole starting Schur complement, for engines that store it.
    pub(crate) fn full(self) -> CscMatrix {
        match self {
            Source::Input(a, cols) => a.select_columns(cols),
            Source::Snapshot(s) => s,
        }
    }
}

/// The `[Ā11 Ā12; Ā21 Ā22]` split of Algorithm 2 line 8, as far as
/// any engine holds it: `Ā11`/`Ā21`, whole on every rank (`O(b^2)` /
/// `O(b)`-column objects), and the row/column classification, the same
/// on every rank, which routes a rest column's entries into `Ā12`/`Ā22`.
/// No engine materializes `Ā22`: every Schur update routes each rest
/// column as it reads it, wherever the column is held (the
/// shared-memory engine's runs, a replicated complement, or a re-shard
/// piece that carries the raw column to its new owner).
pub(crate) struct PanelSplit {
    pub(crate) a11: DenseMatrix,
    pub(crate) a21: CscMatrix,
    pub(crate) blocks: BlockSplit,
}

impl PanelSplit {
    /// `Ā11`/`Ā21` from the `k` pivot columns, given in pivot order.
    pub(crate) fn new<'a>(
        blocks: BlockSplit,
        pivot_cols: impl Iterator<Item = (&'a [usize], &'a [f64])>,
    ) -> Self {
        let (a11, a21) = blocks.pivot_blocks(pivot_cols);
        PanelSplit { a11, a21, blocks }
    }
}

/// Where an engine keeps the Schur complement `A^(i)`, and the stages
/// that read or write it there. Private to `lra-core` and statically
/// dispatched. Only [`Self::col_tournament`] and the Schur update
/// communicate, and they are collective — the loop calls them on every
/// rank, in the same order; everything else is this rank's local work.
pub(crate) trait PanelEngine {
    /// A Schur update still in flight between [`Self::schur_begin`] and
    /// [`Self::schur_finish`] (its [`Partials`] alone for an engine that
    /// does all the work in the first half).
    type Pending;

    /// This rank's resident Schur storage as `(bytes, nonzeros)`: what
    /// the budget's memory ceiling is checked against and what the loop
    /// records as the peak.
    fn resident(&self) -> (u64, u64);

    /// [`OrderingMode::EveryIteration`]: fill-reduce the current Schur
    /// complement and return the column permutation applied. Only the
    /// shared-memory engine reorders: the SPMD entry points refuse the
    /// mode (`InvalidInput::SequentialOnly`), so the SPMD engines never
    /// reach this and keep the default, which orders nothing.
    fn reorder(&mut self) -> Option<Vec<usize>> {
        None
    }

    /// Line 5: column tournament, and the pivot panel — a compact copy
    /// of the selected columns in pivot order, the same on every rank —
    /// that the loop's panel stages read. The engine sketches the
    /// complement it holds with `omega`, row `i` of the complement being
    /// the input's row `row_ids[i]`, into a buffer it keeps for the
    /// solve, and the tournament's leaves and merges rank that sketch.
    fn col_tournament(
        &mut self,
        k_want: usize,
        omega: &Omega,
        row_ids: &[usize],
    ) -> (ColumnSelection, CscMatrix);

    /// Line 12, first half: start `S = Ā22 - X Ā12`, `x` being the
    /// `nr x k` nonzero rows of `X`, measured at the drop threshold
    /// `thr` (0 when no drop is measured). What comes back is completed
    /// by [`Self::schur_finish`] after the factors are recorded.
    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Self::Pending;

    /// Line 12, second half; afterwards the engine holds the next Schur
    /// complement `A^(i+1)`, before any drop. Returns this rank's
    /// [`Partials`] of it at `thr`: the kernel's per-column partials
    /// folded in column order over the columns this rank holds or would
    /// own.
    fn schur_finish(
        &mut self,
        sp: &PanelSplit,
        pending: Self::Pending,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Partials;

    /// This panel's trailing `U` entries per panel row, as
    /// `(original column, value)` in ascending rest-column order, from
    /// the rest columns this rank holds or would own; the loop gathers
    /// them to rank 0 in rank order.
    fn u_fragments(&self, sp: &PanelSplit, col_map: &[usize], k_eff: usize) -> Vec<FactorCol>;

    /// Drop the entries below `thr` in place: the loop calls it only for
    /// a drop it keeps, at the threshold the Schur stage measured.
    fn drop_below(&mut self, thr: f64);

    /// This rank's pieces of the current Schur complement for a
    /// snapshot, borrowed, in column order: gathered in rank order they
    /// are the whole complement (sequentially, the pieces alone are).
    fn schur_pieces(&self) -> Vec<&CscMatrix>;

    /// On a converged run's stop iteration, before any drop: this
    /// rank's [`BlockSums`] over the columns of `A^(K+1)` it holds or
    /// would own, with the `Ā12` its Schur stage routed out of them
    /// ([`block_sums`]).
    fn block_sums(&self, xq: &[usize], xt: &DenseMatrix) -> BlockSums;
}

/// Measurement partials of a column or of a rank's columns,
/// `(||A^(i+1)||_F^2, dropped mass, dropped count, nonzeros)`: the
/// indicator's square (eq. 9 / 26), the squared mass and count of the
/// entries below the threshold (zero when no drop was measured; the
/// count is also what the drop takes off the nonzeros), and the stored
/// entries before the drop. A rank's are its columns' folded in column
/// order by [`fold_columns`]; summed componentwise over the group by
/// [`add_partials`], they are the whole Schur complement's.
pub(crate) type Partials = (f64, f64, u64, u64);

/// Componentwise sum of two [`Partials`].
pub(crate) fn add_partials(x: Partials, y: Partials) -> Partials {
    (x.0 + y.0, x.1 + y.1, x.2 + y.2, x.3 + y.3)
}

/// A rank's [`Partials`]: its columns' folded in column order from
/// zero, each component one left-to-right chain.
pub(crate) fn fold_columns(cols: &[Partials]) -> Partials {
    cols.iter().fold((0.0, 0.0, 0, 0), |acc, &c| add_partials(acc, c))
}

/// How far below the stop a prefix's certified value must sit, as a
/// share of its rounding scale (see [`LastBlock::prefix`]): `p_l^2`
/// is a sum of terms up to the scale in size. LU_CRTP's `p_l` was
/// measured within 3e-15 `tau ||A||_F` of the dense `||A - L_l
/// U_l||_F` on every path (`tests/panel_loop.rs`), and the scale is at
/// least `p_l^2`, so 1e-8 leaves six orders of headroom and costs a
/// prefix a few parts in 1e9 of `tau` where the terms do not cancel.
const PREFIX_MARGIN: f64 = 1e-8;

/// A converged run's last-block sums over the columns of `A^(K+1)` a
/// rank holds: `gram = Ā12 Ā12^T` (`k x k`, its upper triangle `(t,
/// s >= t)` at `t k + s`; the prefix search reads no other entry) and
/// `cross[t] = X_t^T A^(K+1) Ā12(t,:)^T`, `X_t` being column `t` of
/// `X = L21`. Summed over the group they are the pieces of every
/// prefix's residual that no rank holds whole.
#[derive(Clone, Debug)]
pub(crate) struct BlockSums {
    gram: Vec<f64>,
    cross: Vec<f64>,
}

impl BlockSums {
    fn zeros(k: usize) -> Self {
        BlockSums {
            gram: vec![0.0; k * k],
            cross: vec![0.0; k],
        }
    }

    fn add(mut self, other: &BlockSums) -> Self {
        for (x, y) in self.gram.iter_mut().zip(&other.gram) {
            *x += y;
        }
        for (x, y) in self.cross.iter_mut().zip(&other.cross) {
            *x += y;
        }
        self
    }
}

/// This rank's [`BlockSums`] over the columns `0..a12.cols()` of the
/// complement, read through `col`, with their `Ā12` parts in `a12`
/// (column `j` of `a12` routed with column `j`). `xq` maps a trailing
/// row to its row of `X` (`usize::MAX` for none) and `xt` is `X^T`.
/// Chunked by [`SCHUR_GRAIN`](crate::lucrtp::SCHUR_GRAIN) columns and
/// folded in chunk order, so the sums are bitwise the same for any
/// worker count; a column with no `Ā12` entry adds nothing.
pub(crate) fn block_sums<'a>(
    col: impl Fn(usize) -> (&'a [usize], &'a [f64]) + Sync,
    a12: &CscMatrix,
    xq: &[usize],
    xt: &DenseMatrix,
    par: Parallelism,
) -> BlockSums {
    let k = xt.rows();
    let chunk = |range: std::ops::Range<usize>| {
        let mut sums = BlockSums::zeros(k);
        let (mut y, mut hits) = (vec![0.0; k], Vec::new());
        for j in range {
            let (ts, vs) = a12.col(j);
            if ts.is_empty() {
                continue;
            }
            // y = X^T A^(K+1)[:, j] on the rows `ts` of `Ā12(:, j)`,
            // from the column's entries on rows of X as (row of X,
            // value).
            let (ri, rv) = col(j);
            hits.clear();
            let on_x = ri.iter().zip(rv).filter(|(&r, _)| xq[r] != usize::MAX);
            hits.extend(on_x.map(|(&r, &v)| (xq[r], v)));
            x_transpose_times(&mut y, xt, &hits, ts);
            for (i, (&t, &a)) in ts.iter().zip(vs).enumerate() {
                for (&s, &b) in ts[i..].iter().zip(&vs[i..]) {
                    sums.gram[t * k + s] += a * b;
                }
                sums.cross[t] += a * y[t];
            }
        }
        sums
    };
    let grain = crate::lucrtp::SCHUR_GRAIN;
    parallel_map_fold(par, a12.cols(), grain, BlockSums::zeros(k), chunk, |acc, s| acc.add(&s))
}

/// `y = X^T A^(K+1)[:, j]` from the column's `hits` on rows of X, as
/// (row of X, value), on at least the rows `ts` of `Ā12(:, j)`: one
/// sum over `hits` per row of `ts` when it holds at most one row in
/// eight, otherwise every row through the Schur kernel's
/// four-rows-a-pass accumulation. Either way `y[t]` is the sum of
/// `v X(q, t)` from zero in the order of `hits`, bitwise.
fn x_transpose_times(y: &mut [f64], xt: &DenseMatrix, hits: &[(usize, f64)], ts: &[usize]) {
    if 8 * ts.len() <= y.len() {
        for &t in ts {
            y[t] = hits.iter().fold(0.0, |s, &(q, v)| s + v * xt.col(q)[t]);
        }
    } else {
        y.fill(0.0);
        accumulate_correction(y, xt, hits);
    }
}

/// What every rank holds of a converged run's last block, kept for the
/// stop-time prefix search: the agreed `||A^(K+1)||_F^2`, `G_L = I +
/// X^T X` and `Ā11 Ā11^T`, each the upper triangle of a `k x k`
/// matrix laid out as `BlockSums::gram`.
struct LastBlock {
    k: usize,
    norm_sq: f64,
    gl: Vec<f64>,
    a11_gram: Vec<f64>,
}

impl LastBlock {
    fn new(norm_sq: f64, a11: &DenseMatrix, xt: &DenseMatrix) -> Self {
        let k = a11.rows();
        let mut gl = vec![0.0; k * k];
        for t in 0..k {
            gl[t * k + t] = 1.0;
        }
        for q in 0..xt.cols() {
            let xc = xt.col(q);
            for (t, &a) in xc.iter().enumerate() {
                for (g, &b) in gl[t * k + t..(t + 1) * k].iter_mut().zip(&xc[t..]) {
                    *g += a * b;
                }
            }
        }
        let mut a11_gram = vec![0.0; k * k];
        for t in 0..k {
            for s in t..k {
                a11_gram[t * k + s] = (0..k).map(|p| a11.get(t, p) * a11.get(s, p)).sum();
            }
        }
        LastBlock {
            k,
            norm_sq,
            gl,
            a11_gram,
        }
    }

    /// The smallest prefix `l` of the block (`1 <= l <= k`) whose
    /// certified value is below `stop`, with its `p_l`; `None` when
    /// only the whole block passes. `p_l = ||A^(K+1) + Σ_{t>=l} L_t
    /// U_t^T||_F` is read off the sums, `p_l^2 = ||A^(K+1)||^2 + 2
    /// Σ_{t>=l} c_t + Σ_{s,t>=l} G_L(s,t) G_U(s,t)` with `G_U = Ā11
    /// Ā11^T + Ā12 Ā12^T`; it passes when `sqrt(p_l^2 + PREFIX_MARGIN
    /// scale_l) + dropped < stop`, `scale_l` summing the terms'
    /// magnitudes.
    fn prefix(&self, sums: &BlockSums, stop: f64, dropped: f64) -> Option<(usize, f64)> {
        let k = self.k;
        let h = |t: usize, s: usize| {
            self.gl[t * k + s] * (self.a11_gram[t * k + s] + sums.gram[t * k + s])
        };
        // p_l^2 and scale_l from l = k down: the term of row l joins.
        let mut p_sq = vec![self.norm_sq; k + 1];
        let mut scale = vec![self.norm_sq; k + 1];
        for l in (0..k).rev() {
            let (c, hll) = (sums.cross[l], h(l, l));
            let (mut term, mut mag) = (2.0 * c + hll, 2.0 * c.abs() + hll.abs());
            for t in l + 1..k {
                term += 2.0 * h(l, t);
                mag += 2.0 * h(l, t).abs();
            }
            p_sq[l] = p_sq[l + 1] + term;
            scale[l] = scale[l + 1] + mag;
        }
        (1..k)
            .find(|&l| (p_sq[l] + PREFIX_MARGIN * scale[l]).sqrt() + dropped < stop)
            .map(|l| (l, p_sq[l].max(0.0).sqrt()))
    }
}

/// Whether the whole last block is certified: `p_k = ||A^(K+1)||_F`
/// with its margin, plus the dropped norms, below `stop`. Only then is
/// a prefix searched.
fn block_certified(norm_sq: f64, stop: f64, dropped: f64) -> bool {
    (norm_sq * (1.0 + PREFIX_MARGIN)).sqrt() + dropped < stop
}

/// `L` and `U` assembled locally from the recorded columns. Each
/// recorded column is freed as soon as it is pushed, so the recorded
/// columns, `L`, `U^T` and `U` never all coexist.
fn assemble_factors(
    m: usize,
    n: usize,
    l_cols: Vec<FactorCol>,
    ut_cols: Vec<FactorCol>,
) -> (CscMatrix, CscMatrix) {
    let assemble = |rows: usize, cols: Vec<FactorCol>| {
        let mut run = ColRun::default();
        run.reserve(cols.len(), cols.iter().map(Vec::len).sum());
        for col in cols {
            run.push_pairs(&col);
        }
        run.into_csc(rows)
    };
    let l = assemble(m, l_cols);
    (l, assemble(n, ut_cols).transpose())
}

/// Why the loop stopped. The loop decides it anew on every run; a
/// snapshot never carries it.
#[derive(Default)]
struct Exit {
    converged: bool,
    breakdown: Option<Breakdown>,
    trip: Option<BudgetTrip>,
}

impl LuLoopState {
    /// The state before the first iteration: the indicator is
    /// `||A||_F`, and ILUT_CRTP's threshold state starts empty.
    fn start(a_norm_f: f64, ilut: bool) -> Self {
        LuLoopState {
            indicator: a_norm_f,
            ilut: ilut.then_some(ThresholdReport {
                mu: 0.0,
                phi: 0.0,
                dropped: 0,
                dropped_mass_sq: 0.0,
                control_triggered: false,
            }),
            ..Default::default()
        }
    }

    /// A bound on `Σ_j ||T_j||_F` over the drops kept so far, the
    /// dropped part of the residual `A - L U = A^(K+1) + Σ_j T_j`: at
    /// most one drop per iteration before this one was kept, so by
    /// Cauchy-Schwarz the sum is at most `sqrt((iterations - 1) Σ_j
    /// ||T_j||_F^2)`. It reads only state a snapshot carries, so a
    /// resumed run bounds it as the uninterrupted one does. 0 for
    /// LU_CRTP.
    fn drop_norm_bound(&self) -> f64 {
        self.ilut.as_ref().map_or(0.0, |th| {
            (self.iterations.saturating_sub(1) as f64 * th.dropped_mass_sq).sqrt()
        })
    }

    fn into_result(
        self,
        exit: Exit,
        (l, u): (CscMatrix, CscMatrix),
        a_norm_f: f64,
        timers: KernelTimers,
        mem: MemStats,
    ) -> LuCrtpResult {
        LuCrtpResult {
            l,
            u,
            pivot_rows: self.pivot_rows,
            pivot_cols: self.pivot_cols,
            rank: self.rank,
            iterations: self.iterations,
            converged: exit.converged,
            breakdown: exit.breakdown,
            indicator: self.indicator,
            a_norm_f,
            r11: self.r11,
            trace: self.trace,
            timers,
            threshold: self.ilut,
            mem,
            trip: exit.trip,
        }
    }
}

/// Write a snapshot through `hooks`. Collective under SPMD — every
/// other rank sends rank 0 a copy of its Schur pieces, rank 0 lends its
/// own and contributes nothing to the gather, and it alone touches the
/// store, writing the pieces in rank order as the whole,
/// format-unchanged complement (so a resume under any grid re-slices
/// it). No rank joins them.
fn save_checkpoint<E: PanelEngine>(
    comm: Option<&Ctx>,
    eng: &E,
    st: &LuLoopState,
    a: &CscMatrix,
    hooks: &RecoveryHooks<'_>,
) {
    let mut s: Vec<_> = eng.schur_pieces().into_iter().map(Cow::Borrowed).collect();
    if let Some(ctx) = comm {
        let mine: Vec<CscMatrix> = match ctx.rank() {
            0 => Vec::new(),
            _ => s.drain(..).map(Cow::into_owned).collect(),
        };
        match ctx.gatherv(0, mine) {
            Some(parts) => s.extend(parts.into_iter().flatten().map(Cow::Owned)),
            None => return,
        }
    }
    let state = Cow::Borrowed(st);
    save_snapshot(hooks, &LuCrtpCheckpoint { m: a.rows(), n: a.cols(), s, state });
}

/// Run LU_CRTP (`ilut: None`) or ILUT_CRTP over the engine `place`
/// builds around the starting Schur complement. `comm` is the rank
/// group (`None` sequentially): the loop uses it to agree on the budget
/// verdict, the measurement and the memory peak, to broadcast rank 0's
/// fill-reducing order, to run the panel stages (TSQR, row tournament,
/// `L21`) across the group, to gather the `U` fragments and the
/// snapshot to rank 0, and to name rank 0 as the one that records the
/// factor columns, publishes events and gauges, and returns `L`/`U`.
/// Only `u_estimate` and `phi_factor` are read from `ilut`; everything
/// else comes from `opts`.
pub(crate) fn drive<E: PanelEngine>(
    comm: Option<&Ctx>,
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&RecoveryHooks<'_>>,
    place: impl FnOnce(Source<'_>) -> E,
) -> LuCrtpResult {
    let m = a.rows();
    let n = a.cols();
    let root = comm.is_none_or(|c| c.rank() == 0);
    let mut timers = KernelTimers::new();
    let a_norm_f = a.fro_norm();
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));
    let mut st = LuLoopState::start(a_norm_f, ilut.is_some());
    let mut exit = Exit::default();
    if a_norm_f == 0.0 {
        // The zero matrix is its own rank-0 approximation.
        exit.converged = true;
        st.indicator = 0.0; // not `a_norm_f`: an empty sum is -0.0
        let empty = (CscMatrix::zeros(m, 0), CscMatrix::zeros(0, n));
        return st.into_result(exit, empty, a_norm_f, timers, MemStats::default());
    }

    let mut eng = match hooks.and_then(|h| load_resume(h, m, n, ilut.is_some())) {
        // The snapshot's column map already reflects the fill-reducing
        // preprocessing; timers cover only the resumed portion. Under
        // SPMD every rank loads the same shared store, so the restored
        // state is consistent with no extra collective, and an engine
        // that shards re-slices for the *current* rank count.
        Some(mut ck) => {
            let s = ck.take_schur();
            st = ck.state.into_owned();
            if !root {
                st.l_cols = Vec::new();
                st.ut_cols = Vec::new();
            }
            place(Source::Snapshot(s))
        }
        // Fill-reducing preprocessing (Section V) — on rank 0 and
        // broadcast under SPMD (COLAMD is intrinsically sequential:
        // "we apply COLAMD as a preprocessing step").
        None => {
            let cols: Vec<usize> = match opts.ordering {
                OrderingMode::Natural => (0..n).collect(),
                OrderingMode::FirstIteration | OrderingMode::EveryIteration => {
                    timers.time(KernelId::Permute, || match comm {
                        None => fill_reducing_order(a),
                        Some(ctx) => {
                            let p = if root {
                                fill_reducing_order(a)
                            } else {
                                Vec::new()
                            };
                            ctx.broadcast(0, p)
                        }
                    })
                }
            };
            let eng = place(Source::Input(a, &cols));
            st.row_map = (0..m).collect();
            st.col_map = cols;
            eng
        }
    };
    // This rank's peak Schur storage, read after placement and after
    // each Schur stage; `Ā21^T` for the L21 solve, reused across
    // iterations.
    let mut peak = MemStats::default();
    peak.note(eng.resident());
    let mut tbuf = CscMatrix::zeros(0, 0);
    let mut last: Option<(LastBlock, BlockSums)> = None;
    // The column tournament's sketching matrix, 2k columns: a pure
    // function of the input's row id, so every engine, chunking and
    // resumed run sketches a column the same way.
    let omega = timers.time(KernelId::ColTournament, || Omega::new(m, 2 * opts.k));

    loop {
        if let Some(ctx) = comm {
            ctx.begin_iteration(st.iterations as u64 + 1);
        }
        // Budget check at the iteration boundary, where the loop-carried
        // state is consistent: a trip leaves valid partial factors and a
        // resumable store.
        let resident = eng.resident().0;
        exit.trip = budget_trip(&opts.budget, comm, st.iterations, resident, hooks, |h| {
            save_checkpoint(comm, &eng, &st, a, h)
        });
        if exit.trip.is_some() {
            break;
        }
        // The active complement is as large as the maps into it.
        let (m_act, n_act) = (st.row_map.len(), st.col_map.len());
        if m_act == 0 || n_act == 0 || st.rank >= rank_cap {
            if st.indicator >= stop {
                exit.breakdown = Some(Breakdown::RankExhausted);
            }
            break;
        }
        if opts.ordering == OrderingMode::EveryIteration && st.iterations > 0 {
            if let Some(perm) = timers.time(KernelId::Permute, || eng.reorder()) {
                st.col_map = perm.iter().map(|&p| st.col_map[p]).collect();
            }
        }
        let k_want = opts.k.min(n_act).min(m_act).min(rank_cap - st.rank);

        // Line 5: column tournament. From here to the split the loop
        // reads only the pivot panel, which every rank holds whole.
        let (sel, panel) = timers.time(KernelId::ColTournament, || {
            eng.col_tournament(k_want, &omega, &st.row_map)
        });
        if st.iterations == 0 {
            st.r11 = sel.r_diag.first().copied().unwrap_or(0.0).abs();
        }
        let k_eff = sel.selected.len();
        if k_eff == 0 {
            exit.breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Line 6: TSQR of the pivot panel over its row support `S`, the
        // rows where some pivot column has a stored entry — over its row
        // blocks in parallel, or over rank-owned blocks of `S` under
        // SPMD. Every rank holds the panel whole, so `S` costs no
        // collective. `Q_k = P R^-1` is zero off `S`: those rows can
        // never be pivots, and `Q_S` is `Q_k` on `S`.
        let (support, qs, panel_r_diag) = timers.time(KernelId::PanelQr, || {
            let cols: Vec<usize> = (0..k_eff).collect();
            let support = panel.row_support(&cols);
            let (qs, rd) = match comm {
                None => {
                    let on_s = panel.gather_columns_at_rows_dense(&cols, &support);
                    let f = lra_dense::tsqr(&on_s, opts.par);
                    let rd: Vec<f64> = (0..k_eff.min(f.r.rows()))
                        .map(|i| f.r.get(i, i).abs())
                        .collect();
                    (f.q, rd)
                }
                Some(ctx) => spmd_panel_tsqr(ctx, &panel, &support),
            };
            (support, qs, rd)
        });
        if non_finite("non-finite panel R diagonal", st.iterations + 1, &panel_r_diag) {
            exit.breakdown = Some(Breakdown::NonFinite);
            break;
        }

        // Line 7: row tournament on Q_S^T, its winners mapped back
        // through `S`.
        let rows: Vec<usize> = timers.time(KernelId::RowTournament, || {
            let won = match comm {
                None => tournament_rows_dense(&qs, k_eff, TournamentTree::Binary, opts.par),
                Some(ctx) => tournament_columns_spmd(ctx, &qs.transpose(), k_eff, None).selected,
            };
            won.into_iter().map(|i| support[i]).collect()
        });
        if rows.len() < k_eff {
            exit.breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Line 8: permute and split. The rest columns stay where the
        // engine holds them; its Schur update routes them through the
        // split's classification.
        let sp = timers.time(KernelId::Permute, || {
            let blocks = BlockSplit::new(m_act, n_act, &rows, &sel.selected);
            PanelSplit::new(blocks, (0..k_eff).map(|p| panel.col(p)))
        });
        drop(panel);

        // Line 10: L21 formation.
        let lu11 = lu(&sp.a11);
        if lu11.is_singular() {
            exit.breakdown = Some(Breakdown::SingularPivotBlock);
            break;
        }
        let (x_rows, xt) =
            timers.time(KernelId::LSolve, || l21(comm, &sp.a21, &lu11, &mut tbuf, opts.par));

        // The ILUT drop threshold mu (eq. 24; r11 is known since the
        // first tournament), fixed before the update so that the Schur
        // kernel measures the drop as it writes `A^(i+1)`: 0, measuring
        // no drop, for LU_CRTP, once the control has disabled
        // thresholding, or when this panel reaches the rank cap. The
        // drop is measured even when the run converges; the loop
        // discards it then.
        let mu = match (ilut, &st.ilut) {
            (Some(cfg), Some(th)) if st.rank + k_eff < rank_cap => match st.iterations {
                0 => opts.tau * st.r11 / (cfg.u_estimate as f64 * (a.nnz().max(1) as f64).sqrt()),
                _ => th.mu,
            },
            _ => 0.0,
        };

        // Line 12: Schur complement, measured as it is written. An
        // engine with wire to hide posts its exchange here and completes
        // it after the factors are recorded; the others finish in this
        // half. The kernel reads `X` one contiguous column per panel row.
        let (x, pending) = timers.time(KernelId::Schur, || {
            let x = xt.transpose();
            let pending = eng.schur_begin(&sp, &x_rows, &x, mu);
            (x, pending)
        });
        peak.note(eng.resident());

        // Record factors (line 9/11), in original coordinates, on rank 0
        // only, from the `U` fragments gathered in rank order. The pivot
        // lists are replicated bookkeeping on every rank.
        timers.time(KernelId::Concat, || {
            let frags = eng.u_fragments(&sp, &st.col_map, k_eff);
            let frags = match comm {
                None => Some(frags),
                Some(ctx) => ctx.gatherv(0, frags).map(|gathered| {
                    let mut out: Vec<FactorCol> = vec![Vec::new(); k_eff];
                    for (t, f) in gathered.into_iter().flat_map(|r| r.into_iter().enumerate()) {
                        out[t].extend(f);
                    }
                    out
                }),
            };
            if let Some(frags) = frags {
                for (t, frag) in frags.into_iter().enumerate() {
                    // U row: pivot-column entries from Ā11, trailing
                    // from Ā12. Column keys are globally unique, so the
                    // sorted order is independent of fragment order.
                    let mut ucol: FactorCol = Vec::new();
                    for (p, &c_loc) in sel.selected.iter().enumerate() {
                        let v = sp.a11.get(t, p);
                        if v != 0.0 {
                            ucol.push((st.col_map[c_loc], v));
                        }
                    }
                    ucol.extend(frag);
                    ucol.sort_unstable_by_key(|&(c, _)| c);
                    st.ut_cols.push(ucol);

                    // L column: unit at the pivot row plus L21 entries.
                    let mut lcol: FactorCol = Vec::with_capacity(1 + x_rows.len());
                    lcol.push((st.row_map[rows[t]], 1.0));
                    for (xi, &r_rest) in x_rows.iter().enumerate() {
                        let v = xt.get(t, xi);
                        if v != 0.0 {
                            lcol.push((st.row_map[sp.blocks.rest_rows[r_rest]], v));
                        }
                    }
                    lcol.sort_unstable_by_key(|&(r, _)| r);
                    st.l_cols.push(lcol);
                }
            }
            st.pivot_rows.extend(rows.iter().map(|&r| st.row_map[r]));
            st.pivot_cols
                .extend(sel.selected.iter().map(|&c| st.col_map[c]));
        });

        let local =
            timers.time(KernelId::Schur, || eng.schur_finish(&sp, pending, &x_rows, &x, mu));
        peak.note(eng.resident());

        st.rank += k_eff;
        st.iterations += 1;

        // Line 13, error indicator (eq. 9 / 26), read off `A^(i+1)`
        // before any thresholding as Algorithm 3 orders lines 7 and 8,
        // with the drop at mu, so one agreement covers both: an
        // allreduce of the partials, each component folded in the tree
        // every rank replays, exactly as its own allreduce would.
        let (norm_sq, mass, count, nnz) = match comm {
            None => local,
            Some(ctx) => timers.time(KernelId::Indicator, || ctx.allreduce(local, add_partials)),
        };
        st.indicator = norm_sq.sqrt();
        if non_finite("non-finite error indicator", st.iterations, &[st.indicator]) {
            exit.breakdown = Some(Breakdown::NonFinite);
            break;
        }
        let mut nnz = nnz as usize;
        if st.indicator < stop {
            exit.converged = true;
        } else if st.rank >= rank_cap {
            exit.breakdown = Some(Breakdown::RankExhausted);
        } else if let (Some(cfg), Some(th)) = (ilut, st.ilut.as_mut()) {
            // ILUT_CRTP lines 5, 8-10: record mu/phi, then keep the drop
            // unless it would carry the accumulated dropped mass past
            // phi; a drop that would is discarded and thresholding is
            // disabled (the control, eq. 22). Every rank holds the same
            // `th` and the same agreed measurement, so the decision is
            // replicated bit for bit.
            if st.iterations == 1 {
                th.mu = mu;
                th.phi = cfg.phi_factor * opts.tau * st.r11;
            }
            if th.mu > 0.0 {
                if (th.dropped_mass_sq + mass).sqrt() < th.phi {
                    th.dropped_mass_sq += mass;
                    th.dropped += count as usize;
                    nnz -= count as usize;
                    timers.time(KernelId::Drop, || eng.drop_below(mu));
                } else {
                    th.control_triggered = true;
                    th.mu = 0.0;
                }
            }
        }

        // Trace the Schur complement as the next iteration will see it
        // (post-threshold for ILUT_CRTP) — the Fig. 1 fill-in metric.
        let (m_rest, n_rest) = (sp.blocks.rest_rows.len(), sp.blocks.rest_cols.len());
        st.trace.push(IterTrace {
            iteration: st.iterations,
            rank: st.rank,
            indicator: st.indicator,
            schur_nnz: nnz,
            schur_density: if m_rest == 0 || n_rest == 0 {
                0.0
            } else {
                nnz as f64 / (m_rest as f64 * n_rest as f64)
            },
            schur_nnz_per_row: if m_rest == 0 {
                0.0
            } else {
                nnz as f64 / m_rest as f64
            },
            r_diag: panel_r_diag,
        });
        // A converged run whose whole last block is certified keeps
        // what the prefix search needs of it; the engine's sums travel
        // in the memory-peak allreduce after the loop.
        if exit.converged && block_certified(norm_sq, stop, st.drop_norm_bound()) {
            last = Some(timers.time(KernelId::Indicator, || {
                let mut xq = vec![usize::MAX; sp.blocks.rest_rows.len()];
                for (q, &r) in x_rows.iter().enumerate() {
                    xq[r] = q;
                }
                (LastBlock::new(norm_sq, &sp.a11, &xt), eng.block_sums(&xq, &xt))
            }));
        }
        if exit.converged || exit.breakdown.is_some() {
            break;
        }

        // Advance the maps to the next Schur complement.
        st.row_map = sp.blocks.rest_rows.iter().map(|&r| st.row_map[r]).collect();
        st.col_map = sp.blocks.rest_cols.iter().map(|&c| st.col_map[c]).collect();

        // Iteration boundary: all loop-carried state is consistent
        // here (under SPMD the measurement is agreed and the drop is
        // done, so shards + replicated state form a consistent global
        // snapshot), so this is the snapshot point.
        if let Some(h) = hooks {
            if h.should_save(st.iterations) {
                save_checkpoint(comm, &eng, &st, a, h);
            }
        }
        if st.iterations > 4 * (m.min(n) / opts.k.max(1) + 2) {
            exit.breakdown = Some(Breakdown::RankExhausted);
            break; // safety net against non-termination
        }
    }

    // Under SPMD the report is the group's largest peak, the same on
    // every rank, and the last block's sums are summed over the group
    // in the same allreduce. The engine goes before the factors are
    // assembled, and the recorded columns go as they are assembled —
    // on rank 0, the one rank whose result carries `L` and `U`; every
    // other rank returns the same result with empty factors.
    let (last, sums) = last.unzip();
    let (mem, sums) = match comm {
        None => (peak, sums),
        Some(ctx) => ctx.allreduce((peak, sums), |(x, a), (y, b)| {
            (x.max(y), a.zip(b).map(|(a, b)| a.add(&b)))
        }),
    };
    // The smallest certified prefix of the last block; every rank
    // reads it off the same agreed sums.
    if let (Some(block), Some(sums)) = (last, sums) {
        let dropped = st.drop_norm_bound();
        let prefix = timers.time(KernelId::Indicator, || block.prefix(&sums, stop, dropped));
        if let Some((l, p)) = prefix {
            st.rank -= block.k - l;
            st.indicator = p;
            for cols in [&mut st.pivot_rows, &mut st.pivot_cols] {
                cols.truncate(st.rank);
            }
            for cols in [&mut st.l_cols, &mut st.ut_cols] {
                cols.truncate(st.rank);
            }
        }
    }
    drop(eng);
    drop(tbuf);
    drop(omega);
    let (l_cols, ut_cols) = (std::mem::take(&mut st.l_cols), std::mem::take(&mut st.ut_cols));
    let factors = timers.time(KernelId::Concat, || {
        if root {
            assemble_factors(m, n, l_cols, ut_cols)
        } else {
            (CscMatrix::zeros(0, 0), CscMatrix::zeros(0, 0))
        }
    });
    st.into_result(exit, factors, a_norm_f, timers, mem)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both paths of `x_transpose_times` give the same bits on the rows
    /// of `ts`, whichever one a column's support selects.
    #[test]
    fn x_transpose_paths_agree_bitwise() {
        let k = 32;
        let xt = DenseMatrix::from_fn(k, 40, |t, q| ((t * 40 + q) as f64 * 0.37).sin() * 1e3);
        let hits: Vec<(usize, f64)> =
            (0..23).map(|i| ((i * 17) % 40, ((i as f64) * 1.3).cos() / 7.0)).collect();
        for ts in [vec![5], vec![0, 9, 31], vec![1, 2, 3, 4], (0..k).collect()] {
            let mut y = vec![0.0; k];
            x_transpose_times(&mut y, &xt, &hits, &ts);
            let mut all = vec![0.0; k];
            accumulate_correction(&mut all, &xt, &hits);
            for &t in &ts {
                assert_eq!(y[t].to_bits(), all[t].to_bits(), "ts={ts:?} row {t}");
            }
        }
    }
}
