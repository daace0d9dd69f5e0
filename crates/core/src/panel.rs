//! The one LU_CRTP / ILUT_CRTP panel loop.
//!
//! Algorithm 3 is Algorithm 2 plus four lines (`mu`, drop, control),
//! and the paper's MPI code is the same loop run over a block-column
//! distribution. [`drive`] owns everything that *is* Algorithm 2/3 —
//! budget polling, resume, the stage sequence and its
//! [`KernelTimers`] buckets, the NaN guards and [`Breakdown`] exits,
//! factor recording, the ILUT threshold/control decision, the trace,
//! the checkpoint cadence and result assembly — and nothing that is
//! data placement. A [`PanelEngine`] supplies only the stages, over
//! whatever storage it keeps the Schur complement in: the
//! shared-memory kernels (`SeqEngine` in `lucrtp.rs`), the rank-owned
//! shards (`SpmdPanelCtx` in `spmd.rs`) or the fully replicated
//! oracle (`ReplicatedEngine`, same file).

use crate::checkpoint::{
    load_resume, save_snapshot, IlutCheckpoint, LuCrtpCheckpoint, RecoveryHooks,
};
use crate::lucrtp::{
    Breakdown, IlutOpts, IterTrace, LuCrtpOpts, LuCrtpResult, MemStats, OrderingMode,
    ThresholdReport,
};
use crate::timers::{KernelId, KernelTimers};
use lra_comm::Ctx;
use lra_dense::{lu, DenseMatrix, LuFactor};
use lra_qrtp::ColumnSelection;
use lra_recover::BudgetTrip;
use lra_sparse::CscMatrix;
use std::borrow::Cow;
use std::ops::Range;

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

/// The `[Ā11 Ā12; Ā21 Ā22]` split of Algorithm 2 line 8. `Ā11`/`Ā21`
/// are whole on every rank (`O(b^2)` / `O(b)`-column objects);
/// `Ā12`/`Ā22` cover the rest columns `rest_cols[my_run]` — all of them
/// for an engine that stores the full matrix, the owned run for a
/// sharded one.
pub(crate) struct PanelSplit {
    pub(crate) a11: DenseMatrix,
    pub(crate) a21: CscMatrix,
    pub(crate) rest_rows: Vec<usize>,
    pub(crate) rest_cols: Vec<usize>,
    pub(crate) my_run: Range<usize>,
    pub(crate) a12: CscMatrix,
    pub(crate) a22: CscMatrix,
}

impl PanelSplit {
    /// The split of a fully stored Schur complement.
    pub(crate) fn of_full(s: &CscMatrix, pivot_rows: &[usize], pivot_cols: &[usize]) -> Self {
        let (a11, a12, a21, a22, rest_rows, rest_cols) = s.split_blocks(pivot_rows, pivot_cols);
        PanelSplit {
            a11,
            a21,
            my_run: 0..rest_cols.len(),
            rest_rows,
            rest_cols,
            a12,
            a22,
        }
    }
}

/// The stages of one block iteration over an engine's own storage of
/// the Schur complement. Private to `lra-core` and statically
/// dispatched; every method that communicates is collective — the loop
/// calls it on every rank, in the same order.
pub(crate) trait PanelEngine {
    /// A Schur update still in flight between [`Self::schur_begin`] and
    /// [`Self::schur_finish`] ([`std::convert::Infallible`] for engines
    /// that do all the work in the first half).
    type Pending;

    /// The `mem` report of a run that placed no matrix.
    fn idle_mem() -> Option<MemStats> {
        None
    }

    /// Whether this rank accumulates the factor columns.
    fn keeps_factors(&self) -> bool {
        true
    }

    /// Active `(rows, columns)` of the current Schur complement.
    fn dims(&self) -> (usize, usize);

    /// Resident bytes this rank charges to the budget's memory ceiling.
    fn resident_bytes(&self) -> u64;

    /// [`OrderingMode::EveryIteration`]: fill-reduce the current Schur
    /// complement and return the column permutation applied. Only the
    /// shared-memory engine reorders: the SPMD entry points refuse the
    /// mode (`InvalidInput::SequentialOnly`), so the SPMD engines never
    /// reach this and keep the default, which orders nothing.
    fn reorder(&mut self) -> Option<Vec<usize>> {
        None
    }

    /// Line 5: column tournament.
    fn col_tournament(&mut self, k_want: usize) -> ColumnSelection;

    /// Line 6: thin QR of the selected panel — `Q_k` and `|diag(R)|`.
    fn panel_qr(&mut self, sel: &ColumnSelection) -> (DenseMatrix, Vec<f64>);

    /// Line 7: row tournament on `Q_k^T`.
    fn row_tournament(&self, qk: &DenseMatrix, k_eff: usize) -> Vec<usize>;

    /// Line 8: permute and split.
    fn split(&self, pivot_rows: &[usize], sel: &ColumnSelection) -> PanelSplit;

    /// Line 10: `L21` as its nonzero trailing-row positions and the
    /// dense `k x nr` `X^T`.
    fn solve_l21(&mut self, sp: &PanelSplit, lu11: &LuFactor) -> (Vec<usize>, DenseMatrix);

    /// Line 12, first half: start `S = Ā22 - X Ā12`, `x` being the
    /// `nr x k` nonzero rows of `X` (the transpose of what
    /// [`Self::solve_l21`] returned). Whatever is still outstanding
    /// comes back as `Some` and is completed by [`Self::schur_finish`]
    /// after the factors are recorded.
    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
    ) -> Option<Self::Pending>;

    /// Line 12, second half; afterwards the engine holds the next Schur
    /// complement.
    fn schur_finish(&mut self, pending: Self::Pending, x_rows: &[usize], x: &DenseMatrix);

    /// This panel's trailing `U` entries per panel row, as
    /// `(original column, value)` — `None` on ranks that keep no
    /// factors.
    fn u_fragments(
        &mut self,
        sp: &PanelSplit,
        col_map: &[usize],
        k_eff: usize,
    ) -> Option<Vec<FactorCol>>;

    /// Line 13 and ILUT lines 8–10's measurement, agreed in one step:
    /// `||A^(i+1)||_F` before any drop, and what a drop of the entries
    /// below `thr` would remove (nothing is measured at `thr = 0`). An
    /// engine that knows the indicator before its drop pass skips the
    /// pass once `indicator < stop`: the loop stops there and would
    /// discard it. The drop pass is timed under [`KernelId::Drop`],
    /// the rest under [`KernelId::Indicator`].
    fn measure(&mut self, thr: f64, stop: f64, timers: &mut KernelTimers) -> Measure;

    /// Install (`keep`) or release the drop the last [`Self::measure`]
    /// measured; the loop calls it after every measurement at `thr > 0`,
    /// so no dropped copy outlives its decision.
    fn settle_drop(&mut self, keep: bool);

    /// The whole current Schur complement for a snapshot, on the one
    /// rank that writes it — borrowed where the engine holds it whole.
    fn gather_schur(&self) -> Option<Cow<'_, CscMatrix>>;

    /// `L` and `U` from the recorded factor columns; identical on
    /// every rank.
    fn materialize(
        &self,
        m: usize,
        n: usize,
        l_cols: &[FactorCol],
        ut_cols: &[FactorCol],
    ) -> (CscMatrix, CscMatrix) {
        assemble_factors(m, n, l_cols, ut_cols)
    }

    /// Peak per-rank storage, where the engine shards it; publishes the
    /// engine's gauges.
    fn mem_stats(&self) -> Option<MemStats> {
        None
    }
}

/// What [`PanelEngine::measure`] agrees on, identical on every rank.
pub(crate) struct Measure {
    /// `||A^(i+1)||_F` (eq. 9 / 26), before any drop.
    pub(crate) indicator: f64,
    /// Squared mass and count of the entries below the threshold
    /// (zero when no drop was measured); the count is also what the
    /// drop takes off `nnz`.
    pub(crate) dropped: (f64, usize),
    /// Stored entries of the whole Schur complement, before the drop.
    pub(crate) nnz: usize,
}

/// `L` and `U` assembled locally from the recorded columns.
pub(crate) fn assemble_factors(
    m: usize,
    n: usize,
    l_cols: &[FactorCol],
    ut_cols: &[FactorCol],
) -> (CscMatrix, CscMatrix) {
    let assemble = |rows: usize, cols: &[FactorCol]| {
        let mut b = lra_sparse::SparseBuilder::new(rows, cols.len());
        for col in cols {
            b.push_col(col);
        }
        b.finish()
    };
    (assemble(m, l_cols), assemble(n, ut_cols).transpose())
}

/// Everything Algorithm 2/3 carries from one block iteration to the
/// next, apart from the Schur complement itself (which the engine
/// places) — i.e. a [`LuCrtpCheckpoint`] minus `s`, plus the reason the
/// loop stopped.
#[derive(Default)]
struct LoopState {
    row_map: Vec<usize>,
    col_map: Vec<usize>,
    l_cols: Vec<FactorCol>,
    ut_cols: Vec<FactorCol>,
    pivot_rows: Vec<usize>,
    pivot_cols: Vec<usize>,
    trace: Vec<IterTrace>,
    rank: usize,
    iterations: usize,
    indicator: f64,
    r11: f64,
    ilut: Option<IlutCheckpoint>,
    converged: bool,
    breakdown: Option<Breakdown>,
    trip: Option<BudgetTrip>,
}

impl LoopState {
    fn new(a_norm_f: f64, ilut: bool) -> Self {
        LoopState {
            indicator: a_norm_f,
            ilut: ilut.then_some(IlutCheckpoint {
                mu: 0.0,
                phi: 0.0,
                mass_sq: 0.0,
                dropped: 0,
                control_triggered: false,
            }),
            ..Default::default()
        }
    }

    /// Continue from a snapshot as if never interrupted.
    fn from_checkpoint(ck: LuCrtpCheckpoint<'_>) -> (Self, CscMatrix) {
        let st = LoopState {
            row_map: ck.row_map.into_owned(),
            col_map: ck.col_map.into_owned(),
            l_cols: ck.l_cols.into_owned(),
            ut_cols: ck.ut_cols.into_owned(),
            pivot_rows: ck.pivot_rows.into_owned(),
            pivot_cols: ck.pivot_cols.into_owned(),
            trace: ck.trace.into_owned(),
            rank: ck.rank,
            iterations: ck.iterations,
            indicator: ck.indicator,
            r11: ck.r11,
            ilut: ck.ilut,
            ..Default::default()
        };
        (st, ck.s.into_owned())
    }

    /// The state at an iteration boundary around the engine's current
    /// Schur complement — borrowed, nothing is cloned for a save.
    fn snapshot<'a>(&'a self, m: usize, n: usize, s: Cow<'a, CscMatrix>) -> LuCrtpCheckpoint<'a> {
        LuCrtpCheckpoint {
            m,
            n,
            iterations: self.iterations,
            rank: self.rank,
            indicator: self.indicator,
            r11: self.r11,
            s,
            row_map: Cow::Borrowed(&self.row_map),
            col_map: Cow::Borrowed(&self.col_map),
            l_cols: Cow::Borrowed(&self.l_cols),
            ut_cols: Cow::Borrowed(&self.ut_cols),
            pivot_cols: Cow::Borrowed(&self.pivot_cols),
            pivot_rows: Cow::Borrowed(&self.pivot_rows),
            trace: Cow::Borrowed(&self.trace),
            ilut: self.ilut.clone(),
        }
    }

    fn into_result(
        self,
        (l, u): (CscMatrix, CscMatrix),
        a_norm_f: f64,
        timers: KernelTimers,
        mem: Option<MemStats>,
    ) -> LuCrtpResult {
        LuCrtpResult {
            l,
            u,
            pivot_rows: self.pivot_rows,
            pivot_cols: self.pivot_cols,
            rank: self.rank,
            iterations: self.iterations,
            converged: self.converged,
            breakdown: self.breakdown,
            indicator: self.indicator,
            a_norm_f,
            r11: self.r11,
            trace: self.trace,
            timers,
            threshold: self.ilut.map(|t| ThresholdReport {
                mu: t.mu,
                phi: t.phi,
                dropped: t.dropped,
                dropped_mass_sq: t.mass_sq,
                control_triggered: t.control_triggered,
            }),
            mem,
            trip: self.trip,
        }
    }
}

/// Write a snapshot through `hooks`. Collective under SPMD — every
/// rank enters; only the rank handed the gathered Schur complement
/// touches the store.
fn save_checkpoint<E: PanelEngine>(
    eng: &E,
    st: &LoopState,
    a: &CscMatrix,
    hooks: &RecoveryHooks<'_>,
) {
    if let Some(s) = eng.gather_schur() {
        save_snapshot(hooks, &st.snapshot(a.rows(), a.cols(), s));
    }
}

/// Run LU_CRTP (`ilut: None`) or ILUT_CRTP over the engine `place`
/// builds around the starting Schur complement. `comm` is the rank
/// group (`None` sequentially): the loop itself uses it only to agree
/// on the budget verdict, to broadcast rank 0's fill-reducing order and
/// to name rank 0 as the one that publishes events and gauges. Only
/// `u_estimate` and `phi_factor` are read from `ilut`; everything else
/// comes from `opts`.
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
    let mut st = LoopState::new(a_norm_f, ilut.is_some());
    if a_norm_f == 0.0 {
        // The zero matrix is its own rank-0 approximation.
        st.converged = true;
        st.indicator = 0.0; // not `a_norm_f`: an empty sum is -0.0
        let empty = (CscMatrix::zeros(m, 0), CscMatrix::zeros(0, n));
        return st.into_result(empty, a_norm_f, timers, E::idle_mem());
    }

    let mut eng = match hooks.and_then(|h| load_resume(h, m, n, ilut.is_some())) {
        // The snapshot's column map already reflects the fill-reducing
        // preprocessing; timers cover only the resumed portion. Under
        // SPMD every rank loads the same shared store, so the restored
        // state is consistent with no extra collective, and an engine
        // that shards re-slices for the *current* rank count.
        Some(ck) => {
            let s;
            (st, s) = LoopState::from_checkpoint(ck);
            let eng = place(Source::Snapshot(s));
            if !eng.keeps_factors() {
                st.l_cols = Vec::new();
                st.ut_cols = Vec::new();
            }
            eng
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

    loop {
        if let Some(ctx) = comm {
            ctx.begin_iteration(st.iterations as u64 + 1);
        }
        // Budget check at the iteration boundary: the loop-carried
        // state is consistent here (the same invariant the snapshot
        // point relies on), so a trip leaves valid partial factors and
        // a resumable store. Under SPMD every rank evaluates its
        // *local* verdict (its own resident bytes, its own clock), then
        // the group agrees on one trip through a fixed allreduce — the
        // same discipline as poison broadcast, so no rank can break out
        // of the collective schedule alone. `opts` is replicated, so
        // the `is_unlimited` branch itself cannot desync the group.
        if !opts.budget.is_unlimited() {
            let local = opts.budget.check(st.iterations as u64, eng.resident_bytes());
            let agreed = match comm {
                None => local,
                Some(ctx) => ctx
                    .allreduce_opt(local.map(|t| t.to_wire()), BudgetTrip::merge_wire)
                    .and_then(|(k, x, y)| BudgetTrip::from_wire(k, x, y)),
            };
            if let Some(t) = agreed {
                // A cadence save already covered this iteration when
                // `should_save` holds; otherwise force one so the
                // resume handle points at the trip iteration.
                if let Some(h) = hooks {
                    if st.iterations > 0 && !h.should_save(st.iterations) {
                        save_checkpoint(&eng, &st, a, h);
                    }
                }
                if root {
                    lra_recover::record_event(&lra_recover::RecoveryEvent::BudgetTrip {
                        trip: t.clone(),
                        iteration: st.iterations,
                    });
                }
                st.trip = Some(t);
                break;
            }
        }
        let (m_act, n_act) = eng.dims();
        if m_act == 0 || n_act == 0 || st.rank >= rank_cap {
            if st.indicator >= stop {
                st.breakdown = Some(Breakdown::RankExhausted);
            }
            break;
        }
        if opts.ordering == OrderingMode::EveryIteration && st.iterations > 0 {
            if let Some(perm) = timers.time(KernelId::Permute, || eng.reorder()) {
                st.col_map = perm.iter().map(|&p| st.col_map[p]).collect();
            }
        }
        let k_want = opts.k.min(n_act).min(m_act).min(rank_cap - st.rank);

        // Line 5: column tournament.
        let sel = timers.time(KernelId::ColTournament, || eng.col_tournament(k_want));
        if st.iterations == 0 {
            st.r11 = sel.r_diag.first().copied().unwrap_or(0.0).abs();
        }
        let k_eff = sel.selected.len();
        if k_eff == 0 {
            st.breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Line 6: QR of the selected panel.
        let (qk, panel_r_diag) = timers.time(KernelId::PanelQr, || eng.panel_qr(&sel));
        if panel_r_diag.iter().any(|v| !v.is_finite()) {
            lra_recover::record_guard_trip(format!(
                "non-finite panel R diagonal at iteration {}",
                st.iterations + 1
            ));
            st.breakdown = Some(Breakdown::NonFinite);
            break;
        }

        // Line 7: row tournament on Q_k^T.
        let rows = timers.time(KernelId::RowTournament, || eng.row_tournament(&qk, k_eff));
        if rows.len() < k_eff {
            st.breakdown = Some(Breakdown::RankExhausted);
            break;
        }

        // Line 8: permute and split.
        let sp = timers.time(KernelId::Permute, || eng.split(&rows, &sel));

        // Line 10: L21 formation.
        let lu11 = lu(&sp.a11);
        if lu11.is_singular() {
            st.breakdown = Some(Breakdown::SingularPivotBlock);
            break;
        }
        let (x_rows, xt) = timers.time(KernelId::LSolve, || eng.solve_l21(&sp, &lu11));

        // Line 12: Schur complement. An engine with wire to hide posts
        // its exchange here and completes it after the factors are
        // recorded; the others finish in this half.
        // The kernel reads `X` one contiguous column per panel row.
        let (x, pending) = timers.time(KernelId::Schur, || {
            let x = xt.transpose();
            let pending = eng.schur_begin(&sp, &x_rows, &x);
            (x, pending)
        });

        // Record factors (line 9/11), in original coordinates. The
        // pivot lists are replicated bookkeeping on every rank.
        timers.time(KernelId::Concat, || {
            if let Some(frags) = eng.u_fragments(&sp, &st.col_map, k_eff) {
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
                    let mut lcol: FactorCol = Vec::new();
                    lcol.push((st.row_map[rows[t]], 1.0));
                    for (xi, &r_rest) in x_rows.iter().enumerate() {
                        let v = xt.get(t, xi);
                        if v != 0.0 {
                            lcol.push((st.row_map[sp.rest_rows[r_rest]], v));
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

        if let Some(p) = pending {
            timers.time(KernelId::Schur, || eng.schur_finish(p, &x_rows, &x));
        }

        st.rank += k_eff;
        st.iterations += 1;

        // Line 13, error indicator (eq. 9 / 26), evaluated before any
        // thresholding as Algorithm 3 orders lines 7 and 8, and the
        // ILUT drop at mu (eq. 24; r11 is known since the first
        // tournament) measured with it, so one agreement covers both.
        let mu = match (ilut, &st.ilut) {
            (Some(cfg), Some(th)) if st.rank < rank_cap => match st.iterations {
                1 => opts.tau * st.r11 / (cfg.u_estimate as f64 * (a.nnz().max(1) as f64).sqrt()),
                _ => th.mu,
            },
            _ => 0.0,
        };
        let ms = eng.measure(mu, stop, &mut timers);
        st.indicator = ms.indicator;
        if !st.indicator.is_finite() {
            lra_recover::record_guard_trip(format!(
                "non-finite error indicator at iteration {}",
                st.iterations
            ));
            st.breakdown = Some(Breakdown::NonFinite);
            eng.settle_drop(false);
            break;
        }
        let mut nnz = ms.nnz;
        let mut keep = false;
        if st.indicator < stop {
            st.converged = true;
        } else if st.rank >= rank_cap {
            st.breakdown = Some(Breakdown::RankExhausted);
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
                let (mass, count) = ms.dropped;
                if (th.mass_sq + mass).sqrt() < th.phi {
                    th.mass_sq += mass;
                    th.dropped += count;
                    keep = true;
                    nnz -= count;
                } else {
                    th.control_triggered = true;
                    th.mu = 0.0;
                }
            }
        }
        if mu > 0.0 {
            timers.time(KernelId::Drop, || eng.settle_drop(keep));
        }

        // Trace the Schur complement as the next iteration will see it
        // (post-threshold for ILUT_CRTP) — the Fig. 1 fill-in metric.
        let (m_rest, n_rest) = eng.dims();
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
        if st.converged || st.breakdown.is_some() {
            break;
        }

        // Advance the maps to the next Schur complement.
        st.row_map = sp.rest_rows.iter().map(|&r| st.row_map[r]).collect();
        st.col_map = sp.rest_cols.iter().map(|&c| st.col_map[c]).collect();

        // Iteration boundary: all loop-carried state is consistent
        // here (under SPMD the measurement is agreed and the drop is
        // done, so shards + replicated state form a consistent global
        // snapshot), so this is the snapshot point.
        if let Some(h) = hooks {
            if h.should_save(st.iterations) {
                save_checkpoint(&eng, &st, a, h);
            }
        }
        if st.iterations > 4 * (m.min(n) / opts.k.max(1) + 2) {
            st.breakdown = Some(Breakdown::RankExhausted);
            break; // safety net against non-termination
        }
    }

    let mem = eng.mem_stats();
    let factors = timers.time(KernelId::Concat, || {
        eng.materialize(m, n, &st.l_cols, &st.ut_cols)
    });
    st.into_result(factors, a_norm_f, timers, mem)
}
