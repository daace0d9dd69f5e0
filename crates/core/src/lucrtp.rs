//! Truncated LU factorization with column and row tournament pivoting
//! (LU_CRTP, Algorithm 2) and its incomplete thresholding variant
//! (ILUT_CRTP, Algorithm 3) — the paper's deterministic fixed-precision
//! methods. Here the column tournament's leaves and merges rank a random
//! sketch of the complement (`lra_qrtp::Omega`, hashed from a fixed
//! internal seed and the input's row ids), so a run is reproducible bit
//! for bit but its pivots are chosen on the sketch.
//!
//! Both run the same block iteration; ILUT_CRTP additionally drops
//! Schur-complement entries below a threshold `mu` (eq. 24), guarded by
//! the threshold control `phi` (eq. 22). The shared-memory engine here
//! keeps the Schur complement as [`SCHUR_GRAIN`]-column runs and holds
//! one complement at a time: the update reads `Ā12`/`Ā22` in place and
//! retires old runs as it writes new ones ([`schur_update_runs`]),
//! measuring each column as it writes it (no second pass reads the
//! complement to measure it), and a kept drop filters the runs in
//! place. Factors are accumulated in *original* coordinates: `L` holds
//! original row ids and `U` original column ids, so `A ≈ L U` directly
//! and `||P_r A P_c - L' U'||_F = ||A - L U||_F` for the permuted
//! factors.

use crate::panel::{
    block_sums, drive, fill_reducing_order, fold_columns, BlockSums, FactorCol, PanelEngine,
    PanelSplit, Partials, Source,
};
use crate::timers::KernelTimers;
use lra_dense::{DenseMatrix, LuFactor};
use lra_comm::Ctx;
use lra_par::{owned_range, parallel_chunks_mut, parallel_map_fold, split_ranges, Parallelism};
use lra_qrtp::{tournament_columns_sketched, ColumnSelection, Omega, Sketch};
use lra_sparse::{BlockSplit, ColRun, CscMatrix, CscRuns};
use std::ops::Range;
use std::sync::{Mutex, RwLock};

/// When to apply the fill-reducing (COLAMD + etree postorder)
/// preprocessing — the ablation axis of Fig. 1 (left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// No reordering.
    Natural,
    /// Reorder the input once before the first iteration (the paper's
    /// default, Section V).
    FirstIteration,
    /// Reorder the Schur complement before every iteration.
    EveryIteration,
}

/// Why a factorization stopped before reaching the tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breakdown {
    /// The `k x k` pivot block was numerically singular.
    SingularPivotBlock,
    /// The (thresholded) Schur complement ran out of numerical rank.
    RankExhausted,
    /// A numerical guard tripped: a panel `R` diagonal or the error
    /// indicator came back NaN/Inf, so continuing would only propagate
    /// garbage. Recorded as a `recover.guard_trip` event.
    NonFinite,
}

/// A caller error caught at the API boundary — the typed alternative to
/// panicking deep inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidInput {
    /// Block size `k` must be at least 1.
    ZeroBlockSize,
    /// `tau` must be finite and strictly positive.
    BadTau {
        /// The offending tolerance.
        tau: f64,
    },
    /// ILUT's iteration estimate `u` must be at least 1 (it divides the
    /// drop threshold `mu`, eq. 24).
    ZeroIterationEstimate,
    /// ILUT's `phi_factor` must be finite and strictly positive.
    BadPhiFactor {
        /// The offending factor.
        phi_factor: f64,
    },
    /// The input matrix has no rows or no columns.
    EmptyMatrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// The input matrix contains a NaN or infinite entry. Rejected up
    /// front at checked entry points: a non-finite input can only ever
    /// surface later as a mid-factorization [`Breakdown::NonFinite`],
    /// after burning iterations on garbage.
    NonFiniteEntry {
        /// Row index of the first offending entry.
        row: usize,
        /// Column index of the first offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// An option that only the sequential engine honours, handed to an
    /// SPMD entry point.
    SequentialOnly {
        /// The option, e.g. `"OrderingMode::EveryIteration"`.
        option: &'static str,
    },
}

impl std::fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidInput::ZeroBlockSize => write!(f, "block size k must be at least 1"),
            InvalidInput::BadTau { tau } => {
                write!(f, "tau must be finite and > 0, got {tau}")
            }
            InvalidInput::ZeroIterationEstimate => {
                write!(f, "ILUT iteration estimate u must be at least 1")
            }
            InvalidInput::BadPhiFactor { phi_factor } => {
                write!(f, "phi_factor must be finite and > 0, got {phi_factor}")
            }
            InvalidInput::EmptyMatrix { rows, cols } => {
                write!(f, "input matrix is empty ({rows}x{cols})")
            }
            InvalidInput::NonFiniteEntry { row, col, value } => {
                write!(f, "input matrix entry ({row}, {col}) is not finite: {value}")
            }
            InvalidInput::SequentialOnly { option } => {
                write!(f, "{option} is sequential-only: run it with Exec::Seq")
            }
        }
    }
}

impl std::error::Error for InvalidInput {}

/// Reject empty or non-finite inputs at checked entry points.
pub(crate) fn validate_matrix(a: &CscMatrix) -> Result<(), InvalidInput> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(InvalidInput::EmptyMatrix {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    for col in 0..a.cols() {
        let (ri, vs) = a.col(col);
        for (&row, &value) in ri.iter().zip(vs) {
            if !value.is_finite() {
                return Err(InvalidInput::NonFiniteEntry { row, col, value });
            }
        }
    }
    Ok(())
}

/// Options for [`crate::lu_crtp`].
#[derive(Debug, Clone)]
pub struct LuCrtpOpts {
    /// Block size `k`.
    pub k: usize,
    /// Relative tolerance `tau` in `||A - LU||_F < tau * ||A||_F`.
    pub tau: f64,
    /// Fill-reducing preprocessing mode.
    pub ordering: OrderingMode,
    /// Worker count for all parallel kernels.
    pub par: Parallelism,
    /// Optional rank cap (stop once `K >= max_rank`).
    pub max_rank: Option<usize>,
    /// Cooperative resource budget (deadline / iteration cap / memory
    /// ceiling / cancel tokens). Checked once per block iteration at
    /// the snapshot boundary; on a trip the driver checkpoints (when
    /// hooks are attached) and returns the partial factors with
    /// [`LuCrtpResult::trip`] set. Unlimited by default — the check
    /// (and, under SPMD, the agreement collective) is skipped entirely
    /// then.
    pub budget: lra_recover::Budget,
}

impl LuCrtpOpts {
    /// Defaults matching the paper's setup: first-iteration COLAMD,
    /// sequential.
    ///
    /// Panics on invalid `k`/`tau` with the [`InvalidInput`] message —
    /// use [`LuCrtpOpts::try_new`] for the non-panicking variant.
    pub fn new(k: usize, tau: f64) -> Self {
        Self::try_new(k, tau).unwrap_or_else(|e| panic!("LuCrtpOpts::new: {e}"))
    }

    /// Validated constructor: rejects `k == 0` and non-finite or
    /// non-positive `tau` instead of panicking deep inside a kernel.
    pub fn try_new(k: usize, tau: f64) -> Result<Self, InvalidInput> {
        if k == 0 {
            return Err(InvalidInput::ZeroBlockSize);
        }
        if !tau.is_finite() || tau <= 0.0 {
            return Err(InvalidInput::BadTau { tau });
        }
        Ok(LuCrtpOpts {
            k,
            tau,
            ordering: OrderingMode::FirstIteration,
            par: Parallelism::SEQ,
            max_rank: None,
            budget: lra_recover::Budget::unlimited(),
        })
    }

    /// Re-check the invariants (for options assembled field-by-field).
    pub fn validate(&self) -> Result<(), InvalidInput> {
        Self::try_new(self.k, self.tau).map(|_| ())
    }

    /// Builder-style parallelism setter.
    pub fn with_par(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Builder-style ordering setter.
    pub fn with_ordering(mut self, ordering: OrderingMode) -> Self {
        self.ordering = ordering;
        self
    }

    /// Builder-style rank cap setter.
    pub fn with_max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = Some(max_rank);
        self
    }

    /// Builder-style budget setter (see [`LuCrtpOpts::budget`]).
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Options for [`crate::ilut_crtp`].
#[derive(Debug, Clone)]
pub struct IlutOpts {
    /// The underlying LU_CRTP configuration.
    pub base: LuCrtpOpts,
    /// Estimated iteration count `u` in the `mu` heuristic (eq. 24).
    pub u_estimate: usize,
    /// Threshold control `phi` as a multiple of `tau * |R^(1)(1,1)|`
    /// (the paper uses 1.0).
    pub phi_factor: f64,
}

impl IlutOpts {
    /// Paper defaults: `phi = tau * |R^(1)(1,1)|`.
    ///
    /// `u_estimate` is clamped to at least 1 (matching the historical
    /// behavior); invalid `k`/`tau` panic with the [`InvalidInput`]
    /// message — use [`IlutOpts::try_new`] for the non-panicking
    /// variant.
    pub fn new(k: usize, tau: f64, u_estimate: usize) -> Self {
        Self::try_new(k, tau, u_estimate.max(1))
            .unwrap_or_else(|e| panic!("IlutOpts::new: {e}"))
    }

    /// Validated constructor: rejects `k == 0`, bad `tau`, and
    /// `u_estimate == 0`.
    pub fn try_new(k: usize, tau: f64, u_estimate: usize) -> Result<Self, InvalidInput> {
        if u_estimate == 0 {
            return Err(InvalidInput::ZeroIterationEstimate);
        }
        Ok(IlutOpts {
            base: LuCrtpOpts::try_new(k, tau)?,
            u_estimate,
            phi_factor: 1.0,
        })
    }

    /// Re-check the invariants (for options assembled field-by-field).
    pub fn validate(&self) -> Result<(), InvalidInput> {
        self.base.validate()?;
        if self.u_estimate == 0 {
            return Err(InvalidInput::ZeroIterationEstimate);
        }
        if !self.phi_factor.is_finite() || self.phi_factor <= 0.0 {
            return Err(InvalidInput::BadPhiFactor {
                phi_factor: self.phi_factor,
            });
        }
        Ok(())
    }

    /// Builder-style budget setter on the underlying base opts (see
    /// [`LuCrtpOpts::budget`]).
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.base.budget = budget;
        self
    }
}

/// ILUT_CRTP's threshold state: what the loop carries from one
/// iteration to the next (and a checkpoint saves), and the thresholding
/// outcome it reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdReport {
    /// The threshold `mu` determined by eq. 24 (0 once the control
    /// triggered).
    pub mu: f64,
    /// The control bound `phi`.
    pub phi: f64,
    /// Total entries dropped.
    pub dropped: usize,
    /// Accumulated dropped mass `sum ||T̃^(j)||_F^2`.
    pub dropped_mass_sq: f64,
    /// Whether the control (22) ever triggered (drop undone, `mu = 0`).
    pub control_triggered: bool,
}

/// Peak per-rank Schur storage of a run, read after placement and
/// after each Schur stage. The shared-memory engine and the replicated
/// oracle hold the whole complement; the sharded engine keeps only a
/// block-column shard per rank (`O(nnz/np)`), so its peaks shrink as
/// ranks are added (pinned by
/// `tests/spmd_sharded.rs::per_rank_memory_shrinks_with_more_ranks`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Max over ranks of the peak resident Schur-storage bytes.
    pub peak_rank_bytes: u64,
    /// Max over ranks of the peak resident Schur-storage nonzeros.
    pub peak_rank_nnz: u64,
}

impl MemStats {
    /// Raise the peaks to a `(bytes, nonzeros)` reading.
    pub(crate) fn note(&mut self, (bytes, nnz): (u64, u64)) {
        self.peak_rank_bytes = self.peak_rank_bytes.max(bytes);
        self.peak_rank_nnz = self.peak_rank_nnz.max(nnz);
    }

    /// The larger of two ranks' peaks, componentwise.
    pub(crate) fn max(self, other: MemStats) -> MemStats {
        MemStats {
            peak_rank_bytes: self.peak_rank_bytes.max(other.peak_rank_bytes),
            peak_rank_nnz: self.peak_rank_nnz.max(other.peak_rank_nnz),
        }
    }
}

/// One iteration of the factorization trace.
#[derive(Debug, Clone)]
pub struct IterTrace {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Accumulated rank `K` after this iteration.
    pub rank: usize,
    /// Error indicator `||A^(i+1)||_F` (eq. 9 / 26).
    pub indicator: f64,
    /// Entries in the Schur complement as the next iteration sees it
    /// (post-threshold for ILUT), on every path.
    pub schur_nnz: usize,
    /// `nnz / (rows*cols)` of the Schur complement — Fig. 1 fill-in.
    pub schur_density: f64,
    /// `nnz / rows` of the Schur complement — Fig. 1 (right) y-axis.
    pub schur_nnz_per_row: f64,
    /// `|diag(R^(i))|` of this iteration's panel QR — rank-revealing
    /// estimates of singular values `sigma_{K-k+1} .. sigma_K` of `A`
    /// (the "effective approximation" property of Section III).
    pub r_diag: Vec<f64>,
}

/// Result of LU_CRTP / ILUT_CRTP.
#[derive(Debug, Clone)]
pub struct LuCrtpResult {
    /// `m x K` lower factor in original row coordinates.
    pub l: CscMatrix,
    /// `K x n` upper factor in original column coordinates.
    pub u: CscMatrix,
    /// Original row ids selected as pivots, in factor order (the first
    /// `K` rows of `P_r`).
    pub pivot_rows: Vec<usize>,
    /// Original column ids selected as pivots (the first `K` columns of
    /// `P_c`).
    pub pivot_cols: Vec<usize>,
    /// Achieved rank `K`. A converged run whose whole last block is
    /// certified returns the smallest prefix of that block whose
    /// residual is certified below `tau ||A||_F` (see
    /// [`LuCrtpResult::indicator`]), so `K` need not be a multiple of
    /// the block size.
    pub rank: usize,
    /// Number of block iterations, the last one counted whole.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Early-stop cause, if any.
    pub breakdown: Option<Breakdown>,
    /// Final error indicator: `||A^(K+1)||_F` of the last block, or,
    /// when the run returned a prefix `l` of it, `p_l = ||A^(K+1) +
    /// Σ_{t>=l} L_t U_t^T||_F` — for LU_CRTP the residual `||A - L
    /// U||_F` of the returned factors, for ILUT_CRTP that residual less
    /// the dropped entries. The trace keeps every block's own indicator.
    pub indicator: f64,
    /// `||A||_F` of the input.
    pub a_norm_f: f64,
    /// `|R^(1)(1,1)|` — the rank-revealing estimate of `||A||_2`.
    pub r11: f64,
    /// Per-iteration trace (fill-in progression etc.).
    pub trace: Vec<IterTrace>,
    /// Kernel timers (Fig. 5 breakdown).
    pub timers: KernelTimers,
    /// Thresholding report (ILUT_CRTP only).
    pub threshold: Option<ThresholdReport>,
    /// Peak per-rank Schur storage (zero when no matrix was placed: the
    /// zero matrix).
    pub mem: MemStats,
    /// Set when a [`LuCrtpOpts::budget`] limit or cancel token stopped
    /// the run at an iteration boundary. The factors are then a valid
    /// rank-`K` approximation whose achieved tolerance is
    /// [`LuCrtpResult::achieved_tolerance`]; under checkpoint hooks the
    /// trip iteration was snapshotted, so a rerun against the same
    /// store resumes from exactly here.
    pub trip: Option<lra_recover::BudgetTrip>,
}

impl LuCrtpResult {
    /// Total nonzeros in both factors (the `ratio_NNZ` numerator /
    /// denominator of Table II).
    pub fn factor_nnz(&self) -> usize {
        self.l.nnz() + self.u.nnz()
    }

    /// Achieved relative tolerance `indicator / ||A||_F`: the quantity
    /// the fixed-precision stop rule compares against `tau`. For a
    /// converged run it is `< tau`; for a budget-tripped run it
    /// quantifies the degraded-but-valid approximation the partial
    /// factors provide.
    pub fn achieved_tolerance(&self) -> f64 {
        crate::outcome::achieved_tolerance(self.indicator, self.a_norm_f)
    }

    /// Classify this result as a typed [`crate::Outcome`]:
    /// `Interrupted` exactly when a budget trip stopped the run, with
    /// the achieved tolerance and a resume handle pointing at the trip
    /// iteration (meaningful when the run was checkpointed).
    pub fn into_outcome(self) -> crate::Outcome<LuCrtpResult> {
        let (trip, tol, its) = (self.trip.clone(), self.achieved_tolerance(), self.iterations);
        crate::outcome::classify(trip, tol, Some("lu_crtp"), its, self)
    }

    /// Rank-revealing singular-value estimates: `|diag(R^(i))|` of each
    /// iteration's panel factorization, concatenated. Entry `j`
    /// approximates `sigma_{j+1}(A)`; Grigori et al. show the ratios
    /// stay close to one in practice ("effective approximation",
    /// Section III of the paper), which is what makes ILUT_CRTP's
    /// convergence argument work.
    pub fn singular_value_estimates(&self) -> Vec<f64> {
        self.trace.iter().flat_map(|t| t.r_diag.iter().copied()).collect()
    }

    /// Exact error `||A - L U||_F` (forms the dense residual column by
    /// column; intended for validation on small/medium matrices).
    pub fn exact_error(&self, a: &CscMatrix, par: Parallelism) -> f64 {
        let m = a.rows();
        let n = a.cols();
        let sq = parallel_map_fold(
            par,
            n,
            8,
            0.0f64,
            |range| {
                let mut acc = 0.0;
                let mut dense = vec![0.0f64; m];
                for j in range {
                    for x in dense.iter_mut() {
                        *x = 0.0;
                    }
                    let (ri, vs) = a.col(j);
                    for (&r, &v) in ri.iter().zip(vs) {
                        dense[r] = v;
                    }
                    // Subtract L * U(:, j).
                    let (ki, kv) = self.u.col(j);
                    for (&kk, &uv) in ki.iter().zip(kv) {
                        let (rows, vals) = self.l.col(kk);
                        for (&r, &lvv) in rows.iter().zip(vals) {
                            dense[r] -= lvv * uv;
                        }
                    }
                    acc += dense.iter().map(|x| x * x).sum::<f64>();
                }
                acc
            },
            |a, b| a + b,
        );
        sq.sqrt()
    }
}

/// The shared panel loop over the shared-memory engine.
pub(crate) fn run_seq(
    a: &CscMatrix,
    opts: &LuCrtpOpts,
    ilut: Option<&IlutOpts>,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> LuCrtpResult {
    drive(None, a, opts, ilut, hooks, |src| SeqEngine::place(src, opts))
}

/// The shared-memory panel engine: the whole Schur complement as
/// consecutive [`SCHUR_GRAIN`]-column runs, every stage a
/// thread-parallel kernel under `opts.par`. The Schur update reads
/// `Ā12`/`Ā22` in place and retires old runs as it writes new ones
/// ([`schur_update_runs`]), and an ILUT drop filters the runs in place,
/// so the engine never holds a second complement.
struct SeqEngine<'o> {
    s: CscRuns,
    opts: &'o LuCrtpOpts,
    /// Kernel scratch reused across all iterations.
    ws: SchurWorkspace,
    /// The column tournament's sketch of the complement, its buffer
    /// reused across iterations.
    sketch: Sketch,
}

impl<'o> SeqEngine<'o> {
    fn place(src: Source<'_>, opts: &'o LuCrtpOpts) -> Self {
        let s = match src {
            Source::Input(a, cols) => CscRuns::select_columns(a, cols, SCHUR_GRAIN),
            Source::Snapshot(s) => CscRuns::from_csc(&s, SCHUR_GRAIN),
        };
        SeqEngine {
            s,
            opts,
            ws: SchurWorkspace::new(),
            sketch: Sketch::default(),
        }
    }
}

impl PanelEngine for SeqEngine<'_> {
    /// The whole update is done in the first half; only its partials
    /// are handed on.
    type Pending = Partials;

    fn resident(&self) -> (u64, u64) {
        (self.s.resident_bytes(), self.s.nnz() as u64)
    }

    /// The ordering reads one matrix, so the runs are joined for it and
    /// cut again in the new column order.
    fn reorder(&mut self) -> Option<Vec<usize>> {
        let full = self.s.to_csc();
        self.s = CscRuns::from_runs(full.rows(), SCHUR_GRAIN, Vec::new());
        let perm = fill_reducing_order(&full);
        self.s = CscRuns::select_columns(&full, &perm, SCHUR_GRAIN);
        Some(perm)
    }

    fn col_tournament(
        &mut self,
        k_want: usize,
        omega: &Omega,
        row_ids: &[usize],
    ) -> (ColumnSelection, CscMatrix) {
        let (s, par) = (&self.s, self.opts.par);
        omega.sketch(row_ids, s.cols(), |j| s.col(j), &mut self.sketch, par);
        let sel = tournament_columns_sketched(s, &self.sketch, k_want, par);
        let cols = || sel.selected.iter().map(|&c| self.s.col(c));
        let mut panel = ColRun::default();
        panel.reserve(sel.selected.len(), cols().map(|(ri, _)| ri.len()).sum());
        for col in cols() {
            panel.push_col(col);
        }
        (sel, panel.into_csc(self.s.rows()))
    }

    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
    ) -> Partials {
        let mut meas = Vec::with_capacity(sp.blocks.rest_cols.len());
        let (ws, par) = (&mut self.ws, self.opts.par);
        schur_update_runs(&mut self.s, &sp.blocks, x_rows, x, thr, ws, par, &mut meas);
        fold_columns(&meas)
    }

    fn schur_finish(
        &mut self,
        _: &PanelSplit,
        done: Partials,
        _: &[usize],
        _: &DenseMatrix,
        _: f64,
    ) -> Partials {
        done
    }

    /// Read off the `Ā12` the Schur update routed into the workspace,
    /// in ascending rest-column order per panel row.
    fn u_fragments(&self, sp: &PanelSplit, col_map: &[usize], k_eff: usize) -> Vec<FactorCol> {
        let a12 = &self.ws.a12;
        let mut len = vec![0usize; k_eff];
        for &t in a12.rowidx() {
            len[t] += 1;
        }
        let mut frags: Vec<FactorCol> = len.into_iter().map(Vec::with_capacity).collect();
        for (j, &c) in sp.blocks.rest_cols.iter().enumerate() {
            let (ti, tv) = a12.col(j);
            for (&t, &v) in ti.iter().zip(tv) {
                frags[t].push((col_map[c], v));
            }
        }
        frags
    }

    fn drop_below(&mut self, thr: f64) {
        self.s.drop_below_in_place(thr, self.opts.par);
    }

    /// The runs themselves: a save writes them in order, joining none.
    fn schur_pieces(&self) -> Vec<&CscMatrix> {
        self.s.runs().iter().collect()
    }

    fn block_sums(&self, xq: &[usize], xt: &DenseMatrix) -> BlockSums {
        block_sums(|j| self.s.col(j), &self.ws.a12, xq, xt, self.opts.par)
    }
}

/// `L21 = Ā21 Ā11^{-1}` exploiting the sparse rows of `Ā21` (Section
/// II-B3's direct formation). Returns the nonzero row positions (into
/// the trailing rows) and the dense `k x nr` matrix `X^T` (column `r` =
/// row `x_rows[r]` of `L21`), 16 independent columns to a parallel
/// chunk. Under SPMD each rank solves its `split_ranges` share of the
/// columns (`Ā11` replicated, as broadcast in the paper) and the small
/// `X^T` is allgathered: every rank's Schur correction needs all of it
/// under a 1-D column distribution. Columns are solved independently,
/// so the result is bitwise the same for any rank or worker count.
/// `tbuf` receives the transposed `Ā21` (caller-owned scratch reused
/// across iterations).
pub(crate) fn l21(
    comm: Option<&Ctx>,
    a21: &CscMatrix,
    lu11: &LuFactor,
    tbuf: &mut CscMatrix,
    par: Parallelism,
) -> (Vec<usize>, DenseMatrix) {
    let k = a21.cols();
    a21.transpose_into(tbuf); // rows of Ā21 as columns
    let a21t = &*tbuf;
    let x_rows: Vec<usize> = (0..a21t.cols()).filter(|&c| a21t.col_nnz(c) > 0).collect();
    let mine = match comm {
        None => 0..x_rows.len(),
        Some(ctx) => owned_range(&split_ranges(x_rows.len(), ctx.size()), ctx.rank()),
    };
    let mut xt = DenseMatrix::zeros(k, mine.len());
    parallel_chunks_mut(par, xt.as_mut_slice(), 16 * k, |chunk, cols| {
        for (i, col) in cols.chunks_mut(k).enumerate() {
            let (ri, vs) = a21t.col(x_rows[mine.start + 16 * chunk + i]);
            for (&t, &v) in ri.iter().zip(vs) {
                col[t] = v;
            }
            // Solve x Ā11 = row  <=>  Ā11^T x^T = row^T.
            lu11.solve_transpose_slice(col);
        }
    });
    if let Some(ctx) = comm {
        let parts: Vec<DenseMatrix> = ctx.allgather(xt);
        xt = DenseMatrix::zeros(k, x_rows.len());
        let mut c0 = 0;
        for part in parts {
            xt.set_submatrix(0, c0, &part);
            c0 += part.cols();
        }
    }
    (x_rows, xt)
}

/// Reusable scratch for the Schur-update kernels, owned by each driver
/// and threaded through every iteration so the inner loops allocate
/// little once the buffers have grown. Both kernels route rest columns
/// through the same per-worker scratch. The ranged kernel
/// ([`schur_update_ranged`], the SPMD engines) keeps one output buffer,
/// its columns of `Ā12` and their partials per [`SCHUR_GRAIN`]-column
/// chunk of its parallel path. The in-place kernel over runs
/// ([`schur_update_runs`]) keeps one slot per new run (the run until it
/// is installed, its columns of `Ā12` and their partials), up to one
/// retired run buffer per worker, and the assembled `Ā12`.
pub struct SchurWorkspace {
    chunks: Vec<(ColRun, ColRun, Vec<Partials>)>,
    slots: Vec<RunSlot>,
    pool: Vec<CscMatrix>,
    scratch: Vec<RouteScratch>,
    a12: CscMatrix,
}

/// One new run of the in-place Schur update: the run, until the update
/// installs it, the `Ā12` columns its chunk routed and the partials of
/// the columns it wrote.
#[derive(Default)]
struct RunSlot {
    out: Option<CscMatrix>,
    a12: ColRun,
    meas: Vec<Partials>,
}

/// A worker's scratch in either Schur update: the correction vector and
/// one routed rest column, `Ā12` part and `Ā22` part.
#[derive(Default)]
struct RouteScratch {
    corr: Vec<f64>,
    top: Vec<(usize, f64)>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl RouteScratch {
    /// Route one rest column of `A^(i)` through `split`, append its
    /// updated column to `out` and return that column's partials at
    /// `thr`; its `Ā12` part stays in `top`.
    fn update(
        &mut self,
        split: &BlockSplit,
        col: (&[usize], &[f64]),
        x_rows: &[usize],
        x: &DenseMatrix,
        thr: f64,
        out: &mut ColRun,
    ) -> Partials {
        self.rows.clear();
        self.vals.clear();
        split.route_rest(col, &mut self.top, |r, v| {
            self.rows.push(r);
            self.vals.push(v);
        });
        self.corr.resize(x_rows.len(), 0.0);
        schur_col((&self.rows, &self.vals), &self.top, x_rows, x, &mut self.corr, thr, out)
    }
}

impl SchurWorkspace {
    /// Empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        SchurWorkspace {
            chunks: Vec::new(),
            slots: Vec::new(),
            pool: Vec::new(),
            scratch: Vec::new(),
            a12: CscMatrix::zeros(0, 0),
        }
    }
}

impl Default for SchurWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Chunk width (output columns) of the parallel Schur update, and the
/// run width of the shared-memory engine's Schur complement.
#[doc(hidden)]
pub const SCHUR_GRAIN: usize = 32;

/// Lock message: the Schur updates' locks guard bookkeeping that cannot
/// panic, and a run lock is written only once no chunk reads the run.
const RUN_LOCK: &str = "schur run lock";

/// `S <- Ā22 - X Ā12` over the rest columns `range` of `split`, each
/// read through `col` (rest position -> column of `A^(i)`), routed
/// through `split` as it is read and updated by the one per-column
/// kernel [`schur_col`]; the new columns are appended to `out`, whose
/// rows are the trailing ones, their `Ā12` parts (`(pivot position,
/// value)`) to `a12`, and their partials at `thr` to `meas`, one
/// `(squared norm, squared mass below thr, count below thr, entries)`
/// per column in column order. The SPMD engines' update: the
/// replicated oracle reads its own complement, the sharded engine the
/// raw rest columns the re-shard brought it. `X` is given as its
/// nonzero rows: `x` is `nr x k`, row `q` = row `x_rows[q]` of `X`.
///
/// Columns are computed independently, so the result is bitwise
/// identical to one sequential pass over `range` for any worker count
/// and any cut of `range` into calls — which is what keeps the sharded
/// and replicated engines bit for bit aligned while both go parallel
/// within a rank. Sequentially the kernel appends to `out` directly. In
/// parallel each fixed [`SCHUR_GRAIN`]-wide chunk fills the buffers the
/// workspace keeps for it, and the buffers are appended to `out`, `a12`
/// and `meas` in chunk order.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn schur_update_ranged<'a>(
    col: impl Fn(usize) -> (&'a [usize], &'a [f64]) + Sync,
    range: Range<usize>,
    split: &BlockSplit,
    x_rows: &[usize],
    x: &DenseMatrix,
    thr: f64,
    ws: &mut SchurWorkspace,
    par: Parallelism,
    out: &mut CscMatrix,
    a12: &mut ColRun,
    meas: &mut Vec<Partials>,
) {
    let rows = split.rest_rows.len();
    assert_eq!(out.rows(), rows, "the target holds the trailing rows");
    let idle = Mutex::new(std::mem::take(&mut ws.scratch));
    let cols = |range: Range<usize>, out: &mut ColRun, a12: &mut ColRun, meas: &mut Vec<Partials>| {
        let mut scr = idle.lock().expect(RUN_LOCK).pop().unwrap_or_default();
        for j in range {
            meas.push(scr.update(split, col(j), x_rows, x, thr, out));
            a12.push_pairs(&scr.top);
        }
        idle.lock().expect(RUN_LOCK).push(scr);
    };
    let mut run = ColRun::open(std::mem::replace(out, CscMatrix::zeros(0, 0)));
    let nchunks = range.len().div_ceil(SCHUR_GRAIN);
    if !par.is_parallel() || nchunks <= 1 {
        cols(range, &mut run, a12, meas);
    } else {
        if ws.chunks.len() < nchunks {
            ws.chunks.resize_with(nchunks, Default::default);
        }
        let chunks = &mut ws.chunks[..nchunks];
        parallel_chunks_mut(par, chunks, 1, |c, chunk| {
            let (out, top, part) = &mut chunk[0];
            out.clear();
            top.clear();
            part.clear();
            let lo = range.start + c * SCHUR_GRAIN;
            cols(lo..(lo + SCHUR_GRAIN).min(range.end), out, top, part);
        });
        for (out, top, part) in chunks.iter() {
            run.extend(out);
            a12.extend(top);
            meas.extend_from_slice(part);
        }
    }
    ws.scratch = idle.into_inner().expect(RUN_LOCK);
    *out = run.into_csc(rows);
}

/// What the chunks of an in-place Schur update share: how many
/// unwritten new runs still read each old run, the buffers of retired
/// old runs, and idle routing scratch.
struct Retirement {
    readers: Vec<usize>,
    pool: Vec<CscMatrix>,
    scratch: Vec<RouteScratch>,
}

/// `S <- Ā22 - X Ā12` over a Schur complement kept as runs, in place:
/// `s` holds `A^(i)` on entry and `A^(i+1)` on return, in runs of the
/// same width. Nothing of `Ā12`/`Ā22` is materialized: the chunk that
/// writes new run `c` routes each of its rest columns through `split`
/// as it reads it, then runs the one per-column kernel [`schur_col`]
/// the SPMD engines run. Rest columns ascend, so new run `c` reads a
/// contiguous range of old runs; once every new run that reads old run
/// `r` is written, `r`'s buffers go to the pool new runs are written
/// into. The `j`-th rest column sits at old column `j .. j + k`, so each
/// old run has a few readers, all close to it: chunks are claimed in
/// ascending order and a stalled one holds back only the runs it reads
/// itself, so the update holds one complement plus `O(np)` runs. Every
/// column is computed exactly as [`schur_update_ranged`] computes it,
/// for any worker count, and its partials at `thr` are appended to
/// `meas` in column order, as [`schur_update_ranged`] appends them. The
/// routed `Ā12` is left in `ws.a12` for the `U` factor.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn schur_update_runs(
    s: &mut CscRuns,
    split: &BlockSplit,
    x_rows: &[usize],
    x: &DenseMatrix,
    thr: f64,
    ws: &mut SchurWorkspace,
    par: Parallelism,
    meas: &mut Vec<Partials>,
) {
    let width = s.width();
    let rows = split.rest_rows.len();
    let k = s.rows() - rows;
    let rest = &split.rest_cols;
    let nruns = rest.len().div_ceil(width);
    let mut old: Vec<RwLock<Option<CscMatrix>>> =
        std::mem::replace(s, CscRuns::from_runs(rows, width, Vec::new()))
            .into_runs()
            .into_iter()
            .map(|run| RwLock::new(Some(run)))
            .collect();
    // The old runs new run `c` reads.
    let reads = |c: usize| {
        let cols = &rest[c * width..((c + 1) * width).min(rest.len())];
        cols[0] / width..=cols[cols.len() - 1] / width
    };
    let mut readers = vec![0usize; old.len()];
    for c in 0..nruns {
        for r in reads(c) {
            readers[r] += 1;
        }
    }
    let mut pool = std::mem::take(&mut ws.pool);
    for (run, _) in old.iter_mut().zip(&readers).filter(|(_, &n)| n == 0) {
        pool.extend(run.get_mut().expect(RUN_LOCK).take());
    }
    let retirement = Mutex::new(Retirement {
        readers,
        pool,
        scratch: std::mem::take(&mut ws.scratch),
    });
    if ws.slots.len() < nruns {
        ws.slots.resize_with(nruns, RunSlot::default);
    }
    parallel_chunks_mut(par, &mut ws.slots[..nruns], 1, |c, slot| {
        let RunSlot { out: installed, a12, meas } = &mut slot[0];
        let cols = &rest[c * width..((c + 1) * width).min(rest.len())];
        // The old run being read; `cols` ascend, so each is taken once.
        let mut held = (cols[0] / width, old[cols[0] / width].read().expect(RUN_LOCK));
        let (buf, mut scr) = {
            let mut r = retirement.lock().expect(RUN_LOCK);
            (r.pool.pop(), r.scratch.pop().unwrap_or_default())
        };
        let mut out = buf.map(ColRun::recycled).unwrap_or_default();
        a12.clear();
        meas.clear();
        for &j in cols {
            if j / width != held.0 {
                held = (j / width, old[j / width].read().expect(RUN_LOCK));
            }
            let run = held.1.as_ref().expect("an old run read after its retirement");
            meas.push(scr.update(split, run.col(j % width), x_rows, x, thr, &mut out));
            a12.push_pairs(&scr.top);
        }
        drop(held);
        *installed = Some(out.into_csc(rows));

        let mut ret = retirement.lock().expect(RUN_LOCK);
        ret.scratch.push(scr);
        for r in reads(c) {
            ret.readers[r] -= 1;
            if ret.readers[r] == 0 {
                let run = old[r].write().expect(RUN_LOCK).take();
                ret.pool.extend(run);
            }
        }
    });
    let Retirement {
        mut pool, scratch, ..
    } = retirement.into_inner().expect(RUN_LOCK);
    pool.truncate(par.np());
    ws.pool = pool;
    ws.scratch = scratch;
    let slots = &mut ws.slots[..nruns];
    let runs = slots.iter_mut().map(|slot| slot.out.take().expect("every run written"));
    *s = CscRuns::from_runs(rows, width, runs.collect());
    let mut a12 = ColRun::recycled(std::mem::replace(&mut ws.a12, CscMatrix::zeros(0, 0)));
    for slot in slots.iter() {
        a12.extend(&slot.a12);
        meas.extend_from_slice(&slot.meas);
    }
    ws.a12 = a12.into_csc(k);
}

/// One column of `S = Ā22 - X Ā12`, appended to `out`: the Schur
/// kernel every engine runs, whatever holds `A^(i)`. The column comes
/// as the split routes it: its `Ā22` part (trailing rows, ascending)
/// and its `Ā12` part `top` (`(pivot position, value)`, ascending).
/// Returns the column's partials as it writes them (Algorithm 3 line
/// 13 and the drop's mass at `thr`, read off the complement as it is
/// written rather than in a second pass): its squared norm, the squared
/// mass and count of its entries below `thr`, and its length, each sum
/// taken from `0.0` in row order.
///
/// The correction `corr = X Ā12[:, j]` is accumulated as one axpy
/// `corr += a12[t, j] * X[:, t]` per entry of `top`, in ascending `t` —
/// per entry of `corr` the chain `0 + a12[t0, j] x[q, t0] + a12[t1, j]
/// x[q, t1] + …`, over contiguous vectors and with no dependency
/// between entries. Then a sorted two-pointer walk merges the `Ā22`
/// column with `-corr` at `x_rows`, dropping exact zeros the update
/// produced. `corr` has `x_rows.len()` entries. Columns never read each
/// other, so a result is bitwise independent of how the columns are cut
/// into chunks, runs or shards — the property the sharded-vs-replicated
/// oracle tests and the in-place update rely on.
fn schur_col(
    (ai, av): (&[usize], &[f64]),
    top: &[(usize, f64)],
    x_rows: &[usize],
    x: &DenseMatrix,
    corr: &mut [f64],
    thr: f64,
    out: &mut ColRun,
) -> Partials {
    let nr = x_rows.len();
    debug_assert_eq!(x.rows(), nr);
    debug_assert_eq!(corr.len(), nr);
    let tally = |(norm_sq, mass, count, len): Partials, v: f64| {
        let (sq, below) = (v * v, v.abs() < thr);
        (norm_sq + sq, if below { mass + sq } else { mass }, count + u64::from(below), len + 1)
    };
    let mut m = (0.0, 0.0, 0, 0);
    if top.is_empty() {
        // No correction touches this column: pure copy.
        out.push_col((ai, av));
        return av.iter().fold(m, |m, &v| tally(m, v));
    }
    corr.fill(0.0);
    accumulate_correction(corr, x, top);
    // Merge the Ā22 column with -corr at x_rows.
    let mut p = 0usize; // into the Ā22 column
    let mut q = 0usize; // into x_rows
    while p < ai.len() || q < nr {
        if q >= nr || (p < ai.len() && ai[p] < x_rows[q]) {
            out.push_entry(ai[p], av[p]);
            m = tally(m, av[p]);
            p += 1;
        } else if p >= ai.len() || x_rows[q] < ai[p] {
            let v = -corr[q];
            if v != 0.0 {
                out.push_entry(x_rows[q], v);
                m = tally(m, v);
            }
            q += 1;
        } else {
            let v = av[p] - corr[q];
            if v != 0.0 {
                out.push_entry(ai[p], v);
                m = tally(m, v);
            }
            p += 1;
            q += 1;
        }
    }
    out.end_col();
    m
}

/// `corr += Σ v · x[:, t]` over the `(t, v)` of `top`, each entry's sum
/// taken in the order of `top`. Four columns of `x` go through `corr`
/// per pass — the same left-to-right chain per entry as one column at a
/// time, with a quarter of the loads and stores of `corr`.
pub(crate) fn accumulate_correction(corr: &mut [f64], x: &DenseMatrix, top: &[(usize, f64)]) {
    let nr = corr.len();
    let quads = top.chunks_exact(4);
    let rest = quads.remainder();
    for e in quads {
        let (x0, x1, x2, x3) = (x.col(e[0].0), x.col(e[1].0), x.col(e[2].0), x.col(e[3].0));
        let (x0, x1, x2, x3) = (&x0[..nr], &x1[..nr], &x2[..nr], &x3[..nr]);
        let (v0, v1, v2, v3) = (e[0].1, e[1].1, e[2].1, e[3].1);
        for q in 0..nr {
            corr[q] = (((corr[q] + v0 * x0[q]) + v1 * x1[q]) + v2 * x2[q]) + v3 * x3[q];
        }
    }
    for &(t, v) in rest {
        for (c, &xv) in corr.iter_mut().zip(x.col(t)) {
            *c += v * xv;
        }
    }
}
