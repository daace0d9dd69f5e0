//! Truncated LU factorization with column and row tournament pivoting
//! (LU_CRTP, Algorithm 2) and its incomplete thresholding variant
//! (ILUT_CRTP, Algorithm 3) — the paper's deterministic fixed-precision
//! methods.
//!
//! Both run the same block iteration; ILUT_CRTP additionally drops
//! Schur-complement entries below a threshold `mu` (eq. 24), guarded by
//! the threshold control `phi` (eq. 22). Factors are accumulated in
//! *original* coordinates: `L` holds original row ids and `U` original
//! column ids, so `A ≈ L U` directly and
//! `||P_r A P_c - L' U'||_F = ||A - L U||_F` for the permuted factors.

use crate::panel::{drive, fill_reducing_order, FactorCol, Measure, PanelEngine, PanelSplit};
use crate::timers::{KernelId, KernelTimers};
use lra_dense::{DenseMatrix, LuFactor};
use lra_par::{parallel_chunks_mut, parallel_map_fold, Parallelism};
use lra_qrtp::{tournament_columns, tournament_rows_dense, ColumnSelection, TournamentTree};
use lra_sparse::CscMatrix;
use std::borrow::Cow;

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

/// Thresholding outcome recorded by ILUT_CRTP.
#[derive(Debug, Clone)]
pub struct ThresholdReport {
    /// The threshold `mu` determined by eq. 24.
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

/// Peak per-rank memory footprint of a sharded SPMD run. The sharded
/// driver keeps only a block-column shard of the Schur complement
/// resident per rank (`O(nnz/np)` plus the `O(b^2)` panel), so these
/// peaks shrink as ranks are added (pinned by
/// `tests/spmd_sharded.rs::per_rank_memory_shrinks_with_more_ranks`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Max over ranks of the peak resident Schur-shard bytes.
    pub peak_rank_bytes: u64,
    /// Max over ranks of the peak resident Schur-shard nonzeros.
    pub peak_rank_nnz: u64,
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
    /// Achieved rank `K`.
    pub rank: usize,
    /// Number of block iterations.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Early-stop cause, if any.
    pub breakdown: Option<Breakdown>,
    /// Final error indicator.
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
    /// Peak per-rank Schur storage (sharded SPMD driver only; `None`
    /// for the sequential and replicated drivers, which hold the full
    /// Schur complement everywhere).
    pub mem: Option<MemStats>,
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
        if self.a_norm_f == 0.0 {
            0.0
        } else {
            self.indicator / self.a_norm_f
        }
    }

    /// Classify this result as a typed [`crate::Outcome`]:
    /// `Interrupted` exactly when a budget trip stopped the run, with
    /// the achieved tolerance and a resume handle pointing at the trip
    /// iteration (meaningful when the run was checkpointed).
    pub fn into_outcome(self) -> crate::Outcome<LuCrtpResult> {
        match self.trip.clone() {
            None => crate::Outcome::Completed(self),
            Some(trip) => {
                let achieved_tolerance = self.achieved_tolerance();
                let resume = (self.iterations > 0).then_some(crate::ResumeHandle {
                    kind: "lu_crtp",
                    iteration: self.iterations,
                });
                crate::Outcome::Interrupted(crate::Interrupted {
                    partial: self,
                    trip,
                    achieved_tolerance,
                    resume,
                })
            }
        }
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
    drive(None, a, opts, ilut, hooks, |src| SeqEngine {
        s: src.full(),
        opts,
        ws: SchurWorkspace::new(),
    })
}

/// The shared-memory panel engine: the whole Schur complement in one
/// [`CscMatrix`], every stage a thread-parallel kernel under
/// `opts.par`.
struct SeqEngine<'o> {
    s: CscMatrix,
    opts: &'o LuCrtpOpts,
    /// Kernel scratch reused across all iterations.
    ws: SchurWorkspace,
}

impl PanelEngine for SeqEngine<'_> {
    type Pending = std::convert::Infallible;

    fn dims(&self) -> (usize, usize) {
        (self.s.rows(), self.s.cols())
    }

    fn resident_bytes(&self) -> u64 {
        csc_resident_bytes(&self.s)
    }

    fn reorder(&mut self) -> Option<Vec<usize>> {
        let perm = fill_reducing_order(&self.s);
        self.s = self.s.select_columns(&perm);
        Some(perm)
    }

    fn col_tournament(&mut self, k_want: usize) -> ColumnSelection {
        tournament_columns(&self.s, None, k_want, TournamentTree::Binary, self.opts.par)
    }

    /// TSQR: the row-block decomposition is what parallelizes, matching
    /// the paper's use of tall-skinny QR for the panel factorization.
    fn panel_qr(&mut self, sel: &ColumnSelection) -> (DenseMatrix, Vec<f64>) {
        let panel = self.s.gather_columns_dense(&sel.selected);
        let f = lra_dense::tsqr(&panel, self.opts.par);
        let rd: Vec<f64> = (0..sel.selected.len().min(f.r.rows()))
            .map(|i| f.r.get(i, i).abs())
            .collect();
        (f.q, rd)
    }

    fn row_tournament(&self, qk: &DenseMatrix, k_eff: usize) -> Vec<usize> {
        tournament_rows_dense(qk, k_eff, TournamentTree::Binary, self.opts.par)
    }

    fn split(&self, pivot_rows: &[usize], sel: &ColumnSelection) -> PanelSplit {
        PanelSplit::of_full(&self.s, pivot_rows, &sel.selected)
    }

    fn solve_l21(&mut self, sp: &PanelSplit, lu11: &LuFactor) -> (Vec<usize>, DenseMatrix) {
        l21_direct(&sp.a21, lu11, &mut self.ws.tbuf, self.opts.par)
    }

    fn schur_begin(
        &mut self,
        sp: &PanelSplit,
        x_rows: &[usize],
        x: &DenseMatrix,
    ) -> Option<Self::Pending> {
        // The split copied what it needs of `s`, whose arrays take the
        // next Schur complement.
        let par = self.opts.par;
        schur_update_into(&sp.a22, x_rows, x, &sp.a12, &mut self.ws, par, &mut self.s);
        None
    }

    fn schur_finish(&mut self, pending: Self::Pending, _: &[usize], _: &DenseMatrix) {
        match pending {}
    }

    fn u_fragments(
        &mut self,
        sp: &PanelSplit,
        col_map: &[usize],
        k_eff: usize,
    ) -> Option<Vec<FactorCol>> {
        // `tbuf` last held Ā21^T, which L-solve is done with.
        sp.a12.transpose_into(&mut self.ws.tbuf);
        Some(u_fragments_of(&self.ws.tbuf, &sp.rest_cols, col_map, k_eff))
    }

    /// Nothing to agree on: the drop pass runs only when the loop can
    /// keep it, into the workspace's drop target.
    fn measure(&mut self, thr: f64, stop: f64, timers: &mut KernelTimers) -> Measure {
        let indicator = timers.time(KernelId::Indicator, || self.s.fro_norm());
        let dropped = if thr > 0.0 && indicator >= stop {
            timers.time(KernelId::Drop, || self.s.drop_below_into(thr, &mut self.ws.dropbuf))
        } else {
            (0.0, 0)
        };
        Measure {
            indicator,
            dropped,
            nnz: self.s.nnz(),
        }
    }

    /// The displaced Schur storage becomes the next drop's target.
    fn commit_drop(&mut self) {
        std::mem::swap(&mut self.s, &mut self.ws.dropbuf);
    }

    fn gather_schur(&self) -> Option<Cow<'_, CscMatrix>> {
        Some(Cow::Borrowed(&self.s))
    }
}

/// Per panel row `t`, the trailing `U` entries read off `Ā12^T`:
/// `(original column, value)` in ascending rest-column order.
pub(crate) fn u_fragments_of(
    a12t: &CscMatrix,
    rest_cols: &[usize],
    col_map: &[usize],
    k_eff: usize,
) -> Vec<FactorCol> {
    (0..k_eff)
        .map(|t| {
            let (ci, cv) = a12t.col(t);
            ci.iter()
                .zip(cv)
                .map(|(&j_rest, &v)| (col_map[rest_cols[j_rest]], v))
                .collect()
        })
        .collect()
}

/// Resident bytes of a CSC matrix's arrays — the sequential analogue of
/// `ColSlice::resident_bytes`, fed to the budget's memory ceiling.
pub(crate) fn csc_resident_bytes(s: &CscMatrix) -> u64 {
    (std::mem::size_of_val(s.colptr())
        + std::mem::size_of_val(s.rowidx())
        + std::mem::size_of_val(s.values())) as u64
}

/// `L21 = Ā21 Ā11^{-1}` exploiting the sparse rows of `Ā21` (Section
/// II-B3's direct formation). Returns the nonzero row positions (into
/// the trailing rows) and the dense `k x nr` matrix `X^T` (column `r` =
/// row `x_rows[r]` of `L21`), 16 independent columns to a parallel
/// chunk. `tbuf` receives the transposed `Ā21` (caller-owned scratch
/// reused across iterations).
fn l21_direct(
    a21: &CscMatrix,
    lu11: &LuFactor,
    tbuf: &mut CscMatrix,
    par: Parallelism,
) -> (Vec<usize>, DenseMatrix) {
    let k = a21.cols();
    a21.transpose_into(tbuf); // rows of Ā21 as columns
    let a21t = &*tbuf;
    let x_rows: Vec<usize> = (0..a21t.cols()).filter(|&c| a21t.col_nnz(c) > 0).collect();
    let mut xt = DenseMatrix::zeros(k, x_rows.len());
    parallel_chunks_mut(par, xt.as_mut_slice(), 16 * k, |chunk, cols| {
        for (i, col) in cols.chunks_mut(k).enumerate() {
            let (ri, vs) = a21t.col(x_rows[16 * chunk + i]);
            for (&t, &v) in ri.iter().zip(vs) {
                col[t] = v;
            }
            // Solve x Ā11 = row  <=>  Ā11^T x^T = row^T.
            lu11.solve_transpose_slice(col);
        }
    });
    (x_rows, xt)
}

/// Reusable scratch for the Schur-update kernels, owned by each driver
/// and threaded through every iteration so the inner loops allocate
/// nothing once the buffers have grown: the correction vector of the
/// sequential path, one output buffer (with its own correction vector)
/// per [`SCHUR_GRAIN`]-column chunk of the parallel path, and the
/// transpose / ILUT-drop targets recycled by
/// [`CscMatrix::transpose_into`] and [`CscMatrix::drop_below_into`].
pub struct SchurWorkspace {
    corr: Vec<f64>,
    chunks: Vec<SchurChunk>,
    pub(crate) tbuf: CscMatrix,
    pub(crate) dropbuf: CscMatrix,
}

/// What one parallel chunk of the Schur update owns between calls.
#[derive(Default)]
struct SchurChunk {
    corr: Vec<f64>,
    out: ColRun,
}

impl SchurWorkspace {
    /// Empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        SchurWorkspace {
            corr: Vec::new(),
            chunks: Vec::new(),
            tbuf: CscMatrix::zeros(0, 0),
            dropbuf: CscMatrix::zeros(0, 0),
        }
    }
}

impl Default for SchurWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// A run of CSC columns under construction: per-column entry counts and
/// the concatenated entries — what every Schur-update kernel appends to.
#[derive(Clone, Default)]
pub(crate) struct ColRun {
    pub(crate) lens: Vec<usize>,
    pub(crate) rowidx: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

impl ColRun {
    /// An empty run over the allocations of a matrix that is done with.
    pub(crate) fn recycled(retired: CscMatrix) -> Self {
        let (_, _, lens, rowidx, values) = retired.into_parts();
        let mut run = ColRun {
            lens,
            rowidx,
            values,
        };
        run.clear();
        run
    }

    fn clear(&mut self) {
        self.lens.clear();
        self.rowidx.clear();
        self.values.clear();
    }

    /// Append the columns of `other`.
    pub(crate) fn extend(&mut self, other: &ColRun) {
        self.lens.extend_from_slice(&other.lens);
        self.rowidx.extend_from_slice(&other.rowidx);
        self.values.extend_from_slice(&other.values);
    }

    /// The `rows x lens.len()` matrix of these columns; the count array
    /// becomes the column pointers in place.
    pub(crate) fn into_csc(self, rows: usize) -> CscMatrix {
        let ColRun {
            lens: mut colptr,
            rowidx,
            values,
        } = self;
        let cols = colptr.len();
        let mut run = 0;
        for p in colptr.iter_mut() {
            run += std::mem::replace(p, run);
        }
        colptr.push(run);
        CscMatrix::from_parts(rows, cols, colptr, rowidx, values)
    }
}

/// `S <- Ā22 - X Ā12` with `X` given as its nonzero rows: `x` is
/// `nr x k`, row `q` = row `x_rows[q]` of `X`. Parallel over output
/// columns; this is where LU_CRTP's fill-in materializes. `s`'s previous
/// contents are discarded and its allocations reused.
#[doc(hidden)]
pub fn schur_update_into(
    a22: &CscMatrix,
    x_rows: &[usize],
    x: &DenseMatrix,
    a12: &CscMatrix,
    ws: &mut SchurWorkspace,
    par: Parallelism,
    s: &mut CscMatrix,
) {
    debug_assert_eq!(a12.cols(), a22.cols());
    let mut out = ColRun::recycled(std::mem::replace(s, CscMatrix::zeros(0, 0)));
    schur_update_ranged(a22, x_rows, x, a12, 0..a22.cols(), ws, par, &mut out);
    *s = out.into_csc(a22.rows());
}

/// Chunk width (output columns) of the parallel Schur update.
#[doc(hidden)]
pub const SCHUR_GRAIN: usize = 32;

/// The one parallel Schur-update helper shared by the sequential
/// driver, the sharded SPMD driver, and the replicated oracle: appends
/// [`schur_update_cols`] over `range` to `out`. Columns are computed
/// independently, so the result is bitwise-identical to one sequential
/// pass over `range` for any worker count — which is what keeps the
/// sharded and replicated drivers bit-for-bit aligned while both go
/// parallel within a rank. Sequentially the kernel appends to `out`
/// directly. In parallel each fixed [`SCHUR_GRAIN`]-wide chunk fills the
/// buffer the workspace keeps for it, and the buffers are appended to
/// `out` in chunk order: plain copies into capacity `out` already has
/// when it recycles the previous Schur complement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schur_update_ranged(
    a22: &CscMatrix,
    x_rows: &[usize],
    x: &DenseMatrix,
    a12: &CscMatrix,
    range: std::ops::Range<usize>,
    ws: &mut SchurWorkspace,
    par: Parallelism,
    out: &mut ColRun,
) {
    let nchunks = range.len().div_ceil(SCHUR_GRAIN);
    if !par.is_parallel() || nchunks <= 1 {
        return schur_update_cols(a22, x_rows, x, a12, range, &mut ws.corr, out);
    }
    if ws.chunks.len() < nchunks {
        ws.chunks.resize_with(nchunks, SchurChunk::default);
    }
    let chunks = &mut ws.chunks[..nchunks];
    parallel_chunks_mut(par, chunks, 1, |c, chunk| {
        let SchurChunk { corr, out } = &mut chunk[0];
        out.clear();
        let lo = range.start + c * SCHUR_GRAIN;
        let cols = lo..(lo + SCHUR_GRAIN).min(range.end);
        schur_update_cols(a22, x_rows, x, a12, cols, corr, out);
    });

    for chunk in chunks.iter() {
        out.extend(&chunk.out);
    }
}

/// Schur-complement kernel for a contiguous column range: appends the
/// per-column entry counts and the row indices and values to `out`.
/// Shared by the thread-parallel and the SPMD (rank-distributed)
/// drivers.
///
/// Per column `j` the correction `corr = X Ā12[:, j]` is accumulated as
/// one axpy `corr += a12[t, j] * X[:, t]` per stored entry of the `Ā12`
/// column (stored zeros included), in ascending `t` — per entry of
/// `corr` the chain `0 + a12[t0, j] x[q, t0] + a12[t1, j] x[q, t1] + …`,
/// over contiguous vectors and with no dependency between entries. Then
/// a sorted two-pointer walk merges the `a22` column with `-corr` at
/// `x_rows`, dropping exact zeros the update produced. Columns never
/// read each other, so the result is bitwise independent of how `range`
/// is cut — the property the sharded-vs-replicated oracle tests rely on.
fn schur_update_cols(
    a22: &CscMatrix,
    x_rows: &[usize],
    x: &DenseMatrix,
    a12: &CscMatrix,
    range: std::ops::Range<usize>,
    corr: &mut Vec<f64>,
    out: &mut ColRun,
) {
    let nr = x_rows.len();
    debug_assert_eq!(x.rows(), nr);
    debug_assert_eq!(x.cols(), a12.rows());
    corr.clear();
    corr.resize(nr, 0.0);
    let ColRun {
        lens,
        rowidx: rows_out,
        values: vals_out,
    } = out;
    lens.reserve(range.len());
    for j in range {
        let (ti, tv) = a12.col(j);
        let (ai, av) = a22.col(j);
        let before = rows_out.len();
        if ti.is_empty() {
            // No correction touches this column: pure copy.
            rows_out.extend_from_slice(ai);
            vals_out.extend_from_slice(av);
            lens.push(rows_out.len() - before);
            continue;
        }
        corr.fill(0.0);
        accumulate_correction(corr, x, ti, tv);
        // Merge a22 column with -corr at x_rows.
        let mut p = 0usize; // into a22 col
        let mut q = 0usize; // into x_rows
        while p < ai.len() || q < nr {
            if q >= nr || (p < ai.len() && ai[p] < x_rows[q]) {
                rows_out.push(ai[p]);
                vals_out.push(av[p]);
                p += 1;
            } else if p >= ai.len() || x_rows[q] < ai[p] {
                let v = -corr[q];
                if v != 0.0 {
                    rows_out.push(x_rows[q]);
                    vals_out.push(v);
                }
                q += 1;
            } else {
                let v = av[p] - corr[q];
                if v != 0.0 {
                    rows_out.push(ai[p]);
                    vals_out.push(v);
                }
                p += 1;
                q += 1;
            }
        }
        lens.push(rows_out.len() - before);
    }
}

/// `corr += Σ_t tv[t] · x[:, ti[t]]`, each entry's sum taken in the
/// order of `ti`. Four columns of `x` go through `corr` per pass — the
/// same left-to-right chain per entry as one column at a time, with a
/// quarter of the loads and stores of `corr`.
fn accumulate_correction(corr: &mut [f64], x: &DenseMatrix, ti: &[usize], tv: &[f64]) {
    let nr = corr.len();
    let (ti4, tv4) = (ti.chunks_exact(4), tv.chunks_exact(4));
    let (ti_rest, tv_rest) = (ti4.remainder(), tv4.remainder());
    for (t, v) in ti4.zip(tv4) {
        let (x0, x1, x2, x3) = (x.col(t[0]), x.col(t[1]), x.col(t[2]), x.col(t[3]));
        let (x0, x1, x2, x3) = (&x0[..nr], &x1[..nr], &x2[..nr], &x3[..nr]);
        for q in 0..nr {
            corr[q] = (((corr[q] + v[0] * x0[q]) + v[1] * x1[q]) + v[2] * x2[q]) + v[3] * x3[q];
        }
    }
    for (&t, &v) in ti_rest.iter().zip(tv_rest) {
        for (c, &xv) in corr.iter_mut().zip(x.col(t)) {
            *c += v * xv;
        }
    }
}
