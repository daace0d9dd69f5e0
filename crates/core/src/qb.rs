//! RandQB_EI (Algorithm 1): randomized blocked QB factorization with
//! the efficient error indicator of Yu, Gu & Li, plus the power scheme
//! and the re-orthogonalization step.
//!
//! `Q_K` and `B_K` are each one column-major buffer that the result
//! takes as it is: a finished block is appended once, and each
//! iteration's corrections `A Ω - Q_K (B_K Ω)` read the earlier blocks
//! one at a time through column-block views ([`DenseMatrix::columns`]),
//! so they cost `O(K k (m + n))` and copy nothing. Both buffers reserve
//! their rank cap up front: the pages that are never written are never
//! backed, and a buffer that never moves leaves no outgrown copy behind
//! in the allocator. `B_K` is held *transposed* (`n x K`, which is what
//! `A^T Q_k` produces): `B_j Ω` and `B_j Q̂` are then `matmul_tn` dot
//! products down contiguous columns and `Z -= B_j^T T` takes the block
//! as it is; `B` is `B_K^T` transposed in place once at the end, so
//! the process holds the factors once.
//!
//! The stop is tested per block, but Yu, Gu & Li's identity holds row
//! by row, `||A - Q_l B_l||_F^2 = ||A||_F^2 - Σ_{r<l} ||B(r,:)||^2`: a
//! converged run returns the smallest prefix of its last block that it
//! certifies below `tau`, read off the rows of the returned `B`.

use crate::checkpoint::QbCheckpoint;
use crate::outcome::{budget_trip, non_finite};
use crate::timers::{KernelId, KernelTimers};
use lra_dense::{matmul_sub_assign, matmul_tn, orth, DenseMatrix, DenseView};
use lra_par::Parallelism;
use lra_sparse::{spmm_dense, spmm_t_dense, CscMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The double-precision floor below which the Frobenius-update error
/// indicator of RandQB_EI breaks down (Theorem 3 of Yu et al.; the
/// paper quotes `tau < 2.1e-7`).
pub const QB_INDICATOR_FLOOR: f64 = 2.1e-7;

/// Options for [`rand_qb_ei`].
#[derive(Debug, Clone)]
pub struct QbOpts {
    /// Block size `k`.
    pub k: usize,
    /// Power-scheme parameter `p` (0..=3 in the paper).
    pub p: usize,
    /// Relative tolerance `tau`.
    pub tau: f64,
    /// RNG seed for the Gaussian sketches.
    pub seed: u64,
    /// Worker count.
    pub par: Parallelism,
    /// Optional rank cap.
    pub max_rank: Option<usize>,
    /// Resource budget / cancellation (default unlimited). Checked at
    /// every block-iteration boundary; a trip stops the loop with the
    /// blocks accumulated so far (see [`QbResult::into_outcome`]).
    pub budget: lra_recover::Budget,
}

impl QbOpts {
    /// Defaults: `p = 1` (the paper's best trade-off), sequential.
    pub fn new(k: usize, tau: f64) -> Self {
        QbOpts {
            k,
            p: 1,
            tau,
            seed: 0x5EED,
            par: Parallelism::SEQ,
            max_rank: None,
            budget: lra_recover::Budget::unlimited(),
        }
    }

    /// Builder-style power parameter.
    pub fn with_power(mut self, p: usize) -> Self {
        self.p = p;
        self
    }

    /// Builder-style parallelism.
    pub fn with_par(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style rank cap.
    pub fn with_max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = Some(max_rank);
        self
    }

    /// Builder-style budget.
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Errors from [`rand_qb_ei`].
#[derive(Debug, Clone, PartialEq)]
pub enum QbError {
    /// Requested `tau` is below the indicator's double-precision floor
    /// (eq. 4 fails for `tau < 2.1e-7`, Theorem 3 of Yu et al.).
    TauBelowIndicatorFloor {
        /// The requested tolerance.
        tau: f64,
    },
}

impl std::fmt::Display for QbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QbError::TauBelowIndicatorFloor { tau } => write!(
                f,
                "tau = {tau:e} is below the RandQB_EI error-indicator floor {QB_INDICATOR_FLOOR:e} \
                 (Theorem 3 of Yu et al.): the Frobenius-difference indicator cannot certify it \
                 in double precision"
            ),
        }
    }
}

impl std::error::Error for QbError {}

/// Result of [`rand_qb_ei`].
#[derive(Debug, Clone)]
pub struct QbResult {
    /// Orthonormal basis, `m x K`.
    pub q: DenseMatrix,
    /// Coefficient factor, `K x n` (`Q B ≈ A`).
    pub b: DenseMatrix,
    /// Achieved rank `K`: for a converged run, the smallest prefix of
    /// the last block that the identity certifies row by row (see
    /// [`QbResult::min_rank_for`]).
    pub rank: usize,
    /// Number of block iterations, the last one counted whole.
    pub iterations: usize,
    /// Whether the tolerance was met before the rank cap.
    pub converged: bool,
    /// Error-indicator value per iteration (eq. 4), each block whole.
    pub indicator_history: Vec<f64>,
    /// Final indicator: `||A - Q B||_F` of the returned factors by the
    /// identity.
    pub indicator: f64,
    /// `||A||_F`.
    pub a_norm_f: f64,
    /// Kernel timers (Fig. 6 breakdown).
    pub timers: KernelTimers,
    /// `Some` when a [`lra_recover::Budget`] limit (or cancel token)
    /// stopped the loop before its own stop rule fired.
    pub trip: Option<lra_recover::BudgetTrip>,
    /// Columns of each block the run computed, in order: the last one
    /// is narrower when the rank cap cut it, and whole when the stop
    /// did.
    widths: Vec<usize>,
    /// `||B(r,:)||^2` of every row of `B` the run computed, in row
    /// order, the rows the stop cut included.
    row_norms_sq: Vec<f64>,
}

impl QbResult {
    /// Exact error `||A - Q B||_F` (forms the residual blockwise; for
    /// validation).
    pub fn exact_error(&self, a: &CscMatrix, par: Parallelism) -> f64 {
        residual_norm(a, |cols, resid| {
            matmul_sub_assign(resid, &self.q, &self.b.select_columns(cols), par);
        })
    }

    /// `max |Q^T Q - I|` — the loss-of-orthogonality metric the paper
    /// reports for `Q_K`.
    pub fn orthogonality_error(&self) -> f64 {
        self.q.orthogonality_error()
    }

    /// Approximated minimum rank for a (coarser) tolerance, read off
    /// this run at column resolution — the paper's "with RandQB_EI, the
    /// exact rank approximation can also be determined at small cost"
    /// (the asterisk series of Figs. 2-3): within the first block whose
    /// indicator is below `tau ||A||_F`, the smallest `l` with
    /// `||A - Q_l B_l||_F^2 = ||A||_F^2 - Σ_{r<l} ||B(r,:)||^2 <
    /// (tau ||A||_F)^2` (Yu, Gu & Li's identity, row by row), or that
    /// block's end. For this run's own `tau` it is the returned rank;
    /// for a finer `tau` it can lie past it, in rows of the last block
    /// that the stop cut: the rank a run to that `tau` with the same
    /// options returns. Returns `None` if this run never reached `tau`.
    pub fn min_rank_for(&self, tau: f64) -> Option<usize> {
        if self.iterations == 0 {
            return if tau >= 1.0 || self.a_norm_f == 0.0 { Some(0) } else { None };
        }
        let i = self.indicator_history.iter().position(|&e| e < tau * self.a_norm_f)?;
        let start: usize = self.widths[..i].iter().sum();
        let rows = start..start + self.widths[i];
        Some(first_rank_below(self.a_norm_f, tau, &self.row_norms_sq, rows).0)
    }

    /// Achieved relative tolerance `indicator / ||A||_F` — the
    /// quantified accuracy of the factors, degraded or not.
    pub fn achieved_tolerance(&self) -> f64 {
        crate::outcome::achieved_tolerance(self.indicator, self.a_norm_f)
    }

    /// Fold this result into the typed [`crate::Outcome`] contract: a
    /// budget trip becomes [`crate::Interrupted`] carrying the partial
    /// factors, the achieved tolerance, and (when at least one block
    /// completed) a resume handle naming the `"rand_qb_ei"` checkpoint
    /// kind.
    pub fn into_outcome(self) -> crate::Outcome<QbResult> {
        let (trip, tol, its) = (self.trip.clone(), self.achieved_tolerance(), self.iterations);
        crate::outcome::classify(trip, tol, Some("rand_qb_ei"), its, self)
    }
}

/// The smallest rank `l` in `rows` (the rows of one block of `B`, `l`
/// counting the rows kept) with `e_l = ||A||_F^2 - Σ_{r<l} ||B(r,:)||^2
/// < (tau ||A||_F)^2`, the rows subtracted one by one from row 0, and
/// that `e_l`; the block's end and its `e` when no row passes.
fn first_rank_below(
    a_norm_f: f64,
    tau: f64,
    row_norms_sq: &[f64],
    rows: Range<usize>,
) -> (usize, f64) {
    let stop_sq = (tau * a_norm_f) * (tau * a_norm_f);
    let mut e = row_norms_sq[..rows.start].iter().fold(a_norm_f * a_norm_f, |e, r| e - r);
    for l in rows.clone() {
        e -= row_norms_sq[l];
        if e < stop_sq {
            return (l + 1, e);
        }
    }
    (rows.end, e)
}

/// `||A - H W||_F` of dense factors without ever holding a dense `A`:
/// the residual is formed on blocks of at most 256 columns —
/// `subtract(cols, R)` takes `H W(:, cols)` off the densified block —
/// and the squared norm accumulated in ascending block order.
pub(crate) fn residual_norm(a: &CscMatrix, subtract: impl Fn(&[usize], &mut DenseMatrix)) -> f64 {
    let all: Vec<usize> = (0..a.cols()).collect();
    let mut sq = 0.0;
    for cols in all.chunks(256) {
        let mut resid = a.gather_columns_dense(cols);
        subtract(cols, &mut resid);
        sq += resid.fro_norm_sq();
    }
    sq.sqrt()
}

/// The blocks of `basis`, `widths[j]` columns each, left to right, as
/// views into it.
pub(crate) fn blocks<'a>(
    basis: &'a DenseMatrix,
    widths: &'a [usize],
) -> impl Iterator<Item = DenseView<'a>> + 'a {
    widths.iter().scan(0, move |off, &w| {
        *off += w;
        Some(basis.columns(*off - w..*off))
    })
}

/// Standard-normal matrix via Box-Muller (the offline `rand` has no
/// normal distribution helper); RandQB_EI's sketches and RandUBV's
/// start block. Consumes exactly `2 * rows * cols` `next_u64` draws —
/// [`QbCheckpoint`] relies on this count to resume the stream bitwise.
pub(crate) fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    })
}

/// RandQB_EI (Algorithm 1). Returns `Err` if `tau` is below the
/// indicator's double-precision floor.
pub fn rand_qb_ei(a: &CscMatrix, opts: &QbOpts) -> Result<QbResult, QbError> {
    rand_qb_ei_checkpointed(a, opts, None)
}

/// [`rand_qb_ei`] with checkpoint/restart: every
/// `hooks.every()` block iterations the accumulated `Q`/`B^T` bases,
/// the residual `E`, and the RNG draw count are snapshotted into the
/// store; a fresh call with the same store resumes after the last
/// snapshot and produces bitwise-identical factors (the resumed RNG
/// burns the recorded draw count before continuing the sketch stream).
pub fn rand_qb_ei_checkpointed(
    a: &CscMatrix,
    opts: &QbOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> Result<QbResult, QbError> {
    if opts.tau < QB_INDICATOR_FLOOR {
        return Err(QbError::TauBelowIndicatorFloor { tau: opts.tau });
    }
    Ok(lra_obs::trace::span("rand_qb_ei", || rand_qb_ei_inner(a, opts, hooks)))
}

fn rand_qb_ei_inner(
    a: &CscMatrix,
    opts: &QbOpts,
    hooks: Option<&crate::RecoveryHooks<'_>>,
) -> QbResult {
    let m = a.rows();
    let n = a.cols();
    let k = opts.k.min(m).min(n).max(1);
    let par = opts.par;
    let mut timers = KernelTimers::new();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let a_norm_f = a.fro_norm();
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));

    // Q_K (`m x K`) and B_K^T (`n x K`), block `j` in columns
    // `sum(widths[..j])..` of each.
    let mut st = QbCheckpoint {
        iterations: 0,
        rank: 0,
        e: a.fro_norm_sq(),
        history: Vec::new(),
        q: DenseMatrix::with_column_capacity(m, rank_cap),
        bt: DenseMatrix::with_column_capacity(n, rank_cap),
        widths: Vec::new(),
        rng_draws: 0,
    };
    // The zero matrix is its own rank-0 approximation.
    let mut converged = a_norm_f == 0.0;
    let mut trip: Option<lra_recover::BudgetTrip> = None;

    if let Some(h) = hooks.filter(|_| !converged) {
        if let Some(mut ck) = crate::checkpoint::load_qb_resume(h, m, n) {
            // The loaded bases go into buffers that reserve the rank
            // cap, as the fresh ones do.
            for basis in [&mut ck.q, &mut ck.bt] {
                let mut reserved = DenseMatrix::with_column_capacity(basis.rows(), rank_cap);
                reserved.append_columns(&*basis);
                *basis = reserved;
            }
            st = ck;
            // Replay the RNG to just past the snapshot point so the
            // continued sketch stream matches an uninterrupted run.
            for _ in 0..st.rng_draws {
                rng.next_u64();
            }
            converged = st.history.last().is_some_and(|&ind| ind < stop);
        }
    }

    // The blocks a loaded snapshot already covers.
    let resumed = st.iterations;
    loop {
        // Block boundary: every loop variable that feeds the next block
        // is final for the last one, so this is the snapshot point, on
        // the checkpoint cadence or forced by a budget trip. The
        // accumulated Q/B^T bases are the resident factorization state
        // (the input is read-only and the sketch is transient).
        let save = |h: &crate::RecoveryHooks<'_>| crate::checkpoint::save_snapshot(h, &st);
        if let Some(h) = hooks {
            if st.iterations > resumed && !converged && h.should_save(st.iterations) {
                save(h);
            }
        }
        if converged || st.rank >= rank_cap {
            break;
        }
        let resident = (st.rank as u64) * ((m + n) as u64) * 8;
        trip = budget_trip(&opts.budget, None, st.iterations, resident, hooks, save);
        if trip.is_some() {
            break;
        }
        let (q, bt, widths) = (&st.q, &st.bt, &st.widths);
        let kk = k.min(rank_cap - st.rank);
        // Line 4-5: sketch and correct.
        let omega = randn(n, kk, &mut rng);
        st.rng_draws += 2 * (n as u64) * (kk as u64);
        let mut y = timers.time(KernelId::Sketch, || {
            let mut y = spmm_dense(a, &omega, par);
            // Y -= Q_K (B_K Ω), blockwise.
            for (qj, btj) in blocks(q, widths).zip(blocks(bt, widths)) {
                let t = matmul_tn(btj, &omega, par);
                matmul_sub_assign(&mut y, qj, &t, par);
            }
            y
        });
        let mut qk = timers.time(KernelId::Orth, || orth(&y, par));

        // Lines 6-9: power scheme.
        for _ in 0..opts.p {
            timers.time(KernelId::PowerIter, || {
                // Q̂ = orth(A^T Q_k - B_K^T (Q_K^T Q_k))
                let mut z = spmm_t_dense(a, &qk, par);
                for (qj, btj) in blocks(q, widths).zip(blocks(bt, widths)) {
                    let t = matmul_tn(qj, &qk, par);
                    matmul_sub_assign(&mut z, btj, &t, par);
                }
                let qhat = orth(&z, par);
                // Q_k = orth(A Q̂ - Q_K (B_K Q̂))
                let mut w = spmm_dense(a, &qhat, par);
                for (qj, btj) in blocks(q, widths).zip(blocks(bt, widths)) {
                    let t = matmul_tn(btj, &qhat, par);
                    matmul_sub_assign(&mut w, qj, &t, par);
                }
                qk = orth(&w, par);
            });
        }

        // Line 10: re-orthogonalization against previous blocks.
        timers.time(KernelId::Orth, || {
            if !widths.is_empty() {
                for qj in blocks(q, widths) {
                    let t = matmul_tn(qj, &qk, par);
                    matmul_sub_assign(&mut qk, qj, &t, par);
                }
                qk = orth(&qk, par);
            }
        });

        // Line 11: B_k = Q_k^T A, kept as B_k^T = A^T Q_k.
        let btk = timers.time(KernelId::BUpdate, || spmm_t_dense(a, &qk, par));

        // Lines 12-14: expand, update the indicator, test. ||B_k||_F^2
        // is summed in B_k's column-major order — across the rows of
        // the stored transpose — which is the order the indicator has
        // always had.
        let btk_ref = &btk;
        let bk_norm_sq: f64 =
            (0..n).flat_map(|c| (0..kk).map(move |r| btk_ref.get(c, r))).map(|v| v * v).sum();
        if non_finite("rand_qb_ei: non-finite B block norm", st.iterations + 1, &[bk_norm_sq]) {
            break;
        }
        st.e -= bk_norm_sq;
        // Guard tiny negative round-off.
        let ind = st.e.max(0.0).sqrt();
        y = DenseMatrix::zeros(0, 0); // release the sketch early
        let _ = y;
        st.q.append_columns(&qk);
        st.bt.append_columns(&btk);
        st.widths.push(kk);
        st.rank += kk;
        st.iterations += 1;
        st.history.push(ind);
        converged = ind < stop;
    }

    let QbCheckpoint { iterations, mut rank, history, mut q, mut bt, widths, .. } = st;
    // A converged run returns the smallest prefix of its last block
    // that the row identity certifies, read off the rows of `B` — the
    // columns of `B^T` — so a resumed run, whose `B^T` is bitwise the
    // same, cuts at the same row. `widths` and `row_norms_sq` keep the
    // cut rows for `min_rank_for`.
    let row_norms_sq: Vec<f64> =
        (0..rank).map(|r| bt.col(r).iter().map(|v| v * v).sum()).collect();
    // No block: the zero matrix (indicator 0, where its empty norm sum
    // reads -0.0) or a stop before the first one.
    let no_block = if converged { 0.0 } else { a_norm_f };
    let mut indicator = history.last().copied().unwrap_or(no_block);
    if let (true, Some(&last)) = (converged, widths.last()) {
        let (cut, e) = first_rank_below(a_norm_f, opts.tau, &row_norms_sq, rank - last..rank);
        if cut < rank {
            rank = cut;
            q.truncate_columns(rank);
            bt.truncate_columns(rank);
            indicator = e.max(0.0).sqrt();
        }
    }

    // The result takes both buffers: the unused reservation goes back
    // where it lies, and B = (B^T)^T is transposed in place.
    let b = timers.time(KernelId::Concat, || {
        q.shrink_to_fit();
        bt.shrink_to_fit();
        bt.transpose_in_place();
        bt
    });

    QbResult {
        q,
        b,
        rank,
        iterations,
        converged,
        indicator,
        indicator_history: history,
        a_norm_f,
        timers,
        trip,
        widths,
        row_norms_sq,
    }
}
