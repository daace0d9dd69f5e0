//! RandQB_EI (Algorithm 1): randomized blocked QB factorization with
//! the efficient error indicator of Yu, Gu & Li, plus the power scheme
//! and the re-orthogonalization step.
//!
//! `Q_K` and `B_K` are kept as block lists so each iteration's
//! corrections `A Ω - Q_K (B_K Ω)` cost `O(K k (m + n))` without
//! reallocating the accumulated factors. `B_K` is held *transposed*
//! (`n x k` blocks, which is what `A^T Q_k` produces): `B_j Ω` and
//! `B_j Q̂` are then `matmul_tn` dot products down contiguous columns
//! and `Z -= B_j^T T` takes the block as it is, so no block is ever
//! transposed inside the loop; `B` itself is assembled once at the end.

use crate::timers::{KernelId, KernelTimers};
use lra_dense::{matmul_sub_assign, matmul_tn, orth, DenseMatrix};
use lra_par::Parallelism;
use lra_sparse::{spmm_dense, spmm_t_dense, CscMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

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
    /// Achieved rank `K`.
    pub rank: usize,
    /// Number of block iterations.
    pub iterations: usize,
    /// Whether the tolerance was met before the rank cap.
    pub converged: bool,
    /// Error-indicator value per iteration (eq. 4).
    pub indicator_history: Vec<f64>,
    /// Final indicator.
    pub indicator: f64,
    /// `||A||_F`.
    pub a_norm_f: f64,
    /// Kernel timers (Fig. 6 breakdown).
    pub timers: KernelTimers,
    /// `Some` when a [`lra_recover::Budget`] limit (or cancel token)
    /// stopped the loop before its own stop rule fired.
    pub trip: Option<lra_recover::BudgetTrip>,
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

    /// Approximated minimum rank for a (coarser) tolerance, read off the
    /// indicator history of this run at block resolution — the paper's
    /// "with RandQB_EI, the exact rank approximation can also be
    /// determined at small cost" (the asterisk series of Figs. 2-3).
    /// Returns `None` if this run never reached `tau`.
    pub fn min_rank_for(&self, tau: f64) -> Option<usize> {
        let block = if self.iterations > 0 {
            self.rank.div_ceil(self.iterations)
        } else {
            return if tau >= 1.0 || self.a_norm_f == 0.0 { Some(0) } else { None };
        };
        self.indicator_history
            .iter()
            .position(|&e| e < tau * self.a_norm_f)
            .map(|i| ((i + 1) * block).min(self.rank))
    }

    /// Achieved relative tolerance `indicator / ||A||_F` — the
    /// quantified accuracy of the factors, degraded or not.
    pub fn achieved_tolerance(&self) -> f64 {
        if self.a_norm_f == 0.0 {
            0.0
        } else {
            self.indicator / self.a_norm_f
        }
    }

    /// Fold this result into the typed [`crate::Outcome`] contract: a
    /// budget trip becomes [`crate::Interrupted`] carrying the partial
    /// factors, the achieved tolerance, and (when at least one block
    /// completed) a resume handle naming the `"rand_qb_ei"` checkpoint
    /// kind.
    pub fn into_outcome(self) -> crate::Outcome<QbResult> {
        match self.trip.clone() {
            None => crate::Outcome::Completed(self),
            Some(trip) => {
                let achieved_tolerance = self.achieved_tolerance();
                let resume = (self.iterations > 0).then_some(crate::ResumeHandle {
                    kind: "rand_qb_ei",
                    iteration: self.iterations,
                    job: None,
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

/// Standard-normal matrix via Box-Muller (the offline `rand` has no
/// normal distribution helper). Consumes exactly `2 * rows * cols`
/// `next_u64` draws — [`QbCheckpoint`](crate::QbCheckpoint) relies on
/// this count to resume the stream bitwise.
fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
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
/// `hooks.every()` block iterations the accumulated `Q`/`B` blocks,
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

    let a_norm_sq = a.fro_norm_sq();
    let a_norm_f = a_norm_sq.sqrt();
    if a_norm_f == 0.0 {
        // The zero matrix is its own rank-0 approximation.
        return QbResult {
            q: DenseMatrix::zeros(m, 0),
            b: DenseMatrix::zeros(0, n),
            rank: 0,
            iterations: 0,
            converged: true,
            indicator: 0.0,
            indicator_history: Vec::new(),
            a_norm_f,
            timers,
            trip: None,
        };
    }
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));

    let mut q_blocks: Vec<DenseMatrix> = Vec::new();
    // B_j^T, each `n x k_j`.
    let mut bt_blocks: Vec<DenseMatrix> = Vec::new();
    let mut e = a_norm_sq;
    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut rank = 0usize;
    let mut draws = 0u64;
    let mut trip: Option<lra_recover::BudgetTrip> = None;
    let clock = opts.budget.start();

    if let Some(h) = hooks {
        if let Some(ck) = crate::checkpoint::load_qb_resume(h, m, n) {
            // Replay the RNG to just past the snapshot point so the
            // continued sketch stream matches an uninterrupted run.
            for _ in 0..ck.rng_draws {
                rng.next_u64();
            }
            draws = ck.rng_draws;
            iterations = ck.iterations;
            rank = ck.rank;
            e = ck.e;
            history = ck.history.into_owned();
            q_blocks = ck.q_blocks.into_owned();
            bt_blocks = ck.bt_blocks.into_owned();
            converged = history.last().is_some_and(|&ind| ind < stop);
        }
    }

    while !converged && rank < rank_cap {
        // Budget check at the block boundary: the accumulated Q/B
        // blocks are the resident factorization state (the input is
        // read-only and the sketch is transient).
        if !clock.is_unlimited() {
            let resident = (rank as u64) * ((m + n) as u64) * 8;
            if let Some(t) = clock.check(iterations as u64, resident) {
                if let Some(h) = hooks {
                    if iterations > 0 && !h.should_save(iterations) {
                        let ck = crate::checkpoint::QbCheckpoint {
                            iterations,
                            rank,
                            e,
                            history: Cow::Borrowed(&history),
                            q_blocks: Cow::Borrowed(&q_blocks),
                            bt_blocks: Cow::Borrowed(&bt_blocks),
                            rng_draws: draws,
                        };
                        crate::checkpoint::save_snapshot(h, &ck);
                    }
                }
                lra_recover::record_event(&lra_recover::RecoveryEvent::BudgetTrip {
                    trip: t.clone(),
                    iteration: iterations,
                });
                trip = Some(t);
                break;
            }
        }
        let kk = k.min(rank_cap - rank);
        // Line 4-5: sketch and correct.
        let omega = randn(n, kk, &mut rng);
        draws += 2 * (n as u64) * (kk as u64);
        let mut y = timers.time(KernelId::Sketch, || {
            let mut y = spmm_dense(a, &omega, par);
            // Y -= Q_K (B_K Ω), blockwise.
            for (qb, bt) in q_blocks.iter().zip(&bt_blocks) {
                let t = matmul_tn(bt, &omega, par);
                matmul_sub_assign(&mut y, qb, &t, par);
            }
            y
        });
        let mut qk = timers.time(KernelId::Orth, || orth(&y, par));

        // Lines 6-9: power scheme.
        for _ in 0..opts.p {
            timers.time(KernelId::PowerIter, || {
                // Q̂ = orth(A^T Q_k - B_K^T (Q_K^T Q_k))
                let mut z = spmm_t_dense(a, &qk, par);
                for (qb, bt) in q_blocks.iter().zip(&bt_blocks) {
                    let t = matmul_tn(qb, &qk, par);
                    matmul_sub_assign(&mut z, bt, &t, par);
                }
                let qhat = orth(&z, par);
                // Q_k = orth(A Q̂ - Q_K (B_K Q̂))
                let mut w = spmm_dense(a, &qhat, par);
                for (qb, bt) in q_blocks.iter().zip(&bt_blocks) {
                    let t = matmul_tn(bt, &qhat, par);
                    matmul_sub_assign(&mut w, qb, &t, par);
                }
                qk = orth(&w, par);
            });
        }

        // Line 10: re-orthogonalization against previous blocks.
        timers.time(KernelId::Orth, || {
            if !q_blocks.is_empty() {
                for qb in &q_blocks {
                    let t = matmul_tn(qb, &qk, par);
                    matmul_sub_assign(&mut qk, qb, &t, par);
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
        let bt = &btk;
        let bk_norm_sq: f64 =
            (0..n).flat_map(|c| (0..kk).map(move |r| bt.get(c, r))).map(|v| v * v).sum();
        if !bk_norm_sq.is_finite() {
            // A NaN/Inf sketch would silently corrupt every later
            // block; stop here with the factors accumulated so far.
            lra_recover::record_guard_trip(format!(
                "rand_qb_ei: non-finite B block norm at iteration {}",
                iterations + 1
            ));
            break;
        }
        e -= bk_norm_sq;
        // Guard tiny negative round-off.
        let ind = e.max(0.0).sqrt();
        y = DenseMatrix::zeros(0, 0); // release the sketch early
        let _ = y;
        q_blocks.push(qk);
        bt_blocks.push(btk);
        rank += kk;
        iterations += 1;
        history.push(ind);
        if ind < stop {
            converged = true;
            break;
        }
        // Snapshot at the iteration boundary: every loop variable that
        // feeds the next iteration is final for this one.
        if let Some(h) = hooks {
            if h.should_save(iterations) {
                let ck = crate::checkpoint::QbCheckpoint {
                    iterations,
                    rank,
                    e,
                    history: Cow::Borrowed(&history),
                    q_blocks: Cow::Borrowed(&q_blocks),
                    bt_blocks: Cow::Borrowed(&bt_blocks),
                    rng_draws: draws,
                };
                crate::checkpoint::save_snapshot(h, &ck);
            }
        }
    }

    // Concatenate blocks.
    let (q, b) = timers.time(KernelId::Concat, || {
        let mut q = DenseMatrix::zeros(m, rank);
        let mut b = DenseMatrix::zeros(rank, n);
        let mut off = 0;
        for (qb, bt) in q_blocks.iter().zip(&bt_blocks) {
            q.set_submatrix(0, off, qb);
            b.set_submatrix(off, 0, &bt.transpose());
            off += qb.cols();
        }
        (q, b)
    });

    QbResult {
        q,
        b,
        rank,
        iterations,
        converged,
        indicator: history.last().copied().unwrap_or(a_norm_f),
        indicator_history: history,
        a_norm_f,
        timers,
        trip,
    }
}
