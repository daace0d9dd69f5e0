//! RandUBV (Hallman 2021): fixed-accuracy low-rank approximation by
//! randomized block Golub-Kahan bidiagonalization, `A ≈ U B V^T` with
//! block-bidiagonal `B`.
//!
//! The paper evaluates a sequential RandUBV against RandQB_EI (its
//! iteration counts appear in Table II as `its_UBV`): per iteration it
//! does roughly the work of RandQB_EI with `p = 0` while often needing
//! fewer iterations. Full re-orthogonalization is applied to both bases
//! (the small extra cost buys indicator reliability).

use crate::timers::{KernelId, KernelTimers};
use lra_dense::{matmul_nt, matmul_sub_assign, matmul_tn, qr, DenseMatrix};
use lra_par::Parallelism;
use lra_sparse::{spmm_dense, spmm_t_dense, CscMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for [`rand_ubv`].
#[derive(Debug, Clone)]
pub struct UbvOpts {
    /// Block size `k`.
    pub k: usize,
    /// Relative tolerance `tau`.
    pub tau: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker count (the paper runs RandUBV sequentially; parallelism
    /// is supported anyway).
    pub par: Parallelism,
    /// Optional rank cap.
    pub max_rank: Option<usize>,
    /// Resource budget / cancellation (default unlimited). Checked at
    /// every block-iteration boundary; a trip stops the loop with the
    /// blocks accumulated so far. RandUBV has no checkpoint layer, so
    /// [`UbvResult::into_outcome`] never carries a resume handle.
    pub budget: lra_recover::Budget,
}

impl UbvOpts {
    /// Defaults: sequential, seed fixed.
    pub fn new(k: usize, tau: f64) -> Self {
        UbvOpts {
            k,
            tau,
            seed: 0xB1D,
            par: Parallelism::SEQ,
            max_rank: None,
            budget: lra_recover::Budget::unlimited(),
        }
    }

    /// Builder: set the [`lra_recover::Budget`].
    pub fn with_budget(mut self, budget: lra_recover::Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Result of [`rand_ubv`].
#[derive(Debug, Clone)]
pub struct UbvResult {
    /// Left basis, `m x K`.
    pub u: DenseMatrix,
    /// Block-bidiagonal middle factor, `K x K`.
    pub b: DenseMatrix,
    /// Right basis, `n x K`.
    pub v: DenseMatrix,
    /// Achieved rank.
    pub rank: usize,
    /// Block iterations.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Indicator per iteration.
    pub indicator_history: Vec<f64>,
    /// Final indicator value.
    pub indicator: f64,
    /// `||A||_F`.
    pub a_norm_f: f64,
    /// Kernel timers.
    pub timers: KernelTimers,
    /// `Some` when a [`lra_recover::Budget`] limit (or cancel token)
    /// stopped the loop before its own stop rule fired.
    pub trip: Option<lra_recover::BudgetTrip>,
}

impl UbvResult {
    /// Exact error `||A - U B V^T||_F` (validation helper).
    pub fn exact_error(&self, a: &CscMatrix, par: Parallelism) -> f64 {
        crate::qb::residual_norm(a, |cols, resid| {
            let bvt = matmul_nt(&self.b, &self.v.select_rows(cols), par); // K x |cols|
            matmul_sub_assign(resid, &self.u, &bvt, par);
        })
    }

    /// Achieved relative tolerance `indicator / ||A||_F`.
    pub fn achieved_tolerance(&self) -> f64 {
        if self.a_norm_f == 0.0 {
            0.0
        } else {
            self.indicator / self.a_norm_f
        }
    }

    /// Fold into the typed [`crate::Outcome`] contract. RandUBV has no
    /// checkpoint layer, so an interruption never carries a resume
    /// handle — continuing means starting over.
    pub fn into_outcome(self) -> crate::Outcome<UbvResult> {
        match self.trip.clone() {
            None => crate::Outcome::Completed(self),
            Some(trip) => {
                let achieved_tolerance = self.achieved_tolerance();
                crate::Outcome::Interrupted(crate::Interrupted {
                    partial: self,
                    trip,
                    achieved_tolerance,
                    resume: None,
                })
            }
        }
    }
}

fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    })
}

/// Re-orthogonalize `x` against the blocks in `basis`, then QR;
/// returns `(Q, R)`.
fn orth_against(
    x: &mut DenseMatrix,
    basis: &[DenseMatrix],
    par: Parallelism,
) -> (DenseMatrix, DenseMatrix) {
    for qb in basis {
        let t = matmul_tn(qb, x, par);
        matmul_sub_assign(x, qb, &t, par);
    }
    let f = qr(x, par);
    (f.q_thin(par), f.r())
}

/// RandUBV: fixed-precision block Lanczos bidiagonalization.
pub fn rand_ubv(a: &CscMatrix, opts: &UbvOpts) -> UbvResult {
    let m = a.rows();
    let n = a.cols();
    let k = opts.k.min(m).min(n).max(1);
    let par = opts.par;
    let mut timers = KernelTimers::new();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let a_norm_sq = a.fro_norm_sq();
    let a_norm_f = a_norm_sq.sqrt();
    if a_norm_f == 0.0 {
        return UbvResult {
            u: DenseMatrix::zeros(m, 0),
            b: DenseMatrix::zeros(0, 0),
            v: DenseMatrix::zeros(n, 0),
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

    let mut u_blocks: Vec<DenseMatrix> = Vec::new();
    let mut v_blocks: Vec<DenseMatrix> = Vec::new();
    // Diagonal blocks B_i (k x k) and superdiagonal blocks C_i.
    let mut b_diag: Vec<DenseMatrix> = Vec::new();
    let mut c_super: Vec<DenseMatrix> = Vec::new();

    // V_1 = orth(randn(n, k)).
    let mut vk = {
        let mut w = randn(n, k, &mut rng);
        timers.time(KernelId::Orth, || orth_against(&mut w, &[], par).0)
    };
    let mut e = a_norm_sq;
    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut rank = 0usize;
    let mut trip: Option<lra_recover::BudgetTrip> = None;
    let clock = opts.budget.start();

    while rank < rank_cap {
        // Budget check at the block boundary; the two bases plus the
        // bidiagonal blocks are the resident factorization state.
        if !clock.is_unlimited() {
            let resident = (rank as u64) * ((m + n + 2 * k) as u64) * 8;
            if let Some(t) = clock.check(iterations as u64, resident) {
                lra_recover::record_event(&lra_recover::RecoveryEvent::BudgetTrip {
                    trip: t.clone(),
                    iteration: iterations,
                });
                trip = Some(t);
                break;
            }
        }
        // U_i R = A V_i - U_{i-1} C_{i-1}^T  (C from the previous step).
        let mut w = timers.time(KernelId::Sketch, || spmm_dense(a, &vk, par));
        if let (Some(ul), Some(cl)) = (u_blocks.last(), c_super.last()) {
            // w -= U_{i-1} C_{i-1}^T  where C couples V_i to U_{i-1}.
            let ct = cl.transpose();
            timers.time(KernelId::Sketch, || matmul_sub_assign(&mut w, ul, &ct, par));
        }
        let (uk, bk) = timers.time(KernelId::Orth, || orth_against(&mut w, &u_blocks, par));
        e -= bk.fro_norm_sq();
        u_blocks.push(uk);
        v_blocks.push(vk.clone());
        b_diag.push(bk.clone());
        rank += k;
        iterations += 1;
        let ind = e.max(0.0).sqrt();
        history.push(ind);
        if ind < stop || rank >= rank_cap {
            converged = ind < stop;
            break;
        }

        // V_{i+1} C_i^T = A^T U_i - V_i B_i^T.
        let mut z = timers.time(KernelId::BUpdate, || {
            spmm_t_dense(a, u_blocks.last().unwrap(), par)
        });
        {
            let bt = bk.transpose();
            timers.time(KernelId::BUpdate, || matmul_sub_assign(&mut z, &vk, &bt, par));
        }
        let (vnext, ct) = timers.time(KernelId::Orth, || orth_against(&mut z, &v_blocks, par));
        let c = ct.transpose(); // C_i couples U_i to V_{i+1}
        e -= c.fro_norm_sq();
        c_super.push(c);
        vk = vnext;
        // The C contribution belongs to the same overall indicator: the
        // next history entry will reflect it.
    }

    // Assemble factors.
    let (u, v, b) = timers.time(KernelId::Concat, || {
        let blocks = u_blocks.len();
        let kk = rank;
        let mut u = DenseMatrix::zeros(m, kk);
        let mut v = DenseMatrix::zeros(n, kk);
        let mut b = DenseMatrix::zeros(kk, kk);
        let mut off = 0;
        for i in 0..blocks {
            u.set_submatrix(0, off, &u_blocks[i]);
            v.set_submatrix(0, off, &v_blocks[i]);
            b.set_submatrix(off, off, &b_diag[i]);
            if i + 1 < blocks && i < c_super.len() {
                // C_i sits on the block superdiagonal: rows of U_i,
                // columns of V_{i+1}.
                b.set_submatrix(off, off + b_diag[i].cols(), &c_super[i]);
            }
            off += b_diag[i].cols();
        }
        (u, v, b)
    });

    UbvResult {
        u,
        b,
        v,
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
