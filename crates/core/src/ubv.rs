//! RandUBV (Hallman 2021): fixed-accuracy low-rank approximation by
//! randomized block Golub-Kahan bidiagonalization, `A ≈ U B V^T` with
//! block-bidiagonal `B`.
//!
//! The paper evaluates a sequential RandUBV against RandQB_EI (its
//! iteration counts appear in Table II as `its_UBV`): per iteration it
//! does roughly the work of RandQB_EI with `p = 0` while often needing
//! fewer iterations. One basis is re-orthogonalized against all of its
//! earlier blocks, the one of the shorter side (`V` unless `A` is wide),
//! as Simon and Zha propose: the three-term recurrences
//! `U_i B_i = A V_i - U_{i-1} C_{i-1}` and
//! `V_{i+1} C_i^T = A^T U_i - V_i B_i^T` keep each basis orthogonal as
//! long as the other one is, so a plain QR orthogonalizes each block of
//! the other basis.
//!
//! `U` and `V` are held as RandQB_EI holds `Q` and `B^T`: one
//! column-major buffer each, reserved to the rank cap, a block
//! appended once, earlier blocks read through column-block views, and
//! the buffer handed to the result as it is. Only the small `K x K`
//! middle factor is assembled from its blocks at the end.

use crate::outcome::{budget_trip, non_finite};
use crate::qb::{blocks, randn};
use crate::timers::{KernelId, KernelTimers};
use lra_dense::{matmul_nt, matmul_sub_assign, matmul_tn, qr, DenseMatrix};
use lra_par::Parallelism;
use lra_sparse::{spmm_dense, spmm_t_dense, CscMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        crate::outcome::achieved_tolerance(self.indicator, self.a_norm_f)
    }

    /// Fold into the typed [`crate::Outcome`] contract. RandUBV has no
    /// checkpoint layer, so an interruption never carries a resume
    /// handle — continuing means starting over.
    pub fn into_outcome(self) -> crate::Outcome<UbvResult> {
        let (trip, tol, its) = (self.trip.clone(), self.achieved_tolerance(), self.iterations);
        crate::outcome::classify(trip, tol, None, its, self)
    }
}

/// Re-orthogonalize `x` against the blocks of `basis` (`widths[j]`
/// columns each), then QR; returns `(Q, R)`.
fn orth_against(
    x: &mut DenseMatrix,
    basis: &DenseMatrix,
    widths: &[usize],
    par: Parallelism,
) -> (DenseMatrix, DenseMatrix) {
    for qb in blocks(basis, widths) {
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

    let a_norm_f = a.fro_norm();
    let stop = opts.tau * a_norm_f;
    let rank_cap = opts.max_rank.unwrap_or(usize::MAX).min(m.min(n));

    // U (`m x K`) and V (`n x K`), block `j` in columns
    // `sum(widths[..j])..` of each.
    let mut u = DenseMatrix::with_column_capacity(m, rank_cap);
    let mut v = DenseMatrix::with_column_capacity(n, rank_cap);
    let mut widths: Vec<usize> = Vec::new();
    // Diagonal blocks B_i (k x k) and superdiagonal blocks C_i.
    let mut b_diag: Vec<DenseMatrix> = Vec::new();
    let mut c_super: Vec<DenseMatrix> = Vec::new();
    // Only the basis of the shorter side is swept against its earlier
    // blocks: on a wide input a `U` left to the recurrence repeats
    // whole blocks once its rank nears `m`.
    let wide = m < n;

    // V_1 = orth(randn(n, k)).
    let mut vk = {
        let mut w = randn(n, k, &mut rng);
        timers.time(KernelId::Orth, || orth_against(&mut w, &v, &widths, par).0)
    };
    let mut e = a.fro_norm_sq();
    let mut history = Vec::new();
    // The zero matrix is its own rank-0 approximation.
    let mut converged = a_norm_f == 0.0;
    let mut iterations = 0usize;
    let mut rank = 0usize;
    let mut trip: Option<lra_recover::BudgetTrip> = None;

    while !converged && rank < rank_cap {
        // Budget check at the block boundary; the two bases plus the
        // bidiagonal blocks are the resident factorization state.
        let resident = (rank as u64) * ((m + n + 2 * k) as u64) * 8;
        trip = budget_trip(&opts.budget, None, iterations, resident, None, |_| {});
        if trip.is_some() {
            break;
        }
        // U_i B_i = A V_i - U_{i-1} C_{i-1}  (C from the previous step).
        let mut w = timers.time(KernelId::Sketch, || spmm_dense(a, &vk, par));
        if let Some(cl) = c_super.last() {
            let ul = u.columns(rank - widths[widths.len() - 1]..rank);
            timers.time(KernelId::Sketch, || matmul_sub_assign(&mut w, ul, cl, par));
        }
        let u_sweep: &[usize] = if wide { &widths } else { &[] };
        let (mut uk, mut bk) =
            timers.time(KernelId::Orth, || orth_against(&mut w, &u, u_sweep, par));
        // The rank cap takes the leading columns of the last block:
        // those of U_i R depend on those of V_i alone, and C_{i-1}
        // keeps the columns that couple U_{i-1} to them.
        let kk = k.min(rank_cap - rank);
        if kk < k {
            uk = uk.submatrix(0, 0, m, kk);
            bk = bk.submatrix(0, 0, kk, kk);
            vk = vk.submatrix(0, 0, n, kk);
            if let Some(c) = c_super.last_mut() {
                *c = c.submatrix(0, 0, c.rows(), kk);
            }
        }
        // C_{i-1} enters the indicator once its kept width is known.
        let c_norm_sq = c_super.last().map_or(0.0, DenseMatrix::fro_norm_sq);
        let b_norm_sq = bk.fro_norm_sq();
        if non_finite("rand_ubv: non-finite block norm", iterations + 1, &[c_norm_sq, b_norm_sq]) {
            break;
        }
        e -= c_norm_sq;
        e -= b_norm_sq;
        u.append_columns(&uk);
        v.append_columns(&vk);
        widths.push(kk);
        b_diag.push(bk);
        rank += kk;
        iterations += 1;
        let ind = e.max(0.0).sqrt();
        history.push(ind);
        if ind < stop || rank >= rank_cap {
            converged = ind < stop;
            break;
        }

        // V_{i+1} C_i^T = A^T U_i - V_i B_i^T.
        let mut z = timers.time(KernelId::BUpdate, || spmm_t_dense(a, &uk, par));
        {
            let vi = v.columns(rank - kk..rank);
            let bt = b_diag[b_diag.len() - 1].transpose();
            timers.time(KernelId::BUpdate, || {
                matmul_sub_assign(&mut z, vi, &bt, par)
            });
        }
        let v_sweep: &[usize] = if wide { &[] } else { &widths };
        let (vnext, ct) = timers.time(KernelId::Orth, || orth_against(&mut z, &v, v_sweep, par));
        c_super.push(ct.transpose()); // C_i couples U_i to V_{i+1}
        vk = vnext;
    }

    // No block: the zero matrix (indicator 0, where its empty norm sum
    // reads -0.0) or a stop before the first one.
    let no_block = if converged { 0.0 } else { a_norm_f };
    // The bases are final; B is assembled from its blocks.
    let b = timers.time(KernelId::Concat, || {
        u.shrink_to_fit();
        v.shrink_to_fit();
        let mut b = DenseMatrix::zeros(rank, rank);
        let mut off = 0;
        for (i, bi) in b_diag.iter().enumerate() {
            b.set_submatrix(off, off, bi);
            if i + 1 < b_diag.len() {
                // C_i sits on the block superdiagonal: rows of U_i,
                // columns of V_{i+1}.
                b.set_submatrix(off, off + bi.cols(), &c_super[i]);
            }
            off += bi.cols();
        }
        b
    });

    UbvResult {
        u,
        b,
        v,
        rank,
        iterations,
        converged,
        indicator: history.last().copied().unwrap_or(no_block),
        indicator_history: history,
        a_norm_f,
        timers,
        trip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_dense::matmul;

    /// Every block of `U` factors the three-term step: recomputed from
    /// the returned factors (`C_{i-1}` is `B`'s superdiagonal block),
    /// `w = A V_i - U_{i-1} C_{i-1}` equals `U_i B_i` and has nothing
    /// left along `U_{i-1}`. Subtracting `U_{i-1} C_{i-1}^T` instead
    /// leaves most of `w` there.
    #[test]
    fn each_block_of_u_factors_the_three_term_step() {
        let (n, k, par) = (90, 6, Parallelism::SEQ);
        let dense = DenseMatrix::from_fn(n, n, |i, j| {
            let h = (i * 7919 + j * 104_729) % 1009;
            (h as f64 / 1009.0 - 0.5) * 0.8f64.powi((i + j) as i32 / 2)
        });
        let a = CscMatrix::from_dense(&dense);
        let r = rand_ubv(&a, &UbvOpts::new(k, 1e-3));
        assert!(r.converged && r.iterations >= 4 && r.rank < n, "{} its", r.iterations);
        let av = spmm_dense(&a, &r.v, par);
        let fro = |x: &DenseMatrix| x.fro_norm_sq().sqrt();
        for i in 1..r.iterations {
            let (prev, cur) = ((i - 1) * k, i * k);
            let c = r.b.submatrix(prev, cur, k, k);
            let mut w = av.submatrix(0, cur, n, k);
            matmul_sub_assign(&mut w, r.u.columns(prev..cur), &c, par);
            let ub = matmul(&r.u.submatrix(0, cur, n, k), &r.b.submatrix(cur, cur, k, k), par);
            let along = fro(&matmul_tn(r.u.columns(prev..cur), &w, par)) / fro(&w);
            let off = ub.max_abs_diff(&w) / fro(&w);
            assert!(along <= 1e-12, "block {i}: ||U_(i-1)^T w|| / ||w|| = {along:e}");
            assert!(off <= 1e-12, "block {i}: ||w - U_i B_i|| / ||w|| = {off:e}");
        }
    }
}
