//! Householder QR factorization and orthonormalization.
//!
//! Used for the `orth(...)` steps of RandQB_EI / RandUBV (Algorithm 1,
//! lines 5-10), the panel factorization `qr((A P_c)(:, 1:k))` of LU_CRTP
//! (Algorithm 2, line 6) and as the building block of TSQR.

use crate::householder::{self, LanePanel};
use crate::DenseMatrix;
use lra_par::Parallelism;

/// Compact Householder QR factorization `A = Q R`.
///
/// `factors` stores `R` in the upper triangle and the Householder
/// vectors (with implicit unit diagonal) below it, in the lane layout
/// the factorization ran in (`householder.rs`); `tau` stores the
/// reflector coefficients, LAPACK-style.
#[derive(Clone, Debug)]
pub struct QrFactor {
    factors: LanePanel,
    tau: Vec<f64>,
}

/// Compute the Householder QR factorization of `a`.
///
/// Unblocked (level-2) Householder QR: one reflector per column, applied
/// to the trailing columns of a lane panel — four columns to a vector,
/// up to sixteen columns' dot chains in flight, a run of lane groups to
/// a parallel chunk; a reflector that is mostly exact zeros is applied
/// through its nonzeros (see `householder.rs`). Every column's
/// arithmetic is the one-column formula in its order, for any worker
/// count.
pub fn qr(a: &DenseMatrix, par: Parallelism) -> QrFactor {
    let mut f = LanePanel::from_dense(a);
    let (m, r) = (a.rows(), a.rows().min(a.cols()));
    let mut tau = vec![0.0; r];
    let (mut v, mut support) = (vec![0.0; m], Vec::new());
    let mut tail_sq = None;
    for (j, tj) in tau.iter_mut().enumerate() {
        let v = &mut v[..m - j];
        *tj = f.make_reflector(j, v, tail_sq);
        tail_sq =
            householder::apply_reflector(Some(par), v, *tj, &mut f, j + 1, true, &mut support);
        f.put_reflector(j, v);
    }
    QrFactor { factors: f, tau }
}

/// Householder QR one column at a time through the one-column formula
/// — the bitwise reference for [`qr`]. Not part of the supported API
/// surface.
#[doc(hidden)]
pub fn qr_reference(a: &DenseMatrix) -> QrFactor {
    let mut f = a.clone();
    let m = f.rows();
    let r = m.min(f.cols());
    let mut tau = vec![0.0; r];
    for j in 0..r {
        let (head, trailing) = f.as_mut_slice().split_at_mut((j + 1) * m);
        let v = &mut head[j * m + j..];
        tau[j] = householder::make_householder(v);
        for col in trailing.chunks_exact_mut(m) {
            householder::apply(v, tau[j], &mut col[j..]);
        }
    }
    QrFactor {
        factors: LanePanel::from_dense(&f),
        tau,
    }
}

impl QrFactor {
    /// Row count of the factored matrix.
    pub fn rows(&self) -> usize {
        self.factors.rows()
    }

    /// Column count of the factored matrix.
    pub fn cols(&self) -> usize {
        self.factors.cols()
    }

    /// Number of reflectors, `min(m, n)`.
    fn rank_bound(&self) -> usize {
        self.tau.len()
    }

    /// The `min(m,n) x n` upper-triangular factor `R`.
    pub fn r(&self) -> DenseMatrix {
        let r = self.rank_bound();
        let mut out = DenseMatrix::zeros(r, self.cols());
        for j in 0..self.cols() {
            for (x, y) in out.col_mut(j).iter_mut().zip(self.factors.col(j, 0).take(j + 1)) {
                *x = y;
            }
        }
        out
    }

    /// Diagonal of `R` (signed), `|R(1,1)|` etc. feed the rank-revealing
    /// estimates in LU_CRTP / ILUT_CRTP.
    pub fn r_diag(&self) -> Vec<f64> {
        (0..self.rank_bound()).map(|j| self.factors.get(j, j)).collect()
    }

    /// Explicit thin `Q` (`m x min(m,n)`) with orthonormal columns.
    pub fn q_thin(&self, par: Parallelism) -> DenseMatrix {
        let r = self.rank_bound();
        let mut q = LanePanel::zeros(self.rows(), r);
        for i in 0..r {
            q.set(i, i, 1.0);
        }
        self.apply(&mut q, (0..r).rev(), par);
        q.to_dense()
    }

    /// `B <- Q B` (apply reflectors in reverse order).
    pub fn apply_q(&self, b: &mut DenseMatrix, par: Parallelism) {
        assert_eq!(b.rows(), self.rows(), "apply_q: row mismatch");
        let mut lanes = LanePanel::from_dense(b);
        self.apply(&mut lanes, (0..self.rank_bound()).rev(), par);
        *b = lanes.to_dense();
    }

    /// `B <- Q^T B` (apply reflectors in forward order).
    pub fn apply_qt(&self, b: &mut DenseMatrix, par: Parallelism) {
        assert_eq!(b.rows(), self.rows(), "apply_qt: row mismatch");
        let mut lanes = LanePanel::from_dense(b);
        self.apply(&mut lanes, 0..self.rank_bound(), par);
        *b = lanes.to_dense();
    }

    /// `B <- H_j B` for each reflector `j` of `order` (each acts on rows
    /// `j..`).
    fn apply(&self, b: &mut LanePanel, order: impl Iterator<Item = usize>, par: Parallelism) {
        let (mut v, mut support) = (Vec::with_capacity(self.rows()), Vec::new());
        for j in order {
            v.clear();
            v.extend(self.factors.col(j, j));
            householder::apply_reflector(Some(par), &v, self.tau[j], b, 0, false, &mut support);
        }
    }
}

/// Orthonormal basis for the range of `a`: the thin `Q` of its QR
/// factorization. Always returns exactly `min(m, n)` orthonormal
/// columns (Householder QR never breaks down, even for rank-deficient
/// input — extra columns then span an arbitrary complement, which is
/// the conventional `orth` behaviour the RandQB_EI algorithm relies on).
///
/// Tall inputs (`m >= 2n`) route through TSQR (the
/// `El::qr::ExplicitTS` equivalent) at every worker count; its
/// row-block decomposition is what lets the orthogonalization scale
/// with workers.
pub fn orth(a: &DenseMatrix, par: Parallelism) -> DenseMatrix {
    if a.rows() >= 2 * a.cols() && a.cols() > 0 {
        crate::tsqr::tsqr(a, par).q
    } else {
        qr(a, par).q_thin(par)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_tn};

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = rand_mat(20, 6, 1);
        let f = qr(&a, Parallelism::SEQ);
        let q = f.q_thin(Parallelism::SEQ);
        let r = f.r();
        let qr_prod = matmul(&q, &r, Parallelism::SEQ);
        assert!(qr_prod.max_abs_diff(&a) < 1e-12);
        assert!(q.orthogonality_error() < 1e-13);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let a = rand_mat(5, 12, 2);
        let f = qr(&a, Parallelism::SEQ);
        let q = f.q_thin(Parallelism::SEQ);
        let r = f.r();
        assert_eq!(q.cols(), 5);
        assert_eq!(r.rows(), 5);
        let qr_prod = matmul(&q, &r, Parallelism::SEQ);
        assert!(qr_prod.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn qr_parallel_matches_sequential() {
        let a = rand_mat(64, 24, 3);
        let fs = qr(&a, Parallelism::SEQ);
        let fp = qr(&a, Parallelism::new(4));
        assert!(fs.r().max_abs_diff(&fp.r()) < 1e-14);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = rand_mat(10, 7, 4);
        let r = qr(&a, Parallelism::SEQ).r();
        for j in 0..r.cols() {
            for i in j + 1..r.rows() {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn apply_qt_then_q_roundtrip() {
        let a = rand_mat(15, 5, 5);
        let f = qr(&a, Parallelism::SEQ);
        let b = rand_mat(15, 3, 6);
        let mut w = b.clone();
        f.apply_qt(&mut w, Parallelism::SEQ);
        f.apply_q(&mut w, Parallelism::SEQ);
        assert!(w.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn apply_qt_gives_r_on_input() {
        let a = rand_mat(12, 4, 7);
        let f = qr(&a, Parallelism::SEQ);
        let mut w = a.clone();
        f.apply_qt(&mut w, Parallelism::SEQ);
        let r = f.r();
        for j in 0..4 {
            for i in 0..4 {
                let expect = if i <= j { r.get(i, j) } else { 0.0 };
                assert!((w.get(i, j) - expect).abs() < 1e-12);
            }
            for i in 4..12 {
                assert!(w.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn orth_rank_deficient_still_orthonormal() {
        // Third column = first + second: rank 2, but orth must still
        // return 3 orthonormal columns spanning at least the range.
        let mut a = rand_mat(10, 3, 8);
        let c0: Vec<f64> = a.col(0).to_vec();
        let c1: Vec<f64> = a.col(1).to_vec();
        for i in 0..10 {
            a.col_mut(2)[i] = c0[i] + c1[i];
        }
        let q = orth(&a, Parallelism::SEQ);
        assert_eq!(q.cols(), 3);
        assert!(q.orthogonality_error() < 1e-12);
        // Range containment: residual of projecting a onto q is ~0.
        let proj = matmul(&q, &matmul_tn(&q, &a, Parallelism::SEQ), Parallelism::SEQ);
        assert!(proj.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn orth_zero_matrix() {
        let a = DenseMatrix::zeros(6, 2);
        let q = orth(&a, Parallelism::SEQ);
        assert_eq!(q.cols(), 2);
        // Q columns are unit vectors (reflectors were identity).
        assert!(q.orthogonality_error() < 1e-15);
    }

    #[test]
    fn householder_on_negative_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[-3.0], &[4.0]]);
        let f = qr(&a, Parallelism::SEQ);
        let r = f.r();
        assert!((r.get(0, 0).abs() - 5.0).abs() < 1e-14);
    }
}
