//! Householder QR factorization and orthonormalization.
//!
//! Used for the `orth(...)` steps of RandQB_EI / RandUBV (Algorithm 1,
//! lines 5-10), the panel factorization `qr((A P_c)(:, 1:k))` of LU_CRTP
//! (Algorithm 2, line 6) and as the building block of TSQR.

use crate::{householder, DenseMatrix};
use lra_par::Parallelism;

/// Compact Householder QR factorization `A = Q R`.
///
/// `factors` stores `R` in the upper triangle and the Householder
/// vectors (with implicit unit diagonal) below it; `tau` stores the
/// reflector coefficients, LAPACK-style.
#[derive(Clone, Debug)]
pub struct QrFactor {
    factors: DenseMatrix,
    tau: Vec<f64>,
}

/// Compute the Householder QR factorization of `a`.
///
/// Unblocked (level-2) Householder QR: one reflector per column, applied
/// to the trailing columns a group at a time — the groups are the
/// parallel chunks, and inside one the columns' dot chains overlap; a
/// reflector that is mostly exact zeros is applied through its nonzeros
/// (see `householder.rs`). Every column's arithmetic is the one-column
/// formula in its order, for any worker count.
pub fn qr(a: &DenseMatrix, par: Parallelism) -> QrFactor {
    let mut f = a.clone();
    let m = f.rows();
    let n = f.cols();
    let r = m.min(n);
    let mut tau = vec![0.0; r];
    let mut support = Vec::new();
    for j in 0..r {
        // Generate reflector from column j, rows j..m.
        let tj = householder::make_householder(&mut f.col_mut(j)[j..]);
        tau[j] = tj;
        // The reflector lives in column j of the head half, the
        // trailing columns it updates in the tail half.
        let (head, trailing) = f.as_mut_slice().split_at_mut((j + 1) * m);
        let v = &head[j * m + j..];
        householder::apply_reflector(Some(par), v, tj, trailing, m, j, &mut support);
    }
    QrFactor { factors: f, tau }
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
    pub fn rank_bound(&self) -> usize {
        self.tau.len()
    }

    /// The `min(m,n) x n` upper-triangular factor `R`.
    pub fn r(&self) -> DenseMatrix {
        let r = self.rank_bound();
        let n = self.cols();
        let mut out = DenseMatrix::zeros(r, n);
        for j in 0..n {
            let lim = r.min(j + 1);
            let src = &self.factors.col(j)[..lim];
            out.col_mut(j)[..lim].copy_from_slice(src);
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
        let m = self.rows();
        let r = self.rank_bound();
        let mut q = DenseMatrix::zeros(m, r);
        for i in 0..r {
            q.set(i, i, 1.0);
        }
        self.apply_q(&mut q, par);
        q
    }

    /// `B <- Q B` (apply reflectors in reverse order).
    pub fn apply_q(&self, b: &mut DenseMatrix, par: Parallelism) {
        assert_eq!(b.rows(), self.rows(), "apply_q: row mismatch");
        let mut support = Vec::new();
        for j in (0..self.rank_bound()).rev() {
            self.apply_reflector(j, b, par, &mut support);
        }
    }

    /// `B <- Q^T B` (apply reflectors in forward order).
    pub fn apply_qt(&self, b: &mut DenseMatrix, par: Parallelism) {
        assert_eq!(b.rows(), self.rows(), "apply_qt: row mismatch");
        let mut support = Vec::new();
        for j in 0..self.rank_bound() {
            self.apply_reflector(j, b, par, &mut support);
        }
    }

    /// `B <- H_j B` for reflector `j` (acts on rows `j..`).
    fn apply_reflector(
        &self,
        j: usize,
        b: &mut DenseMatrix,
        par: Parallelism,
        support: &mut Vec<(usize, f64)>,
    ) {
        let v = &self.factors.col(j)[j..];
        let (tau, m) = (self.tau[j], self.rows());
        householder::apply_reflector(Some(par), v, tau, b.as_mut_slice(), m, j, support);
    }
}

/// Orthonormal basis for the range of `a`: the thin `Q` of its QR
/// factorization. Always returns exactly `min(m, n)` orthonormal
/// columns (Householder QR never breaks down, even for rank-deficient
/// input — extra columns then span an arbitrary complement, which is
/// the conventional `orth` behaviour the RandQB_EI algorithm relies on).
///
/// Tall inputs under parallel execution route through TSQR (the
/// `El::qr::ExplicitTS` equivalent), whose row-block decomposition is
/// what lets the orthogonalization scale with workers.
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
