//! Column-pivoted QR (QRCP / "rank-revealing QR").
//!
//! The pivot sequence of QRCP on a panel equals the pivot sequence of
//! QRCP on its `R` factor, which is what each node of the tournament
//! (QR_TP, Section V of the paper) computes to pick the `k` "most
//! linearly independent" columns among its `2k` candidates.
//!
//! Standard unblocked Householder algorithm with squared-column-norm
//! downdating and the usual cancellation safeguard (recompute a column
//! norm exactly when the downdated estimate loses too much accuracy).

use crate::householder::{self, LanePanel};
use crate::DenseMatrix;

/// Result of a (possibly truncated) column-pivoted QR factorization.
#[derive(Clone, Debug)]
pub struct QrcpFactor {
    /// Householder factors of `A P` (R in the upper triangle).
    pub factors: DenseMatrix,
    /// Reflector coefficients.
    pub tau: Vec<f64>,
    /// `perm[p]` = original index of the column now in position `p`.
    pub perm: Vec<usize>,
    /// Number of factorization steps actually performed.
    pub steps: usize,
}

impl QrcpFactor {
    /// Signed diagonal of `R` for the performed steps; `|diag[0]|` is the
    /// rank-revealing estimate of `||A||_2` used by ILUT_CRTP (eq. 23).
    pub fn r_diag(&self) -> Vec<f64> {
        (0..self.steps).map(|j| self.factors.get(j, j)).collect()
    }

    /// The leading `steps x cols` upper-trapezoidal part of `R`.
    pub fn r(&self) -> DenseMatrix {
        let n = self.factors.cols();
        let mut out = DenseMatrix::zeros(self.steps, n);
        for j in 0..n {
            let lim = self.steps.min(j + 1);
            out.col_mut(j)[..lim].copy_from_slice(&self.factors.col(j)[..lim]);
        }
        out
    }

    /// Indices (into the original matrix) of the first `k` pivot columns.
    pub fn selected(&self, k: usize) -> Vec<usize> {
        self.perm[..k.min(self.perm.len())].to_vec()
    }
}

/// Column-pivoted QR of `a`, stopping after `max_steps` reflectors
/// (pass `usize::MAX` for a full factorization). The factorization runs
/// on a lane panel (`householder.rs`): a pivot swap exchanges two lanes,
/// each reflector is written below the diagonal of the column-major
/// `factors` as it is made, and the rest of `factors` is laid out once,
/// at the end.
pub fn qrcp(a: &DenseMatrix, max_steps: usize) -> QrcpFactor {
    let mut f = LanePanel::from_dense(a);
    let m = a.rows();
    let n = a.cols();
    let steps_cap = m.min(n).min(max_steps);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut tau = Vec::with_capacity(steps_cap);

    // Squared column norms, plus the originals for the safeguard.
    let mut norms: Vec<f64> = (0..n)
        .map(|j| a.col(j).iter().map(|v| v * v).sum())
        .collect();
    let mut norms_ref = norms.clone();
    let tol3z = f64::EPSILON.sqrt();

    let mut steps = 0;
    // Reflector `j` goes straight to its place below the diagonal of
    // the column-major `factors`, which is contiguous, as the kernels
    // read it; the rest is laid out from the panel at the end.
    let mut factors = DenseMatrix::zeros(m, n);
    let mut support = Vec::new();
    for j in 0..steps_cap {
        // Pivot: column with the largest remaining norm. `total_cmp`
        // orders finite non-negative norms as `partial_cmp` does and
        // still answers once overflowed squares have made a NaN: the
        // factorization goes on over non-finite columns and the
        // drivers' `is_finite` checks on `R`'s diagonal stop the run.
        let (pj, &max_norm) = norms[j..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(off, v)| (j + off, v))
            .expect("j < steps_cap <= n");
        if max_norm <= 0.0 {
            break; // exact rank deficiency: nothing left to factor
        }
        if pj != j {
            f.swap_cols(j, pj);
            perm.swap(j, pj);
            norms.swap(j, pj);
            norms_ref.swap(j, pj);
        }
        // Householder on column j, rows j..m.
        let v = &mut factors.col_mut(j)[j..];
        let tj = f.make_reflector(j, v, None);
        tau.push(tj);
        steps = j + 1;
        householder::apply_reflector(None, v, tj, &mut f, j + 1, false, &mut support);
        // Downdate trailing norms with the LAPACK dgeqp3 safeguard.
        for c in j + 1..n {
            if norms[c] == 0.0 {
                continue;
            }
            let rjc = f.get(j, c);
            let temp = (1.0 - (rjc * rjc) / norms[c]).max(0.0);
            let temp2 = temp * (norms[c] / norms_ref[c]).max(0.0);
            if temp2 <= tol3z {
                // Cancellation: recompute exactly from rows j+1..m.
                let exact: f64 = f.col(c, j + 1).map(|v| v * v).sum();
                norms[c] = exact;
                norms_ref[c] = exact;
            } else {
                norms[c] *= temp;
            }
        }
    }
    for j in 0..n {
        let rows = if j < steps { j } else { m };
        for (x, y) in factors.col_mut(j)[..rows].iter_mut().zip(f.col(j, 0)) {
            *x = y;
        }
    }
    QrcpFactor {
        factors,
        tau,
        perm,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;
    use crate::qr::qr;
    use lra_par::Parallelism;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn qrcp_reconstructs_permuted_input() {
        let a = rand_mat(12, 8, 1);
        let f = qrcp(&a, usize::MAX);
        // Build Q from the compact factors via qr machinery: apply
        // reflectors to identity manually.
        let ap = a.select_columns(&f.perm);
        // Verify R^T R == (A P)^T (A P) (Q orthonormal implies Gram match).
        let r = f.r();
        let g1 = crate::blas::matmul_tn(&r, &r, Parallelism::SEQ);
        let g2 = crate::blas::matmul_tn(&ap, &ap, Parallelism::SEQ);
        assert!(g1.max_abs_diff(&g2) < 1e-11);
    }

    #[test]
    fn r_diagonal_is_nonincreasing() {
        let a = rand_mat(30, 10, 2);
        let f = qrcp(&a, usize::MAX);
        let d = f.r_diag();
        for w in d.windows(2) {
            assert!(
                w[0].abs() >= w[1].abs() - 1e-12,
                "diagonal must decrease: {:?}",
                d
            );
        }
    }

    #[test]
    fn leading_r_entry_close_to_spectral_norm_lower_bound() {
        // |R(1,1)| = max column norm <= ||A||_2 (eq. 23 in the paper).
        let a = rand_mat(20, 6, 3);
        let f = qrcp(&a, usize::MAX);
        let max_col_norm = (0..6)
            .map(|j| a.col(j).iter().map(|v| v * v).sum::<f64>().sqrt())
            .fold(0.0f64, f64::max);
        assert!((f.r_diag()[0].abs() - max_col_norm).abs() < 1e-12);
    }

    #[test]
    fn truncated_steps() {
        let a = rand_mat(20, 10, 4);
        let f = qrcp(&a, 3);
        assert_eq!(f.steps, 3);
        assert_eq!(f.selected(3).len(), 3);
        let sel = f.selected(3);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "pivots must be distinct");
    }

    #[test]
    fn rank_deficient_stops_early() {
        // Rank-2 matrix from two outer products.
        let u = rand_mat(15, 2, 5);
        let v = rand_mat(6, 2, 6);
        let a = matmul(&u, &v.transpose(), Parallelism::SEQ);
        let f = qrcp(&a, usize::MAX);
        let d = f.r_diag();
        assert!(d.len() >= 2);
        for &x in &d[2..] {
            assert!(x.abs() < 1e-10, "trailing diagonal should vanish: {d:?}");
        }
    }

    #[test]
    fn pivots_match_qrcp_of_r() {
        // The tournament invariant: QRCP pivots of A equal QRCP pivots
        // of R where A = QR (R from unpivoted QR).
        let a = rand_mat(40, 8, 7);
        let r = qr(&a, Parallelism::SEQ).r();
        let fa = qrcp(&a, usize::MAX);
        let fr = qrcp(&r, usize::MAX);
        assert_eq!(fa.perm, fr.perm);
    }

    #[test]
    fn zero_matrix_selects_nothing() {
        let a = DenseMatrix::zeros(5, 4);
        let f = qrcp(&a, usize::MAX);
        assert_eq!(f.steps, 0);
        assert!(f.r_diag().is_empty());
    }
}
