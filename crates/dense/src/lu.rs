//! Dense LU with partial pivoting.
//!
//! Used on the `k x k` pivot block `Ā11` of LU_CRTP to form
//! `L21 = Ā21 Ā11^{-1}` (Algorithm 2, line 10) and to apply
//! `Ā11^{-1} Ā12` inside the Schur complement update.

use crate::DenseMatrix;

/// LU factorization `P A = L U` with partial pivoting.
#[derive(Clone, Debug)]
pub struct LuFactor {
    lu: DenseMatrix,
    /// `piv[j]` = row swapped with row `j` at step `j`.
    piv: Vec<usize>,
    singular: bool,
}

/// Factorize the square matrix `a`.
pub fn lu(a: &DenseMatrix) -> LuFactor {
    let n = a.rows();
    assert_eq!(a.cols(), n, "lu: matrix must be square");
    let mut f = a.clone();
    let mut piv = Vec::with_capacity(n);
    let mut singular = false;
    for j in 0..n {
        // Pivot search in column j, rows j..n.
        let (p, mx) = {
            let col = f.col(j);
            let mut p = j;
            let mut mx = col[j].abs();
            for i in j + 1..n {
                let v = col[i].abs();
                if v > mx {
                    mx = v;
                    p = i;
                }
            }
            (p, mx)
        };
        piv.push(p);
        if mx == 0.0 {
            singular = true;
            continue;
        }
        if p != j {
            for c in 0..n {
                let col = f.col_mut(c);
                col.swap(j, p);
            }
        }
        let pivot = f.get(j, j);
        // Scale multipliers.
        {
            let col = f.col_mut(j);
            for i in j + 1..n {
                col[i] /= pivot;
            }
        }
        // Rank-1 trailing update.
        let mults: Vec<f64> = f.col(j)[j + 1..].to_vec();
        for c in j + 1..n {
            let ujc = f.get(j, c);
            if ujc == 0.0 {
                continue;
            }
            let col = &mut f.col_mut(c)[j + 1..];
            for (x, &m) in col.iter_mut().zip(&mults) {
                *x -= m * ujc;
            }
        }
    }
    LuFactor { lu: f, piv, singular }
}

impl LuFactor {
    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// True if a zero pivot was encountered (matrix numerically singular
    /// to working precision at some step).
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Estimate of the smallest pivot magnitude (0 when singular).
    pub fn min_pivot(&self) -> f64 {
        (0..self.n())
            .map(|j| self.lu.get(j, j).abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Solve `A X = B`; `B` is overwritten column by column.
    pub fn solve_in_place(&self, b: &mut DenseMatrix) {
        let n = self.n();
        assert_eq!(b.rows(), n);
        for c in 0..b.cols() {
            let col = b.col_mut(c);
            // Apply row swaps.
            for (j, &p) in self.piv.iter().enumerate() {
                if p != j {
                    col.swap(j, p);
                }
            }
            // Forward solve L y = Pb (unit lower).
            for j in 0..n {
                let yj = col[j];
                if yj == 0.0 {
                    continue;
                }
                for i in j + 1..n {
                    col[i] -= self.lu.get(i, j) * yj;
                }
            }
            // Back solve U x = y.
            for j in (0..n).rev() {
                let d = self.lu.get(j, j);
                col[j] /= d;
                let xj = col[j];
                if xj == 0.0 {
                    continue;
                }
                for i in 0..j {
                    col[i] -= self.lu.get(i, j) * xj;
                }
            }
        }
    }

    /// Solve `A^T x = b` for a single column slice in place (a row-wise
    /// right solve `x A = b` <=> `A^T x^T = b^T`).
    pub fn solve_transpose_slice(&self, col: &mut [f64]) {
        let n = self.n();
        assert_eq!(col.len(), n);
        // A^T = U^T L^T P, so solve U^T y = b, then L^T z = y, then
        // un-permute: x = P^T z (apply swaps in reverse).
        // Forward solve U^T y = b (U^T lower triangular).
        for j in 0..n {
            let mut s = col[j];
            for i in 0..j {
                s -= self.lu.get(i, j) * col[i];
            }
            col[j] = s / self.lu.get(j, j);
        }
        // Back solve L^T z = y (L^T unit upper triangular):
        // L^T(j, i) = L(i, j) for i > j.
        for j in (0..n).rev() {
            let mut s = col[j];
            for i in j + 1..n {
                s -= self.lu.get(i, j) * col[i];
            }
            col[j] = s;
        }
        // x = P^T z.
        for (j, &p) in self.piv.iter().enumerate().rev() {
            if p != j {
                col.swap(j, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;
    use lra_par::Parallelism;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn well_conditioned(n: usize, seed: u64) -> DenseMatrix {
        let mut a = rand_mat(n, n, seed);
        for i in 0..n {
            let v = a.get(i, i);
            a.set(i, i, v + n as f64); // diagonally dominant
        }
        a
    }

    #[test]
    fn solve_roundtrip() {
        let a = well_conditioned(9, 1);
        let f = lu(&a);
        assert!(!f.is_singular());
        let x_true = rand_mat(9, 3, 2);
        let b = matmul(&a, &x_true, Parallelism::SEQ);
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn solve_transpose_roundtrip() {
        let a = well_conditioned(7, 3);
        let f = lu(&a);
        let x_true = rand_mat(7, 2, 4);
        let b = matmul(&a.transpose(), &x_true, Parallelism::SEQ);
        let mut x = b.clone();
        for c in 0..x.cols() {
            f.solve_transpose_slice(x.col_mut(c));
        }
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = rand_mat(5, 5, 6);
        // Make row 3 a copy of row 1.
        for j in 0..5 {
            let v = a.get(1, j);
            a.set(3, j, v);
        }
        let f = lu(&a);
        assert!(f.is_singular() || f.min_pivot() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let f = lu(&a);
        assert!(!f.is_singular());
        let mut b = DenseMatrix::from_rows(&[&[2.0], &[3.0]]);
        f.solve_in_place(&mut b);
        assert!((b.get(0, 0) - 3.0).abs() < 1e-14);
        assert!((b.get(1, 0) - 2.0).abs() < 1e-14);
    }
}
