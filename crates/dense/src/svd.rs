//! Singular value computation: Golub-Kahan bidiagonalization followed by
//! bidiagonal QR iteration (shifted, with zero-shift fallback, after
//! LAPACK's `dbdsqr`).
//!
//! This is the "TSVD" reference the paper uses to compute the *minimum
//! rank required* for a given approximation quality (Figs. 2 and 3):
//! with singular values `s`, the minimum rank for tolerance `tau` is the
//! smallest `K` with `sqrt(sum_{j>K} s_j^2) < tau * ||A||_F`.

use crate::householder::{self, make_householder};
use crate::DenseMatrix;

/// Reduce `a` (any shape) to upper-bidiagonal form; returns
/// `(d, e)` where `d` is the diagonal (length `min(m,n)`) and `e` the
/// superdiagonal (length `min(m,n) - 1`). Values only (no U/V).
pub fn bidiagonalize(a: &DenseMatrix) -> (Vec<f64>, Vec<f64>) {
    // Work on a copy with m >= n.
    let mut w = if a.rows() >= a.cols() {
        a.clone()
    } else {
        a.transpose()
    };
    let m = w.rows();
    let n = w.cols();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n.saturating_sub(1)];
    let mut support = Vec::new();
    for j in 0..n {
        // Left Householder: eliminate below-diagonal entries of column j.
        let tau_l = make_householder(&mut w.col_mut(j)[j..]);
        let (head, trailing) = w.as_mut_slice().split_at_mut((j + 1) * m);
        let v = &head[j * m + j..];
        householder::apply_reflector(None, v, tau_l, trailing, m, j, &mut support);
        d[j] = w.get(j, j);
        if j + 1 < n {
            // Right Householder: eliminate entries right of the
            // superdiagonal in row j. Operate on the row slice.
            let mut row: Vec<f64> = (j + 1..n).map(|c| w.get(j, c)).collect();
            let tau_r = make_householder(&mut row);
            // Write back the transformed row (beta then zeros implicit,
            // but keep reflector entries for applying to rows below).
            e[j] = row[0];
            if tau_r != 0.0 {
                // Apply the right reflector `v = [1, row[1..]]` (over
                // columns j+1..n) to rows j+1..m, column-major:
                // s = tau_r * W[j+1.., j+1..] v, then W -= s v^T.
                let vtail = row[1..].to_vec();
                let rows_below = m - (j + 1);
                let mut s = vec![0.0f64; rows_below];
                s.copy_from_slice(&w.col(j + 1)[j + 1..]);
                for (t, &vv) in vtail.iter().enumerate() {
                    let col = &w.col(j + 2 + t)[j + 1..];
                    for (si, &ci) in s.iter_mut().zip(col) {
                        *si += vv * ci;
                    }
                }
                for si in s.iter_mut() {
                    *si *= tau_r;
                }
                {
                    let col = &mut w.col_mut(j + 1)[j + 1..];
                    for (ci, &si) in col.iter_mut().zip(&s) {
                        *ci -= si;
                    }
                }
                for (t, &vv) in vtail.iter().enumerate() {
                    let col = &mut w.col_mut(j + 2 + t)[j + 1..];
                    for (ci, &si) in col.iter_mut().zip(&s) {
                        *ci -= si * vv;
                    }
                }
            }
            // Zero the eliminated entries explicitly (for clarity; they
            // are not read again).
            for c in j + 2..n {
                w.set(j, c, 0.0);
            }
        }
    }
    (d, e)
}

/// Givens rotation `[c s; -s c] [f; g] = [r; 0]` (LAPACK `dlartg` lite).
#[inline]
fn rotg(f: f64, g: f64) -> (f64, f64, f64) {
    if g == 0.0 {
        (1.0, 0.0, f)
    } else if f == 0.0 {
        (0.0, 1.0, g)
    } else {
        let r = f.hypot(g).copysign(f);
        (f / r, g / r, r)
    }
}

/// Smallest singular value of the 2x2 upper-triangular `[f g; 0 h]`
/// (LAPACK `dlas2`).
fn smallest_sv_2x2(f: f64, g: f64, h: f64) -> f64 {
    let fa = f.abs();
    let ga = g.abs();
    let ha = h.abs();
    let fhmn = fa.min(ha);
    let fhmx = fa.max(ha);
    if fhmn == 0.0 {
        return 0.0;
    }
    if ga < fhmx {
        let as_ = 1.0 + fhmn / fhmx;
        let at = (fhmx - fhmn) / fhmx;
        let au = (ga / fhmx) * (ga / fhmx);
        let c = 2.0 / ((as_ * as_ + au).sqrt() + (at * at + au).sqrt());
        fhmn * c
    } else {
        let au = fhmx / ga;
        if au == 0.0 {
            (fhmn * fhmx) / ga
        } else {
            let as_ = 1.0 + fhmn / fhmx;
            let at = (fhmx - fhmn) / fhmx;
            let c = 1.0
                / ((1.0 + (as_ * au) * (as_ * au)).sqrt()
                    + (1.0 + (at * au) * (at * au)).sqrt());
            2.0 * (fhmn * c) * au
        }
    }
}

/// Singular values of an upper-bidiagonal matrix, descending.
///
/// Shifted bidiagonal QR (forward sweeps) with a zero-shift fallback for
/// accuracy on tiny singular values; simplified from LAPACK `dbdsqr`.
pub fn bidiagonal_svd_values(mut d: Vec<f64>, mut e: Vec<f64>) -> Vec<f64> {
    let n = d.len();
    if n == 0 {
        return Vec::new();
    }
    assert_eq!(e.len(), n - 1, "superdiagonal length must be n-1");
    let eps = f64::EPSILON;
    let tol = 100.0 * eps;
    let maxit = 30usize.saturating_mul(n).saturating_mul(n).max(200);
    let mut iters = 0usize;

    let mut m = n; // active block is d[..m]
    while m > 1 {
        // Deflate negligible superdiagonal entries.
        for i in 0..m - 1 {
            if e[i].abs() <= tol * (d[i].abs() + d[i + 1].abs()) {
                e[i] = 0.0;
            }
        }
        // Shrink from the bottom.
        if e[m - 2] == 0.0 {
            m -= 1;
            continue;
        }
        if iters >= maxit {
            // Convergence stall (pathological input): accept current
            // values; they are still correct to roughly sqrt(eps).
            break;
        }
        iters += 1;
        // Active block [ll .. m-1] with nonzero couplings.
        let mut ll = m - 2;
        while ll > 0 && e[ll - 1] != 0.0 {
            ll -= 1;
        }
        // 2x2 block: solve directly.
        if m - ll == 2 {
            let (smin, smax) = svd_2x2(d[ll], e[ll], d[ll + 1]);
            d[ll] = smax;
            d[ll + 1] = smin;
            e[ll] = 0.0;
            continue;
        }
        // Shift from the trailing 2x2; fall back to zero shift when it
        // would wipe out relative accuracy.
        let sll = d[ll].abs();
        let shift = smallest_sv_2x2(d[m - 2], e[m - 2], d[m - 1]);
        // Zero shift when the shift vanishes, when the leading diagonal
        // entry is zero (the shifted sweep divides by d[ll]), or when
        // shifting would destroy relative accuracy.
        let use_zero_shift =
            shift == 0.0 || sll == 0.0 || (shift / sll) * (shift / sll) < eps;
        if use_zero_shift {
            // Demmel-Kahan zero-shift sweep (dbdsqr, IDIR=1 branch).
            let mut cs = 1.0f64;
            let mut oldcs = 1.0f64;
            let mut oldsn = 0.0f64;
            for i in ll..m - 1 {
                let (c1, s1, r) = rotg(d[i] * cs, e[i]);
                cs = c1;
                let sn = s1;
                if i > ll {
                    e[i - 1] = oldsn * r;
                }
                let (c2, s2, r2) = rotg(oldcs * r, d[i + 1] * sn);
                oldcs = c2;
                oldsn = s2;
                d[i] = r2;
            }
            let h = d[m - 1] * cs;
            d[m - 1] = h * oldcs;
            e[m - 2] = h * oldsn;
        } else {
            // Shifted sweep (dbdsqr, forward direction).
            let mut f = (d[ll].abs() - shift) * (1.0f64.copysign(d[ll]) + shift / d[ll]);
            let mut g = e[ll];
            for i in ll..m - 1 {
                let (cosr, sinr, r) = rotg(f, g);
                if i > ll {
                    e[i - 1] = r;
                }
                f = cosr * d[i] + sinr * e[i];
                e[i] = cosr * e[i] - sinr * d[i];
                g = sinr * d[i + 1];
                d[i + 1] *= cosr;
                let (cosl, sinl, r2) = rotg(f, g);
                d[i] = r2;
                f = cosl * e[i] + sinl * d[i + 1];
                d[i + 1] = cosl * d[i + 1] - sinl * e[i];
                if i < m - 2 {
                    g = sinl * e[i + 1];
                    e[i + 1] *= cosl;
                }
            }
            e[m - 2] = f;
        }
    }
    let mut s: Vec<f64> = d.into_iter().map(f64::abs).collect();
    s.sort_by(|a, b| b.partial_cmp(a).unwrap());
    s
}

/// Both singular values of the 2x2 upper-triangular `[f g; 0 h]`,
/// returned `(smin, smax)` (LAPACK `dlas2` formulas).
fn svd_2x2(f: f64, g: f64, h: f64) -> (f64, f64) {
    let fa = f.abs();
    let ga = g.abs();
    let ha = h.abs();
    let fhmn = fa.min(ha);
    let fhmx = fa.max(ha);
    if fhmn == 0.0 {
        let smax = if fhmx == 0.0 {
            ga
        } else {
            // One diagonal zero: values are the 2-norm and 0... max is
            // hypot-based bound.
            let r = fhmx.max(ga);
            let q = fhmx.min(ga) / r;
            r * (1.0 + q * q).sqrt()
        };
        return (0.0, smax);
    }
    let smin = smallest_sv_2x2(f, g, h);
    // smax * smin = |f h| (determinant), smax from that when smin > 0.
    let smax = if smin > 0.0 {
        (fa * ha) / smin
    } else {
        (fa.max(ga).max(ha)) * std::f64::consts::SQRT_2
    };
    (smin, smax)
}

/// All singular values of `a`, descending.
pub fn singular_values(a: &DenseMatrix) -> Vec<f64> {
    if a.rows() == 0 || a.cols() == 0 {
        return Vec::new();
    }
    let (d, e) = bidiagonalize(a);
    bidiagonal_svd_values(d, e)
}

/// Minimum rank `K` such that `sqrt(sum_{j>K} s_j^2) < tau * ||A||_F`,
/// given the singular values `s` (descending). This is the "minimum rank
/// required" series of Figs. 2-3.
pub fn min_rank_for_tolerance(s: &[f64], tau: f64) -> usize {
    let total_sq: f64 = s.iter().map(|v| v * v).sum();
    let target = tau * tau * total_sq;
    let mut tail = total_sq;
    for (k, &sv) in s.iter().enumerate() {
        if tail < target {
            return k;
        }
        tail -= sv * sv;
    }
    s.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi_svd;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn diagonal_matrix_exact() {
        let vals = [5.0, 3.0, 1.0, 0.5];
        let a = DenseMatrix::from_fn(4, 4, |i, j| if i == j { vals[i] } else { 0.0 });
        let s = singular_values(&a);
        for (x, y) in s.iter().zip(vals.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_jacobi_random() {
        for seed in [1u64, 2, 3] {
            let a = rand_mat(15, 9, seed);
            let s1 = singular_values(&a);
            let (_, s2, _) = jacobi_svd(&a);
            assert_eq!(s1.len(), 9);
            for (x, y) in s1.iter().zip(s2.iter()) {
                assert!((x - y).abs() < 1e-10 * (1.0 + y), "seed={seed} {s1:?} {s2:?}");
            }
        }
    }

    #[test]
    fn matches_jacobi_wide() {
        let a = rand_mat(6, 14, 4);
        let s1 = singular_values(&a);
        let (_, s2, _) = jacobi_svd(&a.transpose());
        for (x, y) in s1.iter().zip(s2.iter()) {
            assert!((x - y).abs() < 1e-10 * (1.0 + y));
        }
    }

    #[test]
    fn frobenius_identity() {
        let a = rand_mat(20, 12, 5);
        let s = singular_values(&a);
        let sum_sq: f64 = s.iter().map(|v| v * v).sum();
        assert!((sum_sq - a.fro_norm_sq()).abs() < 1e-9 * a.fro_norm_sq());
    }

    #[test]
    fn rank_deficient_has_zero_tail() {
        let u = rand_mat(20, 3, 6);
        let v = rand_mat(8, 3, 7);
        let a = crate::blas::matmul(&u, &v.transpose(), lra_par::Parallelism::SEQ);
        let s = singular_values(&a);
        assert!(s[3] < 1e-10 * s[0], "{s:?}");
    }

    #[test]
    fn known_spectrum_via_orthogonal_factors() {
        // A = Q1 * diag(sig) * Q2^T with Householder-orthogonal Q's.
        let sig = [4.0, 2.0, 1.0, 0.25, 0.0625];
        let q1 = crate::qr::orth(&rand_mat(12, 5, 8), lra_par::Parallelism::SEQ);
        let q2 = crate::qr::orth(&rand_mat(9, 5, 9), lra_par::Parallelism::SEQ);
        let mut d = DenseMatrix::zeros(5, 5);
        for i in 0..5 {
            d.set(i, i, sig[i]);
        }
        let a = crate::blas::matmul(
            &crate::blas::matmul(&q1, &d, lra_par::Parallelism::SEQ),
            &q2.transpose(),
            lra_par::Parallelism::SEQ,
        );
        let s = singular_values(&a);
        for (x, y) in s.iter().zip(sig.iter()) {
            assert!((x - y).abs() < 1e-11, "{s:?}");
        }
    }

    #[test]
    fn min_rank_for_tolerance_basics() {
        let s = [10.0, 1.0, 0.1, 0.01];
        // tau=0.5: tail after K=1 is sqrt(1+0.01+0.0001) ~ 1.005 vs
        // 0.5*||A||_F ~ 5.02 -> K=1 suffices.
        assert_eq!(min_rank_for_tolerance(&s, 0.5), 1);
        // Very tight tau needs everything.
        assert_eq!(min_rank_for_tolerance(&s, 1e-12), 4);
        // tau >= 1 needs nothing.
        assert_eq!(min_rank_for_tolerance(&s, 1.5), 0);
    }

    #[test]
    fn clustered_singular_values_converge() {
        // Nearly equal singular values stress the QR iteration.
        let q1 = crate::qr::orth(&rand_mat(10, 6, 10), lra_par::Parallelism::SEQ);
        let q2 = crate::qr::orth(&rand_mat(8, 6, 11), lra_par::Parallelism::SEQ);
        let sig = [1.0, 1.0 - 1e-10, 1.0 - 2e-10, 0.5, 0.5 + 1e-12, 0.1];
        let mut d = DenseMatrix::zeros(6, 6);
        for i in 0..6 {
            d.set(i, i, sig[i]);
        }
        let a = crate::blas::matmul(
            &crate::blas::matmul(&q1, &d, lra_par::Parallelism::SEQ),
            &q2.transpose(),
            lra_par::Parallelism::SEQ,
        );
        let s = singular_values(&a);
        let mut expect = sig.to_vec();
        expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (x, y) in s.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-8, "{s:?}");
        }
    }
}
