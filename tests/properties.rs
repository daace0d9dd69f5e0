//! Property-based tests (proptest) over the core numerical invariants
//! and the durability of the checkpoint envelope format.

use lra::core::{
    lu_crtp, rand_qb_ei, rand_ubv, Checkpoint, CheckpointStore, LuCrtpOpts, Parallelism, QbOpts,
    SectionReader, SectionWriter, UbvOpts,
};
use lra::obs::Json;
use lra::dense::{
    matmul, matmul_naive, matmul_nt, matmul_nt_naive, matmul_sub_assign, matmul_sub_assign_naive,
    matmul_tn, matmul_tn_naive, orth, qr, qrcp, singular_values, tsqr, tsqr_r, DenseMatrix,
};
use lra::sparse::{spgemm, spmm_dense, CooMatrix, CscMatrix};
use proptest::prelude::*;

mod common;
use common::{bits_eq, counter};

/// Strategy: a random dense matrix with bounded entries.
fn dense_mat(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| DenseMatrix::from_column_major(r, c, data))
    })
}

/// Strategy: a random sparse matrix as COO triplets.
fn sparse_mat(max_dim: usize) -> impl Strategy<Value = CscMatrix> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(r, c)| {
        let n_entries = (r * c / 3).clamp(1, 200);
        proptest::collection::vec(
            (0..r, 0..c, -5.0f64..5.0),
            1..=n_entries,
        )
        .prop_map(move |trip| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in trip {
                coo.push(i, j, v);
            }
            coo.to_csc()
        })
    })
}

/// Strategy: a COO matrix with *unique* positions and nonzero values —
/// the precondition for exact format round-trips (the compressed
/// formats sum duplicate positions and drop exact zeros).
fn unique_coo(max_dim: usize) -> impl Strategy<Value = CooMatrix> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(|(r, c)| {
        let n = (r * c / 2).clamp(1, 150);
        proptest::collection::vec((0..r * c, 0.1f64..5.0), 1..=n).prop_map(move |raw| {
            let mut seen = std::collections::BTreeMap::new();
            for (lin, v) in raw {
                seen.entry(lin).or_insert(v);
            }
            let mut coo = CooMatrix::new(r, c);
            for (lin, v) in seen {
                let sign = if lin % 2 == 0 { 1.0 } else { -1.0 };
                coo.push(lin % r, lin / r, sign * v);
            }
            coo
        })
    })
}

/// Canonical (col-major sorted) triplet list of a COO matrix.
fn canon_triplets(c: &CooMatrix) -> Vec<(usize, usize, f64)> {
    let mut t = c.triplets().to_vec();
    t.sort_by_key(|&(r, c, _)| (c, r));
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csc_coo_preserves_triples(coo in unique_coo(18)) {
        let back = coo.to_csc().to_coo();
        prop_assert_eq!(back.rows(), coo.rows());
        prop_assert_eq!(back.cols(), coo.cols());
        // Exact equality, values included: no rounding anywhere in the
        // conversion chain.
        prop_assert_eq!(canon_triplets(&back), canon_triplets(&coo));
    }

    #[test]
    fn spmm_within_normwise_bound(pair in unique_coo(15).prop_flat_map(|coo| {
        let a = coo.to_csc();
        let (r, c) = (a.cols(), 6usize);
        proptest::collection::vec(-3.0f64..3.0, r * c)
            .prop_map(move |data| (a.clone(), DenseMatrix::from_column_major(r, c, data)))
    })) {
        let (a, b) = pair;
        let c = spmm_dense(&a, &b, Parallelism::new(2));
        let c_ref = matmul(&a.to_dense(), &b, Parallelism::SEQ);
        let diff = DenseMatrix::from_fn(c.rows(), c.cols(), |i, j| {
            c.get(i, j) - c_ref.get(i, j)
        });
        prop_assert!(
            diff.fro_norm() <= 1e-12 * a.fro_norm() * b.fro_norm(),
            "||C - C_ref||_F = {} vs bound {}",
            diff.fro_norm(),
            1e-12 * a.fro_norm() * b.fro_norm()
        );
    }

    #[test]
    fn spgemm_within_normwise_bound(pair in (unique_coo(14), unique_coo(14)).prop_map(|(x, y)| {
        let a = x.to_csc();
        // Rebuild y's entries into a shape-compatible right factor.
        let mut coo = CooMatrix::new(a.cols(), y.cols());
        for &(i, j, v) in y.triplets() {
            coo.push(i % a.cols(), j, v);
        }
        (a, coo.to_csc())
    })) {
        let (a, b) = pair;
        let c = spgemm(&a, &b, Parallelism::new(2));
        let c_ref = matmul(&a.to_dense(), &b.to_dense(), Parallelism::SEQ);
        let diff = DenseMatrix::from_fn(c.rows(), c.cols(), |i, j| {
            c.get(i, j) - c_ref.get(i, j)
        });
        prop_assert!(diff.fro_norm() <= 1e-12 * a.fro_norm() * b.fro_norm());
    }

    #[test]
    fn qr_reconstructs(a in dense_mat(20, 12)) {
        let f = qr(&a, Parallelism::SEQ);
        let q = f.q_thin(Parallelism::SEQ);
        let r = f.r();
        let back = matmul(&q, &r, Parallelism::SEQ);
        prop_assert!(back.max_abs_diff(&a) < 1e-9 * (1.0 + a.max_abs()));
        prop_assert!(q.orthogonality_error() < 1e-11);
    }

    #[test]
    fn tsqr_equals_qr_gram(a in dense_mat(60, 6)) {
        let t = tsqr(&a, Parallelism::new(3));
        let back = matmul(&t.q, &t.r, Parallelism::SEQ);
        prop_assert!(back.max_abs_diff(&a) < 1e-9 * (1.0 + a.max_abs()));
        let g1 = matmul_tn(&t.r, &t.r, Parallelism::SEQ);
        let g2 = matmul_tn(&a, &a, Parallelism::SEQ);
        prop_assert!(g1.max_abs_diff(&g2) < 1e-8 * (1.0 + g2.max_abs()));
    }

    #[test]
    fn qrcp_diagonal_monotone(a in dense_mat(16, 10)) {
        let f = qrcp(&a, usize::MAX);
        let d = f.r_diag();
        for w in d.windows(2) {
            prop_assert!(w[0].abs() + 1e-12 >= w[1].abs());
        }
    }

    #[test]
    fn orth_spans_range(a in dense_mat(15, 6)) {
        let q = orth(&a, Parallelism::SEQ);
        // Projection of A onto span(Q) equals A.
        let proj = matmul(&q, &matmul_tn(&q, &a, Parallelism::SEQ), Parallelism::SEQ);
        prop_assert!(proj.max_abs_diff(&a) < 1e-9 * (1.0 + a.max_abs()));
    }

    #[test]
    fn spgemm_matches_dense(a in sparse_mat(15), b in sparse_mat(15)) {
        // Make shapes compatible: use b with compatible rows by
        // reshaping via transpose trick when needed.
        let bt = if b.rows() == a.cols() { b.clone() } else {
            // Build a compatible random-ish matrix from b's entries.
            let mut coo = CooMatrix::new(a.cols(), b.cols());
            for j in 0..b.cols() {
                let (ri, vs) = b.col(j);
                for (&r, &v) in ri.iter().zip(vs) {
                    coo.push(r % a.cols(), j, v);
                }
            }
            coo.to_csc()
        };
        let c = spgemm(&a, &bt, Parallelism::new(2));
        let c_ref = matmul(&a.to_dense(), &bt.to_dense(), Parallelism::SEQ);
        prop_assert!(c.to_dense().max_abs_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn sparse_transpose_involution(a in sparse_mat(20)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        // Frobenius norm invariant under transpose.
        prop_assert!((a.fro_norm() - a.transpose().fro_norm()).abs() < 1e-12);
    }

    #[test]
    fn drop_below_conserves_mass(a in sparse_mat(20), thr in 0.0f64..5.0) {
        let (kept, dropped_sq, count) = a.drop_below(thr);
        prop_assert_eq!(kept.nnz() + count, a.nnz());
        let total = a.fro_norm_sq();
        let after = kept.fro_norm_sq() + dropped_sq;
        prop_assert!((total - after).abs() < 1e-9 * (1.0 + total));
        // Everything kept is >= thr in magnitude.
        for j in 0..kept.cols() {
            let (_, vs) = kept.col(j);
            for &v in vs {
                prop_assert!(v.abs() >= thr);
            }
        }
    }

    #[test]
    fn permutation_roundtrip(a in sparse_mat(15), seed in 0u64..1000) {
        let n = a.cols();
        let m = a.rows();
        // Deterministic pseudo-random permutations from the seed.
        let mut cp: Vec<usize> = (0..n).collect();
        let mut rp: Vec<usize> = (0..m).collect();
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            cp.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for i in (1..m).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            rp.swap(i, (s % (i as u64 + 1)) as usize);
        }
        // Apply and invert.
        let ap = a.select_columns(&cp);
        let mut inv_cp = vec![0usize; n];
        for (new, &old) in cp.iter().enumerate() {
            inv_cp[old] = new;
        }
        let back_cols: Vec<usize> = (0..n).map(|j| inv_cp[j]).collect();
        prop_assert_eq!(ap.select_columns(&back_cols), a.clone());

        // permute_rows(rp) then permute_rows(inverse) is identity when
        // inverse[new] = old with rp[old] = new.
        let arp = a.permute_rows(&rp);
        let mut inverse = vec![0usize; m];
        for (old, &new) in rp.iter().enumerate() {
            inverse[new] = old;
        }
        prop_assert_eq!(arp.permute_rows(&inverse), a.clone());
    }

    #[test]
    fn singular_values_scale_equivariant(a in dense_mat(12, 8), alpha in 0.1f64..10.0) {
        let s1 = singular_values(&a);
        let mut b = a.clone();
        b.scale(alpha);
        let s2 = singular_values(&b);
        for (x, y) in s1.iter().zip(&s2) {
            prop_assert!((alpha * x - y).abs() < 1e-8 * (1.0 + y));
        }
    }

    #[test]
    fn spmm_matches_dense_reference(a in sparse_mat(15)) {
        let d = DenseMatrix::from_fn(a.cols(), 3, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let c = spmm_dense(&a, &d, Parallelism::new(2));
        let c_ref = matmul(&a.to_dense(), &d, Parallelism::SEQ);
        prop_assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }
}

/// Deterministic dense operand; every fourth entry is an exact zero so
/// the bitwise kernel's zero-skip sweep is taken as well, and a few are
/// `-0.0`, which a skipped and an added `0.0 * a` treat differently.
fn gemm_operand(rows: usize, cols: usize, salt: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let h = (i * 31 + j * 17 + salt * 7) % 97;
        match h {
            _ if h.is_multiple_of(4) => 0.0,
            13 | 58 => -0.0,
            _ => h as f64 / 9.7 - 5.0,
        }
    })
}

/// The blocked GEMM family is bitwise the naive loops for every worker
/// count: at output widths on both sides of the 4-column tile, the
/// 64-column sweep block and a ragged last tile (the GEMM half of
/// `crates/dense/tests/blocked_kernels.rs`, which tier-1 never runs),
/// and — the row-block tasks of `gemm_blocked` — at heights on both
/// sides of the 8-row panel and the 256-row block, with a ragged last
/// panel, several blocks per worker (m = 600) and more workers than
/// row blocks (m <= 8 is one block).
#[test]
fn blocked_gemm_matches_naive_bitwise_for_every_np_and_width() {
    let k = 23;
    let widths = [1usize, 7, 8, 33, 64, 65, 130].map(|n| (19usize, n));
    let heights = [1usize, 7, 8, 9, 255, 256, 257, 600];
    let heights = heights.into_iter().flat_map(|m| [1usize, 4, 33, 65].map(|n| (m, n)));
    for (m, n) in widths.into_iter().chain(heights) {
        let a = gemm_operand(m, k, 1);
        let at = gemm_operand(k, m, 5);
        let b = gemm_operand(k, n, 2);
        let bt = gemm_operand(n, k, 3);
        let c0 = gemm_operand(m, n, 4);
        let prod = matmul_naive(&a, &b, Parallelism::SEQ);
        let prod_nt = matmul_nt_naive(&a, &bt, Parallelism::SEQ);
        let prod_tn = matmul_tn_naive(&at, &b, Parallelism::SEQ);
        let mut diff = c0.clone();
        matmul_sub_assign_naive(&mut diff, &a, &b, Parallelism::SEQ);
        for np in [1usize, 2, 3, 5] {
            let par = Parallelism::new(np);
            let tag = format!("m={m} n={n} np={np}");
            assert!(bits_eq(matmul(&a, &b, par).as_slice(), prod.as_slice()), "matmul {tag}");
            assert!(
                bits_eq(matmul_nt(&a, &bt, par).as_slice(), prod_nt.as_slice()),
                "matmul_nt {tag}"
            );
            assert!(
                bits_eq(matmul_tn(&at, &b, par).as_slice(), prod_tn.as_slice()),
                "matmul_tn {tag}"
            );
            let mut c = c0.clone();
            matmul_sub_assign(&mut c, &a, &b, par);
            assert!(bits_eq(c.as_slice(), diff.as_slice()), "matmul_sub_assign {tag}");
        }
    }
}

// ---- Householder kernels against the one-column formula ----------------

/// The reference reflector generator: `x[0] <- beta`, `x[1..] <- v[1..]`
/// (`v[0] = 1` implicit), returns `tau`.
fn ref_make_householder(x: &mut [f64]) -> f64 {
    let alpha = x[0];
    let tail_sq: f64 = x[1..].iter().map(|v| v * v).sum();
    if tail_sq == 0.0 {
        return 0.0;
    }
    let normx = (alpha * alpha + tail_sq).sqrt();
    let beta = if alpha >= 0.0 { -normx } else { normx };
    let denom = alpha - beta;
    for v in x[1..].iter_mut() {
        *v /= denom;
    }
    x[0] = beta;
    (beta - alpha) / beta
}

/// The one-column formula every factorization's bits are defined by:
/// one dot chain in ascending row order, then the axpy.
fn ref_apply(v: &[f64], tau: f64, c: &mut [f64]) {
    if tau == 0.0 {
        return;
    }
    let mut w = c[0];
    for (vi, ci) in v[1..].iter().zip(&c[1..]) {
        w += vi * ci;
    }
    w *= tau;
    c[0] -= w;
    for (vi, ci) in v[1..].iter().zip(c[1..].iter_mut()) {
        *ci -= w * vi;
    }
}

/// Compact factors and `tau` of unpivoted Householder QR, column by
/// column.
fn ref_qr(a: &DenseMatrix) -> (DenseMatrix, Vec<f64>) {
    let (m, n) = (a.rows(), a.cols());
    let mut f = a.clone();
    let mut tau = Vec::new();
    for j in 0..m.min(n) {
        let tj = ref_make_householder(&mut f.col_mut(j)[j..]);
        tau.push(tj);
        let v = f.col(j)[j..].to_vec();
        for c in j + 1..n {
            ref_apply(&v, tj, &mut f.col_mut(c)[j..]);
        }
    }
    (f, tau)
}

/// `B <- Q B` (`forward = false`) or `B <- Q^T B` from compact factors.
fn ref_apply_q(f: &DenseMatrix, tau: &[f64], b: &mut DenseMatrix, forward: bool) {
    let order: Vec<usize> = if forward { (0..tau.len()).collect() } else { (0..tau.len()).rev().collect() };
    for j in order {
        for c in 0..b.cols() {
            ref_apply(&f.col(j)[j..], tau[j], &mut b.col_mut(c)[j..]);
        }
    }
}

fn ref_r(f: &DenseMatrix, steps: usize) -> DenseMatrix {
    DenseMatrix::from_fn(steps, f.cols(), |i, j| if i <= j { f.get(i, j) } else { 0.0 })
}

fn ref_q_thin(f: &DenseMatrix, tau: &[f64]) -> DenseMatrix {
    let mut q = DenseMatrix::from_fn(f.rows(), tau.len(), |i, j| if i == j { 1.0 } else { 0.0 });
    ref_apply_q(f, tau, &mut q, false);
    q
}

/// TSQR over its shape-derived row blocks (at least `max(4n, 256)` rows
/// and `n` rows each): local QRs, one root QR of the stacked `R`s, and
/// `Q` block `b` = `Q_b [C_b; 0]`.
fn ref_tsqr(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let (m, n) = (a.rows(), a.cols());
    let nb = if m <= n { 1 } else { (m / (4 * n).max(256)).clamp(1, m / n) };
    if nb == 1 {
        let (f, tau) = ref_qr(a);
        return (ref_q_thin(&f, &tau), ref_r(&f, tau.len()));
    }
    let blocks = lra::par::split_ranges(m, nb);
    let locals: Vec<_> = blocks.iter().map(|rg| ref_qr(&a.submatrix(rg.start, 0, rg.len(), n))).collect();
    let mut stacked = DenseMatrix::zeros(nb * n, n);
    for (b, (f, _)) in locals.iter().enumerate() {
        stacked.set_submatrix(b * n, 0, &ref_r(f, n));
    }
    let (top, top_tau) = ref_qr(&stacked);
    let qs = ref_q_thin(&top, &top_tau);
    let mut q = DenseMatrix::zeros(m, n);
    for (b, (rg, (f, tau))) in blocks.iter().zip(&locals).enumerate() {
        let mut piece = DenseMatrix::zeros(rg.len(), n);
        piece.set_submatrix(0, 0, &qs.submatrix(b * n, 0, n, n));
        ref_apply_q(f, tau, &mut piece, false);
        q.set_submatrix(rg.start, 0, &piece);
    }
    (q, ref_r(&top, n))
}

/// Column-pivoted QR with dgeqp3's norm downdating, column by column,
/// stopped after `max_steps` reflectors: `(factors, tau, perm)`.
fn ref_qrcp(a: &DenseMatrix, max_steps: usize) -> (DenseMatrix, Vec<f64>, Vec<usize>) {
    let (m, n) = (a.rows(), a.cols());
    let mut f = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut tau = Vec::new();
    let mut norms: Vec<f64> = (0..n).map(|j| f.col(j).iter().map(|v| v * v).sum()).collect();
    let mut norms_ref = norms.clone();
    for j in 0..m.min(n).min(max_steps) {
        let (pj, &max_norm) = norms[j..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(off, v)| (j + off, v))
            .unwrap();
        if max_norm <= 0.0 {
            break;
        }
        if pj != j {
            let (cj, cp) = f.two_cols_mut(j, pj);
            cj.swap_with_slice(cp);
            perm.swap(j, pj);
            norms.swap(j, pj);
            norms_ref.swap(j, pj);
        }
        let tj = ref_make_householder(&mut f.col_mut(j)[j..]);
        tau.push(tj);
        let v = f.col(j)[j..].to_vec();
        for c in j + 1..n {
            ref_apply(&v, tj, &mut f.col_mut(c)[j..]);
            if norms[c] == 0.0 {
                continue;
            }
            let rjc = f.get(j, c);
            let temp = (1.0 - (rjc * rjc) / norms[c]).max(0.0);
            if temp * (norms[c] / norms_ref[c]).max(0.0) <= f64::EPSILON.sqrt() {
                let exact: f64 = f.col(c)[j + 1..].iter().map(|v| v * v).sum();
                norms[c] = exact;
                norms_ref[c] = exact;
            } else {
                norms[c] *= temp;
            }
        }
    }
    (f, tau, perm)
}

/// Every Householder kernel on `a` — `qr` with its `R`, `Q`, `Q rhs`
/// and `Q^T rhs`, `tsqr`, `tsqr_r`, for every worker count, and `qrcp`
/// stopped after `steps` — against the one-column references above.
/// `same` is [`bits_eq`], or `==` where an operand holds `-0.0` and
/// takes the support walk (the one thing the walk may not reproduce is
/// the sign of a zero).
fn check_householder_kernels(
    a: &DenseMatrix,
    rhs: &DenseMatrix,
    steps: usize,
    same: fn(&[f64], &[f64]) -> bool,
    what: &str,
) {
    let n = a.rows().min(a.cols());
    let (f_ref, tau_ref) = ref_qr(a);
    let (mut qt_rhs, mut q_rhs) = (rhs.clone(), rhs.clone());
    ref_apply_q(&f_ref, &tau_ref, &mut qt_rhs, true);
    ref_apply_q(&f_ref, &tau_ref, &mut q_rhs, false);
    let (tq_ref, tr_ref) = ref_tsqr(a);
    for np in 1..=3usize {
        let par = Parallelism::new(np);
        let tag = format!("{what} np={np}");
        let f = qr(a, par);
        assert!(same(f.r().as_slice(), ref_r(&f_ref, n).as_slice()), "qr r {tag}");
        let diag: Vec<f64> = (0..n).map(|j| f_ref.get(j, j)).collect();
        assert!(same(&f.r_diag(), &diag), "qr r_diag {tag}");
        assert!(
            same(f.q_thin(par).as_slice(), ref_q_thin(&f_ref, &tau_ref).as_slice()),
            "qr q_thin {tag}"
        );
        let mut b = rhs.clone();
        f.apply_qt(&mut b, par);
        assert!(same(b.as_slice(), qt_rhs.as_slice()), "apply_qt {tag}");
        let mut b = rhs.clone();
        f.apply_q(&mut b, par);
        assert!(same(b.as_slice(), q_rhs.as_slice()), "apply_q {tag}");
        let t = tsqr(a, par);
        assert!(same(t.q.as_slice(), tq_ref.as_slice()), "tsqr q {tag}");
        assert!(same(t.r.as_slice(), tr_ref.as_slice()), "tsqr r {tag}");
        assert!(same(tsqr_r(a, par).as_slice(), tr_ref.as_slice()), "tsqr_r {tag}");
    }
    let (pf_ref, ptau_ref, perm_ref) = ref_qrcp(a, steps);
    let p = qrcp(a, steps);
    let tag = format!("qrcp {what}");
    assert_eq!(p.perm, perm_ref, "{tag}");
    assert_eq!(p.steps, ptau_ref.len(), "{tag}");
    assert!(same(&p.tau, &ptau_ref), "{tag}: tau");
    assert!(same(p.factors.as_slice(), pf_ref.as_slice()), "{tag}: factors");
    let diag: Vec<f64> = (0..p.steps).map(|j| pf_ref.get(j, j)).collect();
    assert!(same(&p.r_diag(), &diag), "{tag}: r_diag");
}

/// `qr`, `tsqr`, `tsqr_r` and `qrcp` carry several columns through each
/// reflector at once; every column must still get exactly the
/// one-column formula's additions in its order. Pinned bit for bit
/// against the references above for column counts on both sides of
/// every group edge, with a column already in triangular form
/// (`tau == 0`) and a zero column, for every worker count. These
/// operands are three quarters nonzero: every reflector is swept.
#[test]
fn householder_kernels_match_the_one_column_formula_bitwise() {
    for n in (1usize..=9).chain([31, 32, 33]) {
        // 40 rows: one TSQR block; 520 rows: two.
        for m in [40usize, 520] {
            let mut a = gemm_operand(m, n, n);
            a.col_mut(0)[1..].fill(0.0);
            a.set(0, 0, 1.5);
            if n > 2 {
                a.col_mut(n / 2).fill(0.0);
            }
            let (_, tau_ref) = ref_qr(&a);
            assert_eq!(tau_ref[0], 0.0, "column 0 is already triangular");
            assert!(n <= 2 || tau_ref[n / 2] == 0.0, "a zero column stays zero");
            let rhs = gemm_operand(m, 5, 9);
            check_householder_kernels(&a, &rhs, usize::MAX, bits_eq, &format!("{m}x{n}"));
        }
    }
}

/// `per_col` entries scattered down every column of an `m x n` panel:
/// what a tournament leaf gathers on its row support.
fn scattered_panel(m: usize, n: usize, per_col: usize, seed: u64) -> DenseMatrix {
    let mut rng = common::SplitMix64(seed);
    let mut a = DenseMatrix::zeros(m, n);
    for j in 0..n {
        for _ in 0..per_col {
            let i = rng.below(m);
            a.set(i, j, (rng.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0);
        }
    }
    a
}

/// The same pins where the support walk runs: a reflector that is at
/// most half nonzero, over at least eight columns, is applied through
/// its nonzeros. Operands: the `tp_sparse` leaf (8 entries a column on
/// 256 rows; on 520 rows TSQR's root stacks two triangles) at widths on
/// both sides of the eight-column guard (`n = 8` never walks, `n = 9`
/// walks once) and of the eight-wide group (8, 9, 16, 17 columns to
/// update); two stacked 64 x 64 triangles, the fold of `panel_r`; and a
/// 64 x 64 upper-triangular `R` ranked by `qrcp(., 32)`, the node's last
/// step. `rhs` is 12 wide so that `Q rhs` walks too. Bit for bit — and
/// once more with `-0.0` planted in the operands, where the walk may
/// keep the sign of a zero the sweep loses: equal values there.
#[test]
fn householder_kernels_match_the_one_column_formula_where_the_walk_runs() {
    let values_eq = |x: &[f64], y: &[f64]| x == y;
    let plant_negative_zeros = |a: &mut DenseMatrix| {
        for v in a.as_mut_slice().iter_mut().filter(|v| **v == 0.0).step_by(3) {
            *v = -0.0;
        }
    };
    let leaf = scattered_panel(256, 64, 8, 1);
    let triangle = |seed| qr(&scattered_panel(256, 64, 8, seed), Parallelism::SEQ).r();
    let mut operands: Vec<(String, DenseMatrix, usize)> = Vec::new();
    for n in [8usize, 9, 10, 16, 17, 18, 64] {
        for m in [256usize, 520] {
            operands.push((format!("leaf {m}x{n}"), scattered_panel(m, n, 8, n as u64), usize::MAX));
        }
    }
    operands.push(("stacked triangles".into(), triangle(2).vcat(&triangle(3)), usize::MAX));
    operands.push(("triangular R".into(), qr(&leaf, Parallelism::SEQ).r(), 32));
    for (what, a, steps) in &mut operands {
        let mut rhs = scattered_panel(a.rows(), 12, a.rows() / 3, 77);
        check_householder_kernels(a, &rhs, *steps, bits_eq, what);
        plant_negative_zeros(a);
        plant_negative_zeros(&mut rhs);
        check_householder_kernels(a, &rhs, *steps, values_eq, &format!("{what} with -0.0"));
    }
}

/// `exact_error` of the dense factorizations forms the residual on
/// blocks of 256 columns; it must still be the norm of the dense
/// residual `A - H W` it used to form whole — on one block (80 x 60)
/// and across block edges (30 x 600).
#[test]
fn exact_error_of_dense_factors_matches_the_whole_dense_residual() {
    for (m, n) in [(80usize, 60usize), (30, 600)] {
        let coo_entries = (0..m * n).filter(|i| i % 7 == 0 || i % 11 == 3);
        let mut coo = CooMatrix::new(m, n);
        for i in coo_entries {
            coo.push(i % m, i / m, ((i * 37 % 101) as f64 - 50.0) / 13.0);
        }
        let a = coo.to_csc();
        let dense_a = a.to_dense();
        let whole = |h: &DenseMatrix, w: &DenseMatrix| {
            let mut resid = dense_a.clone();
            matmul_sub_assign(&mut resid, h, w, Parallelism::SEQ);
            resid.fro_norm()
        };
        let par = Parallelism::new(2);

        let qb = rand_qb_ei(&a, &QbOpts::new(4, 0.3).with_max_rank(12)).unwrap();
        let (got, want) = (qb.exact_error(&a, par), whole(&qb.q, &qb.b));
        assert!(want > 0.0 && (got - want).abs() <= 1e-12 * want, "qb {m}x{n}: {got:e} vs {want:e}");

        let mut opts = UbvOpts::new(4, 0.3);
        opts.max_rank = Some(12);
        let ubv = rand_ubv(&a, &opts);
        let bvt = matmul_nt(&ubv.b, &ubv.v, Parallelism::SEQ);
        let (got, want) = (ubv.exact_error(&a, par), whole(&ubv.u, &bvt));
        assert!(want > 0.0 && (got - want).abs() <= 1e-12 * want, "ubv {m}x{n}: {got:e} vs {want:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Sharded column storage (ColSlice) must agree with the full matrix:
    // the SPMD drivers rely on these identities for their bitwise
    // sharded-vs-replicated equivalence.

    #[test]
    fn col_slice_scatter_gather_roundtrip(a in sparse_mat(20), parts in 1usize..6) {
        let ranges = lra::par::split_ranges(a.cols(), parts);
        let shards = lra::sparse::scatter_csc(&a, &ranges);
        let back = lra::sparse::gather_csc(&shards);
        prop_assert_eq!(back.rows(), a.rows());
        prop_assert_eq!(back.cols(), a.cols());
        prop_assert_eq!(back.colptr(), a.colptr());
        prop_assert_eq!(back.rowidx(), a.rowidx());
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(b(back.values()), b(a.values()));
    }

    #[test]
    fn col_slice_ops_agree_with_full_matrix(a in sparse_mat(20), parts in 1usize..6, thr in 0.0f64..3.0) {
        let ranges = lra::par::split_ranges(a.cols(), parts);
        let slices: Vec<_> = ranges
            .iter()
            .map(|r| lra::sparse::ColSlice::from_full(&a, r.clone()))
            .collect();

        // Per-shard squared column norms sum to the full Frobenius norm.
        let partial: f64 = slices.iter().map(|s| s.fro_norm_sq_cols()).sum();
        prop_assert!((partial - a.fro_norm_sq()).abs() <= 1e-12 * (1.0 + a.fro_norm_sq()));

        // drop_below_par partials (the sharded engine's) are bitwise the
        // full-matrix range partials (the replicated engine's), and the
        // gathered kept shards are exactly the full kept matrix.
        let par = Parallelism::new(2);
        let (full_kept, _, _) = a.drop_below(thr);
        let mut kept_parts = Vec::new();
        for (s, r) in slices.iter().zip(&ranges) {
            let (kept, mass, count) = s.drop_below_par(thr, par);
            let (mass_full, count_full) = a.dropped_mass_in_cols_par(thr, r.clone(), par);
            prop_assert_eq!(mass.to_bits(), mass_full.to_bits());
            prop_assert_eq!(count, count_full);
            prop_assert_eq!(kept.offset(), r.start);
            kept_parts.push(kept.into_local());
        }
        let kept_gathered = lra::sparse::gather_csc(&kept_parts);
        prop_assert_eq!(kept_gathered.colptr(), full_kept.colptr());
        prop_assert_eq!(kept_gathered.rowidx(), full_kept.rowidx());
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(b(kept_gathered.values()), b(full_kept.values()));

        // Concatenated per-shard small-entry magnitudes sort to the same
        // sequence as the full matrix's (the Aggressive-drop identity).
        let cap = thr + 1.0;
        let mut sharded_small: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.small_entry_magnitudes(cap))
            .collect();
        let mut full_small = a.small_entry_magnitudes(cap);
        sharded_small.sort_by(|x, y| x.partial_cmp(y).unwrap());
        full_small.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(b(&sharded_small), b(&full_small));
    }

    #[test]
    fn col_slice_extract_matches_select(a in sparse_mat(20), parts in 1usize..6) {
        let ranges = lra::par::split_ranges(a.cols(), parts);
        for r in &ranges {
            let s = lra::sparse::ColSlice::from_full(&a, r.clone());
            let idx: Vec<usize> = r.clone().collect();
            let sub = s.extract_columns(&idx);
            let full_sub = a.select_columns(&idx);
            prop_assert_eq!(sub.colptr(), full_sub.colptr());
            prop_assert_eq!(sub.rowidx(), full_sub.rowidx());
            let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(b(sub.values()), b(full_sub.values()));
        }
    }
}

/// Strategy: a tall, narrow sparse panel whose row support usually
/// spans several `panel_r` chunks, plus a per-row count of empty rows
/// to insert in front of each row (and one trailing count).
fn tall_panel_with_gaps() -> impl Strategy<Value = (CscMatrix, Vec<usize>)> {
    (300usize..=700, 2usize..=6).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec((0..r, 0..c, -5.0f64..5.0), 200..=1500),
            proptest::collection::vec(0usize..3, r + 1),
        )
            .prop_map(move |(trip, gaps)| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in trip {
                    coo.push(i, j, v);
                }
                (coo.to_csc(), gaps)
            })
    })
}

/// `a` with `gaps[i]` empty rows inserted in front of row `i` and
/// `gaps[rows]` appended: same stored values in the same order.
fn insert_empty_rows(a: &CscMatrix, gaps: &[usize]) -> CscMatrix {
    let mut new_row = Vec::with_capacity(a.rows());
    let mut shift = 0;
    for (i, g) in gaps[..a.rows()].iter().enumerate() {
        shift += g;
        new_row.push(i + shift);
    }
    CscMatrix::from_parts(
        a.rows() + shift + gaps[a.rows()],
        a.cols(),
        a.colptr().to_vec(),
        a.rowidx().iter().map(|&r| new_row[r]).collect(),
        a.values().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Row-compressed tournament panels: the support + gather pair is an
    // exact row filter of the full densify, and `panel_r` sees nothing
    // of a matrix but its occupied rows.

    #[test]
    fn support_gather_equals_row_filtered_densify(
        case in sparse_mat(24).prop_flat_map(|a| {
            let cols = a.cols();
            (Just(a), proptest::collection::vec(0..cols, 0..=2 * cols), 1usize..9)
        })
    ) {
        let (a, idx, cut) = case;
        let support = a.row_support(&idx);
        let mut expect: Vec<usize> = idx.iter().flat_map(|&j| a.col(j).0).copied().collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(&support, &expect);
        let full = a.gather_columns_dense(&idx);
        for rows in support.chunks(cut) {
            let got = a.gather_columns_at_rows_dense(&idx, rows);
            let want = full.select_rows(rows);
            prop_assert_eq!((got.rows(), got.cols()), (rows.len(), idx.len()));
            prop_assert!(bits_eq(got.as_slice(), want.as_slice()));
        }
        // An arbitrary ascending row list filters the same way, entries
        // on unlisted rows skipped.
        let every_other: Vec<usize> = (0..a.rows()).step_by(2).collect();
        let got = a.gather_columns_at_rows_dense(&idx, &every_other);
        prop_assert!(bits_eq(got.as_slice(), full.select_rows(&every_other).as_slice()));
    }

    #[test]
    fn panel_r_ignores_inserted_empty_rows(case in tall_panel_with_gaps()) {
        let (a, gaps) = case;
        let padded = insert_empty_rows(&a, &gaps);
        let idx: Vec<usize> = (0..a.cols()).rev().collect();
        for np in [1, 4] {
            let r = lra::qrtp::panel_r(&a, &idx, Parallelism::new(np));
            let r_padded = lra::qrtp::panel_r(&padded, &idx, Parallelism::new(np));
            prop_assert_eq!((r.rows(), r.cols()), (r_padded.rows(), r_padded.cols()));
            prop_assert!(bits_eq(r.as_slice(), r_padded.as_slice()), "np={}", np);
        }
    }
}

/// One tournament node two ways: QRCP of the row-compressed `panel_r`
/// against QRCP of the `R` of a direct dense QR of the whole panel.
/// Asserts the same pivots and a normwise-equal `R^T R`; returns the
/// winners.
fn checked_node(name: &str, a: &CscMatrix, idx: &[usize], k: usize) -> Vec<usize> {
    let r = lra::qrtp::panel_r(a, idx, Parallelism::SEQ);
    let r_ref = qr(&a.gather_columns_dense(idx), Parallelism::SEQ).r();
    let g = matmul_tn(&r, &r, Parallelism::SEQ);
    let g_ref = matmul_tn(&r_ref, &r_ref, Parallelism::SEQ);
    let mut diff = g.clone();
    diff.axpy(-1.0, &g_ref);
    assert!(
        diff.fro_norm() <= 1e-10 * (1.0 + g_ref.fro_norm()),
        "{name}: R^T R off by {:e} (|G| = {:e})",
        diff.fro_norm(),
        g_ref.fro_norm()
    );
    let f = qrcp(&r, k);
    let f_ref = qrcp(&r_ref, k);
    assert_eq!(f.steps, f_ref.steps, "{name}: pivot count");
    assert_eq!(f.perm[..f.steps], f_ref.perm[..f.steps], "{name}: pivot sequence");
    f.perm[..f.steps].iter().map(|&p| idx[p]).collect()
}

#[test]
fn every_tournament_node_matches_dense_qr_of_the_gathered_panel() {
    use lra::matgen::{circuit, economic, fluid_block, with_decay};
    let k = 32;
    let presets = [
        ("circuit", with_decay(&circuit(600, 5, 8, 103), 1e-6, 13)),
        ("fluid", with_decay(&fluid_block(12, 40, 102), 1e-6, 12)),
        ("economic", with_decay(&economic(640, 16, 105), 1e-6, 15)),
    ];
    for (name, a) in &presets {
        // The binary tree of `tournament_columns`, node by node.
        let all: Vec<usize> = (0..a.cols()).collect();
        let mut level: Vec<Vec<usize>> =
            all.chunks(2 * k).map(|leaf| checked_node(name, a, leaf, k)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match pair {
                    [x, y] => checked_node(name, a, &[x.as_slice(), y].concat(), k),
                    _ => pair[0].clone(),
                })
                .collect();
        }
        let root = checked_node(name, a, &level[0], k);
        let sel = lra::qrtp::tournament_columns(
            a,
            None,
            k,
            lra::qrtp::TournamentTree::Binary,
            Parallelism::new(2),
        );
        assert_eq!(sel.selected, root, "{name}: tournament disagrees with its nodes");
    }
}

#[test]
fn stored_zeros_select_like_the_pruned_matrix() {
    // Explicit zeros widen the row support but add nothing to R^T R.
    let pruned = lra::matgen::with_decay(&lra::matgen::circuit(400, 5, 6, 9), 1e-6, 9);
    let (mut colptr, mut rowidx, mut values) = (vec![0], Vec::new(), Vec::new());
    for j in 0..pruned.cols() {
        let (ri, vs) = pruned.col(j);
        let mut col: Vec<(usize, f64)> = ri.iter().copied().zip(vs.iter().copied()).collect();
        for z in [(7 * j + 3) % pruned.rows(), (13 * j + 5) % pruned.rows()] {
            if col.iter().all(|e| e.0 != z) {
                col.push((z, 0.0));
            }
        }
        col.sort_unstable_by_key(|e| e.0);
        rowidx.extend(col.iter().map(|e| e.0));
        values.extend(col.iter().map(|e| e.1));
        colptr.push(rowidx.len());
    }
    let padded = CscMatrix::from_parts(pruned.rows(), pruned.cols(), colptr, rowidx, values);
    assert!(padded.nnz() > pruned.nnz() + pruned.cols());
    assert_eq!(padded.drop_below(f64::MIN_POSITIVE).0, pruned);
    for k in [8, 32] {
        let tree = lra::qrtp::TournamentTree::Binary;
        let s_pruned = lra::qrtp::tournament_columns(&pruned, None, k, tree, Parallelism::new(2));
        let s_padded = lra::qrtp::tournament_columns(&padded, None, k, tree, Parallelism::new(2));
        assert_eq!(s_padded.selected, s_pruned.selected, "k={k}");
        for (x, y) in s_padded.r_diag.iter().zip(&s_pruned.r_diag) {
            assert!((x.abs() - y.abs()).abs() <= 1e-10 * (1.0 + y.abs()), "k={k}: {x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Heavier end-to-end properties with fewer cases.

    #[test]
    fn qb_indicator_identity(seed in 0u64..50) {
        let a = lra::matgen::with_decay(&lra::matgen::circuit(80, 3, 2, seed), 1e-5, seed);
        if a.fro_norm() == 0.0 { return Ok(()); }
        let r = rand_qb_ei(&a, &QbOpts::new(6, 5e-2).with_seed(seed)).unwrap();
        let exact = r.exact_error(&a, Parallelism::SEQ);
        // ||A - QB||^2 = ||A||^2 - ||B||^2 (Q orthonormal).
        let identity = (a.fro_norm_sq() - r.b.fro_norm_sq()).max(0.0).sqrt();
        prop_assert!((exact - identity).abs() < 1e-7 * (1.0 + r.a_norm_f));
    }

    #[test]
    fn lucrtp_indicator_equals_exact_error(seed in 0u64..50) {
        let a = lra::matgen::with_decay(&lra::matgen::banded(60, 3, seed), 1e-5, seed);
        let r = lu_crtp(&a, &LuCrtpOpts::new(5, 1e-2));
        if r.converged {
            let exact = r.exact_error(&a, Parallelism::SEQ);
            prop_assert!((r.indicator - exact).abs() < 1e-8 * (1.0 + r.a_norm_f),
                "indicator {} vs exact {}", r.indicator, exact);
        }
    }

    #[test]
    fn lucrtp_rank_never_exceeds_dims(seed in 0u64..30) {
        let a = lra::matgen::spectrum(40, 30, &[3.0, 1.0, 0.3], 4, seed);
        let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-9));
        prop_assert!(r.rank <= 30);
        // Rank-3 input: converge with K well below the dimensions.
        if r.converged {
            prop_assert!(r.rank <= 8, "rank {} for a rank-3 matrix", r.rank);
        }
    }
}

// ---- Checkpoint envelopes under arbitrary storage damage --------------

/// Loop state stood in for a real factorization checkpoint: the `xs`
/// payload makes bitwise comparison against the surviving generation
/// meaningful.
#[derive(Debug, Clone)]
struct SoakState {
    iteration: usize,
    xs: Vec<f64>,
}

impl Checkpoint for SoakState {
    const KIND: &'static str = "prop_soak";

    fn iteration(&self) -> usize {
        self.iteration
    }

    fn encode(&self, sections: &mut SectionWriter) -> Result<Json, String> {
        sections.f64s("xs", self.xs.iter().copied());
        let iteration = Json::Num(self.iteration as f64);
        Ok(Json::Obj(vec![("iteration".to_string(), iteration)]))
    }

    fn decode(state: &Json, sections: &SectionReader<'_>) -> Result<Self, String> {
        let iteration = state
            .get("iteration")
            .and_then(Json::as_usize)
            .ok_or("missing iteration")?;
        let xs = sections.f64s("xs")?;
        Ok(SoakState { iteration, xs })
    }
}

/// Apply one byte-level mutation that is guaranteed to change the file:
/// truncate, flip a bit, overwrite a byte with a different value, or
/// insert a byte.
fn damage(path: &std::path::Path, op: usize, pos: usize, operand: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    match op {
        0 => bytes.truncate(pos % bytes.len()),
        1 => {
            let bit = pos % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        2 => {
            let at = pos % bytes.len();
            bytes[at] ^= 1 + (operand % 255) as u8;
        }
        _ => bytes.insert(pos % (bytes.len() + 1), operand as u8),
    }
    std::fs::write(path, &bytes).unwrap();
}

/// Strategy: two generation payloads plus one byte-level mutation
/// (operation selector, position, operand) to apply to the newest
/// envelope on disk.
fn envelope_damage() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize, usize, usize)> {
    (
        proptest::collection::vec(-1.0e6f64..1.0e6, 1..12),
        proptest::collection::vec(-1.0e6f64..1.0e6, 1..12),
        0usize..4,
        0usize..100_000,
        0usize..256,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite invariant of the durable checkpoint layer, as strong as
    /// a whole-envelope CRC makes it: after the newest generation file
    /// is truncated, bit-flipped, byte-overwritten or byte-injected,
    /// `load` NEVER panics and NEVER serves the damaged generation —
    /// it returns the older one bitwise and records the skip and the
    /// rollback. With the older generation damaged too it returns a
    /// typed error carrying a reason; a silent fresh start (`Ok(None)`)
    /// over stored generations is a durability bug.
    #[test]
    fn damaged_envelope_load_rolls_back_or_errors_never_panics(
        (xs1, xs2, op, pos, operand) in envelope_damage()
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lra_prop_envelope_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::on_disk(dir.join("soak.json"));
        store.save(&SoakState { iteration: 1, xs: xs1.clone() }).unwrap();
        store.save(&SoakState { iteration: 2, xs: xs2.clone() }).unwrap();
        prop_assert_eq!(store.generations(), vec![1, 2]);

        // Damage the newest generation file in place.
        damage(&dir.join("soak.2.json"), op, pos, operand);
        let (corrupt, rollback) = (counter("recover.corrupt_checkpoint"), counter("recover.rollback"));
        match store.load::<SoakState>() {
            Ok(Some(s)) => prop_assert!(
                s.iteration == 1 && bits_eq(&s.xs, &xs1),
                "op {op} at {pos}: loaded something other than the intact older generation"
            ),
            other => prop_assert!(false, "op {op} at {pos}: no rollback, got {other:?}"),
        }
        prop_assert!(counter("recover.corrupt_checkpoint") > corrupt);
        prop_assert!(counter("recover.rollback") > rollback);

        // Both generations damaged: a typed error, never a fresh start.
        damage(&dir.join("soak.1.json"), op, pos, operand);
        match store.load::<SoakState>() {
            Err(e) => prop_assert!(
                e.split_once("): ").is_some_and(|(_, reason)| !reason.is_empty()),
                "typed error must carry a reason: {e}"
            ),
            other => prop_assert!(false, "op {op} at {pos}: damaged store served {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
