//! End-to-end correctness tests for the four fixed-precision
//! algorithms, mirroring the claims of the paper: indicators agree with
//! exact errors, the tolerance contract holds, ILUT_CRTP's threshold
//! control works, and results are deterministic across worker counts.

use lra::core::{
    ilut_crtp, lu_crtp, rand_qb_ei, rand_ubv, IlutOpts, LuCrtpOpts, OrderingMode, Parallelism,
    QbError, QbOpts, UbvOpts,
};
use lra::dense::{matmul_tn, DenseMatrix};
use lra::matgen;
use lra::sparse::CscMatrix;

mod common;
use common::assert_fixed_precision;

fn small_fem() -> CscMatrix {
    matgen::with_decay(&matgen::fem2d(12, 11, 3), 1e-7, 5)
}

fn small_circuit() -> CscMatrix {
    matgen::with_decay(&matgen::circuit(150, 4, 3, 7), 1e-7, 9)
}

fn fill_heavy() -> CscMatrix {
    matgen::with_decay(&matgen::fluid_block(12, 10, 11), 1e-7, 13)
}

// ---------- RandQB_EI ----------

#[test]
fn qb_meets_tolerance_and_indicator_agrees() {
    let a = small_fem();
    for tau in [1e-1, 1e-3, 1e-5] {
        let r = rand_qb_ei(&a, &QbOpts::new(8, tau)).unwrap();
        assert!(r.converged, "tau={tau}");
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(
            exact < tau * r.a_norm_f,
            "tau={tau}: exact error {exact} vs bound {}",
            tau * r.a_norm_f
        );
        // Indicator within a small factor of the exact error.
        assert!(
            (r.indicator - exact).abs() <= 0.05 * exact + 1e-12 * r.a_norm_f,
            "tau={tau}: indicator {} vs exact {exact}",
            r.indicator
        );
    }
}

#[test]
fn qb_rejects_tau_below_floor() {
    let a = small_fem();
    let err = rand_qb_ei(&a, &QbOpts::new(8, 1e-9)).unwrap_err();
    assert!(matches!(err, QbError::TauBelowIndicatorFloor { .. }));
    let msg = err.to_string();
    assert!(msg.contains("2.1e-7") || msg.contains("2.1e-7") || msg.contains("floor"));
}

#[test]
fn qb_orthogonality_stays_tight() {
    let a = small_circuit();
    let r = rand_qb_ei(&a, &QbOpts::new(8, 1e-4)).unwrap();
    // The paper reports 1e-15..1e-13 after one iteration, growing about
    // one order of magnitude by convergence.
    assert!(
        r.orthogonality_error() < 1e-11,
        "loss of orthogonality: {}",
        r.orthogonality_error()
    );
}

#[test]
fn qb_power_scheme_reduces_iterations() {
    let a = fill_heavy();
    let r0 = rand_qb_ei(&a, &QbOpts::new(6, 1e-3).with_power(0)).unwrap();
    let r2 = rand_qb_ei(&a, &QbOpts::new(6, 1e-3).with_power(2)).unwrap();
    assert!(r0.converged && r2.converged);
    assert!(
        r2.iterations <= r0.iterations,
        "p=2 took {} its, p=0 took {}",
        r2.iterations,
        r0.iterations
    );
}

#[test]
fn qb_deterministic_across_np_and_seeded() {
    let a = small_circuit();
    let r1 = rand_qb_ei(&a, &QbOpts::new(8, 1e-3).with_seed(7)).unwrap();
    let r2 = rand_qb_ei(
        &a,
        &QbOpts::new(8, 1e-3).with_seed(7).with_par(Parallelism::new(4)),
    )
    .unwrap();
    assert_eq!(r1.rank, r2.rank);
    assert_eq!(r1.iterations, r2.iterations);
    assert!(r1.q.max_abs_diff(&r2.q) < 1e-12);
    // Different seed gives a different (but still valid) basis.
    let r3 = rand_qb_ei(&a, &QbOpts::new(8, 1e-3).with_seed(8)).unwrap();
    assert!(r3.converged);
}

#[test]
fn qb_max_rank_cap() {
    let a = small_fem();
    let r = rand_qb_ei(&a, &QbOpts::new(8, 1e-12_f64.max(3e-7)).with_max_rank(16)).unwrap();
    assert!(r.rank <= 16);
    if !r.converged {
        assert_eq!(r.rank, 16);
    }
}

#[test]
fn qb_frobenius_identity_holds() {
    // ||A - QB||_F^2 == ||A||_F^2 - ||B||_F^2 for orthonormal Q.
    let a = small_circuit();
    let r = rand_qb_ei(&a, &QbOpts::new(10, 1e-2)).unwrap();
    let exact = r.exact_error(&a, Parallelism::SEQ);
    let identity = (a.fro_norm_sq() - r.b.fro_norm_sq()).max(0.0).sqrt();
    assert!((exact - identity).abs() < 1e-8 * r.a_norm_f);
}

// ---------- LU_CRTP ----------

#[test]
fn lucrtp_meets_tolerance_and_indicator_is_exact() {
    let a = small_fem();
    for tau in [1e-1, 1e-3, 1e-6] {
        let r = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
        assert!(r.converged, "tau={tau}: {:?}", r.breakdown);
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(exact < tau * r.a_norm_f, "tau={tau}: {exact}");
        // For LU_CRTP the indicator IS the exact error (eq. 9).
        assert!(
            (r.indicator - exact).abs() < 1e-9 * r.a_norm_f,
            "tau={tau}: indicator {} vs exact {exact}",
            r.indicator
        );
    }
}

#[test]
fn lucrtp_runs_below_qb_indicator_floor() {
    // Eq. 9 keeps working for tau < 2.1e-7 (Section II-B2).
    let a = small_fem();
    let tau = 1e-8;
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
    assert!(r.converged, "{:?}", r.breakdown);
    let exact = r.exact_error(&a, Parallelism::SEQ);
    assert!(exact < tau * r.a_norm_f);
}

#[test]
fn lucrtp_pivots_are_valid_permutation_prefixes() {
    let a = small_circuit();
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    let mut rows = r.pivot_rows.clone();
    rows.sort_unstable();
    rows.dedup();
    assert_eq!(rows.len(), r.rank, "duplicate pivot rows");
    let mut cols = r.pivot_cols.clone();
    cols.sort_unstable();
    cols.dedup();
    assert_eq!(cols.len(), r.rank, "duplicate pivot columns");
    assert_eq!(r.l.cols(), r.rank);
    assert_eq!(r.u.rows(), r.rank);
    // Unit entries of L at the pivot rows.
    for (j, &pr) in r.pivot_rows.iter().enumerate() {
        assert!((r.l.get(pr, j) - 1.0).abs() < 1e-14, "L[{pr},{j}] != 1");
    }
    // U is *block* upper in pivot coordinates: rows of a later block
    // are zero at pivot columns of earlier blocks (those columns were
    // eliminated from the active set). Within a block, Ā11 is full.
    let k = 8;
    for t in 0..r.rank {
        for s in 0..(t / k) * k {
            assert_eq!(
                r.u.get(t, r.pivot_cols[s]),
                0.0,
                "U({t},{s}) not eliminated"
            );
        }
    }
}

#[test]
fn lucrtp_exact_low_rank_detected() {
    // Spectrum generator with rank 6 and tiny tail: LU_CRTP should stop
    // at K close to 6.
    let sigmas = [8.0, 4.0, 2.0, 1.0, 0.5, 0.25];
    let a = matgen::spectrum(120, 100, &sigmas, 10, 21);
    let r = lu_crtp(&a, &LuCrtpOpts::new(2, 1e-10));
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.rank <= 10, "rank {} too large for a rank-6 matrix", r.rank);
}

#[test]
fn lucrtp_ordering_modes_all_converge() {
    let a = fill_heavy();
    for ordering in [
        OrderingMode::Natural,
        OrderingMode::FirstIteration,
        OrderingMode::EveryIteration,
    ] {
        let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-2).with_ordering(ordering));
        assert!(r.converged, "{ordering:?}: {:?}", r.breakdown);
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(exact < 1e-2 * r.a_norm_f, "{ordering:?}");
    }
}

#[test]
fn lucrtp_parallel_matches_sequential() {
    let a = small_circuit();
    let rs = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    let rp = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3).with_par(Parallelism::new(4)));
    assert_eq!(rs.rank, rp.rank);
    assert_eq!(rs.pivot_cols, rp.pivot_cols);
    assert_eq!(rs.pivot_rows, rp.pivot_rows);
    assert!((rs.indicator - rp.indicator).abs() < 1e-9 * rs.a_norm_f);
}

#[test]
fn lucrtp_trace_records_fill() {
    let a = fill_heavy();
    let r = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    assert_eq!(r.trace.len(), r.iterations);
    for (i, t) in r.trace.iter().enumerate() {
        assert_eq!(t.iteration, i + 1);
        assert!(t.schur_density <= 1.0);
        assert!(t.indicator.is_finite());
    }
    // Indicators decrease overall (monotone in exact arithmetic).
    let first = r.trace.first().unwrap().indicator;
    let last = r.trace.last().unwrap().indicator;
    assert!(last <= first);
}

#[test]
fn lucrtp_zero_matrix_converges_immediately() {
    let a = CscMatrix::zeros(30, 25);
    let r = lu_crtp(&a, &LuCrtpOpts::new(4, 1e-3));
    // ||A||_F = 0 so the stopping bound is 0; the tournament finds no
    // independent columns and the method must halt without panicking.
    assert_eq!(r.rank, 0);
    assert!(!r.converged || r.indicator == 0.0);
}

#[test]
fn lucrtp_k_larger_than_dims() {
    let a = matgen::banded(10, 2, 5);
    let r = lu_crtp(&a, &LuCrtpOpts::new(64, 1e-10));
    assert!(r.rank <= 10);
    assert!(r.converged, "{:?}", r.breakdown);
}

// ---------- ILUT_CRTP ----------

#[test]
fn ilut_meets_tolerance_with_less_fill() {
    let a = fill_heavy();
    let tau = 1e-3;
    let lu_res = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
    assert!(lu_res.converged);
    let ilut_res = ilut_crtp(&a, &IlutOpts::new(8, tau, lu_res.iterations));
    assert!(ilut_res.converged, "{:?}", ilut_res.breakdown);
    // The paper observed the true error below tau*||A||_F in all suite
    // cases; the theory only guarantees ~tau + threshold mass.
    assert_fixed_precision(&ilut_res, &a, tau, "ilut");
    let exact = ilut_res.exact_error(&a, Parallelism::SEQ);
    let report = ilut_res.threshold.as_ref().unwrap();
    // Estimator (26) is within the dropped mass of the true error.
    assert!(
        (ilut_res.indicator - exact).abs() <= report.dropped_mass_sq.sqrt() + 1e-9,
        "estimator {} vs exact {exact}",
        ilut_res.indicator
    );
    // nnz reduced (or at worst equal) on this fill-in heavy problem.
    assert!(
        ilut_res.factor_nnz() <= lu_res.factor_nnz(),
        "ilut {} vs lu {}",
        ilut_res.factor_nnz(),
        lu_res.factor_nnz()
    );
}

#[test]
fn ilut_records_mu_from_equation_24() {
    let a = small_fem();
    let u = 10usize;
    let r = ilut_crtp(&a, &IlutOpts::new(8, 1e-3, u));
    let report = r.threshold.unwrap();
    if !report.control_triggered {
        let expected = 1e-3 * r.r11 / (u as f64 * (a.nnz() as f64).sqrt());
        assert!(
            (report.mu - expected).abs() < 1e-12 * expected.max(1e-300),
            "mu {} vs eq.24 {expected}",
            report.mu
        );
    }
}

#[test]
fn ilut_control_triggers_on_absurd_mu() {
    // u_estimate = 1 with a huge phi shrink forces mu large enough that
    // the very first drop violates (22): control must undo and disable.
    let a = fill_heavy();
    let mut opts = IlutOpts::new(8, 1e-2, 1);
    opts.phi_factor = 1e-12; // essentially no drop budget
    let r = ilut_crtp(&a, &opts);
    let report = r.threshold.unwrap();
    assert!(report.control_triggered, "control should have triggered");
    assert_eq!(report.mu, 0.0, "thresholding must be disabled after undo");
    // With thresholding disabled the result matches plain LU_CRTP.
    let lu_res = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-2));
    assert_eq!(r.rank, lu_res.rank);
    assert!(report.dropped_mass_sq == 0.0);
}

#[test]
fn ilut_with_disabled_thresholding_equals_lu_crtp() {
    // phi_factor = 0 gives a zero drop budget: the control triggers on
    // the first drop attempt and the run degenerates to plain LU_CRTP.
    let a = small_circuit();
    let r_lu = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    let mut opts = IlutOpts::new(8, 1e-3, 4);
    opts.phi_factor = 0.0;
    let r_il = ilut_crtp(&a, &opts);
    assert_eq!(r_lu.rank, r_il.rank);
    assert_eq!(r_lu.pivot_cols, r_il.pivot_cols);
    assert_eq!(r_lu.factor_nnz(), r_il.factor_nnz());
    assert_eq!(r_il.threshold.as_ref().unwrap().dropped, 0);
}

// ---------- RandUBV ----------

/// 2000 x 700: RandUBV re-orthogonalizes `V`, the shorter side, and
/// relies on its recurrence for `U`. Its transpose is the wide case.
fn tall_economic() -> CscMatrix {
    matgen::with_decay_rank(&matgen::economic(2000, 40, 105), 1e-6, 400, 15).slice_columns(0..700)
}

/// `||Q^T Q - I||_F`.
fn gram_error(q: &DenseMatrix) -> f64 {
    let mut g = matmul_tn(q, q, Parallelism::SEQ);
    for i in 0..g.cols() {
        g.set(i, i, g.get(i, i) - 1.0);
    }
    g.fro_norm_sq().sqrt()
}

/// Rows `(label, A, k, tau)` on which RandUBV must converge with
/// exact error below `tau ||A||_F`, the indicator within 1e-3 of it,
/// and `||U^T U - I||_F <= 1e-8`: the three-term recurrence alone
/// keeps the basis of the longer side orthogonal.
#[test]
fn ubv_meets_tolerance() {
    let tall = tall_economic();
    let fem = matgen::with_decay(&matgen::fem2d(20, 20, 3), 1e-9, 5);
    let rows = [
        ("fem", small_fem(), 8, 1e-1),
        ("fem", small_fem(), 8, 1e-3),
        ("tall", tall.clone(), 16, 1e-3),
        ("wide", tall.transpose(), 16, 1e-3),
        ("fem 400", fem, 8, 1e-6),
    ];
    for (label, a, k, tau) in rows {
        let r = rand_ubv(&a, &UbvOpts::new(k, tau));
        assert!(r.converged, "{label} tau={tau}");
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(exact < tau * r.a_norm_f, "{label} tau={tau}: {exact}");
        assert!(
            (r.indicator - exact).abs() <= 1e-3 * exact,
            "{label} tau={tau}: indicator {} vs exact {exact}",
            r.indicator
        );
        let gram = gram_error(&r.u);
        assert!(gram <= 1e-8, "{label} tau={tau}: ||U^T U - I||_F = {gram:e}");
    }
}

/// The last row is why the shorter side, not always `V`, keeps its
/// sweep: 300 x 900 converges at rank 288, and with `V` swept instead
/// of `U` it returns `||U^T U - I||_F` = 4.0 (blocks of `U` repeat).
#[test]
fn ubv_factors_are_orthonormal_and_b_bidiagonal() {
    let tall = tall_economic();
    let wide_300 =
        matgen::with_decay_rank(&matgen::economic(900, 40, 105), 1e-6, 180, 15).slice_columns(0..300);
    let rows = [
        ("circuit", small_circuit(), 6, 1e-2),
        ("tall", tall.clone(), 16, 1e-3),
        ("wide", tall.transpose(), 16, 1e-3),
        ("wide 300", wide_300.transpose(), 8, 1e-5),
    ];
    for (label, a, k, tau) in rows {
        let r = rand_ubv(&a, &UbvOpts::new(k, tau));
        assert!(r.u.orthogonality_error() < 1e-10, "{label} tau={tau}");
        assert!(r.v.orthogonality_error() < 1e-10, "{label} tau={tau}");
        if r.converged {
            let gram = gram_error(&r.u);
            assert!(gram <= 1e-8, "{label} tau={tau}: ||U^T U - I||_F = {gram:e}");
        }
        // B block upper bidiagonal: zero outside diagonal + first
        // superdiagonal block row.
        for bj in 0..r.rank / k {
            for bi in 0..r.rank / k {
                if bi == bj || bi + 1 == bj {
                    continue;
                }
                for i in 0..k {
                    for j in 0..k {
                        let v = r.b.get(bi * k + i, bj * k + j);
                        assert!(
                            v.abs() < 1e-8,
                            "{label} tau={tau}: B block ({bi},{bj}) entry ({i},{j}) = {v}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ubv_b_equals_ut_a_v() {
    let a = small_circuit();
    let r = rand_ubv(&a, &UbvOpts::new(5, 1e-2));
    let av = lra::sparse::spmm_dense(&a, &r.v, Parallelism::SEQ);
    let utav = matmul_tn(&r.u, &av, Parallelism::SEQ);
    assert!(
        utav.max_abs_diff(&r.b) < 1e-8,
        "B != U^T A V (max diff {})",
        utav.max_abs_diff(&r.b)
    );
}

/// The last block is cut to the rank cap (`min(m, n)` or `max_rank`),
/// as RandQB_EI cuts its own: the bases stay orthonormal and
/// `B = U^T A V` still holds on the cut block.
#[test]
fn ubv_honours_its_rank_cap() {
    let dense = lra::dense::DenseMatrix::from_fn(20, 20, |i, j| {
        ((i * 7 + j * 13) % 17) as f64 - 8.0 + if i == j { 30.0 } else { 0.0 }
    });
    let a = CscMatrix::from_dense(&dense);
    for (max_rank, want) in [(None, 20), (Some(10), 10), (Some(3), 3)] {
        let mut opts = UbvOpts::new(8, 1e-12);
        opts.max_rank = max_rank;
        let r = rand_ubv(&a, &opts);
        assert_eq!(r.rank, want, "max_rank {max_rank:?}");
        assert_eq!(
            (r.u.cols(), r.v.cols(), r.b.rows(), r.b.cols()),
            (want, want, want, want)
        );
        assert!(r.u.orthogonality_error() < 1e-10, "max_rank {max_rank:?}");
        assert!(r.v.orthogonality_error() < 1e-10, "max_rank {max_rank:?}");
        let av = lra::sparse::spmm_dense(&a, &r.v, Parallelism::SEQ);
        let utav = matmul_tn(&r.u, &av, Parallelism::SEQ);
        assert!(utav.max_abs_diff(&r.b) < 1e-8, "max_rank {max_rank:?}");
        // The indicator is the Frobenius identity of the returned B
        // (squared: at full rank both sides are round-off).
        let identity = a.fro_norm_sq() - r.b.fro_norm_sq();
        let gap = (r.indicator.powi(2) - identity).abs();
        assert!(
            gap < 1e-12 * a.fro_norm_sq(),
            "max_rank {max_rank:?}: {gap:e}"
        );
    }
}

#[test]
fn ubv_comparable_iterations_to_qb_p0() {
    // Table II: RandUBV does roughly the work of RandQB_EI(p=0) per
    // iteration and often needs fewer (here: allow a small slack).
    let a = small_fem();
    let qb = rand_qb_ei(&a, &QbOpts::new(8, 1e-3).with_power(0)).unwrap();
    let ubv = rand_ubv(&a, &UbvOpts::new(8, 1e-3));
    assert!(ubv.converged && qb.converged);
    assert!(
        ubv.iterations <= qb.iterations + 2,
        "ubv {} vs qb(p0) {}",
        ubv.iterations,
        qb.iterations
    );
}

// ---------- Cross-method comparisons (paper shape checks) ----------

#[test]
fn all_methods_agree_on_reachable_quality() {
    let a = small_circuit();
    let tau = 1e-2;
    let qb = rand_qb_ei(&a, &QbOpts::new(8, tau)).unwrap();
    let lu = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
    let il = ilut_crtp(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)));
    let ub = rand_ubv(&a, &UbvOpts::new(8, tau));
    let nf = a.fro_norm();
    for (name, err) in [
        ("qb", qb.exact_error(&a, Parallelism::SEQ)),
        ("lu", lu.exact_error(&a, Parallelism::SEQ)),
        (
            "ilut",
            il.exact_error(&a, Parallelism::SEQ)
                - il.threshold.as_ref().unwrap().dropped_mass_sq.sqrt(),
        ),
        ("ubv", ub.exact_error(&a, Parallelism::SEQ)),
    ] {
        assert!(err < 1.05 * tau * nf, "{name}: {err} vs {}", tau * nf);
    }
}

#[test]
fn timers_populated_for_each_method() {
    use lra::core::KernelId;
    let a = small_fem();
    let qb = rand_qb_ei(&a, &QbOpts::new(8, 1e-2).with_power(1)).unwrap();
    assert!(!qb.timers.get(KernelId::Sketch).is_zero());
    assert!(!qb.timers.get(KernelId::Orth).is_zero());
    assert!(!qb.timers.get(KernelId::PowerIter).is_zero());
    let lu = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-2));
    assert!(!lu.timers.get(KernelId::ColTournament).is_zero());
    assert!(!lu.timers.get(KernelId::RowTournament).is_zero());
    assert!(!lu.timers.get(KernelId::Schur).is_zero());
}
