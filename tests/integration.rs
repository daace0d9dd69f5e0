//! Cross-crate integration tests: full pipelines from matrix
//! generation through factorization, I/O round-trips, SPMD tournament
//! consistency with the shared-memory path, and the paper's headline
//! qualitative claims at miniature scale.

use lra::core::{
    ilut_crtp, lu_crtp, rand_qb_ei, rand_ubv, IlutOpts, LuCrtpOpts, Parallelism, QbOpts,
    TournamentTree, UbvOpts,
};
use lra::dense::{min_rank_for_tolerance, singular_values};
use lra::sparse::{read_matrix_market, write_matrix_market};

mod common;
use common::{assert_fixed_precision, ORACLE_ABS_SLACK, ORACLE_FACTOR};

#[test]
fn matrix_market_roundtrip_through_factorization() {
    let a = lra::matgen::with_decay(&lra::matgen::banded(120, 4, 3), 1e-6, 1);
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &a).unwrap();
    let b = read_matrix_market(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(a, b);
    // Factorizations of the round-tripped matrix are identical.
    let ra = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-3));
    let rb = lu_crtp(&b, &LuCrtpOpts::new(8, 1e-3));
    assert_eq!(ra.rank, rb.rank);
    assert_eq!(ra.pivot_cols, rb.pivot_cols);
}

#[test]
fn spmd_tournament_agrees_with_shared_memory_quality() {
    let a = lra::matgen::with_decay(&lra::matgen::circuit(300, 4, 4, 5), 1e-6, 2);
    let k = 8;
    let shared = lra::qrtp::tournament_columns(
        &a,
        None,
        k,
        TournamentTree::Binary,
        Parallelism::new(4),
    );
    let spmd = lra::comm::run_infallible(4, |ctx| {
        lra::qrtp::tournament_columns_spmd(ctx, &a, None, k).selected
    });
    // Different merge orders may pick different columns, but both picks
    // must be comparably independent: compare smallest singular values.
    let d = a.to_dense();
    let sv_shared = singular_values(&d.select_columns(&shared.selected));
    let sv_spmd = singular_values(&d.select_columns(&spmd[0]));
    let q_shared = sv_shared[k - 1];
    let q_spmd = sv_spmd[k - 1];
    assert!(q_spmd > 0.05 * q_shared, "{q_spmd} vs {q_shared}");
}

#[test]
fn minimum_rank_reference_consistent_with_methods() {
    // Figs. 2-3 cross-check: fixed-precision methods need at least the
    // TSVD minimum rank, and overshoot by at most ~one block.
    let a = lra::matgen::with_decay(&lra::matgen::economic(300, 6, 7), 1e-6, 3);
    let sv = singular_values(&a.to_dense());
    let k = 8;
    for tau in [1e-1, 1e-2] {
        let min_rank = min_rank_for_tolerance(&sv, tau);
        let qb = rand_qb_ei(&a, &QbOpts::new(k, tau)).unwrap();
        let lu = lu_crtp(&a, &LuCrtpOpts::new(k, tau));
        assert!(qb.rank >= min_rank, "QB cannot beat the TSVD bound");
        assert!(lu.rank + 1 >= min_rank, "LU cannot beat the TSVD bound");
        // Randomized overshoot stays modest (a couple of blocks).
        assert!(
            qb.rank <= min_rank + 4 * k,
            "tau={tau}: QB rank {} vs min {min_rank}",
            qb.rank
        );
    }
}

#[test]
fn ilut_headline_claim_fill_in_reduced_at_same_quality() {
    // The abstract's claim in miniature: on a fill-in-heavy matrix,
    // ILUT_CRTP reaches the same tolerance with significantly fewer
    // nonzeros than LU_CRTP.
    let a = lra::matgen::with_decay(&lra::matgen::fluid_block(15, 12, 21), 1e-6, 4);
    let tau = 1e-2;
    let lu = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
    let il = ilut_crtp(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)));
    assert!(lu.converged && il.converged);
    let ratio = lu.factor_nnz() as f64 / il.factor_nnz() as f64;
    assert!(ratio > 1.5, "expected nnz reduction, ratio = {ratio:.2}");
    // Same quality: both errors below tau (plus ILUT's bounded drop).
    let e_lu = lu.exact_error(&a, Parallelism::SEQ);
    assert!(e_lu < tau * a.fro_norm());
    assert_fixed_precision(&il, &a, tau, "ilut headline claim");
    // The estimators the stop rules trust (eq. 26 for ILUT_CRTP, eq. 4
    // for RandQB_EI) stay within their documented factor of the truth.
    let qb = rand_qb_ei(&a, &QbOpts::new(8, tau)).unwrap();
    let pairs = [
        ("ilut", il.indicator, il.exact_error(&a, Parallelism::SEQ)),
        ("qb", qb.indicator, qb.exact_error(&a, Parallelism::SEQ)),
    ];
    for (name, est, truth) in pairs {
        let (est, truth) = (est / a.fro_norm(), truth / a.fro_norm());
        assert!(est <= ORACLE_FACTOR * truth + ORACLE_ABS_SLACK, "{name}: {est} vs {truth}");
        assert!(est + ORACLE_ABS_SLACK >= truth / ORACLE_FACTOR, "{name}: {est} vs {truth}");
    }
}

#[test]
fn lucrtp_wins_at_low_accuracy_structure_preserved() {
    // Table II shape: for loose tolerances the deterministic factors
    // are far smaller than the dense randomized representation.
    let a = lra::matgen::with_decay(&lra::matgen::circuit(800, 4, 6, 11), 1e-6, 5);
    let tau = 1e-1;
    let k = 16;
    let lu = lu_crtp(&a, &LuCrtpOpts::new(k, tau));
    let qb = rand_qb_ei(&a, &QbOpts::new(k, tau)).unwrap();
    assert!(lu.converged && qb.converged);
    let dense_cost = qb.rank * (a.rows() + a.cols());
    assert!(
        lu.factor_nnz() < dense_cost,
        "sparse factors ({}) should be below dense cost ({dense_cost})",
        lu.factor_nnz()
    );
}

#[test]
fn ordering_pipeline_is_a_valid_permutation_end_to_end() {
    let a = lra::matgen::with_decay(&lra::matgen::fem2d(15, 14, 9), 1e-5, 6);
    let p = lra::ordering::fill_reducing_order(&a);
    let mut sorted = p.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..a.cols()).collect::<Vec<_>>());
    // Permuted matrix factorizes to the same quality.
    let ap = a.select_columns(&p);
    let r = lu_crtp(&ap, &LuCrtpOpts::new(8, 1e-2));
    assert!(r.converged);
}

#[test]
fn full_pipeline_parallel_speed_sanity() {
    // Not a benchmark — just confirms the parallel path is exercised
    // end-to-end without deadlock across all methods and np values.
    let a = lra::matgen::with_decay(&lra::matgen::economic(400, 8, 13), 1e-6, 7);
    for np in [1, 2, 4] {
        let par = Parallelism::new(np);
        let qb = rand_qb_ei(&a, &QbOpts::new(8, 1e-2).with_par(par)).unwrap();
        let lu = lu_crtp(&a, &LuCrtpOpts::new(8, 1e-2).with_par(par));
        assert!(qb.converged && lu.converged, "np={np}");
    }
}

#[test]
fn suite_fig1_statistics_hold_on_a_sample() {
    // Section VI-A in miniature: across a sample of the 197-matrix
    // suite, ILUT_CRTP error stays below tau*||A||_F (matching its
    // estimator), and thresholding is effective (nnz ratio > 1) on a
    // meaningful fraction.
    let suite = lra::matgen::suite();
    let tau = 1e-6;
    let k = 8;
    let mut effective = 0usize;
    let mut tested = 0usize;
    for tm in suite.iter().step_by(23) {
        let a = &tm.a;
        if a.fro_norm() == 0.0 {
            continue;
        }
        let max_rank = (a.rows().min(a.cols()) / 2).max(k);
        let lu = lu_crtp(a, &LuCrtpOpts::new(k, tau).with_max_rank(max_rank));
        let il = ilut_crtp(a, &{
            let mut o = IlutOpts::new(k, tau, lu.iterations.max(1));
            o.base.max_rank = Some(max_rank);
            o
        });
        tested += 1;
        if lu.converged && il.converged {
            let e = il.exact_error(a, Parallelism::SEQ);
            let bound =
                tau * a.fro_norm() + il.threshold.as_ref().unwrap().dropped_mass_sq.sqrt();
            assert!(e <= bound * 1.01, "{}: {e} vs {bound}", tm.label);
        }
        if lu.factor_nnz() > il.factor_nnz() {
            effective += 1;
        }
        // Table II's iteration columns at a tolerance the indicators
        // resolve: RandUBV needs no more blocks than RandQB_EI p=0, up
        // to the one superdiagonal block its indicator counts an
        // iteration late, and one power iteration never costs blocks.
        let its = |p| rand_qb_ei(a, &QbOpts::new(k, 1e-2).with_power(p)).unwrap().iterations;
        let (ubv, p0, p1) = (rand_ubv(a, &UbvOpts::new(k, 1e-2)).iterations, its(0), its(1));
        assert!(ubv <= p0 + 1, "{}: ubv {ubv} vs p=0 {p0}", tm.label);
        assert!(p1 <= p0, "{}: p=1 {p1} vs p=0 {p0}", tm.label);
    }
    assert!(tested >= 8);
    assert!(
        effective >= 1,
        "thresholding never effective on the sample ({tested} tested)"
    );
}
