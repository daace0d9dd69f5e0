//! Tests for the rank-distributed (SPMD) LU_CRTP driver.

use lra::core::{factorize, lu_crtp, Exec, LuCrtpOpts, Parallelism};

mod common;
use common::dist;

fn test_matrix() -> lra::sparse::CscMatrix {
    lra::matgen::with_decay(&lra::matgen::circuit(250, 4, 4, 17), 1e-7, 19)
}

#[test]
fn spmd_converges_and_meets_tolerance() {
    let a = test_matrix();
    let tau = 1e-3;
    for np in [1usize, 2, 4, 7] {
        let r = dist(&a, &LuCrtpOpts::new(8, tau), np);
        assert!(r.converged, "np={np}: {:?}", r.breakdown);
        let exact = r.exact_error(&a, Parallelism::SEQ);
        assert!(
            exact < tau * r.a_norm_f,
            "np={np}: exact {exact} vs {}",
            tau * r.a_norm_f
        );
        // Indicator equals exact error for LU_CRTP.
        assert!((r.indicator - exact).abs() < 1e-9 * r.a_norm_f, "np={np}");
    }
}

#[test]
fn spmd_all_ranks_return_identical_results() {
    let a = test_matrix();
    let results = lra::comm::run_infallible(4, |ctx| {
        let r = factorize(&a, &LuCrtpOpts::new(8, 1e-2), Exec::Spmd(ctx), None);
        (r.rank, r.pivot_cols, r.indicator.to_bits(), r.l.nnz())
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "ranks disagree");
    }
}

#[test]
fn spmd_single_rank_matches_shared_memory_quality() {
    let a = test_matrix();
    let tau = 1e-2;
    let shared = lu_crtp(&a, &LuCrtpOpts::new(8, tau));
    let dist = dist(&a, &LuCrtpOpts::new(8, tau), 3);
    assert!(shared.converged && dist.converged);
    // Merge orders differ, so pivots may differ; the achieved ranks
    // must be close and both errors in tolerance.
    let diff = shared.rank.abs_diff(dist.rank);
    assert!(diff <= 2 * 8, "ranks far apart: {} vs {}", shared.rank, dist.rank);
}

#[test]
fn spmd_rank_deficient_input() {
    // Exactly rank-5 matrix distributed over more ranks than blocks.
    let sigmas = [4.0, 2.0, 1.0, 0.5, 0.25];
    let a = lra::matgen::spectrum(90, 80, &sigmas, 8, 23);
    let r = dist(&a, &LuCrtpOpts::new(4, 1e-9), 6);
    assert!(r.converged, "{:?}", r.breakdown);
    assert!(r.rank <= 12, "rank {} for rank-5 input", r.rank);
}

#[test]
fn spmd_factor_structure_valid() {
    let a = test_matrix();
    let r = dist(&a, &LuCrtpOpts::new(8, 1e-2), 4);
    assert_eq!(r.l.cols(), r.rank);
    assert_eq!(r.u.rows(), r.rank);
    for (j, &pr) in r.pivot_rows.iter().enumerate() {
        assert!((r.l.get(pr, j) - 1.0).abs() < 1e-14);
    }
    let mut cols = r.pivot_cols.clone();
    cols.sort_unstable();
    cols.dedup();
    assert_eq!(cols.len(), r.rank);
}
