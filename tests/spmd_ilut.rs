//! Tests for the rank-distributed ILUT_CRTP driver.

use lra::core::{factorize, ilut_crtp, Exec, IlutOpts, LuCrtpOpts, Parallelism};

mod common;
use common::dist;

fn fill_heavy() -> lra::sparse::CscMatrix {
    lra::matgen::with_decay(&lra::matgen::fluid_block(12, 10, 31), 1e-7, 33)
}

#[test]
fn spmd_ilut_converges_with_bounded_error() {
    let a = fill_heavy();
    let tau = 1e-2;
    for np in [1usize, 3, 5] {
        let lu = dist(&a, &LuCrtpOpts::new(8, tau), np);
        let il = dist(&a, &IlutOpts::new(8, tau, lu.iterations.max(1)), np);
        assert!(il.converged, "np={np}: {:?}", il.breakdown);
        let report = il.threshold.as_ref().expect("threshold report");
        let exact = il.exact_error(&a, Parallelism::SEQ);
        let bound = tau * il.a_norm_f + report.dropped_mass_sq.sqrt();
        assert!(exact <= bound * 1.000001, "np={np}: {exact} vs {bound}");
        // Fill-in reduced vs the distributed LU on this matrix.
        assert!(
            il.factor_nnz() <= lu.factor_nnz(),
            "np={np}: ilut {} vs lu {}",
            il.factor_nnz(),
            lu.factor_nnz()
        );
    }
}

#[test]
fn spmd_ilut_ranks_agree_and_drop_identically() {
    let a = fill_heavy();
    let results = lra::comm::run_infallible(4, |ctx| {
        let r = factorize(&a, &IlutOpts::new(8, 1e-2, 4), Exec::Spmd(ctx), None);
        let rep = r.threshold.as_ref().unwrap();
        (
            r.rank,
            r.factor_nnz(),
            rep.dropped,
            rep.mu.to_bits(),
            rep.dropped_mass_sq.to_bits(),
        )
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "ranks diverged in thresholding");
    }
    assert!(results[0].2 > 0, "expected drops on a fill-in heavy matrix");
}

#[test]
fn spmd_ilut_matches_shared_memory_mu() {
    // mu (eq. 24) is determined by tau, |R(1,1)| and nnz(A); the
    // shared-memory and distributed runs must agree on it whenever the
    // first tournament picks the same leading pivot magnitude.
    let a = fill_heavy();
    let shared = ilut_crtp(&a, &IlutOpts::new(8, 1e-2, 4));
    let dist = dist(&a, &IlutOpts::new(8, 1e-2, 4), 3);
    let mu_s = shared.threshold.as_ref().unwrap().mu;
    let mu_d = dist.threshold.as_ref().unwrap().mu;
    // Same formula; |R(1,1)| can differ slightly with merge order.
    assert!(
        (mu_s - mu_d).abs() <= 0.5 * mu_s.max(mu_d),
        "mu mismatch: {mu_s} vs {mu_d}"
    );
}

#[test]
fn spmd_ilut_control_triggers_like_shared() {
    let a = fill_heavy();
    let mut opts = IlutOpts::new(8, 1e-2, 1);
    opts.phi_factor = 1e-12;
    let r = dist(&a, &opts, 4);
    let rep = r.threshold.as_ref().unwrap();
    assert!(rep.control_triggered);
    assert_eq!(rep.mu, 0.0);
    assert_eq!(rep.dropped, 0);
}
