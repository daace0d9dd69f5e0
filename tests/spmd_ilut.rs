//! Tests for the rank-distributed ILUT_CRTP driver.

use lra::core::{factorize, ilut_crtp, Exec, IlutOpts, LuCrtpOpts};

mod common;
use common::{assert_factors_on_rank0_only, assert_fixed_precision, dist};

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
        assert!(il.threshold.is_some(), "np={np}: threshold report");
        assert_fixed_precision(&il, &a, tau, &format!("np={np}"));
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
    let engines: [for<'c> fn(&'c lra::comm::Ctx) -> Exec<'c>; 2] =
        [|c| Exec::Spmd(c), |c| Exec::SpmdReplicated(c)];
    let rank0: Vec<_> = engines
        .into_iter()
        .map(|engine| {
            let results = lra::comm::run_infallible(4, |ctx| {
                factorize(&a, &IlutOpts::new(8, 1e-2, 4), engine(ctx), None)
            });
            // The threshold report is replicated; the factors are rank 0's.
            assert_factors_on_rank0_only(&results, "ilut np=4");
            let r = &results[0];
            let rep = r.threshold.as_ref().unwrap();
            assert!(rep.dropped > 0, "expected drops on a fill-in heavy matrix");
            (
                r.rank,
                r.factor_nnz(),
                rep.dropped,
                rep.mu.to_bits(),
                rep.dropped_mass_sq.to_bits(),
                r.l.fingerprint(),
                r.u.fingerprint(),
            )
        })
        .collect();
    assert_eq!(rank0[0], rank0[1], "sharded and replicated engines differ");
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
